import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvnsim.expansion import admissible_exponent_triples
from kvnsim.phasepoly import PhasePolynomial, poisson_bracket
from kvnsim.weyl import (
    ONE,
    ComplexRational,
    I,
    NonTerminatingAdjointError,
    WeylPolynomial,
    _reorder_px,
    adjoint_series,
    commutator,
    verify_key_decomposition,
    verify_liouvillian_product_rule,
)

X = WeylPolynomial.x
P = WeylPolynomial.p


def adjoint(op: WeylPolynomial) -> WeylPolynomial:
    """Hermitian adjoint: conjugate coefficients, reverse operator order,
    then re-normal-order (X and P are self-adjoint)."""
    m = op.num_modes
    out = WeylPolynomial.zero(m)
    for expo, coeff in op.terms.items():
        term = WeylPolynomial.constant(m, coeff.conjugate())
        for mode in range(m):
            if expo[m + mode]:
                term = term * P(m, mode) ** expo[m + mode]
            if expo[mode]:
                term = term * X(m, mode) ** expo[mode]
        out = out + term
    return out


def random_weyl(rng, num_modes, degree, num_terms=4):
    terms = {}
    for _ in range(num_terms):
        expo = [0] * (2 * num_modes)
        for _ in range(rng.randint(0, degree)):
            mode, quadrature = rng.randrange(num_modes), rng.randrange(2)
            expo[quadrature * num_modes + mode] += 1
        terms[tuple(expo)] = ComplexRational(
            Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        )
    return WeylPolynomial(num_modes, terms)


class TestComplexRational:
    def test_imaginary_unit_squares_to_minus_one(self):
        assert I * I == ComplexRational(Fraction(-1))

    def test_conjugate(self):
        z = ComplexRational(Fraction(2), Fraction(-3))
        assert z.conjugate() == ComplexRational(Fraction(2), Fraction(3))

    def test_exact_division(self):
        z = ComplexRational(Fraction(1), Fraction(1)) / 3
        assert z == ComplexRational(Fraction(1, 3), Fraction(1, 3))

    def test_scalar_coercion_on_either_side(self):
        # int and Fraction combine from the left and the right; a polynomial
        # on the right takes over the product; other types stay rejected
        assert ONE + 1 == 1 + ONE == ComplexRational(Fraction(2))
        assert ONE - Fraction(1, 2) == ComplexRational(Fraction(1, 2))
        assert 2 - I == ComplexRational(Fraction(2), Fraction(-1))
        assert Fraction(1, 3) * I == I * Fraction(1, 3) == ComplexRational(im=Fraction(1, 3))
        assert I * X(1, 0) == X(1, 0) * I
        with pytest.raises(TypeError):
            ComplexRational.coerce(0.5)
        with pytest.raises(TypeError):
            ONE * 0.5
        with pytest.raises(TypeError):
            ONE + 0.5


# Zero parts come up often, so that purely real and purely imaginary
# factors (the short paths of the product) are well covered.
PARTS = st.just(Fraction(0)) | st.fractions(max_denominator=60)
GAUSSIAN_RATIONALS = st.builds(ComplexRational, PARTS, PARTS)


def full_product(a, b, c, d):
    """(a + b i)(c + d i) by the four-product formula."""
    return ComplexRational(a * c - b * d, a * d + b * c)


class TestComplexRationalProduct:
    @given(GAUSSIAN_RATIONALS, GAUSSIAN_RATIONALS)
    def test_matches_four_product_formula(self, z, w):
        assert z * w == full_product(z.re, z.im, w.re, w.im)

    @given(GAUSSIAN_RATIONALS, PARTS | st.integers(-50, 50))
    def test_scalar_on_either_side(self, z, k):
        expected = full_product(z.re, z.im, Fraction(k), Fraction(0))
        assert z * k == expected and k * z == expected


def normal_ordered_px(a, b):
    """P^b X^a in normal order by the recursion P X^i = X^i P - i i X^(i-1),
    applying one P from the left at a time; {(i, j): c} means c X^i P^j,
    with exact Gaussian-integer coefficients held as Python complex."""
    terms = {(a, 0): 1 + 0j}
    for _ in range(b):
        nxt = {}
        for (i, j), c in terms.items():
            nxt[i, j + 1] = nxt.get((i, j + 1), 0) + c
            if i:
                nxt[i - 1, j] = nxt.get((i - 1, j), 0) - 1j * i * c
        terms = {key: c for key, c in nxt.items() if c}
    return terms


class TestReorder:
    @pytest.mark.parametrize("a", range(7))
    @pytest.mark.parametrize("b", range(7))
    def test_matches_commutator_recursion(self, a, b):
        table = _reorder_px(a, b)
        assert isinstance(table, tuple) and _reorder_px(a, b) is table
        got = {key: complex(float(c.re), float(c.im)) for key, c in table}
        assert len(got) == len(table)
        assert got == normal_ordered_px(a, b)


class TestWeylMul:
    def test_single_exchange(self):
        # P1 X1 = X1 P1 - i
        result = P(2, 0) * X(2, 0)
        expected = X(2, 0) * P(2, 0) - WeylPolynomial.constant(2, I)
        assert result == expected

    def test_already_ordered(self):
        assert X(2, 0) * X(2, 1) == WeylPolynomial(
            2, {(1, 1, 0, 0): ComplexRational(Fraction(1))}
        )

    def test_repeated_commutation(self):
        # oracle: apply P X = X P - i twice to P1 X1^2
        #   P X^2 = (X P - i) X = X (X P - i) - i X = X^2 P - 2 i X
        result = P(2, 0) * (X(2, 0) ** 2)
        expected = (X(2, 0) ** 2) * P(2, 0) - (X(2, 0) * (2 * I))
        assert result == expected

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError, match="mode-count mismatch"):
            X(2, 0) * X(3, 0)

    def test_associativity_random(self):
        rng = random.Random(17)
        for _ in range(12):
            a = random_weyl(rng, 2, 2)
            b = random_weyl(rng, 2, 2)
            c = random_weyl(rng, 2, 2)
            assert (a * b) * c == a * (b * c)

    def test_disjoint_modes_agree_with_commuting_product(self):
        # operands on disjoint quadratures multiply like plain polynomials
        p1 = PhasePolynomial(2, {(2, 0): Fraction(3), (1, 0): Fraction(-1)})
        p2 = PhasePolynomial(2, {(0, 1): Fraction(2), (0, 3): Fraction(1, 2)})
        a = WeylPolynomial.from_position_polynomial(p1)
        b = WeylPolynomial.from_position_polynomial(p2)
        assert a * b == WeylPolynomial.from_position_polynomial(p1 * p2)
        assert a * b == b * a


class TestTypeBoundary:
    # PhasePolynomial.zero(4) and WeylPolynomial.zero(2) share num_vars and
    # (empty) terms; the shared container must still keep them apart.
    PAIRS = [
        (PhasePolynomial.zero(4), WeylPolynomial.zero(2)),
        (PhasePolynomial.constant(4, 1), WeylPolynomial.constant(2, 1)),
        (PhasePolynomial.variable(4, 0), X(2, 0)),
    ]

    @pytest.mark.parametrize("classical, operator", PAIRS)
    def test_classical_and_operator_never_mix(self, classical, operator):
        assert classical.num_vars == operator.num_vars
        assert classical.terms == {e: c.re for e, c in operator.terms.items()}
        for a, b in ((classical, operator), (operator, classical)):
            assert a != b
            assert not a == b
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b
            with pytest.raises(TypeError):
                a * b


class TestCommutator:
    def test_canonical_pair(self):
        assert commutator(X(1, 0), P(1, 0)) == WeylPolynomial.constant(1, I)

    def test_shift_generator_on_cube(self):
        # [i P1 X2, X1^a] = a X1^(a-1) X2 with a = 3
        a_op = (X(2, 1) * P(2, 0)) * I
        expected = (X(2, 0) ** 2) * X(2, 1) * 3
        assert commutator(a_op, X(2, 0) ** 3) == expected

    def test_nested_shift_generator(self):
        # [i P1 X2, [i P1 X2, X1^3]] = 3*2 X1 X2^2
        a_op = (X(2, 1) * P(2, 0)) * I
        nested = commutator(a_op, commutator(a_op, X(2, 0) ** 3))
        assert nested == X(2, 0) * (X(2, 1) ** 2) * 6

    def test_disjoint_modes_commute(self):
        rng = random.Random(23)
        for _ in range(10):
            a = random_weyl(rng, 3, 2)
            only_mode2 = WeylPolynomial(
                3,
                {
                    (0, 0, 1, 0, 0, 1): ComplexRational(Fraction(2)),
                    (0, 0, 0, 0, 0, 2): ComplexRational(Fraction(1), Fraction(1)),
                },
            )
            a_modes01 = WeylPolynomial(
                3,
                {
                    k: v
                    for k, v in a.terms.items()
                    if k[2] == k[5] == 0
                },
            )
            assert commutator(a_modes01, only_mode2).is_zero

    def test_jacobi_identity_random(self):
        rng = random.Random(31)
        for _ in range(10):
            a = random_weyl(rng, 2, 3, num_terms=3)
            b = random_weyl(rng, 2, 3, num_terms=3)
            c = random_weyl(rng, 2, 3, num_terms=3)
            total = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            assert total.is_zero

    def test_antisymmetry_and_bilinearity(self):
        rng = random.Random(37)
        a = random_weyl(rng, 2, 2)
        b = random_weyl(rng, 2, 2)
        c = random_weyl(rng, 2, 2)
        assert commutator(a, b) == -commutator(b, a)
        assert commutator(a + b, c) == commutator(a, c) + commutator(b, c)


class TestAdjointSeries:
    def test_linear_shift(self):
        a_op = (X(2, 1) * P(2, 0)) * I
        result, depth = adjoint_series(a_op, X(2, 0))
        assert result == X(2, 0) + X(2, 1)
        assert depth == 1

    def test_cubic_shift(self):
        # e^{i P1 X2} X1^3 e^{-i P1 X2} = (X1 + X2)^3
        a_op = (X(2, 1) * P(2, 0)) * I
        result, depth = adjoint_series(a_op, X(2, 0) ** 3)
        assert result == (X(2, 0) + X(2, 1)) ** 3
        assert depth == 3

    def test_identity_conjugation(self):
        b = X(2, 0) ** 2 + P(2, 1)
        result, depth = adjoint_series(WeylPolynomial.zero(2), b)
        assert result == b
        assert depth == 0

    def test_cascade_terminates_at_degree_plus_one(self):
        # the (a+1)th commutator vanishes; depth equals a
        a_op = (X(2, 1) * P(2, 0)) * I
        for a in (1, 2, 3, 4):
            _, depth = adjoint_series(a_op, X(2, 0) ** a)
            assert depth == a

    def test_non_terminating_reported(self):
        rotation = (X(1, 0) ** 2 + P(1, 0) ** 2) * I
        with pytest.raises(NonTerminatingAdjointError):
            adjoint_series(rotation, X(1, 0), max_depth=12)

    def test_algebra_morphism_on_terminating_instances(self):
        a_op = (X(2, 1) * P(2, 0)) * I
        b = X(2, 0) ** 2
        c = X(2, 0) * X(2, 1)
        cb, _ = adjoint_series(a_op, b)
        cc, _ = adjoint_series(a_op, c)
        cbc, _ = adjoint_series(a_op, b * c)
        assert cbc == cb * cc


class TestAdjoint:
    def test_hermitian_generator(self):
        # X2 P1 is Hermitian because the factors commute
        op = X(2, 1) * P(2, 0)
        assert adjoint(op) == op

    def test_xp_same_mode(self):
        # (X1 P1)^dag = P1 X1 = X1 P1 - i
        op = X(1, 0) * P(1, 0)
        assert adjoint(op) == op - WeylPolynomial.constant(1, I)

    def test_involution(self):
        rng = random.Random(41)
        for _ in range(10):
            a = random_weyl(rng, 2, 3)
            assert adjoint(adjoint(a)) == a

    def test_antihomomorphism(self):
        rng = random.Random(43)
        a = random_weyl(rng, 2, 2)
        b = random_weyl(rng, 2, 2)
        assert adjoint(a * b) == adjoint(b) * adjoint(a)


class TestKeyDecomposition:
    @pytest.mark.parametrize("triple", admissible_exponent_triples())
    def test_all_catalog_triples_verify(self, triple):
        proof = verify_key_decomposition(*triple)
        assert proof.passed, proof.to_text()

    def test_quadratic_case_shape(self):
        proof = verify_key_decomposition(1, 0, 0)
        assert proof.passed
        assert len(proof.checks) == 2
        assert all(c.depth == 2 for c in proof.checks)

    def test_cubic_case_has_uncoupled_middle_term(self):
        proof = verify_key_decomposition(2, 0, 0)
        assert proof.passed
        assert len(proof.checks) == 3
        weights = [c.weights for c in proof.checks]
        assert (1, 0, 0, 0) in weights  # h2 = 0: no conjugation, depth 0
        middle = next(c for c in proof.checks if c.weights == (1, 0, 0, 0))
        assert middle.depth == 0

    def test_full_quartic_case(self):
        proof = verify_key_decomposition(1, 1, 1)
        assert proof.passed
        assert len(proof.checks) == 8
        assert all(c.depth == 4 for c in proof.checks)

    def test_report_text_lists_each_identity(self):
        text = verify_key_decomposition(1, 0, 0).to_text()
        assert text.count("PASS") == 3  # two conjugations + the sum line
        assert "FAIL" not in text

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError, match="degree"):
            verify_key_decomposition(3, 1, 0)
        with pytest.raises(ValueError, match="degree"):
            verify_key_decomposition(0, 0, 0)

    def test_permuted_triples_also_verify(self):
        for triple in [(0, 1, 0), (0, 0, 2), (1, 0, 2)]:
            assert verify_key_decomposition(*triple).passed


class TestLiouvillianProductRule:
    def test_harmonic_oscillator_pair(self):
        h = PhasePolynomial(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})
        f = PhasePolynomial.variable(2, 0)
        g = PhasePolynomial.variable(2, 1)
        assert verify_liouvillian_product_rule(h, f, g)

    def test_constant_factor(self):
        h = PhasePolynomial(2, {(2, 0): 1, (0, 2): 1})
        one = PhasePolynomial.constant(2, 1)
        g = PhasePolynomial(2, {(3, 1): 2, (0, 2): -1})
        assert poisson_bracket(h, one).is_zero
        assert verify_liouvillian_product_rule(h, one, g)

    def test_zero_hamiltonian(self):
        h = PhasePolynomial.zero(2)
        f = PhasePolynomial(2, {(1, 1): 1})
        g = PhasePolynomial(2, {(2, 0): 3})
        assert verify_liouvillian_product_rule(h, f, g)

    def test_random_battery(self):
        rng = random.Random(53)

        def rand_poly(nv):
            terms = {}
            for _ in range(4):
                expo = [0] * nv
                for _ in range(rng.randint(0, 3)):
                    expo[rng.randrange(nv)] += 1
                terms[tuple(expo)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return PhasePolynomial(nv, terms)

        for n in (1, 2, 3):
            for _ in range(8):
                assert verify_liouvillian_product_rule(
                    rand_poly(2 * n), rand_poly(2 * n), rand_poly(2 * n)
                )
