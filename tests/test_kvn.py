from fractions import Fraction

import pytest

from kvnsim.kvn import (
    ClassicalHamiltonian,
    DegreeError,
    KvNHamiltonian,
    KvNTerm,
    SeparationError,
    build_kvn,
    validate_separation,
)
from kvnsim.phasepoly import PhasePolynomial, parse_polynomial, poisson_bracket
from kvnsim.weyl import WeylPolynomial
from test_weyl import adjoint


def term_to_weyl(term: KvNTerm) -> WeylPolynomial:
    """sign * factor(X) * P_mode as a Weyl-ordered operator."""
    op = WeylPolynomial.from_position_polynomial(term.factor)
    return op * WeylPolynomial.p(term.num_modes, term.mode) * Fraction(term.sign)


def kvn_to_weyl(k: KvNHamiltonian) -> WeylPolynomial:
    out = WeylPolynomial.zero(k.num_modes)
    for t in k.terms:
        out = out + term_to_weyl(t)
    return out


def kvn_from_liouvillian(h: ClassicalHamiltonian) -> WeylPolynomial:
    """Build i L directly as an operator, bypassing the term bookkeeping.

    Substitutes d/dx_k = i P_k into L; used to cross-check build_kvn.
    """
    m = h.num_vars
    total = h.total()
    out = WeylPolynomial.zero(m)
    for j in range(h.n):
        dv = WeylPolynomial.from_position_polynomial(total.partial_derivative(j))
        dt = WeylPolynomial.from_position_polynomial(total.partial_derivative(h.n + j))
        # i L = i ( dH/dx_j (i P_{n+j}) - dH/dx_{n+j} (i P_j) )
        out = out - dv * WeylPolynomial.p(m, h.n + j)
        out = out + dt * WeylPolynomial.p(m, j)
    return out


def ho(m=1, omega=1):
    # H = x2^2/(2m) + m omega^2 x1^2 / 2
    return validate_separation(
        PhasePolynomial(
            2,
            {
                (0, 2): Fraction(1, 2 * m),
                (2, 0): Fraction(m * omega ** 2, 2),
            },
        ),
        1,
    )


def quartic():
    return validate_separation(
        parse_polynomial("1/2 * x2^2 + 1/2 * x1^2 + 1/40 * x1^4", 2), 1
    )


class TestValidateSeparation:
    def test_cross_term_rejected_with_monomial_named(self):
        with pytest.raises(SeparationError, match="x1 \\* x2"):
            validate_separation(PhasePolynomial(2, {(1, 1): 1}), 1)

    def test_clean_split(self):
        h = validate_separation(PhasePolynomial(2, {(2, 0): 1, (0, 2): 1}), 1)
        assert h.V == PhasePolynomial(2, {(2, 0): 1})
        assert h.T == PhasePolynomial(2, {(0, 2): 1})

    def test_parameterized_oscillator(self):
        # m = 2, omega = 3: V = 9 x1^2, T = x2^2 / 4
        h = ho(m=2, omega=3)
        assert h.V == PhasePolynomial(2, {(2, 0): 9})
        assert h.T == PhasePolynomial(2, {(0, 2): Fraction(1, 4)})

    def test_constants_assigned_to_v(self):
        h = validate_separation(PhasePolynomial(2, {(0, 0): 5, (0, 2): 1}), 1)
        assert h.V.coefficient((0, 0)) == 5

    def test_degree_five_rejected(self):
        with pytest.raises(DegreeError, match="degree"):
            validate_separation(PhasePolynomial(2, {(5, 0): 1}), 1)

    def test_wrong_variable_count(self):
        with pytest.raises(ValueError, match="variables"):
            validate_separation(PhasePolynomial(2, {(2, 0): 1}), 2)


class TestBuildKvn:
    def test_harmonic_oscillator_terms(self):
        # H_KvN = (1/m) X2 P1 - m omega^2 X1 P2 at m = omega = 1
        k = build_kvn(ho())
        assert len(k.terms) == 2
        t_term, v_term = k.terms
        assert t_term.sign == 1 and t_term.mode == 0
        assert t_term.factor == PhasePolynomial.variable(2, 1)
        assert v_term.sign == -1 and v_term.mode == 1
        assert v_term.factor == PhasePolynomial.variable(2, 0)

    def test_kinetic_only_has_no_momentum_block_terms(self):
        h = validate_separation(PhasePolynomial(2, {(0, 2): Fraction(1, 2)}), 1)
        k = build_kvn(h)
        assert all(t.mode == 0 for t in k.terms)

    def test_quartic_oscillator_terms(self):
        k = build_kvn(quartic())
        expected = {
            (1, PhasePolynomial.variable(2, 1), 0),
            (-1, PhasePolynomial(2, {(1, 0): 1}), 1),
            (-1, PhasePolynomial(2, {(3, 0): Fraction(1, 10)}), 1),
        }
        assert {(t.sign, t.factor, t.mode) for t in k.terms} == expected

    def test_constant_hamiltonian_part_drops_out(self):
        h = validate_separation(PhasePolynomial(2, {(0, 0): 7, (0, 2): 1}), 1)
        k = build_kvn(h)
        assert all(not t.factor.is_zero for t in k.terms)
        assert len(k.terms) == 1

    def test_roundtrip_matches_liouvillian_operator(self):
        for h in (ho(), ho(m=2, omega=3), quartic()):
            assert kvn_to_weyl(build_kvn(h)) == kvn_from_liouvillian(h)

    def test_roundtrip_two_degrees_of_freedom(self):
        text = "1/2 * x3^2 + 1/2 * x4^2 + x1^2 + 2 * x2^2 + 1/4 * x1^2 * x2^2"
        h = validate_separation(parse_polynomial(text, 4), 2)
        k = build_kvn(h)
        assert kvn_to_weyl(k) == kvn_from_liouvillian(h)

    def test_formally_self_adjoint(self):
        for h in (ho(), quartic()):
            op = kvn_to_weyl(build_kvn(h))
            assert adjoint(op) == op

    def test_generators_belong_to_catalog(self):
        # factor exponent patterns up to relabeling: degree <= 3 monomials
        catalog = {(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)}
        text = "x5^2 + 1/6 * x4^3 + x4 * x5 * x6 + x1^2 * x2 + x3"
        h = validate_separation(parse_polynomial(text, 6), 3)
        for term in build_kvn(h).terms:
            (expo, _), = term.factor.sorted_terms()
            pattern = tuple(sorted((e for e in expo if e), reverse=True))
            assert pattern in catalog

    def test_is_quadratic(self):
        assert build_kvn(ho()).is_quadratic()
        assert not build_kvn(quartic()).is_quadratic()

    def test_dump_format(self):
        lines = build_kvn(ho()).dump().splitlines()
        assert lines == ["+ (x2) P0", "- (x1) P1"]


class TestLiouvillianApply:
    def test_position_transport_sign(self):
        # L = x1 d/dx2 - x2 d/dx1 for the unit oscillator: L[x1] = -x2
        result = poisson_bracket(ho().total(), PhasePolynomial.variable(2, 0))
        assert result == -PhasePolynomial.variable(2, 1)

    def test_constant_annihilated(self):
        assert poisson_bracket(ho().total(), PhasePolynomial.constant(2, 3)).is_zero

    def test_energy_conserved(self):
        # L[x1^2 + x2^2] = 0
        f = PhasePolynomial(2, {(2, 0): 1, (0, 2): 1})
        assert poisson_bracket(ho().total(), f).is_zero

    def test_annihilates_hamiltonian_itself(self):
        for h in (ho(), ho(m=2, omega=3), quartic()):
            assert poisson_bracket(h.total(), h.total()).is_zero

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            poisson_bracket(ho().total(), PhasePolynomial.variable(4, 0))


class TestKvNTermValidation:
    def test_mode_in_factor_support_rejected(self):
        with pytest.raises(ValueError, match="own quadrature"):
            KvNTerm(factor=PhasePolynomial.variable(2, 0), mode=0, sign=1)

    def test_degree_bound(self):
        with pytest.raises(DegreeError):
            KvNTerm(factor=PhasePolynomial(2, {(0, 4): 1}), mode=0, sign=1)

    def test_sign_values(self):
        with pytest.raises(ValueError, match="sign"):
            KvNTerm(factor=PhasePolynomial.variable(2, 1), mode=0, sign=2)

    def test_block_separation_flag(self):
        good = KvNTerm(factor=PhasePolynomial.variable(2, 1), mode=0, sign=1)
        assert good.is_block_separated()
        crossed = KvNTerm(
            factor=PhasePolynomial.variable(4, 1), mode=0, sign=1
        )  # factor in the same (position) block as mode 0
        assert not crossed.is_block_separated()

    def test_hamiltonian_rejects_unseparated_terms(self):
        crossed = KvNTerm(factor=PhasePolynomial.variable(4, 1), mode=0, sign=1)
        with pytest.raises(SeparationError):
            KvNHamiltonian(n=2, terms=(crossed,))

    def test_term_weyl_form(self):
        term = KvNTerm(factor=PhasePolynomial.variable(2, 1), mode=0, sign=-1)
        expected = -(WeylPolynomial.x(2, 1) * WeylPolynomial.p(2, 0))
        assert term_to_weyl(term) == expected


class TestClassicalHamiltonianValidation:
    def test_v_with_momentum_support_rejected(self):
        with pytest.raises(SeparationError):
            ClassicalHamiltonian(
                n=1,
                V=PhasePolynomial.variable(2, 1),
                T=PhasePolynomial.zero(2),
            )

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ValueError):
            ClassicalHamiltonian(
                n=0, V=PhasePolynomial.zero(0 or 2), T=PhasePolynomial.zero(2)
            )
