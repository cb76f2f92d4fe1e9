import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvnsim.phasepoly import (
    PhasePolynomial,
    format_polynomial,
    parse_polynomial,
    poisson_bracket,
)


def var(n, i):
    return PhasePolynomial.variable(n, i)


def random_poly(rng, num_vars, degree, num_terms=5):
    terms = {}
    for _ in range(num_terms):
        expo = [0] * num_vars
        for _ in range(rng.randint(0, degree)):
            expo[rng.randrange(num_vars)] += 1
        terms[tuple(expo)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return PhasePolynomial(num_vars, terms)


class TestAdd:
    def test_additive_inverse(self):
        x1 = var(2, 0)
        assert (x1 + (-x1)).is_zero

    def test_disjoint_supports(self):
        p = Fraction(1, 2) * var(2, 0) ** 2
        q = Fraction(1, 2) * var(2, 1) ** 2
        s = p + q
        assert s.coefficient((2, 0)) == Fraction(1, 2)
        assert s.coefficient((0, 2)) == Fraction(1, 2)
        assert len(s.terms) == 2

    def test_coefficient_merge(self):
        xy = var(2, 0) * var(2, 1)
        assert (xy + xy).coefficient((1, 1)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            var(2, 0) + var(4, 0)


class TestMul:
    def test_difference_of_squares(self):
        x1, x2 = var(2, 0), var(2, 1)
        assert (x1 + x2) * (x1 - x2) == x1 ** 2 - x2 ** 2

    def test_zero_annihilates(self):
        p = var(2, 0) + 3 * var(2, 1)
        assert (PhasePolynomial.zero(2) * p).is_zero
        # scaling by 0 drops every term rather than keeping zero coefficients
        assert (p * 0).is_zero and (Fraction(0) * p).is_zero

    def test_cube_against_binomial_theorem(self):
        # independent oracle: (x1 + 2 x2)^3 = sum_k C(3,k) x1^(3-k) (2 x2)^k
        x1, x2 = var(2, 0), var(2, 1)
        cube = (x1 + 2 * x2) ** 3
        expected = {}
        for k in range(4):
            expected[(3 - k, k)] = Fraction(math.comb(3, k) * 2 ** k)
        assert cube.terms == expected
        assert cube == PhasePolynomial(2, {(3, 0): 1, (2, 1): 6, (1, 2): 12, (0, 3): 8})

    def test_degree_additive(self):
        rng = random.Random(7)
        for _ in range(20):
            p = random_poly(rng, 3, 3)
            q = random_poly(rng, 3, 2)
            if p.is_zero or q.is_zero:
                continue
            assert (p * q).degree() == p.degree() + q.degree()


class TestPartialDerivative:
    def test_power_rule(self):
        x1 = var(2, 0)
        assert (x1 ** 2).partial_derivative(0) == 2 * x1

    def test_kinetic_gradient(self):
        # T = x2^2 / (2m) with m = 1
        t = Fraction(1, 2) * var(2, 1) ** 2
        assert t.partial_derivative(1) == var(2, 1)

    def test_anharmonic_gradient_against_term_by_term_oracle(self):
        # V = x1^2/2 + (1/10) x1^4/4; oracle applies the power rule per term
        v = PhasePolynomial(2, {(2, 0): Fraction(1, 2), (4, 0): Fraction(1, 40)})
        oracle = {}
        for expo, coeff in v.terms.items():
            e = expo[0]
            oracle[(e - 1, 0)] = coeff * e
        assert v.partial_derivative(0).terms == oracle
        assert v.partial_derivative(0) == var(2, 0) + Fraction(1, 10) * var(2, 0) ** 3

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            var(2, 0).partial_derivative(2)

    def test_mixed_partials_commute_exactly(self):
        rng = random.Random(123)
        for _ in range(30):
            p = random_poly(rng, 4, 4)
            for i in range(4):
                for j in range(i + 1, 4):
                    ij = p.partial_derivative(i).partial_derivative(j)
                    ji = p.partial_derivative(j).partial_derivative(i)
                    assert ij.terms == ji.terms


def exact_value(p, point):
    """p at a point, in Fraction arithmetic on the exact value of each
    (integer or float) coordinate."""
    xs = [Fraction(v) for v in point]
    return sum(c * math.prod(x ** e for x, e in zip(xs, expo)) for expo, c in p.terms.items())


class TestEvaluate:
    def test_product_point(self):
        assert float((var(2, 0) * var(2, 1)).evaluate_array([3.0, 4.0])) == pytest.approx(12.0)

    def test_origin(self):
        p = var(2, 0) ** 2 + var(2, 1) ** 2
        out = p.evaluate_array([0.0, 0.0])
        assert out.shape == () and out == 0.0

    def test_against_direct_term_summation(self):
        p = var(1, 0) + var(1, 0) ** 3
        assert float(p.evaluate_array([2.0])) == pytest.approx(10.0, rel=1e-12)
        rng = random.Random(5)
        for _ in range(50):
            q = random_poly(rng, 3, 4)
            point = [rng.uniform(-2, 2) for _ in range(3)]
            direct = sum(
                float(c) * math.prod(point[i] ** e for i, e in enumerate(expo))
                for expo, c in q.terms.items()
            )
            assert float(q.evaluate_array(point)) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_result_spans_only_the_support(self):
        # x1 * x3 on a grid's per-axis views keeps size 1 along x2 and x4,
        # and equals the full broadcast of the same evaluation
        p = parse_polynomial("x1 * x3 - 1/2 * x3^2 + 3", 4)
        xs = np.linspace(-2.0, 2.0, 5)
        views = [xs.reshape([5 if i == j else 1 for i in range(4)]) for j in range(4)]
        out = p.evaluate_array(views)
        assert out.shape == (5, 1, 5, 1)
        mesh = np.stack(np.meshgrid(*[xs] * 4, indexing="ij"))
        assert np.array_equal(np.broadcast_to(out, (5,) * 4), p.evaluate_array(mesh))
        assert PhasePolynomial.constant(4, 3).evaluate_array(views).shape == ()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            var(2, 0).evaluate_array([1.0])

    @pytest.mark.parametrize(
        "pts",
        [
            np.array([[1, -2], [2, 3], [0, 0]]),
            np.array([[0.5, -1.5], [2.0, 0.25], [0.0, 0.0]]),
            np.array([[0.5 + 0.25j, -1.5], [2.0, 0.25 - 1j], [0.0, 0.0]]),
        ],
        ids=["int", "float", "complex"],
    )
    def test_evaluate_array_matches_scalar(self, pts):
        # integer input must not truncate; complex input must stay complex
        rng = random.Random(11)
        p = random_poly(rng, 2, 3)
        out = p.evaluate_array(pts.T)
        assert out.dtype == np.result_type(pts.dtype, float)
        for row, val in zip(pts, out):
            if np.iscomplexobj(row):
                expected = sum(
                    float(c) * math.prod(complex(v) ** e for v, e in zip(row, expo))
                    for expo, c in p.terms.items()
                )
            else:
                expected = float(exact_value(p, row))
            assert val == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(st.data())
    def test_evaluate_array_matches_evaluate_property(self, data):
        # random polynomials of degree <= 5 in up to 4 variables
        num_vars = data.draw(st.integers(1, 4))
        monomial = st.lists(st.integers(0, num_vars - 1), max_size=5).map(
            lambda factors: tuple(factors.count(i) for i in range(num_vars))
        )
        coeff = st.fractions(min_value=-10, max_value=10, max_denominator=12)
        p = PhasePolynomial(num_vars, data.draw(st.dictionaries(monomial, coeff, max_size=8)))
        coord = st.floats(-2.0, 2.0, allow_nan=False)
        rows = data.draw(
            st.lists(st.lists(coord, min_size=num_vars, max_size=num_vars), min_size=1, max_size=6)
        )
        pts = np.array(rows, dtype=float)
        out = p.evaluate_array(pts.T)
        # the points' axis is there only when some variable appears
        assert out.shape == ((len(rows),) if p.support() else ())
        for row, val in zip(rows, np.broadcast_to(out, (len(rows),))):
            scale = sum(
                abs(float(c)) * math.prod(abs(v) ** e for v, e in zip(row, expo))
                for expo, c in p.terms.items()
            )
            # plus an underflow floor: powers below the normal range lose
            # their relative precision
            error = abs(Fraction(float(val)) - exact_value(p, row))
            assert error <= 1e-12 * scale + np.finfo(float).tiny

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_term_sum_from_zeros_bitwise(self, dtype):
        # the plain path: every term's power times its coefficient, summed
        # into zeros in term order; signed zeros, infinities and NaNs too
        def plain(p, coords):
            shape = np.broadcast_shapes(*(np.shape(coords[i]) for i in p.support()))
            out = np.zeros(shape, dtype=dtype)
            for expo, coeff in p.terms.items():
                term = float(coeff)
                for x, e in zip(coords, expo):
                    if e:
                        power = np.asarray(x, dtype=dtype)
                        for _ in range(e - 1):
                            power = power * np.asarray(x, dtype=dtype)
                        term = term * power
                out += term
            return out

        special = [0.0, -0.0, 1.0, -1.5, 2.0 ** -540, 1e200, np.inf, -np.inf, np.nan]
        values = np.zeros(len(special), dtype=dtype)
        values.real = special
        if dtype is complex:
            values.imag = special[::-1]
        coords = [values, np.roll(values, 3)]
        for text in ("x1 + 1/10 * x1^3", "x2", "-x1", "x1^2 * x2 - 3 + x2", "7", "1/2 * x1^2"):
            p = parse_polynomial(text, 2)
            with np.errstate(all="ignore"):
                assert p.evaluate_array(coords).tobytes() == plain(p, coords).tobytes(), text

    def test_axis_views_match_mesh_bitwise(self):
        # a grid's broadcast per-axis views and its materialised mesh give
        # the same values, in the broadcast shape
        p = parse_polynomial("1/3 * x1^3 * x2 - 2 * x2^2 * x3 + 5/7 * x3^4 + 1/2", 3)
        xs = np.linspace(-2.0, 2.0, 5)
        views = [xs.reshape(5, 1, 1), xs.reshape(1, 5, 1), xs.reshape(1, 1, 5)]
        mesh = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1)
        out = p.evaluate_array(views)
        assert out.shape == (5, 5, 5)
        assert np.array_equal(out, p.evaluate_array(np.moveaxis(mesh, -1, 0)))


def test_mul_evaluate_consistency_random():
    # evaluate(p*q, x) == evaluate(p,x)*evaluate(q,x) to 1e-10 relative
    rng = random.Random(2024)
    for _ in range(10):
        nv = rng.randint(2, 6)
        p = random_poly(rng, nv, 4)
        q = random_poly(rng, nv, 4)
        prod = p * q
        for _ in range(12):
            x = [rng.uniform(-1.5, 1.5) for _ in range(nv)]
            lhs = float(prod.evaluate_array(x))
            rhs = float(p.evaluate_array(x)) * float(q.evaluate_array(x))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestPoissonBracket:
    def test_canonical_pairs(self):
        # {x1, x2} = 1 for n = 1 (position, conjugate momentum)
        assert poisson_bracket(var(2, 0), var(2, 1)) == PhasePolynomial.constant(2, 1)

    def test_antisymmetry(self):
        rng = random.Random(3)
        p = random_poly(rng, 4, 3)
        q = random_poly(rng, 4, 3)
        assert poisson_bracket(p, q) == -poisson_bracket(q, p)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            poisson_bracket(var(3, 0), var(3, 1))


class TestLiteralFormat:
    def test_spec_example_round_trip(self):
        text = "1/2 * x1^2 + 1/2 * x2^2"
        p = parse_polynomial(text, 2)
        assert format_polynomial(p) == text
        assert parse_polynomial(format_polynomial(p), 2) == p

    def test_canonical_ordering_graded_lex(self):
        p = PhasePolynomial(2, {(0, 3): 8, (3, 0): 1, (1, 2): 12, (2, 1): 6})
        assert format_polynomial(p) == "x1^3 + 6 * x1^2 * x2 + 12 * x1 * x2^2 + 8 * x2^3"

    def test_negative_and_constant_terms(self):
        p = PhasePolynomial(2, {(1, 0): -1, (0, 0): Fraction(3, 4)})
        text = format_polynomial(p)
        assert text == "-x1 + 3/4"
        assert parse_polynomial(text, 2) == p

    def test_zero(self):
        assert format_polynomial(PhasePolynomial.zero(3)) == "0"
        assert parse_polynomial("0", 3).is_zero

    def test_decimal_coefficients_exact(self):
        assert parse_polynomial("0.1 * x1^4", 2).coefficient((4, 0)) == Fraction(1, 10)

    @given(st.data())
    def test_round_trip_property(self, data):
        # up to 12 variables and exponents up to 12, so multi-digit names and
        # powers such as x10^12 occur; integers up to 1e30 and fractions
        num_vars = data.draw(st.integers(1, 12))
        monomial = st.lists(
            st.integers(0, 12), min_size=num_vars, max_size=num_vars
        ).map(tuple)
        coeff = st.integers(-(10**30), 10**30) | st.fractions(max_denominator=10**6)
        p = PhasePolynomial(num_vars, data.draw(st.dictionaries(monomial, coeff, max_size=8)))
        text = format_polynomial(p)
        assert parse_polynomial(text, num_vars) == p
        assert format_polynomial(parse_polynomial(text, num_vars)) == text

    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_polynomial("x5", 4)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_polynomial("1/2 * y3", 4)


class TestInvariants:
    def test_no_zero_coefficients_stored(self):
        p = PhasePolynomial(2, {(1, 0): 1, (0, 1): 0})
        assert (0, 1) not in p.terms
        q = var(2, 0) - var(2, 0)
        assert not q.terms

    def test_multi_index_length_enforced(self):
        with pytest.raises(ValueError, match="length"):
            PhasePolynomial(3, {(1, 0): 1})

    def test_degree_is_max_exponent_sum(self):
        p = PhasePolynomial(3, {(1, 2, 0): 1, (0, 0, 4): 2, (1, 0, 0): 5})
        assert p.degree() == 4
