import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnsim.config import load_config
from kvnsim.expansion import (
    ExpansionTerm,
    admissible_exponent_triples,
    expansion_coefficients,
)
from kvnsim.kvn import KvNTerm, build_kvn, validate_separation
from kvnsim.phasepoly import PhasePolynomial, parse_polynomial
from kvnsim.synth import (
    Gate,
    GateKind,
    GateSequence,
    serialize_gates,
    synthesize_term,
    trotter_circuit,
)
from kvnsim.weyl import I, WeylPolynomial, adjoint_series


def cx_via_cz(j: int, k: int, s: float, num_modes: int) -> GateSequence:
    """Express CX_{jk}(s) with controlled-phase and Fourier gates only.

    Conjugating by the Fourier gate trades the target's momentum quadrature
    for a position quadrature: P_k = -F_k^dag X_k F_k, hence
    CX_{jk}(s) = F_k^dag CZ_{jk}(s) F_k (rightmost applied first).
    """
    if j == k:
        raise ValueError("controlled gates require two distinct modes")
    return GateSequence(
        num_modes,
        (
            Gate(GateKind.FOURIER, (k,)),
            Gate(GateKind.CONTROLLED_Z, (j, k), s),
            Gate(GateKind.FOURIER_INVERSE, (k,)),
        ),
    )


def parse_gates(text: str, num_modes: int | None = None) -> GateSequence:
    """Inverse of serialize_gates, for the round-trip tests. Infers the mode
    count when not given."""
    gates: list[Gate] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (2, 3):
            raise ValueError(f"malformed gate line {line!r}")
        try:
            kind = GateKind(fields[0])
        except ValueError:
            raise ValueError(f"unknown gate kind {fields[0]!r}") from None
        modes = tuple(int(m) for m in fields[1].split(","))
        param = float(fields[2]) if len(fields) == 3 else None
        gates.append(Gate(kind, modes, param))
    if num_modes is None:
        num_modes = 1 + max((max(g.modes) for g in gates), default=0)
    return GateSequence(num_modes, tuple(gates))


def quadratures(m: int) -> list[WeylPolynomial]:
    """X_0..X_(m-1), P_0..P_(m-1), in the order of a Weyl multi-index."""
    return [WeylPolynomial.x(m, j) for j in range(m)] + [WeylPolynomial.p(m, j) for j in range(m)]


def substitute(poly: WeylPolynomial, images: list[WeylPolynomial]) -> WeylPolynomial:
    """The image of a normal-ordered polynomial under the algebra map that
    sends each quadrature to its image (the order of ``quadratures``)."""
    out = WeylPolynomial.zero(poly.num_modes)
    for expo, coeff in poly.terms.items():
        monomial = WeylPolynomial.constant(poly.num_modes, coeff)
        for image, e in zip(images, expo):
            if e:
                monomial = monomial * image ** e
        out = out + monomial
    return out


def heisenberg_images(seq: GateSequence) -> list[WeylPolynomial]:
    """U^dag O U, exactly, for the circuit U of the gates (leftmost applied
    first) and every quadrature O, each gate strength read as the Fraction
    of its float."""
    m = seq.num_modes
    q = quadratures(m)
    images = list(q)
    for gate in reversed(seq.gates):
        t = gate.modes[-1]
        if gate.kind in (GateKind.FOURIER, GateKind.FOURIER_INVERSE):
            # F = R(pi/2) maps X -> -P and P -> X; FDAG the other way
            sign = 1 if gate.kind is GateKind.FOURIER else -1
            swap = list(q)
            swap[t], swap[m + t] = q[m + t] * -sign, q[t] * sign
            images = [substitute(image, swap) for image in images]
            continue
        # the gate is exp(iG), so it conjugates by the series of -iG
        s = Fraction(gate.param)
        if gate.kind is GateKind.CONTROLLED_X:
            g = q[gate.modes[0]] * q[m + t] * -s
        elif gate.kind is GateKind.CUBIC_PHASE:
            g = q[t] ** 3 * (s / 3)
        else:  # D(s) = exp(i s X) or Q(s) = exp(i s X^4)
            g = q[t] ** {GateKind.MOMENTUM_DISPLACEMENT: 1, GateKind.QUARTIC_PHASE: 4}[gate.kind] * s
        images = [adjoint_series(g * -I, image)[0] for image in images]
    return images


def term_images(term: KvNTerm, s: float) -> list[WeylPolynomial]:
    """T^dag O T, exactly, for T = exp(-i s sign factor(X) P_mode) and every
    quadrature O, with s read as the Fraction of its float."""
    q = quadratures(term.num_modes)
    generator = WeylPolynomial.from_position_polynomial(term.factor) * q[term.num_modes + term.mode]
    generator = generator * (I * Fraction(s) * term.sign)
    return [adjoint_series(generator, o)[0] for o in q]


def images_mismatch(images: list[WeylPolynomial], targets: list[WeylPolynomial]) -> float:
    """Largest coefficient of the images minus the targets, relative to the
    largest coefficient of the targets."""

    def size(poly: WeylPolynomial) -> float:
        return max((abs(complex(c.re, c.im)) for c in poly.terms.values()), default=0.0)

    worst = max(size(image - target) for image, target in zip(images, targets))
    return worst / max(size(target) for target in targets)


def term_mismatch(seq: GateSequence, term: KvNTerm, s: float) -> float:
    """images_mismatch of the circuit against exp(-i s sign factor(X) P_mode)."""
    return images_mismatch(heisenberg_images(seq), term_images(term, s))


def step_images(kvn, dt: float, order: int) -> list[WeylPolynomial]:
    """U^dag O U, exactly, for one product-formula step U of the exact term
    maps: each term for dt in ``kvn.terms`` order (order 1), or each for
    dt/2 in that order and then in reverse (order 2, Strang). As
    heisenberg_images does, the maps apply last first, each by substituting
    its quadrature images into the images so far."""
    sweep = [(term, dt if order == 1 else dt / 2) for term in kvn.terms]
    if order == 2:
        sweep += sweep[::-1]
    images = quadratures(2 * kvn.n)
    for term, s in reversed(sweep):
        maps = term_images(term, s)
        images = [substitute(image, maps) for image in images]
    return images


@st.composite
def kvn_terms(draw):
    """A term of 1-2 monomials of degree 0-3 in the other modes, on 2-4 modes."""
    m = draw(st.integers(2, 4))
    mode = draw(st.integers(0, m - 1))
    factor = {}
    for _ in range(draw(st.integers(1, 2))):
        expo = [0] * m
        for _ in range(draw(st.integers(0, 3))):
            expo[draw(st.sampled_from([j for j in range(m) if j != mode]))] += 1
        factor[tuple(expo)] = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 10)))
    return KvNTerm(PhasePolynomial(m, factor), mode, draw(st.sampled_from((1, -1))))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# neighbour fusion on the grid produces sums of synthesized strengths
_PARAMS = _FINITE | st.tuples(_FINITE, _FINITE).map(sum).filter(math.isfinite)


@st.composite
def gate_sequences(draw):
    num_modes = draw(st.integers(2, 4))
    gates = []
    for kind in draw(st.lists(st.sampled_from(GateKind), max_size=12)):
        if kind in (GateKind.CONTROLLED_Z, GateKind.CONTROLLED_X):
            modes = tuple(draw(st.permutations(range(num_modes)))[:2])
        else:
            modes = (draw(st.integers(0, num_modes - 1)),)
        parameterless = kind in (GateKind.FOURIER, GateKind.FOURIER_INVERSE)
        gates.append(Gate(kind, modes, None if parameterless else draw(_PARAMS)))
    return GateSequence(num_modes, tuple(gates))


def expansion_sum(a2, a3, a4):
    """Polynomial-expansion oracle: sum C(v) (sum_i h_i x_i)^a exactly."""
    a = 1 + a2 + a3 + a4
    x = [PhasePolynomial.variable(4, i) for i in range(4)]
    total = PhasePolynomial.zero(4)
    for term in expansion_coefficients(a2, a3, a4):
        linear = PhasePolynomial.zero(4)
        for i, h in enumerate(term.weights):
            if h:
                linear = linear + Fraction(h) * x[i]
        total = total + term.coefficient * linear ** a
    return total


class TestExpansionCoefficients:
    def test_bilinear_case(self):
        terms = expansion_coefficients(1, 0, 0)
        assert [(t.coefficient, t.weights[:2]) for t in terms] == [
            (Fraction(1, 4), (1, 1)),
            (Fraction(-1, 4), (1, -1)),
        ]
        x1, x2 = (PhasePolynomial.variable(4, i) for i in (0, 1))
        assert expansion_sum(1, 0, 0) == x1 * x2

    def test_squared_control_case(self):
        terms = expansion_coefficients(2, 0, 0)
        assert [(t.coefficient, t.weights[1]) for t in terms] == [
            (Fraction(1, 24), 2),
            (Fraction(-1, 12), 0),
            (Fraction(1, 24), -2),
        ]

    def test_two_control_cubic_case(self):
        terms = expansion_coefficients(1, 1, 0)
        assert len(terms) == 4
        assert all(abs(t.coefficient) == Fraction(1, 24) for t in terms)
        x1, x2, x3 = (PhasePolynomial.variable(4, i) for i in (0, 1, 2))
        assert expansion_sum(1, 1, 0) == x1 * x2 * x3

    @pytest.mark.parametrize("triple", admissible_exponent_triples())
    def test_identity_exact_for_all_catalog_triples(self, triple):
        a2, a3, a4 = triple
        x = [PhasePolynomial.variable(4, i) for i in range(4)]
        target = x[0] * x[1] ** a2 * x[2] ** a3 * x[3] ** a4
        assert expansion_sum(a2, a3, a4) == target
        # the catalog generator X2^a2 X3^a3 X4^a4 P1 needs no P, R or CZ gate
        term = KvNTerm(PhasePolynomial.monomial(4, (0, a2, a3, a4), 1), mode=0, sign=1)
        kinds = {g.kind for g in synthesize_term(term, 0.3)}
        assert kinds <= {GateKind.CONTROLLED_X, GateKind.MOMENTUM_DISPLACEMENT,
                         GateKind.FOURIER, GateKind.FOURIER_INVERSE,
                         GateKind.CUBIC_PHASE, GateKind.QUARTIC_PHASE}

    def test_coefficient_formula(self):
        # C(v) = (-1)^sum(v) / (2^(a-1) a!) * prod binom(a_i, v_i)
        for t in expansion_coefficients(2, 1, 0):
            v2, v3, v4 = t.v
            a = 4
            expected = (
                Fraction(1, 2 ** (a - 1) * math.factorial(a))
                * (-1) ** (v2 + v3 + v4)
                * math.comb(2, v2)
                * math.comb(1, v3)
                * math.comb(0, v4)
            )
            assert t.coefficient == expected
            assert t.weights == (1, 2 - 2 * v2, 1 - 2 * v3, -2 * v4)

    def test_out_of_range_degree(self):
        with pytest.raises(ValueError, match="degree"):
            expansion_coefficients(4, 0, 0)
        with pytest.raises(ValueError, match="degree"):
            expansion_coefficients(0, 0, 0)

    def test_lexicographic_order(self):
        vs = [t.v for t in expansion_coefficients(1, 1, 1)]
        assert vs == sorted(vs)

    def test_weights_require_leading_one(self):
        with pytest.raises(ValueError):
            ExpansionTerm(v=(0, 0, 0), coefficient=Fraction(1), weights=(2, 0, 0, 0))


class TestGateValidation:
    def test_controlled_gate_needs_distinct_modes(self):
        with pytest.raises(ValueError, match="distinct"):
            Gate(GateKind.CONTROLLED_Z, (1, 1), 0.5)

    def test_fourier_takes_no_param(self):
        with pytest.raises(ValueError, match="no parameter"):
            Gate(GateKind.FOURIER, (0,), 1.0)

    def test_param_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Gate(GateKind.CONTROLLED_X, (0, 1), float("inf"))

    def test_sequence_mode_bound(self):
        with pytest.raises(ValueError, match="exceeds"):
            GateSequence(2, (Gate(GateKind.MOMENTUM_DISPLACEMENT, (2,), 1.0),))

    def test_inverse_negates_params_and_swaps_fourier(self):
        g = Gate(GateKind.CUBIC_PHASE, (0,), 0.3)
        assert g.inverse().param == -0.3
        assert Gate(GateKind.FOURIER, (0,)).inverse().kind is GateKind.FOURIER_INVERSE
        seq = GateSequence(
            1, (Gate(GateKind.FOURIER, (0,)), Gate(GateKind.MOMENTUM_DISPLACEMENT, (0,), 1.0))
        )
        inv = seq.inverse()
        assert [g.kind for g in inv] == [
            GateKind.MOMENTUM_DISPLACEMENT,
            GateKind.FOURIER_INVERSE,
        ]


class TestSynthesizeTerm:
    def test_harmonic_term_is_single_cx(self):
        term = KvNTerm(factor=PhasePolynomial.variable(2, 1), mode=0, sign=1)
        seq = synthesize_term(term, 0.25)
        assert len(seq) == 1
        (gate,) = seq
        assert gate.kind is GateKind.CONTROLLED_X
        assert gate.modes == (1, 0)
        assert gate.param == 0.25

    def test_sign_and_coefficient_fold_into_strength(self):
        term = KvNTerm(
            factor=PhasePolynomial(2, {(1, 0): Fraction(3, 2)}), mode=1, sign=-1
        )
        (gate,) = synthesize_term(term, 0.4)
        assert gate.param == pytest.approx(-0.6)

    def test_zero_strength_gives_empty_sequence(self):
        term = KvNTerm(factor=PhasePolynomial.variable(2, 1), mode=0, sign=1)
        assert len(synthesize_term(term, 0.0)) == 0

    def test_constant_factor_uses_fourier_conjugated_displacement(self):
        term = KvNTerm(factor=PhasePolynomial.constant(2, 1), mode=0, sign=1)
        seq = synthesize_term(term, 0.7)
        kinds = [g.kind for g in seq]
        assert kinds == [
            GateKind.FOURIER,
            GateKind.MOMENTUM_DISPLACEMENT,
            GateKind.FOURIER_INVERSE,
        ]
        assert seq.gates[1].param == 0.7

    def test_cubic_factor_structure(self):
        # X^3 factor: Fourier pair, four expansion blocks, quartic inner gates
        term = KvNTerm(factor=PhasePolynomial(2, {(3, 0): 1}), mode=1, sign=1)
        seq = synthesize_term(term, 0.1)
        kinds = [g.kind for g in seq]
        assert kinds[0] is GateKind.FOURIER
        assert kinds[-1] is GateKind.FOURIER_INVERSE
        assert kinds.count(GateKind.QUARTIC_PHASE) == 4
        assert kinds.count(GateKind.CONTROLLED_X) == 8
        assert len(seq) == 14

    def test_squared_factor_skips_zero_weight_conjugation(self):
        # X^2 factor: middle expansion term has h2 = 0, no CX around it
        term = KvNTerm(factor=PhasePolynomial(2, {(2, 0): 1}), mode=1, sign=1)
        seq = synthesize_term(term, 0.2)
        kinds = [g.kind for g in seq]
        assert kinds.count(GateKind.CUBIC_PHASE) == 3
        assert kinds.count(GateKind.CONTROLLED_X) == 4
        assert len(seq) == 9

    def test_inner_gate_strength_normalizations(self):
        # quadratic inner gate: P(s) = exp(i s X^2/2) needs s = 2 u C(v)
        term = KvNTerm(factor=PhasePolynomial.variable(2, 0), mode=1, sign=1)
        # degree-1 goes straight to CX; use a two-control quadratic instead
        term = KvNTerm(
            factor=PhasePolynomial(4, {(1, 1, 0, 0): 1}), mode=3, sign=1
        )
        seq = synthesize_term(term, 1.0)
        quad = [g for g in seq if g.kind is GateKind.QUADRATIC_PHASE]
        # a = 3 for x*y factor? no: degree 2 factor -> a = 3 (cubic inner)
        assert not quad
        cubic = [g for g in seq if g.kind is GateKind.CUBIC_PHASE]
        assert cubic and all(
            g.param == pytest.approx(3.0 * float(Fraction(1, 24)) * s)
            for g, s in zip(cubic, (1.0, -1.0, -1.0, 1.0))
        )

    def test_multi_monomial_factor_concatenates(self):
        # factor x1 + (1/10) x1^3 on mode 1: one CX plus the cubic block
        h = validate_separation(
            parse_polynomial("1/2 * x2^2 + 1/2 * x1^2 + 1/40 * x1^4", 2), 1
        )
        term = next(t for t in build_kvn(h).terms if t.mode == 1 and t.factor.degree() == 1)
        assert len(synthesize_term(term, 0.3)) == 1


class TestExactTermImages:
    """Each synthesized term conjugates every quadrature exactly as its
    generator does, in exact operator algebra."""

    @settings(deadline=None, max_examples=40)
    @given(term=kvn_terms(), s=st.floats(-0.5, 0.5))
    def test_synthesized_term_has_its_generator_images(self, term, s):
        assert term_mismatch(synthesize_term(term, s), term, s) <= 1e-12

    @pytest.mark.parametrize("kind, replacement", [
        (GateKind.CONTROLLED_X, lambda g: [Gate(g.kind, g.modes, -g.param)]),
        (GateKind.CONTROLLED_X, lambda g: [Gate(g.kind, g.modes, 1.01 * g.param)]),
        (GateKind.FOURIER, lambda g: []),
        (GateKind.FOURIER_INVERSE, lambda g: [Gate(GateKind.FOURIER, g.modes)]),
        (GateKind.QUARTIC_PHASE, lambda g: [Gate(g.kind, g.modes, 1.01 * g.param)]),
    ], ids=["cx-sign-flipped", "cx-1%-off", "f-dropped", "f-for-fdag", "q-1%-off"])
    def test_mutated_term_misses_its_images(self, kind, replacement):
        # (1/10) x1^3 on mode 1; the first gate of the kind is replaced
        term = KvNTerm(PhasePolynomial(2, {(3, 0): Fraction(1, 10)}), 1, 1)
        gates = list(synthesize_term(term, 0.005).gates)
        assert term_mismatch(GateSequence(2, tuple(gates)), term, 0.005) <= 1e-12
        first = next(i for i, g in enumerate(gates) if g.kind is kind)
        gates[first:first + 1] = replacement(gates[first])
        assert term_mismatch(GateSequence(2, tuple(gates)), term, 0.005) > 1e-8


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# The benchmark's coupled 4-mode H, at its 20 steps over t = 1.
COUPLED4_H = "1/2 * x3^2 + 1/2 * x4^2 + 1/2 * x1^2 + 1/2 * x2^2 + 1/20 * x1^2 * x2^2"


def step_of(name: str):
    """The KvN generator and the step length dt of a shipped config, or of
    the benchmark's coupled 4-mode run."""
    if name == "coupled4":
        return build_kvn(validate_separation(parse_polynomial(COUPLED4_H, 4), 2)), 1.0 / 20
    config = load_config(CONFIGS / f"{name}.json")
    return config.kvn, config.t / config.n_steps


class TestExactStep:
    """One whole product-formula step conjugates every quadrature exactly as
    the exact term maps, composed in ``kvn.terms`` order, do; so a term in
    the wrong place or an unreversed Strang half fails."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("name", ["quartic", "harmonic", "coupled4"])
    def test_step_circuit_has_the_composed_term_images(self, name, order):
        kvn, dt = step_of(name)
        circuit = trotter_circuit(kvn, dt, 1, order)
        assert images_mismatch(heisenberg_images(circuit), step_images(kvn, dt, order)) <= 1e-12

    # the heisenberg_images of coupled4's unreversed step take about 2 s
    @pytest.mark.parametrize("name", ["quartic", "harmonic"])
    def test_unreversed_second_half_sweep_misses_the_step(self, name):
        kvn, dt = step_of(name)
        half = [g for term in kvn.terms for g in synthesize_term(term, dt / 2).gates]
        unreversed = GateSequence(2 * kvn.n, tuple(half * 2))
        assert images_mismatch(heisenberg_images(unreversed), step_images(kvn, dt, 2)) > 1e-8


class TestCxViaCz:
    def test_same_mode_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            cx_via_cz(1, 1, 0.5, 2)

    def test_uses_only_cz_and_fourier(self):
        seq = cx_via_cz(0, 1, 0.8, 2)
        assert {g.kind for g in seq} == {
            GateKind.FOURIER,
            GateKind.CONTROLLED_Z,
            GateKind.FOURIER_INVERSE,
        }
        assert all(g.modes[-1] == 1 for g in seq)


class TestTrotterCircuit:
    def ho_kvn(self):
        return build_kvn(
            validate_separation(parse_polynomial("1/2 * x2^2 + 1/2 * x1^2", 2), 1)
        )

    def test_zero_time_empty(self):
        assert len(trotter_circuit(self.ho_kvn(), 0.0, 10, 1)) == 0

    def test_first_order_step_count(self):
        k = self.ho_kvn()
        circ = trotter_circuit(k, 1.0, 5, 1)
        assert len(circ) == 10  # two CX per step
        params = {g.param for g in circ}
        assert params == {0.2, -0.2}

    def test_second_order_palindrome(self):
        k = self.ho_kvn()
        circ = trotter_circuit(k, 1.0, 1, 2)
        kinds_modes = [(g.kind, g.modes) for g in circ]
        assert kinds_modes == list(reversed(kinds_modes))
        assert all(abs(g.param) == pytest.approx(0.5, rel=1e-12) for g in circ)

    def test_invalid_arguments(self):
        k = self.ho_kvn()
        with pytest.raises(ValueError, match="finite"):
            trotter_circuit(k, float("nan"), 5, 1)
        with pytest.raises(ValueError, match="n_steps"):
            trotter_circuit(k, 1.0, 0, 1)
        with pytest.raises(ValueError, match="order"):
            trotter_circuit(k, 1.0, 5, 3)


class TestSerialization:
    def round_trip(self, seq):
        text = serialize_gates(seq)
        back = parse_gates(text, seq.num_modes)
        assert back == seq
        assert serialize_gates(back) == text

    def test_round_trip_mixed_sequence(self):
        seq = GateSequence(
            3,
            (
                Gate(GateKind.FOURIER, (2,)),
                Gate(GateKind.CONTROLLED_X, (0, 2), 0.1 + 0.2),  # non-representable sum
                Gate(GateKind.QUARTIC_PHASE, (2,), -1.0 / 3.0),
                Gate(GateKind.FOURIER_INVERSE, (2,)),
            ),
        )
        self.round_trip(seq)

    @given(gate_sequences())
    def test_round_trip_random_valid_gates(self, seq):
        self.round_trip(seq)

    def test_round_trip_synthesized_circuit(self):
        h = validate_separation(
            parse_polynomial("1/2 * x2^2 + 1/2 * x1^2 + 1/40 * x1^4", 2), 1
        )
        self.round_trip(trotter_circuit(build_kvn(h), 0.7, 3, 2))

    def test_format_shape(self):
        text = serialize_gates(
            GateSequence(2, (Gate(GateKind.CONTROLLED_X, (0, 1), 0.5),))
        )
        assert text == "CX 0,1 0.5"
        assert serialize_gates(GateSequence(1, (Gate(GateKind.FOURIER, (0,)),))) == "F 0"

    def test_parse_infers_mode_count(self):
        seq = parse_gates("CX 0,3 1.0")
        assert seq.num_modes == 4

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            parse_gates("XX 0 1.0")

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_gates("CX 0,1 1.0 extra")
