"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS line (visible with ``pytest -s``)."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from kvnsim.expansion import admissible_exponent_triples, expansion_coefficients
from kvnsim.gaussian import GaussianState, evolve_gaussian
from kvnsim.grid import (
    GridSpec,
    apply_gate,
    apply_sequence,
    born_density,
    exact_controlled_shift,
    momentum_expectation,
    position_expectation,
    position_moments,
    prepare_gaussian,
)
from kvnsim.kvn import KvNTerm, build_kvn, validate_separation
from kvnsim.oracle import (
    ClassicalEnsemble,
    FlowMap,
    compare_densities,
    ensemble_evolve,
    gaussian_density,
    liouville_density_grid,
)
from kvnsim.phasepoly import PhasePolynomial, parse_polynomial
from kvnsim.synth import Gate, GateKind, synthesize_term, trotter_circuit
from kvnsim.weyl import verify_key_decomposition, verify_liouvillian_product_rule

HO_TEXT = "1/2 * x2^2 + 1/2 * x1^2"
QUARTIC_TEXT = "1/2 * x2^2 + 1/2 * x1^2 + 1/40 * x1^4"


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c1_symbolic_decomposition_suite():
    start = time.perf_counter()
    triples = admissible_exponent_triples()
    for triple in triples:
        proof = verify_key_decomposition(*triple)
        assert proof.passed, proof.to_text()
        a = 1 + sum(triple)
        # the commutator cascade terminates at the (a+1)th term: the last
        # nonzero iterated commutator has index a for every conjugation
        for check in proof.checks:
            expected_depth = 0 if all(h == 0 for h in check.weights[1:]) else a
            assert check.depth == expected_depth
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("1", f"{len(triples)} generator lowerings proven exactly in {elapsed:.2f}s")


def test_c2_expansion_identity():
    start = time.perf_counter()
    x = [PhasePolynomial.variable(4, i) for i in range(4)]
    for a2, a3, a4 in admissible_exponent_triples():
        a = 1 + a2 + a3 + a4
        total = PhasePolynomial.zero(4)
        for term in expansion_coefficients(a2, a3, a4):
            linear = PhasePolynomial.zero(4)
            for i, h in enumerate(term.weights):
                if h:
                    linear = linear + Fraction(h) * x[i]
            total = total + term.coefficient * linear ** a
        target = x[0] * x[1] ** a2 * x[2] ** a3 * x[3] ** a4
        assert total == target
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("2", f"monomial expansion exact for all triples in {elapsed:.2f}s")


def test_c3_harmonic_oscillator_gaussian_backend():
    start = time.perf_counter()
    kvn = build_kvn(validate_separation(parse_polynomial(HO_TEXT, 2), 1))
    state = GaussianState.from_position_density(np.array([1.0, 0.0]), 0.5 * np.eye(2))
    out = evolve_gaussian(state, kvn, np.pi / 2)
    # closed-form flow of dx1/dt = x2, dx2/dt = -x1 from (1, 0)
    t = np.pi / 2
    expected = np.array([math.cos(t), -math.sin(t)])
    error = np.max(np.abs(out.position_mean() - expected))
    assert error <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("3", f"quadrature means within {error:.2e} of the closed-form flow")


def test_c4_harmonic_oscillator_grid():
    start = time.perf_counter()
    h = validate_separation(parse_polynomial(HO_TEXT, 2), 1)
    kvn = build_kvn(h)
    spec = GridSpec(num_modes=2, points_per_mode=128, half_extent=8.0)
    mean0 = np.array([1.0, 0.0])
    cov0 = 0.5 * np.eye(2)
    state = prepare_gaussian(spec, mean0, cov0)
    t = np.pi / 2

    evolved = apply_sequence(state, trotter_circuit(kvn, t, 200, order=2))
    reference = liouville_density_grid(
        FlowMap(h, dt=1e-3), gaussian_density(mean0, cov0), t, spec
    )
    comparison = compare_densities(born_density(evolved), reference)
    assert comparison.total_variation <= 0.05
    moment_error = float(np.linalg.norm(comparison.first_moment_error))
    assert moment_error <= 1e-2

    # first-order product formula: moment error scales as 1/n_steps
    target = np.array([0.0, -1.0])
    steps = np.array([25, 50, 100, 200])
    errors = []
    for n in steps:
        out = apply_sequence(state, trotter_circuit(kvn, t, int(n), order=1))
        m, _ = position_moments(born_density(out))
        errors.append(np.linalg.norm(m - target))
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert abs(slope + 1.0) <= 0.2
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        "4",
        f"TV {comparison.total_variation:.2e}, moment error {moment_error:.2e}, "
        f"order-1 slope {slope:.3f}, {elapsed:.0f}s",
    )


def test_c5_synthesis_matches_exact_shift_oracle():
    # one case per catalog generator; narrow controls bound the conjugation
    # excursions while the vacuum-width target keeps its Fourier transform
    # inside the box
    start = time.perf_counter()
    # control-mode exponents; the last qumode carries the momentum quadrature
    cases = [
        ((1,), 2),        # degree 2: P X2
        ((2,), 2),        # degree 3: P X2^2
        ((1, 1), 3),      # degree 3: P X2 X3
        ((3,), 2),        # degree 4: P X2^3
        ((2, 1), 3),      # degree 4: P X2^2 X3
        ((1, 1, 1), 4),   # degree 4: P X2 X3 X4
    ]
    worst = 0.0
    for controls, num_modes in cases:
        assert len(controls) == num_modes - 1
        exponents = list(controls) + [0]
        target = num_modes - 1
        spec = GridSpec(num_modes=num_modes, points_per_mode=64, half_extent=8.0)
        variances = [0.04] * num_modes
        variances[target] = 0.5
        state = prepare_gaussian(spec, [0.0] * num_modes, np.diag(variances))
        term = KvNTerm(
            factor=PhasePolynomial.monomial(num_modes, tuple(exponents), 1),
            mode=target,
            sign=1,
        )
        strengths = (0.5, -0.37) if num_modes == 2 else (0.5,)
        for s in strengths:
            synthesized = apply_sequence(state, synthesize_term(term, s))
            oracle = exact_controlled_shift(state, term, s)
            # in place: the difference would be a fourth full-size array
            synthesized.psi -= oracle.psi
            rel = float(np.linalg.norm(synthesized.psi) / np.linalg.norm(oracle.psi))
            worst = max(worst, rel)
            assert rel <= 1e-6, (controls, s, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report("5", f"six generators, worst relative L2 error {worst:.2e}, {elapsed:.0f}s")


def test_c6_quartic_anharmonic_vs_ensemble():
    start = time.perf_counter()
    h = validate_separation(parse_polynomial(QUARTIC_TEXT, 2), 1)
    kvn = build_kvn(h)
    mean0 = np.array([1.0, 0.0])
    cov0 = 0.5 * np.eye(2)

    spec = GridSpec(num_modes=2, points_per_mode=256, half_extent=16.0)
    state = prepare_gaussian(spec, mean0, cov0)
    evolved = apply_sequence(state, trotter_circuit(kvn, 1.0, 200, order=2))
    grid_mean, grid_cov = position_moments(born_density(evolved))

    ensemble = ClassicalEnsemble.gaussian(mean0, cov0, 100_000, seed=42)
    transported = ensemble_evolve(FlowMap(h, dt=1e-3), ensemble, 1.0)
    ens_mean = transported.mean()
    ens_cov = transported.cov()

    first_rel = np.linalg.norm(grid_mean - ens_mean) / max(
        1.0, np.linalg.norm(ens_mean)
    )
    grid_second = grid_cov + np.outer(grid_mean, grid_mean)
    ens_second = ens_cov + np.outer(ens_mean, ens_mean)
    second_rel = np.linalg.norm(grid_second - ens_second) / max(
        1.0, np.linalg.norm(ens_second)
    )
    assert first_rel <= 0.05
    assert second_rel <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        "6",
        f"first moments {first_rel:.2%}, second moments {second_rel:.2%} "
        f"vs 1e5-sample ensemble, {elapsed:.0f}s",
    )


def test_c7_unitarity_and_fourier_relations():
    start = time.perf_counter()
    spec = GridSpec(num_modes=2, points_per_mode=128, half_extent=8.0)
    state = prepare_gaussian(spec, [0.6, -0.2], 0.5 * np.eye(2))
    gates = [
        Gate(GateKind.MOMENTUM_DISPLACEMENT, (0,), 0.8),
        Gate(GateKind.QUADRATIC_PHASE, (0,), 0.5),
        Gate(GateKind.CUBIC_PHASE, (0,), 0.2),
        Gate(GateKind.QUARTIC_PHASE, (0,), 0.1),
        Gate(GateKind.ROTATION, (1,), 0.9),
        Gate(GateKind.ROTATION, (1,), np.pi),
        Gate(GateKind.CONTROLLED_Z, (0, 1), 0.6),
        Gate(GateKind.CONTROLLED_X, (0, 1), 0.6),
        Gate(GateKind.FOURIER, (0,)),
        Gate(GateKind.FOURIER_INVERSE, (1,)),
    ]
    worst_drift = max(abs(apply_gate(state, g).norm() - 1.0) for g in gates)
    assert worst_drift <= 1e-12

    spec1 = GridSpec(num_modes=1, points_per_mode=128, half_extent=8.0)
    single = prepare_gaussian(spec1, [0.7], np.array([[0.4]]))
    quadruple = single
    for _ in range(4):
        quadruple = apply_gate(quadruple, Gate(GateKind.FOURIER, (0,)))
    f4_error = float(
        np.linalg.norm(quadruple.psi - single.psi) * np.sqrt(spec1.dx)
    )
    assert f4_error <= 1e-10

    worst_rel = 0.0
    rng = np.random.default_rng(12)
    for _ in range(5):
        st = prepare_gaussian(
            spec1, [rng.uniform(-1, 1)], np.array([[rng.uniform(0.3, 0.9)]])
        )
        st = apply_gate(
            st, Gate(GateKind.MOMENTUM_DISPLACEMENT, (0,), rng.uniform(-1, 1))
        )
        x0, p0 = position_expectation(st, 0), momentum_expectation(st, 0)
        after = apply_gate(st, Gate(GateKind.FOURIER, (0,)))
        worst_rel = max(
            worst_rel,
            abs(momentum_expectation(after, 0) - x0),  # X = F^dag P F
            abs(position_expectation(after, 0) + p0),  # P = -F^dag X F
        )
    assert worst_rel <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        "7",
        f"norm drift {worst_drift:.1e}, F^4 error {f4_error:.1e}, "
        f"quadrature-exchange error {worst_rel:.1e}",
    )


def test_c8_liouville_product_rule_battery():
    start = time.perf_counter()
    rng = np.random.default_rng(777)

    def random_poly(num_vars: int) -> PhasePolynomial:
        terms = {}
        for _ in range(4):
            expo = [0] * num_vars
            for _ in range(rng.integers(0, 4)):
                expo[rng.integers(0, num_vars)] += 1
            terms[tuple(expo)] = Fraction(int(rng.integers(-7, 8)), int(rng.integers(1, 5)))
        return PhasePolynomial(num_vars, terms)

    count = 0
    for n in (1, 2, 3):
        for _ in range(7):
            h = random_poly(2 * n)
            f = random_poly(2 * n)
            g = random_poly(2 * n)
            assert verify_liouvillian_product_rule(h, f, g)
            count += 1
    assert count >= 20
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("8", f"{count} random polynomial triples verified exactly in {elapsed:.2f}s")
