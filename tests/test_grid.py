import gc
import os
import signal
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kvnsim import grid
from kvnsim.config import load_config
from kvnsim.grid import (
    BlowUpError,
    DensityGrid,
    GridSpec,
    GridSpecError,
    GridState,
    apply_gate,
    apply_sequence,
    born_density,
    boundary_mass,
    density_to_csv,
    exact_controlled_shift,
    fuse_gates,
    measure_positions,
    momentum_expectation,
    position_expectation,
    position_moments,
    prepare_gaussian,
    samples_to_csv,
)
from kvnsim.kvn import KvNTerm, build_kvn, validate_separation
from kvnsim.phasepoly import PhasePolynomial, parse_polynomial
from kvnsim.synth import (
    Gate,
    GateKind,
    GateSequence,
    cx_via_cz,
    synthesize_term,
    trotter_circuit,
)
from kvnsim.gaussian import GaussianState, evolve_gaussian


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
QUARTIC_CONFIG = CONFIGS / "quartic.json"
COUPLED4_H = "1/2 * x3^2 + 1/2 * x4^2 + 1/2 * x1^2 + 1/2 * x2^2 + 1/20 * x1^2 * x2^2"

SPEC1 = GridSpec(num_modes=1, points_per_mode=128, half_extent=8.0)
SPEC2 = GridSpec(num_modes=2, points_per_mode=128, half_extent=8.0)


def l2_distance(a: GridState, b: GridState) -> float:
    return float(
        np.sqrt(np.sum(np.abs(a.psi - b.psi) ** 2) * a.spec.cell_volume)
    )


def plain_density_to_csv(density: DensityGrid) -> str:
    """Reference writer: one repr per coordinate and value of every cell."""
    spec = density.spec
    d = spec.num_modes
    header = ",".join(f"x{i + 1}" for i in range(d)) + ",density"
    xs = spec.positions()
    lines = [header]
    for idx in np.ndindex(spec.shape):
        coords = ",".join(repr(float(xs[k])) for k in idx)
        lines.append(f"{coords},{float(density.values[idx])!r}")
    return "\n".join(lines) + "\n"


# Zero, the smallest subnormal, a huge value and two values whose repr needs
# 17 significant digits.
EDGE_VALUES = (0.0, 5e-324, 1e300, 0.1 + 0.2, 2.2250738585072014e-308)


class TestGridSpec:
    def test_spacing_relation(self):
        assert SPEC1.dx == pytest.approx(0.125)
        assert SPEC1.dp == pytest.approx(2 * np.pi / (128 * 0.125))
        assert SPEC1.dx * SPEC1.dp * SPEC1.points_per_mode == pytest.approx(2 * np.pi)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(num_modes=1, points_per_mode=100)
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(num_modes=1, points_per_mode=8)

    def test_mode_limit(self):
        with pytest.raises(ValueError, match="between 1 and 4"):
            GridSpec(num_modes=5, points_per_mode=16)

    def test_memory_cap(self):
        with pytest.raises(ValueError, match="memory cap"):
            GridSpec(num_modes=4, points_per_mode=1024)

    @pytest.mark.parametrize("half_extent", [1e308, 1e-310, 5e-324])
    def test_overflowing_spacing_rejected(self, half_extent):
        # 1e308 overflows dx, 1e-310 overflows dp, 5e-324 rounds dx to 0
        with pytest.raises(GridSpecError, match="non-finite grid spacing") as err:
            GridSpec(num_modes=1, points_per_mode=16, half_extent=half_extent)
        assert err.value.param == "half_extent"

    @pytest.mark.parametrize("half_extent", [0.5, 3.0, 6.0, 8.0, 16.0, 1e-3, 7.3])
    def test_momenta_match_scipy_fftfreq_bitwise(self, half_extent):
        # numpy's fftfreq stands in for scipy's so that loading the grid
        # needs no scipy import; the momenta must not move by one ulp
        import scipy.fft

        for n in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
            spec = GridSpec(num_modes=1, points_per_mode=n, half_extent=half_extent)
            expected = 2.0 * np.pi * scipy.fft.fftfreq(n, d=spec.dx)
            assert np.array_equal(spec.momenta_fft_order(), expected)

    def test_positions_centered(self):
        xs = SPEC1.positions()
        assert xs[0] == -8.0
        assert xs[64] == 0.0
        assert xs[-1] == pytest.approx(8.0 - SPEC1.dx)


class TestPrepareGaussian:
    def test_vacuum_normalized(self):
        spec = GridSpec(num_modes=2, points_per_mode=64, half_extent=8.0)
        state = prepare_gaussian(spec, [0.0, 0.0], 0.5 * np.eye(2))
        assert abs(state.norm() - 1.0) <= 1e-9

    def test_peak_at_nearest_cell_to_mean(self):
        state = prepare_gaussian(SPEC2, [1.0, 0.0], np.diag([0.05, 0.05]))
        rho = np.abs(state.psi) ** 2
        idx = np.unravel_index(np.argmax(rho), rho.shape)
        xs = SPEC2.positions()
        assert xs[idx[0]] == pytest.approx(1.0)
        assert xs[idx[1]] == pytest.approx(0.0)

    def test_second_moments_match_covariance(self):
        cov = np.array([[0.7, 0.2], [0.2, 0.4]])
        state = prepare_gaussian(SPEC2, [0.5, -0.3], cov)
        mean, sampled_cov = position_moments(born_density(state))
        assert np.allclose(mean, [0.5, -0.3], atol=1e-6)
        assert np.allclose(sampled_cov, cov, atol=1e-6)

    def test_coverage_error(self):
        with pytest.raises(GridSpecError, match="2-sigma box") as info:
            prepare_gaussian(SPEC1, [7.5], np.array([[1.0]]))
        assert info.value.param == "half_extent"

    def test_coverage_warning_between_two_and_five_sigma(self):
        with pytest.warns(UserWarning, match="5 sigma"):
            prepare_gaussian(SPEC1, [5.0], np.array([[1.0]]))

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            prepare_gaussian(SPEC2, [0.0, 0.0], np.diag([1.0, -0.1]))


class TestUnitarity:
    @pytest.mark.parametrize(
        "gate",
        [
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
        ],
    )
    def test_norm_preserved_per_gate(self, gate):
        state = prepare_gaussian(SPEC2, [0.6, -0.2], 0.5 * np.eye(2))
        out = apply_gate(state, gate)
        assert abs(out.norm() - 1.0) <= 1e-12


class TestFourier:
    def test_fourth_power_is_identity(self):
        state = prepare_gaussian(SPEC1, [0.7], np.array([[0.4]]))
        out = state
        for _ in range(4):
            out = apply_gate(out, Gate(GateKind.FOURIER, (0,)))
        assert l2_distance(out, state) <= 1e-10

    def test_inverse_pair(self):
        state = prepare_gaussian(SPEC1, [0.3], np.array([[0.6]]))
        out = apply_gate(
            apply_gate(state, Gate(GateKind.FOURIER, (0,))),
            Gate(GateKind.FOURIER_INVERSE, (0,)),
        )
        assert l2_distance(out, state) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadrature_exchange_relations(self, seed):
        # after F: <X> = -<P before>, <P> = <X before>
        rng = np.random.default_rng(seed)
        mean = rng.uniform(-1, 1)
        state = prepare_gaussian(SPEC1, [mean], np.array([[rng.uniform(0.3, 0.8)]]))
        state = apply_gate(
            state, Gate(GateKind.MOMENTUM_DISPLACEMENT, (0,), rng.uniform(-1, 1))
        )
        x0, p0 = position_expectation(state, 0), momentum_expectation(state, 0)
        out = apply_gate(state, Gate(GateKind.FOURIER, (0,)))
        assert position_expectation(out, 0) == pytest.approx(-p0, abs=1e-8)
        assert momentum_expectation(out, 0) == pytest.approx(x0, abs=1e-8)

    def test_convention_pin(self):
        # a state displaced in position maps to one displaced in momentum
        state = prepare_gaussian(SPEC1, [1.0], np.array([[0.5]]))
        out = apply_gate(state, Gate(GateKind.FOURIER, (0,)))
        assert position_expectation(out, 0) == pytest.approx(0.0, abs=1e-8)
        assert momentum_expectation(out, 0) == pytest.approx(1.0, abs=1e-8)

    def test_square_is_parity(self):
        # F^2 reverses the position argument on the centered grid
        state = prepare_gaussian(SPEC1, [0.6], np.array([[0.5]]))
        out = apply_gate(
            apply_gate(state, Gate(GateKind.FOURIER, (0,))),
            Gate(GateKind.FOURIER, (0,)),
        )
        reflected = np.roll(state.psi[::-1], 1)
        assert np.linalg.norm(out.psi - reflected) * np.sqrt(SPEC1.dx) <= 1e-12

    def test_rotation_pi_means_flip(self):
        state = prepare_gaussian(SPEC2, [1.0, 0.4], 0.5 * np.eye(2))
        out = apply_gate(
            apply_gate(state, Gate(GateKind.ROTATION, (0,), np.pi)),
            Gate(GateKind.ROTATION, (1,), np.pi),
        )
        assert position_expectation(out, 0) == pytest.approx(-1.0, abs=1e-8)
        assert position_expectation(out, 1) == pytest.approx(-0.4, abs=1e-8)

    def test_rotation_quarter_matches_fourier_density(self):
        state = prepare_gaussian(SPEC1, [0.9], np.array([[0.5]]))
        via_r = apply_gate(state, Gate(GateKind.ROTATION, (0,), np.pi / 2))
        via_f = apply_gate(state, Gate(GateKind.FOURIER, (0,)))
        assert np.allclose(
            np.abs(via_r.psi) ** 2, np.abs(via_f.psi) ** 2, atol=1e-12
        )


class TestDiagonalGates:
    def test_cz_phase_gradient_matches_conjugate_position(self):
        # finite-difference phase gradient along x1 equals s * x2, so its
        # density-weighted average equals s * <x2> under the same weights
        s = 0.1
        state = prepare_gaussian(SPEC2, [1.0, 0.8], np.diag([0.04, 0.04]))
        out = apply_gate(state, Gate(GateKind.CONTROLLED_Z, (0, 1), s))
        ratio = out.psi[1:, :] * np.conj(out.psi[:-1, :])
        base = state.psi[1:, :] * np.conj(state.psi[:-1, :])
        grad = np.angle(ratio * np.conj(base)) / SPEC2.dx
        w = np.abs(state.psi[1:, :]) ** 2
        w /= w.sum()
        x2 = SPEC2.positions()[None, :]
        measured = float((w * grad).sum())
        expected = s * float((w * x2).sum())
        assert measured == pytest.approx(expected, abs=1e-6)

    def test_displacement_shifts_momentum(self):
        state = prepare_gaussian(SPEC1, [0.0], np.array([[0.5]]))
        out = apply_gate(state, Gate(GateKind.MOMENTUM_DISPLACEMENT, (0,), 0.9))
        assert momentum_expectation(out, 0) == pytest.approx(0.9, abs=1e-8)
        assert np.allclose(np.abs(out.psi) ** 2, np.abs(state.psi) ** 2)


class TestControlledX:
    def test_moment_shift_matches_gaussian_backend(self):
        # grid CX vs the exact Gaussian backend on the same generator
        s = 0.4
        state = prepare_gaussian(SPEC2, [1.0, 0.0], 0.5 * np.eye(2))
        out = apply_gate(state, Gate(GateKind.CONTROLLED_X, (0, 1), s))
        term = KvNTerm(factor=PhasePolynomial.variable(2, 0), mode=1, sign=1)
        from kvnsim.kvn import KvNHamiltonian

        gauss = GaussianState.from_position_density(
            np.array([1.0, 0.0]), 0.5 * np.eye(2)
        )
        evolved = evolve_gaussian(gauss, KvNHamiltonian(n=1, terms=(term,)), s)
        assert position_expectation(out, 1) == pytest.approx(
            evolved.position_mean()[1], abs=1e-6
        )
        assert position_expectation(out, 1) == pytest.approx(s * 1.0, abs=1e-6)

    def test_cx_via_cz_equivalence(self):
        # narrow control bounds the shift excursion; vacuum-width target keeps
        # the Fourier conjugation well inside the box in both quadratures
        state = prepare_gaussian(SPEC2, [0.3, 0.0], np.diag([0.1, 0.5]))
        direct = apply_gate(state, Gate(GateKind.CONTROLLED_X, (0, 1), 1.0))
        via = apply_sequence(state, cx_via_cz(0, 1, 1.0, 2))
        assert l2_distance(direct, via) <= 1e-10

    def test_cx_via_cz_zero_strength_is_identity(self):
        state = prepare_gaussian(SPEC2, [0.5, 0.0], 0.25 * np.eye(2))
        via = apply_sequence(state, cx_via_cz(0, 1, 0.0, 2))
        assert l2_distance(via, state) <= 1e-12


class TestExactControlledShift:
    def test_constant_factor_translates(self):
        term = KvNTerm(factor=PhasePolynomial.constant(2, 1), mode=0, sign=1)
        state = prepare_gaussian(SPEC2, [0.0, 0.0], 0.5 * np.eye(2))
        out = exact_controlled_shift(state, term, 0.8)
        assert position_expectation(out, 0) == pytest.approx(0.8, abs=1e-9)

    def test_harmonic_term_responds_linearly_to_control(self):
        term = KvNTerm(factor=PhasePolynomial.variable(2, 1), mode=0, sign=1)
        state = prepare_gaussian(SPEC2, [1.0, 0.0], 0.5 * np.eye(2))
        out = exact_controlled_shift(state, term, 0.5)
        # control mean is zero: target mean unchanged
        assert position_expectation(out, 0) == pytest.approx(1.0, abs=1e-9)
        shifted = prepare_gaussian(SPEC2, [1.0, 0.6], 0.5 * np.eye(2))
        out2 = exact_controlled_shift(shifted, term, 0.5)
        assert position_expectation(out2, 0) == pytest.approx(1.0 + 0.5 * 0.6, abs=1e-8)

    def test_inverse_composition(self):
        term = KvNTerm(factor=PhasePolynomial(2, {(0, 2): 1}), mode=0, sign=-1)
        state = prepare_gaussian(SPEC2, [0.2, -0.1], 0.4 * np.eye(2))
        out = exact_controlled_shift(
            exact_controlled_shift(state, term, 0.3), term, -0.3
        )
        assert l2_distance(out, state) <= 1e-10


class TestSynthesisAgainstOracle:
    @pytest.mark.parametrize(
        "expo,mode",
        [((0, 1), 0), ((0, 2), 0), ((0, 3), 0)],
    )
    def test_single_control_generators(self, expo, mode):
        spec = GridSpec(num_modes=2, points_per_mode=64, half_extent=8.0)
        state = prepare_gaussian(spec, [0.0, 0.0], np.diag([0.5, 0.04]))
        term = KvNTerm(factor=PhasePolynomial.monomial(2, expo, 1), mode=mode, sign=1)
        for s in (0.5, -0.31):
            syn = apply_sequence(state, synthesize_term(term, s))
            ora = exact_controlled_shift(state, term, s)
            rel = l2_distance(syn, ora)
            assert rel <= 1e-6

    def test_cubic_factor_spec_point(self):
        # X^3 factor at s = 0.1 on a 64-point grid: within 1e-8 relative
        spec = GridSpec(num_modes=2, points_per_mode=64, half_extent=8.0)
        state = prepare_gaussian(spec, [0.0, 0.0], np.diag([0.04, 0.5]))
        term = KvNTerm(factor=PhasePolynomial.monomial(2, (3, 0), 1), mode=1, sign=1)
        syn = apply_sequence(state, synthesize_term(term, 0.1))
        ora = exact_controlled_shift(state, term, 0.1)
        assert l2_distance(syn, ora) <= 1e-8


class TestTrotterOnGrid:
    def test_gaussian_grid_cross_validation_monotone(self):
        # quadratic generator: grid moments approach the exact Gaussian
        # flow as the step count doubles
        h = validate_separation(parse_polynomial("1/2 * x2^2 + 1/2 * x1^2", 2), 1)
        kvn = build_kvn(h)
        state = prepare_gaussian(SPEC2, [1.0, 0.0], 0.5 * np.eye(2))
        exact = evolve_gaussian(
            GaussianState.from_position_density(np.array([1.0, 0.0]), 0.5 * np.eye(2)),
            kvn,
            1.2,
        ).position_mean()
        errors = []
        for steps in (8, 16, 32, 64):
            out = apply_sequence(state, trotter_circuit(kvn, 1.2, steps, 1))
            mean, _ = position_moments(born_density(out))
            errors.append(np.linalg.norm(mean - exact))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize(
        "order, steps", [(1, (25, 50, 100, 200)), (2, (5, 10, 20, 40))]
    )
    def test_trotter_error_scales_with_its_order(self, order, steps):
        # the grid mean's error against the exact Gaussian flow falls as
        # n_steps^-order (quadratic generator, so only Trotter error remains)
        h = validate_separation(parse_polynomial("1/2 * x2^2 + 1/2 * x1^2", 2), 1)
        kvn = build_kvn(h)
        state = prepare_gaussian(SPEC2, [1.0, 0.0], 0.5 * np.eye(2))
        exact = evolve_gaussian(
            GaussianState.from_position_density(np.array([1.0, 0.0]), 0.5 * np.eye(2)),
            kvn,
            1.3,
        ).position_mean()
        errors = []
        for n in steps:
            out = apply_sequence(state, trotter_circuit(kvn, 1.3, n, order))
            mean, _ = position_moments(born_density(out))
            errors.append(np.linalg.norm(mean - exact))
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert abs(slope + order) <= 0.2

    def test_time_reversal_composes_to_identity(self):
        h = validate_separation(
            parse_polynomial("1/2 * x2^2 + 1/2 * x1^2 + 1/40 * x1^4", 2), 1
        )
        circ = trotter_circuit(build_kvn(h), 0.8, 4, 1)
        state = prepare_gaussian(SPEC2, [1.0, 0.0], 0.5 * np.eye(2))
        out = apply_sequence(apply_sequence(state, circ), circ.inverse())
        assert l2_distance(out, state) <= 1e-8

    def test_born_density_approaches_liouville_density_under_refinement(self):
        # the squared modulus of the evolved state converges to the
        # transported classical density as the product formula is refined
        from kvnsim.oracle import (
            FlowMap,
            compare_densities,
            gaussian_density,
            liouville_density_grid,
        )

        h = validate_separation(parse_polynomial("1/2 * x2^2 + 1/2 * x1^2", 2), 1)
        kvn = build_kvn(h)
        spec = GridSpec(num_modes=2, points_per_mode=64, half_extent=8.0)
        state = prepare_gaussian(spec, [1.0, 0.0], 0.5 * np.eye(2))
        reference = liouville_density_grid(
            FlowMap(h, dt=1e-3), gaussian_density([1.0, 0.0], 0.5 * np.eye(2)), 1.0, spec
        )
        tvs = []
        for steps in (10, 40, 160):
            out = apply_sequence(state, trotter_circuit(kvn, 1.0, steps, 1))
            tvs.append(compare_densities(born_density(out), reference).total_variation)
        assert tvs[0] > tvs[1] > tvs[2]


class TestMeasurement:
    def test_concentrated_density_sampled_exactly(self):
        spec = GridSpec(num_modes=1, points_per_mode=64, half_extent=8.0)
        psi = np.zeros(64, dtype=np.complex128)
        psi[40] = 1.0 / np.sqrt(spec.dx)
        state = GridState(spec, psi)
        samples = measure_positions(state, 50, seed=3)
        assert np.all(samples[:, 0] == spec.positions()[40])

    def test_deterministic_given_seed(self):
        state = prepare_gaussian(SPEC1, [0.0], np.array([[1.0]]))
        a = measure_positions(state, 1000, seed=11)
        b = measure_positions(state, 1000, seed=11)
        assert np.array_equal(a, b)
        c = measure_positions(state, 1000, seed=12)
        assert not np.array_equal(a, c)

    def test_sample_mean_within_clt_bound_across_seeds(self):
        state = prepare_gaussian(SPEC1, [0.0], np.array([[1.0]]))
        n = 100_000
        bound = 3.0 / np.sqrt(n)  # 3 sigma / sqrt(n) with sigma = 1
        hits = 0
        for seed in range(20):
            samples = measure_positions(state, n, seed=seed)
            if abs(samples[:, 0].mean()) <= bound:
                hits += 1
        assert hits == 20

    def test_rejects_zero_samples(self):
        state = prepare_gaussian(SPEC1, [0.0], np.array([[1.0]]))
        with pytest.raises(ValueError, match="num_samples"):
            measure_positions(state, 0, seed=0)


class TestBornDensity:
    def test_vacuum_peaks_at_origin(self):
        state = prepare_gaussian(SPEC2, [0.0, 0.0], 0.5 * np.eye(2))
        rho = born_density(state)
        idx = np.unravel_index(np.argmax(rho.values), rho.values.shape)
        assert SPEC2.positions()[idx[0]] == 0.0
        assert SPEC2.positions()[idx[1]] == 0.0
        assert rho.total() == pytest.approx(1.0, abs=1e-9)

    def test_density_covariance_matches_request(self):
        cov = np.diag([0.3, 0.9])
        state = prepare_gaussian(SPEC2, [0.0, 0.5], cov)
        _, measured = position_moments(born_density(state))
        assert np.allclose(measured, cov, atol=1e-6)

    def test_global_phase_leaves_density_unchanged(self):
        # identical up to one rounding step of the complex modulus
        state = prepare_gaussian(SPEC1, [0.4], np.array([[0.5]]))
        rotated = GridState(state.spec, state.psi * np.exp(1j * 0.7318))
        assert np.allclose(
            np.abs(state.psi) ** 2, np.abs(rotated.psi) ** 2, rtol=1e-12, atol=0.0
        )

    def test_boundary_mass_tiny_for_contained_state(self):
        state = prepare_gaussian(SPEC1, [0.0], np.array([[0.5]]))
        assert boundary_mass(state) <= 1e-12


class TestCsvExports:
    def test_density_csv_shape_and_determinism(self):
        spec = GridSpec(num_modes=1, points_per_mode=16, half_extent=4.0)
        state = prepare_gaussian(spec, [0.0], np.array([[0.4]]))
        text = density_to_csv(born_density(state))
        lines = text.strip().splitlines()
        assert lines[0] == "x1,density"
        assert len(lines) == 17
        assert text == density_to_csv(born_density(state))

    @staticmethod
    def check_density_csv(density):
        text, expected = density_to_csv(density), plain_density_to_csv(density)
        if text != expected:  # report the first difference, not a diff of megabytes
            k = len(os.path.commonprefix([text, expected]))
            near = slice(max(k - 30, 0), k + 30)
            pytest.fail(f"at byte {k}: {text[near]!r} != {expected[near]!r}")
        values = [float(line.rsplit(",", 1)[1]) for line in text.splitlines()[1:]]
        assert values == density.values.ravel().tolist()

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        num_modes=st.integers(1, 3),
        half_extent=st.sampled_from([4.0, 8.0, 16.0 / 3.0]),
    )
    def test_density_csv_matches_per_cell_writer(self, data, num_modes, half_extent):
        spec = GridSpec(num_modes=num_modes, points_per_mode=16, half_extent=half_extent)
        elements = st.sampled_from(EDGE_VALUES) | st.floats(0.0, 1e300)
        values = data.draw(arrays(np.float64, spec.shape, elements=elements))
        self.check_density_csv(DensityGrid(spec, values))

    def test_density_csv_matches_per_cell_writer_four_modes(self):
        spec = GridSpec(num_modes=4, points_per_mode=16, half_extent=8.0)
        values = np.random.default_rng(5).random(spec.shape) ** 9
        values.flat[: len(EDGE_VALUES)] = EDGE_VALUES
        values[-1, -1, -1, -len(EDGE_VALUES):] = EDGE_VALUES
        self.check_density_csv(DensityGrid(spec, values))

    def test_samples_csv_matches_per_value_formula(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-300, 300, size=(40, 3))
        samples[0] = EDGE_VALUES[:3]
        samples[1] = [-0.0, *EDGE_VALUES[3:]]
        state = prepare_gaussian(SPEC2, [0.3, -0.1], 0.5 * np.eye(2))
        for case in (samples, measure_positions(state, 50, seed=2)):
            header = ",".join(f"x{i + 1}" for i in range(case.shape[1]))
            rows = [",".join(repr(float(v)) for v in row) for row in case]
            assert samples_to_csv(case) == "\n".join([header, *rows]) + "\n"


class TestCompiledPlan:
    """apply_sequence fuses neighbours, caches tables and tracks the basis
    of each axis lazily; a loop of single-gate apply_gate calls (each its
    own one-gate plan, with every axis back in position between gates) is
    the reference."""

    @staticmethod
    def gate_by_gate(state, seq):
        for gate in seq:
            state = apply_gate(state, gate)
        return state

    @pytest.mark.parametrize(
        "n,hamiltonian,points,mean,steps",
        [
            (1, "1/2 * x2^2 + 1/2 * x1^2 + 1/40 * x1^4", 64, [1.0, 0.0], 20),
            (2, COUPLED4_H, 16, [1.0, 0.5, 0.0, 0.0], 4),
        ],
        ids=["quartic", "coupled4"],
    )
    def test_plan_matches_gate_by_gate(self, n, hamiltonian, points, mean, steps):
        kvn = build_kvn(validate_separation(parse_polynomial(hamiltonian, 2 * n), n))
        half_extent = 16.0 if n == 1 else 8.0
        spec = GridSpec(num_modes=2 * n, points_per_mode=points, half_extent=half_extent)
        state = prepare_gaussian(spec, mean, 0.5 * np.eye(2 * n))
        circuit = trotter_circuit(kvn, 1.0, steps, 2)
        assert len(fuse_gates(circuit)) < len(circuit)
        planned = apply_sequence(state, circuit)
        reference = self.gate_by_gate(state, circuit)
        assert l2_distance(planned, reference) <= 1e-12 * reference.norm()

    def test_same_basis_runs_match_gate_by_gate(self):
        # position-diagonal CZ/Q/D/P ops on modes 0 and 1, then CX ops on the
        # momentum of mode 2 interleaved with position ops on mode 0; CX(1, 2)
        # would make its run's product span all three axes and starts a new run
        q, d, p = GateKind.QUARTIC_PHASE, GateKind.MOMENTUM_DISPLACEMENT, GateKind.QUADRATIC_PHASE
        cx, cz = GateKind.CONTROLLED_X, GateKind.CONTROLLED_Z
        block = [
            Gate(cz, (0, 1), 0.3), Gate(q, (0,), 0.02), Gate(d, (1,), 0.4),
            Gate(p, (0,), -0.25), Gate(cz, (1, 0), -0.15),
            Gate(cx, (0, 2), 0.2), Gate(q, (0,), -0.03), Gate(cx, (0, 2), -0.35),
            Gate(d, (0,), 0.1), Gate(cx, (1, 2), 0.25), Gate(cx, (0, 2), 0.15),
            Gate(GateKind.FOURIER, (1,)), Gate(q, (1,), 0.01),
            Gate(GateKind.FOURIER_INVERSE, (1,)), Gate(cz, (1, 2), 0.2),
        ]
        seq = GateSequence(3, tuple(block * 3))
        spec = GridSpec(num_modes=3, points_per_mode=32, half_extent=8.0)
        state = prepare_gaussian(spec, [0.5, -0.3, 0.2], 0.5 * np.eye(3))
        assert len(grid._lower_plan(spec, seq)) == 57
        products = [step for step in grid._compile(spec, seq) if isinstance(step, np.ndarray)]
        assert len(products) == 30
        assert all(product.size < state.psi.size for product in products)
        planned = apply_sequence(state, seq)
        # the one-gate plans of gate_by_gate share the executor; the plain
        # reference below shares only the gates' tables
        psi = state.psi.copy()
        for gate in seq:
            for needs, table in grid._lower(spec, gate):
                axes = [axis for axis, momentum in needs if momentum]
                psi = np.fft.ifftn(np.fft.fftn(psi, axes=axes, norm="ortho") * table,
                                   axes=axes, norm="ortho")
        for reference in (self.gate_by_gate(state, seq), GridState(spec, psi)):
            assert l2_distance(planned, reference) <= 1e-12 * reference.norm()

    def test_quartic_config_fused_gate_count(self):
        config = load_config(QUARTIC_CONFIG)
        circuit = trotter_circuit(config.kvn, config.t, config.n_steps, config.order)
        assert len(circuit) == 6400
        assert len(fuse_gates(circuit)) == 4801

    @pytest.mark.parametrize(
        "name,counts",
        [("quartic", (6402, 6401, 0, 0)), ("harmonic", (802, 401, 0, 0)),
         ("coupled4", (124, 101, 60, 3))],
    )
    def test_step_counts(self, name, counts, every_stretch):
        # (transforms, multiplies, block steps, distinct block matrices)
        if name == "coupled4":
            spec = GridSpec(num_modes=4, points_per_mode=16, half_extent=8.0)
            circuit = trotter_circuit(kvn_of(COUPLED4_H, 2), 1.0, 20, 2)
        else:
            config = load_config(CONFIGS / f"{name}.json")
            spec = config.spec
            circuit = trotter_circuit(config.kvn, config.t, config.n_steps, config.order)
        steps = grid._compile(spec, circuit)
        assert step_counts(steps) == counts
        slabbed = grid._slabs(spec, steps)
        assert any(isinstance(step, grid._Slab) for step in slabbed)
        assert step_counts(slabbed) == counts

    def test_slab_work_threshold(self):
        # a stretch is slabbed when its grid points times steps reach
        # SLAB_MIN_WORK, and runs whole below that
        spec = GridSpec(num_modes=2, points_per_mode=256, half_extent=8.0)
        length = -(-grid.SLAB_MIN_WORK // 256 ** 2)
        stretch = [np.ones((1, 256), complex), (1, True)] * length
        assert [type(step) for step in grid._slabs(spec, stretch[:length])] == [grid._Slab]
        below = stretch[:length - 1]
        assert all(x is y for x, y in zip(grid._slabs(spec, below), below, strict=True))
        # of the shipped-style plans, only quartic's 56-step stretches qualify
        for name, lengths in (("quartic", {56}), ("harmonic", set()), ("coupled4", set())):
            spec, _, circuit = shipped_plan(name, 2)
            slabbed = grid._slabs(spec, grid._compile(spec, circuit))
            assert {len(step.parts[0]) for step in slabbed
                    if isinstance(step, grid._Slab)} == lengths

    def test_fusion_rules(self):
        cx = Gate(GateKind.CONTROLLED_X, (0, 1), 0.25)
        f, fdag = Gate(GateKind.FOURIER, (1,)), Gate(GateKind.FOURIER_INVERSE, (1,))
        # a cancelled F/FDAG pair exposes CX neighbours whose sum is exactly 0
        assert fuse_gates([cx, f, fdag, cx.inverse()]) == []
        assert fuse_gates([cx, cx]) == [Gate(GateKind.CONTROLLED_X, (0, 1), 0.5)]
        # different modes or kinds never merge
        cx_other = Gate(GateKind.CONTROLLED_X, (0, 2), 0.25)
        cx_rev = Gate(GateKind.CONTROLLED_X, (1, 0), 0.25)
        cz = Gate(GateKind.CONTROLLED_Z, (0, 1), 0.25)
        unfused = [cx, cx_other, cx_rev, cz, f, f]
        assert fuse_gates(unfused) == unfused

    def test_input_state_not_mutated(self):
        state = prepare_gaussian(SPEC2, [0.6, -0.2], 0.5 * np.eye(2))
        before = state.psi.copy()
        seq = cx_via_cz(0, 1, 0.7, 2) + GateSequence(
            2, (Gate(GateKind.CONTROLLED_X, (1, 0), 0.3),)
        )
        apply_sequence(state, seq)
        apply_gate(state, Gate(GateKind.QUARTIC_PHASE, (0,), 0.1))
        assert np.array_equal(state.psi, before)

    def test_empty_sequence_returns_equal_copy(self):
        state = prepare_gaussian(SPEC2, [0.6, -0.2], 0.5 * np.eye(2))
        out = apply_sequence(state, GateSequence(2))
        assert out.psi is not state.psi
        assert np.array_equal(out.psi, state.psi)

    @pytest.mark.parametrize("theta", [2.5, -2.0, 3 * np.pi / 4])
    def test_rotation_beyond_quarter_turn_matches_closed_form(self, theta):
        # R(theta) rotates the quadrature means: x -> x cos - p sin,
        # p -> x sin + p cos (F = R(pi/2) maps X to -P and P to X)
        state = apply_gate(
            prepare_gaussian(SPEC1, [0.8], np.array([[0.5]])),
            Gate(GateKind.MOMENTUM_DISPLACEMENT, (0,), -0.4),
        )
        x0, p0 = position_expectation(state, 0), momentum_expectation(state, 0)
        out = apply_gate(state, Gate(GateKind.ROTATION, (0,), theta))
        c, s = np.cos(theta), np.sin(theta)
        assert position_expectation(out, 0) == pytest.approx(x0 * c - p0 * s, abs=1e-8)
        assert momentum_expectation(out, 0) == pytest.approx(x0 * s + p0 * c, abs=1e-8)
        assert abs(out.norm() - 1.0) <= 1e-12

    def test_zero_strength_cz_is_exact_identity(self):
        state = prepare_gaussian(SPEC2, [0.5, 0.0], 0.25 * np.eye(2))
        out = apply_gate(state, Gate(GateKind.CONTROLLED_Z, (0, 1), 0.0))
        assert np.array_equal(out.psi, state.psi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_raises_blow_up(self, bad):
        state = prepare_gaussian(SPEC2, [0.0, 0.0], 0.5 * np.eye(2))
        state.psi[3, 5] = bad
        seq = GateSequence(2, (Gate(GateKind.CONTROLLED_X, (0, 1), 0.3),))
        with np.errstate(invalid="ignore"):
            with pytest.raises(BlowUpError, match="non-finite"):
                apply_sequence(state, seq)
            with pytest.raises(BlowUpError):
                apply_sequence(state, GateSequence(2))


def kvn_of(hamiltonian: str, n: int):
    return build_kvn(validate_separation(parse_polynomial(hamiltonian, 2 * n), n))


def random_state(spec: GridSpec, seed: int) -> GridState:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    return GridState(spec, psi / np.sqrt(np.sum(np.abs(psi) ** 2) * spec.cell_volume))


def uncomposed(state: GridState, seq: GateSequence) -> GridState:
    """apply_sequence with no memory for block matrices: every block runs
    op by op, as before composition."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid, "MEMORY_CAP_BYTES", state.psi.nbytes)
        return apply_sequence(state, seq)


def relative_deviation(a: GridState, b: GridState) -> float:
    return float(np.abs(a.psi - b.psi).max() / np.abs(b.psi).max())


def bases_before(ops, start: int, num_modes: int) -> list[bool]:
    """The basis of every axis just before op ``start``: lazy switching
    leaves each axis in the basis its last op needed."""
    in_momentum = [False] * num_modes
    for needs, _ in ops[:start]:
        for axis, momentum in needs:
            in_momentum[axis] = momentum
    return in_momentum


def composed_blocks(spec: GridSpec, seq) -> tuple[list, dict]:
    ops = grid._lower_plan(spec, seq)
    return ops, grid._composed_blocks(spec, ops)


def is_block(step) -> bool:
    return isinstance(step, tuple) and isinstance(step[0], grid._Block)


def serial_steps(steps) -> list:
    """A plan's steps with each slab step replaced by its first part, whose
    steps are those of the stretch it runs."""
    flat = []
    for step in steps:
        if isinstance(step, grid._Slab):
            lower, upper = step.parts
            assert [type(s) for s in lower] == [type(s) for s in upper]
            flat += lower
        else:
            flat.append(step)
    return flat


def step_counts(steps) -> tuple[int, int, int, int]:
    """Transforms, multiplies and block steps of a compiled plan, counted
    through its slab steps, and the number of distinct block matrices."""
    steps = serial_steps(steps)
    blocks = [step for step in steps if is_block(step)]
    multiplies = sum(isinstance(step, np.ndarray) for step in steps)
    return (len(steps) - multiplies - len(blocks), multiplies, len(blocks),
            len({id(matrices) for _, matrices in blocks}))


def needs_transpose(block, num_modes: int) -> bool:
    fixed = [axis for axis, _ in block.fixed]
    untouched = [a for a in range(num_modes) if a != block.axis and a not in fixed]
    layouts = (fixed + [block.axis] + untouched, fixed + untouched + [block.axis])
    return list(range(num_modes)) not in layouts


_Q, _P, _D = GateKind.QUARTIC_PHASE, GateKind.QUADRATIC_PHASE, GateKind.MOMENTUM_DISPLACEMENT
_CX, _CZ, _R = GateKind.CONTROLLED_X, GateKind.CONTROLLED_Z, GateKind.ROTATION
_F, _FDAG = GateKind.FOURIER, GateKind.FOURIER_INVERSE

# Three modes. Each step has a block on axis 0 that enters and leaves in
# momentum and holds axis 2 in position, which the step's first gate left in
# momentum (a hoisted switch); axis 1 is untouched, so the fibers (axis 2)
# follow the block's axis and every chunk takes a transpose.
HOISTED_TRANSPOSED = GateSequence(3, (
    Gate(_CX, (0, 2), 0.3), Gate(_CX, (1, 0), 0.2), Gate(_P, (2,), 0.1),
    Gate(_CX, (2, 0), 0.25), Gate(_Q, (0,), 0.02), Gate(_F, (0,)), Gate(_CX, (2, 0), -0.15),
) * 3)
# The plan's first op opens a composed block (axis 0, axis 2 held in
# position); CZ with the untouched axis 1 closes it each step.
BLOCK_FIRST = GateSequence(3, (
    Gate(_P, (2,), 0.1), Gate(_CX, (2, 0), 0.25), Gate(_Q, (0,), 0.02), Gate(_F, (0,)),
    Gate(_CX, (2, 0), -0.15), Gate(_Q, (0,), -0.01), Gate(_CZ, (1, 0), 0.2),
) * 3)
MULTIPLY_FIRST = GateSequence(3, (Gate(_Q, (1,), 0.05), Gate(_CX, (0, 1), 0.3)))


@st.composite
def repeated_plans(draw):
    """On 3 or 4 modes, a step of one to three stretches, each of gates on
    one axis and controls between it and some other axes, repeated two or
    three times."""
    d = draw(st.sampled_from([3, 4]))
    strength = st.floats(-0.5, 0.5).filter(bool)
    step = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, d - 1))
        others = [a for a in range(d) if a != k]
        controls = draw(st.lists(st.sampled_from(others), unique=True, max_size=d - 2))
        gates = [
            st.builds(Gate, st.sampled_from([_Q, _P, _D]), st.just((k,)), strength),
            st.builds(Gate, st.sampled_from([_F, _FDAG]), st.just((k,))),
            st.builds(Gate, st.just(_R), st.just((k,)), st.floats(-3.0, 3.0).filter(bool)),
        ]
        gates += [st.builds(Gate, st.sampled_from([_CX, _CZ]), st.sampled_from([(j, k), (k, j)]),
                            strength) for j in controls]
        step += draw(st.lists(st.one_of(gates), min_size=1, max_size=10))
    return GateSequence(d, tuple(step) * draw(st.integers(2, 3)))


class TestComposedBlocks:
    """A repeated single-axis block runs as one matmul by matrices built from
    its own ops; running every block op by op (no memory for matrices) is
    the reference."""

    def test_coupled4_composes_three_blocks_per_step(self):
        steps = 20
        spec = GridSpec(num_modes=4, points_per_mode=16, half_extent=8.0)
        circuit = trotter_circuit(kvn_of(COUPLED4_H, 2), 1.0, steps, 2)
        _, composed = composed_blocks(spec, circuit)
        blocks = list(composed.values())
        assert [block.axis for block in blocks] == [2, 3, 2] * steps
        assert len({block.key for block in blocks}) == 3
        # fibers on axes 0 and 1, one untouched axis: each block's matrices
        # take the state's size, and the two layouts need no transpose
        assert all([axis for axis, _ in block.fixed] == [0, 1] for block in blocks)
        assert not any(needs_transpose(block, 4) for block in blocks)
        assert min(block.transforms for block in blocks) >= 17
        block_steps = [step for step in grid._compile(spec, circuit) if is_block(step)]
        # a key holds table ids, which differ between two lowerings
        assert [block[:7] for block, _ in block_steps] == [block[:7] for block in blocks]
        assert len({id(matrices) for _, matrices in block_steps}) == 3
        state = prepare_gaussian(spec, [1.0, 0.5, 0.0, 0.0], 0.5 * np.eye(4))
        planned = apply_sequence(state, circuit)
        assert relative_deviation(planned, uncomposed(state, circuit)) <= 1e-12

    def test_plan_arrays_freed_by_reference_counting(self):
        # a reference cycle would hold the block matrices and run products
        # (48 MB on the benchmark's coupled run) until the cycle collector runs
        spec = GridSpec(num_modes=3, points_per_mode=16, half_extent=8.0)
        gc.disable()
        try:
            steps = grid._compile(spec, HOISTED_TRANSPOSED)
            assert any(is_block(step) for step in steps)
            refs = [weakref.ref(step[1] if is_block(step) else step) for step in steps
                    if is_block(step) or isinstance(step, np.ndarray)]
            del steps
            assert refs and all(ref() is None for ref in refs)
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "hamiltonian,points,half_extent,t,steps,order",
        [
            ("1/2 * x2^2 + 1/2 * x1^2 + 1/40 * x1^4", 256, 16.0, 1.0, 200, 2),
            ("1/2 * x2^2 + 1/2 * x1^2", 128, 8.0, np.pi / 2, 200, 2),
            ("1/2 * x2^2 + 1/2 * x1^2", 128, 8.0, np.pi / 2, 25, 1),
            ("1/2 * x2^2 + 1/2 * x1^2", 128, 8.0, np.pi / 2, 200, 1),
            ("1/2 * x2^2 + 1/2 * x1^2 + 1/40 * x1^4", 64, 16.0, 1.0, 20, 2),
        ],
        ids=["quartic-C6", "harmonic-C4", "C4-order1-25", "C4-order1-200", "quartic-64"],
    )
    def test_two_axis_plans_compose_nothing(self, hamiltonian, points, half_extent, t,
                                            steps, order):
        spec = GridSpec(num_modes=2, points_per_mode=points, half_extent=half_extent)
        circuit = trotter_circuit(kvn_of(hamiltonian, 1), t, steps, order)
        ops, composed = composed_blocks(spec, circuit)
        assert composed == {}
        assert max((block.transforms for block in grid._blocks(2, ops)), default=0) <= 3

    def test_hoisted_switch_transpose_and_momentum_ends(self):
        spec = GridSpec(num_modes=3, points_per_mode=16, half_extent=8.0)
        ops, composed = composed_blocks(spec, HOISTED_TRANSPOSED)
        assert len(composed) == 3
        for start, block in composed.items():
            before = bases_before(ops, start, 3)
            assert block.entry and block.exit and before[block.axis]
            assert [axis for axis, momentum in block.fixed if before[axis] != momentum] == [2]
            assert needs_transpose(block, 3)
        state = random_state(spec, 0)
        planned = apply_sequence(state, HOISTED_TRANSPOSED)
        reference = TestCompiledPlan.gate_by_gate(state, HOISTED_TRANSPOSED)
        assert relative_deviation(planned, uncomposed(state, HOISTED_TRANSPOSED)) <= 1e-12
        assert relative_deviation(planned, reference) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seq=repeated_plans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(seq=HOISTED_TRANSPOSED, seed=0)
    def test_composed_plans_match_uncomposed(self, seq, seed):
        spec = GridSpec(num_modes=seq.num_modes, points_per_mode=16, half_extent=8.0)
        state = random_state(spec, seed)
        before = state.psi.copy()
        planned = apply_sequence(state, seq)
        assert np.array_equal(state.psi, before)
        assert relative_deviation(planned, uncomposed(state, seq)) <= 1e-12

    @pytest.mark.parametrize("name", ["empty", "multiply-first", "block-first",
                                      "ends-in-momentum"])
    def test_input_state_never_written(self, name):
        spec = GridSpec(num_modes=3, points_per_mode=16, half_extent=8.0)
        seq = {"empty": GateSequence(3), "multiply-first": MULTIPLY_FIRST,
               "block-first": BLOCK_FIRST, "ends-in-momentum": HOISTED_TRANSPOSED}[name]
        ops, composed = composed_blocks(spec, seq)
        if name == "multiply-first":
            assert not any(momentum for _, momentum in ops[0].needs)
        if name == "block-first":
            assert 0 in composed
        if name == "ends-in-momentum":
            assert any(bases_before(ops, len(ops), 3))
        state = random_state(spec, 1)
        before = state.psi.copy()
        outputs = [apply_sequence(state, seq)]
        outputs += [apply_gate(state, gate) for gate in seq]
        assert np.array_equal(state.psi, before)
        assert all(not np.shares_memory(out.psi, state.psi) for out in outputs)


@pytest.fixture
def every_stretch(monkeypatch):
    """Slab every nonempty stretch, whatever its work, so that small plans
    exercise slab execution."""
    monkeypatch.setattr(grid, "SLAB_MIN_WORK", 1)


def shipped_plan(name: str, n_steps: int | None = None):
    """Spec, initial state and circuit of a shipped config, or of COUPLED4
    on 16 points per mode, optionally with fewer steps."""
    if name == "coupled4":
        spec = GridSpec(num_modes=4, points_per_mode=16, half_extent=8.0)
        state = prepare_gaussian(spec, [1.0, 0.5, 0.0, 0.0], 0.5 * np.eye(4))
        return spec, state, trotter_circuit(kvn_of(COUPLED4_H, 2), 1.0, n_steps or 20, 2)
    config = load_config(CONFIGS / f"{name}.json")
    state = prepare_gaussian(config.spec, config.mean, config.covariance)
    circuit = trotter_circuit(config.kvn, config.t, n_steps or config.n_steps, config.order)
    return config.spec, state, circuit


def scipy_per_op(state: GridState, seq: GateSequence) -> np.ndarray:
    """Gate by gate and op by op, each op transforming its momentum axes
    there and back with scipy.fft: the slow path the plan replaces."""
    import scipy.fft

    psi = state.psi.copy()
    for gate in seq:
        for needs, table in grid._lower(state.spec, gate):
            axes = [axis for axis, momentum in needs if momentum]
            psi = scipy.fft.fftn(psi, axes=axes, norm="ortho") if axes else psi
            psi = psi * table
            psi = scipy.fft.ifftn(psi, axes=axes, norm="ortho") if axes else psi
    return psi


@pytest.mark.usefixtures("every_stretch")
class TestSlabs:
    """A stretch of transforms and multiplies runs on two halves of an
    axis it never transforms, one in a worker thread; every 1-D transform
    and multiply stays within its half, so the result is bitwise that of
    serial execution. Every stretch is slabbed here, whatever its work."""

    @pytest.mark.parametrize("name,n_steps", [("quartic", 20), ("harmonic", None),
                                              ("coupled4", 4)])
    def test_slab_execution_equals_serial_bitwise(self, name, n_steps):
        spec, state, circuit = shipped_plan(name, n_steps)
        steps = grid._compile(spec, circuit)
        slabbed = grid._slabs(spec, steps)
        slabs = [step for step in slabbed if isinstance(step, grid._Slab)]
        assert slabs
        for slab in slabs:
            # the slab axis is never transformed inside its own stretch
            assert all(step[0] != slab.axis for step in slab.parts[0]
                       if not isinstance(step, np.ndarray))
            # sliced tables are views of the compiled ones
            assert all(step.base is not None for step in slab.parts[1]
                       if isinstance(step, np.ndarray) and step.shape[slab.axis] > 1)
        serial, parallel = state.psi.copy(), state.psi.copy()
        grid._execute(steps, serial)
        grid._execute(slabbed, parallel)
        assert np.array_equal(parallel, serial)
        assert np.array_equal(apply_sequence(state, circuit).psi, serial)

    def test_stretch_boundaries(self):
        spec = GridSpec(num_modes=3, points_per_mode=32, half_extent=8.0)
        a, b = np.ones((32, 1, 1), complex), np.ones((1, 32, 32), complex)
        steps = [a, (1, True), b, (2, True), a, (1, False),  # slab axis 0
                 (0, True), b, (0, False),                    # axis 0: slab axis 1
                 (1, True), b]                                # axis 1 ends it
        slabbed = grid._slabs(spec, steps)
        assert [(step.axis, len(step.parts[0])) for step in slabbed] == [(0, 6), (1, 3), (0, 2)]
        assert slabbed[0].parts[0][0].shape == (16, 1, 1)
        assert slabbed[1].parts[1][1].shape == (1, 16, 32)
        # a block ends a stretch and runs whole
        block = (grid._Block(0, 0, 0, False, False, 0, (), ()), np.eye(32))
        slabbed = grid._slabs(spec, [(1, True), block, a])
        assert [type(step) for step in slabbed] == [grid._Slab, tuple, grid._Slab]
        assert slabbed[1] is block

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    def test_numpy_transforms_match_scipy(self, n):
        import scipy.fft

        rng = np.random.default_rng(n)
        base = rng.normal(size=(n, 2 * n)) + 1j * rng.normal(size=(n, 2 * n))
        views = [(slice(None), slice(None)), (slice(None), slice(n, None)),
                 (slice(None), slice(None, None, 2)), (slice(n // 2, None), slice(None))]
        for index in views:
            for axis in (0, 1):
                for ours, theirs in ((grid._fft, scipy.fft.fft), (grid._ifft, scipy.fft.ifft)):
                    psi = base.copy()
                    view = psi[index]
                    expected = theirs(view, axis=axis, norm="ortho")
                    out = ours(view, axis)
                    assert out is view  # written in place, through the view
                    assert np.abs(view - expected).max() <= 1e-15 * np.abs(expected).max()
                    outside = np.ones(base.shape, bool)
                    outside[index] = False
                    assert np.array_equal(psi[outside], base[outside])

    @pytest.mark.parametrize("name,n_steps", [("harmonic", None), ("coupled4", 4)])
    def test_final_state_matches_scipy_per_op(self, name, n_steps):
        spec, state, circuit = shipped_plan(name, n_steps)
        planned = apply_sequence(state, circuit)
        reference = GridState(spec, scipy_per_op(state, circuit))
        assert relative_deviation(planned, reference) <= 1e-12

    @pytest.mark.parametrize("errors", ["ignore", "raise"])
    def test_worker_runs_under_callers_errstate(self, errors):
        # the non-finite cell lies in the upper half of both axes, which the
        # worker runs; numpy's error state is per thread
        spec = GridSpec(num_modes=2, points_per_mode=256, half_extent=8.0)
        psi = prepare_gaussian(spec, [0.0, 0.0], 0.5 * np.eye(2)).psi
        psi[200, 200] = np.inf
        seq = GateSequence(2, (Gate(GateKind.CONTROLLED_X, (0, 1), 0.3),))
        steps = grid._slabs(spec, grid._compile(spec, seq))
        assert [type(step) for step in steps] == [grid._Slab]
        with np.errstate(invalid=errors):
            if errors == "raise":
                with pytest.raises(FloatingPointError):
                    grid._execute(steps, psi)
            else:
                grid._execute(steps, psi)
                assert not np.isfinite(psi[128:]).all() and np.isfinite(psi[:128]).all()
                with pytest.raises(BlowUpError, match="non-finite"):
                    apply_sequence(GridState(spec, psi), seq)

    def test_forked_child_makes_its_own_worker(self):
        # the parent's pool is inherited without its thread; a child that
        # submitted to it would wait forever
        spec = GridSpec(num_modes=2, points_per_mode=128, half_extent=8.0)
        psi = prepare_gaussian(spec, [0.0, 0.0], 0.5 * np.eye(2)).psi
        seq = GateSequence(2, (Gate(GateKind.CONTROLLED_X, (0, 1), 0.3),))
        steps = grid._slabs(spec, grid._compile(spec, seq))
        grid._execute(steps, psi.copy())
        with warnings.catch_warnings():
            # Python 3.12 warns when a process with threads forks
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                grid._execute(steps, psi.copy())
                os._exit(0)
            finally:
                os._exit(1)
        deadline = time.monotonic() + 60.0
        while not (status := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung on its first slab step")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status[1]) == 0
