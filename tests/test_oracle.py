import math

import numpy as np
import pytest

from kvnsim.grid import DensityGrid, GridSpec
from kvnsim.kvn import validate_separation
from kvnsim.oracle import (
    BlowUpError,
    ClassicalEnsemble,
    FlowMap,
    compare_densities,
    ensemble_evolve,
    gaussian_density,
    liouville_density_grid,
)
from kvnsim.phasepoly import PhasePolynomial, parse_polynomial


def ho():
    return validate_separation(parse_polynomial("1/2 * x2^2 + 1/2 * x1^2", 2), 1)


def quartic():
    return validate_separation(
        parse_polynomial("1/2 * x2^2 + 1/2 * x1^2 + 1/40 * x1^4", 2), 1
    )


def free_particle():
    return validate_separation(parse_polynomial("1/2 * x2^2", 2), 1)


def coupled():
    return validate_separation(
        parse_polynomial(
            "1/2 * x3^2 + 1/2 * x4^2 + 1/2 * x1^2 + 1/2 * x2^2 + 1/20 * x1^2 * x2^2", 4
        ),
        2,
    )


def plain_leapfrog(h, points, steps):
    """Reference flow: kick-drift-kick with unmerged half-kicks, one point at
    a time through PhasePolynomial.evaluate_array."""
    n = h.n
    grad_v = [h.V.partial_derivative(j) for j in range(n)]
    grad_t = [h.T.partial_derivative(n + j) for j in range(n)]
    out = []
    for point in np.asarray(points, dtype=float).reshape(-1, 2 * n):
        x = [float(v) for v in point]
        for dt in steps:
            for j in range(n):
                x[n + j] -= dt / 2.0 * float(grad_v[j].evaluate_array(x))
            drifts = [float(g.evaluate_array(x)) for g in grad_t]
            for j in range(n):
                x[j] += dt * drifts[j]
            for j in range(n):
                x[n + j] -= dt / 2.0 * float(grad_v[j].evaluate_array(x))
        out.append(x)
    return np.array(out)


class TestFlow:
    def test_harmonic_quarter_period(self):
        fm = FlowMap(ho(), dt=1e-4)
        out = fm.flow_array([1.0, 0.0], np.pi / 2)
        assert np.allclose(out, [0.0, -1.0], atol=1e-8)

    def test_zero_time_exact(self):
        fm = FlowMap(ho())
        out = fm.flow_array([0.3, 0.7], 0.0)
        assert np.array_equal(out, [0.3, 0.7])

    def test_reversibility(self):
        fm = FlowMap(quartic(), dt=1e-3)
        x0 = np.array([1.1, -0.4])
        back = fm.flow_array(fm.flow_array(x0, 0.9), -0.9)
        assert np.allclose(back, x0, atol=1e-8)

    def test_rk4_and_leapfrog_agree(self):
        leap = FlowMap(ho(), integrator="leapfrog", dt=1e-3)
        rk = FlowMap(ho(), integrator="rk4", dt=1e-3)
        a = leap.flow_array([1.0, 0.0], 1.0)
        b = rk.flow_array([1.0, 0.0], 1.0)
        assert np.linalg.norm(a - b) <= 1e-4

    def test_energy_drift_bound_harmonic(self):
        # relative energy error at 20 checkpoints up to t = 10, flowing from
        # each checkpoint to the next
        fm = FlowMap(ho(), dt=1e-3)
        energy = ho().total()
        x = np.array([1.0, 0.0])
        e0 = float(energy.evaluate_array(x))
        worst = 0.0
        for _ in range(20):
            x = fm.flow_array(x, 10.0 / 20)
            worst = max(worst, abs(float(energy.evaluate_array(x)) - e0) / e0)
        assert worst <= 1e-6

    def test_unknown_integrator(self):
        with pytest.raises(ValueError, match="integrator"):
            FlowMap(ho(), integrator="euler")

    def test_blow_up_reported(self):
        # inverted quartic potential: the force diverges and the orbit escapes
        h = validate_separation(parse_polynomial("1/2 * x2^2 - x1^4", 2), 1)
        fm = FlowMap(h, dt=0.05)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):
                fm.flow_array([3.0, 0.0], 50.0)

    @pytest.mark.parametrize(
        "t, steps", [(1.0, 1000), (2.5, 2500), (-2.5, 2500), (2.5005, 2501)]
    )
    def test_step_count(self, monkeypatch, t, steps):
        # whole multiples of dt take no extra sliver step; a real remainder
        # takes one shortened step
        calls = []
        evaluate_array = PhasePolynomial.evaluate_array

        def counting(self, coords):
            calls.append(1)
            return evaluate_array(self, coords)

        monkeypatch.setattr(PhasePolynomial, "evaluate_array", counting)
        FlowMap(ho(), dt=1e-3).flow_array([1.0, 0.0], t)
        # one drift per step plus one kick per step boundary, merged kicks
        assert len(calls) == 2 * steps + 1
        calls.clear()
        FlowMap(ho(), integrator="rk4", dt=1e-3).flow_array([1.0, 0.0], t)
        assert len(calls) == 8 * steps

    def test_flow_matches_plain_leapfrog_coupled(self):
        h = coupled()
        rng = np.random.default_rng(8)
        points = rng.uniform(-2.0, 2.0, size=(40, 4))
        t, dt = 0.537, 0.01
        expected = plain_leapfrog(h, points, [dt] * 53 + [t - 53 * dt])
        got = FlowMap(h, dt=dt).flow_array(points, t)
        assert got.shape == points.shape and got.dtype == np.float64
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("integrator, order", [("leapfrog", 2), ("rk4", 4)])
    def test_convergence_order(self, integrator, order):
        # halving dt divides the error by 2**order
        h = quartic()
        x0 = np.array([[1.5, 0.0], [-0.5, 1.2], [0.8, -0.9]])
        t = 1.0
        reference = FlowMap(h, integrator="rk4", dt=1e-3).flow_array(x0, t)
        errors = [
            np.abs(FlowMap(h, integrator=integrator, dt=dt).flow_array(x0, t) - reference).max()
            for dt in (0.1, 0.05, 0.025)
        ]
        slopes = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(slopes - order) <= 0.25), slopes

    def test_leapfrog_step_preserves_phase_space_volume(self):
        # complex-step Jacobian of one step: determinant 1 to 1e-12
        fm = FlowMap(quartic(), dt=1e-3)
        rng = np.random.default_rng(5)
        h = 1e-20
        for _ in range(5):
            x0 = rng.uniform(-1.5, 1.5, size=2)
            jac = np.empty((2, 2))
            for j in range(2):
                z = x0.astype(complex)
                z[j] += 1j * h
                out = fm.flow_array(z, fm.dt)
                jac[:, j] = out.imag / h
            assert abs(np.linalg.det(jac) - 1.0) <= 1e-12


class TestLiouvilleDensity:
    def test_initial_time(self):
        fm = FlowMap(ho())
        rho0 = gaussian_density([1.0, 0.0], 0.5 * np.eye(2))
        x = np.array([0.3, 0.4])
        # rho(x, t) = rho0(flow(x, -t)) by characteristics
        assert float(rho0(fm.flow_array(x, 0.0))) == pytest.approx(float(rho0(x)))

    def test_harmonic_gaussian_pushforward(self):
        # rotation flow: density at t is the initial Gaussian rotated
        fm = FlowMap(ho(), dt=1e-4)
        rho0 = gaussian_density([1.0, 0.0], np.diag([0.5, 0.2]))
        t = np.pi / 2
        c, s = math.cos(t), math.sin(t)
        rot = np.array([[c, s], [-s, c]])  # flow matrix of dx1=x2, dx2=-x1
        pushed_mean = rot @ np.array([1.0, 0.0])
        pushed_cov = rot @ np.diag([0.5, 0.2]) @ rot.T
        pushed = gaussian_density(pushed_mean, pushed_cov)
        # the ten points flow in one call; each row is the same arithmetic
        # as a one-point call
        points = np.random.default_rng(2).uniform(-2, 2, size=(10, 2))
        for x, origin in zip(points, fm.flow_array(points, -t)):
            assert float(rho0(origin)) == pytest.approx(
                float(pushed(x)), rel=1e-5, abs=1e-9
            )

    def test_free_particle_characteristics(self):
        # rho(x1, x2, t) = rho0(x1 - t x2, x2)
        fm = FlowMap(free_particle(), dt=1e-3)
        rho0 = gaussian_density([0.0, 0.0], np.diag([0.4, 0.6]))
        t = 0.8
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, size=2)
            expected = float(rho0(np.array([x[0] - t * x[1], x[1]])))
            assert float(rho0(fm.flow_array(x, -t))) == pytest.approx(
                expected, rel=1e-6, abs=1e-12
            )

    def test_grid_density_matches_plain_leapfrog(self):
        spec = GridSpec(num_modes=2, points_per_mode=64, half_extent=6.0)
        h = quartic()
        fm = FlowMap(h, dt=0.01)
        rho0 = gaussian_density([1.0, 0.0], 0.5 * np.eye(2))
        t = 0.3
        xs = spec.positions()
        mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        origins = plain_leapfrog(h, mesh, [-0.01] * 30)
        expected = rho0(origins).reshape(spec.shape)
        got = liouville_density_grid(fm, rho0, t, spec).values
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_grid_density_integrates_to_one(self):
        spec = GridSpec(num_modes=2, points_per_mode=128, half_extent=8.0)
        fm = FlowMap(ho(), dt=1e-3)
        rho0 = gaussian_density([1.0, 0.0], 0.5 * np.eye(2))
        table = liouville_density_grid(fm, rho0, 0.7, spec)
        assert table.total() == pytest.approx(1.0, abs=1e-6)
        assert np.all(table.values >= 0)


class TestEnsemble:
    def test_zero_time_identity(self):
        ens = ClassicalEnsemble.gaussian([0.0, 0.0], 0.5 * np.eye(2), 500, seed=1)
        out = ensemble_evolve(FlowMap(ho()), ens, 0.0)
        assert np.array_equal(out.samples, ens.samples)

    def test_harmonic_mean_follows_closed_form(self):
        n = 20_000
        ens = ClassicalEnsemble.gaussian([1.0, 0.0], 0.5 * np.eye(2), n, seed=4)
        out = ensemble_evolve(FlowMap(ho(), dt=1e-3), ens, np.pi / 2)
        mc_tolerance = 4.0 * math.sqrt(0.5 / n)
        assert np.allclose(out.mean(), [0.0, -1.0], atol=mc_tolerance)

    def test_quartic_energy_conserved_per_sample(self):
        h = quartic()
        fm = FlowMap(h, dt=1e-3)
        ens = ClassicalEnsemble.gaussian([1.0, 0.0], 0.25 * np.eye(2), 1000, seed=6)
        out = ensemble_evolve(fm, ens, 2.0)
        energy = h.total()
        e0 = energy.evaluate_array(ens.samples.T)
        e1 = energy.evaluate_array(out.samples.T)
        rel = np.abs(e1 - e0) / np.maximum(np.abs(e0), 1e-12)
        assert rel.max() <= 1e-6

    def test_count_preserved(self):
        ens = ClassicalEnsemble.gaussian([0.0, 0.0], np.eye(2), 123, seed=9)
        out = ensemble_evolve(FlowMap(ho()), ens, 0.3)
        assert out.samples.shape == ens.samples.shape

    def test_rejects_empty_or_nonfinite(self):
        with pytest.raises(ValueError):
            ClassicalEnsemble(np.empty((0, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            ClassicalEnsemble(np.array([[np.inf, 0.0]]))


class TestCompareDensities:
    def spec(self):
        return GridSpec(num_modes=1, points_per_mode=256, half_extent=8.0)

    def sample(self, spec, fn):
        xs = spec.positions().reshape(-1, 1)
        return DensityGrid(spec, np.asarray(fn(xs), dtype=float))

    def test_identical_densities(self):
        spec = self.spec()
        a = self.sample(spec, gaussian_density([0.0], [[1.0]]))
        out = compare_densities(a, a)
        assert out.total_variation == 0.0
        assert np.allclose(out.first_moment_error, 0.0)
        assert out.second_moment_error_norm == 0.0

    def test_disjoint_indicators(self):
        spec = self.spec()
        left = np.zeros(256)
        right = np.zeros(256)
        left[:128] = 1.0
        right[128:] = 1.0
        cell = spec.cell_volume
        a = DensityGrid(spec, left / (128 * cell))
        b = DensityGrid(spec, right / (128 * cell))
        assert compare_densities(a, b).total_variation == pytest.approx(1.0)

    def test_shifted_gaussian_matches_erf_formula(self):
        # TV( N(0,1), N(shift,1) ) = erf(shift / (2 sqrt(2)))
        spec = self.spec()
        shift = 0.1
        a = self.sample(spec, gaussian_density([0.0], [[1.0]]))
        b = self.sample(spec, gaussian_density([shift], [[1.0]]))
        tv = compare_densities(a, b).total_variation
        assert tv == pytest.approx(math.erf(shift / (2 * math.sqrt(2))), rel=0.02)

    def test_grid_mismatch_rejected(self):
        a = self.sample(self.spec(), gaussian_density([0.0], [[1.0]]))
        other = GridSpec(num_modes=1, points_per_mode=128, half_extent=8.0)
        b = self.sample(other, gaussian_density([0.0], [[1.0]]))
        with pytest.raises(ValueError, match="different grids"):
            compare_densities(a, b)
