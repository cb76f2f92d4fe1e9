import math
import re

import numpy as np
import pytest

from kvnsim.grid import DensityGrid, GridSpec
from kvnsim.kvn import validate_separation
from kvnsim.oracle import (
    FLOW_CHUNK,
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


def plain_gradients(h):
    """grad V and grad T as functions of one point in plain Python floats,
    each summed term by term from its ``terms`` (no kvnsim evaluator)."""
    def gradient(poly):
        terms = [(float(c), expo) for expo, c in poly.terms.items()]
        return lambda x: sum(
            c * math.prod(v ** e for v, e in zip(x, expo) if e) for c, expo in terms
        )

    n = h.n
    return ([gradient(h.V.partial_derivative(j)) for j in range(n)],
            [gradient(h.T.partial_derivative(n + j)) for j in range(n)])


def plain_leapfrog(h, points, steps):
    """Reference flow: kick-drift-kick with unmerged half-kicks, one point at
    a time in plain Python floats."""
    n = h.n
    grad_v, grad_t = plain_gradients(h)
    out = []
    for point in np.asarray(points, dtype=float).reshape(-1, 2 * n):
        x = [float(v) for v in point]
        for dt in steps:
            for j in range(n):
                x[n + j] -= dt / 2.0 * grad_v[j](x)
            drifts = [g(x) for g in grad_t]
            for j in range(n):
                x[j] += dt * drifts[j]
            for j in range(n):
                x[n + j] -= dt / 2.0 * grad_v[j](x)
        out.append(x)
    return np.array(out)


def rk4(h, points, t, dt):
    """Reference integrator: the classic fourth-order Runge-Kutta scheme on
    dx/dt = (grad T, -grad V), one point at a time in plain Python floats,
    in t / dt whole steps."""
    steps = round(t / dt)
    assert math.isclose(steps * dt, t)
    n = h.n
    grad_v, grad_t = plain_gradients(h)

    def field(x):
        return [g(x) for g in grad_t] + [-g(x) for g in grad_v]

    def shifted(x, k, s):
        return [a + s * b for a, b in zip(x, k)]

    out = []
    for point in np.asarray(points, dtype=float).reshape(-1, 2 * n):
        x = [float(v) for v in point]
        for _ in range(steps):
            k1 = field(x)
            k2 = field(shifted(x, k1, dt / 2))
            k3 = field(shifted(x, k2, dt / 2))
            k4 = field(shifted(x, k3, dt))
            x = [a + dt / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
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
        a = FlowMap(ho(), dt=1e-3).flow_array([1.0, 0.0], 1.0)
        b = rk4(ho(), [1.0, 0.0], 1.0, 1e-3)[0]
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
        # halving dt divides the error by 2**order; rk4 is the test's own
        # reference integrator
        h = quartic()
        x0 = np.array([[1.5, 0.0], [-0.5, 1.2], [0.8, -0.9]])
        t = 1.0
        flows = {"leapfrog": lambda dt: FlowMap(h, dt=dt).flow_array(x0, t),
                 "rk4": lambda dt: rk4(h, x0, t, dt)}
        reference = rk4(h, x0, t, 1e-3)
        errors = [np.abs(flows[integrator](dt) - reference).max() for dt in (0.1, 0.05, 0.025)]
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


def unchunked_leapfrog(h, points, steps):
    """Reference flow: the merged-kick leapfrog on all points at once, as
    one (2n, M) array, with a temporary of M values for every kick and
    drift."""
    n = h.n
    grad_v = [h.V.partial_derivative(j) for j in range(n)]
    grad_t = [h.T.partial_derivative(n + j) for j in range(n)]
    points = np.asarray(points)
    dtype = points.dtype if np.iscomplexobj(points) else float
    x = np.array(points.reshape(-1, 2 * n).T, dtype=dtype)

    def kick(dt):
        for j, grad in enumerate(grad_v):
            x[n + j] -= dt * grad.evaluate_array(x)

    pending = 0.0
    for dt in steps:
        kick(pending + dt / 2.0)
        drifts = [grad.evaluate_array(x) for grad in grad_t]
        for j, d in enumerate(drifts):
            x[j] += dt * d
        pending = dt / 2.0
    kick(pending)
    return np.ascontiguousarray(x.T).reshape(points.shape)


class TestChunkedFlow:
    """The flow runs FLOW_CHUNK points at a time through reused work rows;
    every result must be bitwise that of the unchunked flow."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize(
        "count", [1, FLOW_CHUNK - 1, FLOW_CHUNK, FLOW_CHUNK + 1, 65_536]
    )
    def test_bitwise_equal_to_unchunked(self, count, dtype):
        rng = np.random.default_rng(count)
        points = rng.uniform(-3.0, 3.0, size=(count, 2)).astype(dtype)
        if dtype is complex:
            # complex-step perturbations, as in the volume test below
            points += 1e-20j * rng.normal(size=points.shape)
        got = FlowMap(quartic(), dt=0.01).flow_array(points, -0.3)
        assert got.dtype == points.dtype
        expected = unchunked_leapfrog(quartic(), points, [-0.01] * 30)
        assert got.tobytes() == expected.tobytes()

    def test_bitwise_equal_to_unchunked_coupled(self):
        # four coordinates, and a shortened last step
        points = np.random.default_rng(4).uniform(-2.0, 2.0, size=(FLOW_CHUNK + 7, 4))
        got = FlowMap(coupled(), dt=0.01).flow_array(points, 0.537)
        expected = unchunked_leapfrog(coupled(), points, [0.01] * 53 + [0.537 - 53 * 0.01])
        assert got.tobytes() == expected.tobytes()

    def test_blow_up_in_a_later_chunk_names_its_global_index(self):
        # every point rests at the origin, an equilibrium, except one that
        # the inverted quartic throws to infinity
        h = validate_separation(parse_polynomial("1/2 * x2^2 - x1^4", 2), 1)
        points = np.zeros((FLOW_CHUNK + 5, 2))
        points[FLOW_CHUNK + 3] = [3.0, 0.0]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError, match=rf"sample indices \[\[{FLOW_CHUNK + 3}\]\]$"):
                FlowMap(h, dt=0.05).flow_array(points, 50.0)

    def test_reference_blow_up_names_grid_cells(self):
        # under -x1^3 the cells of large x1, in the third chunk of a 256^2
        # grid onwards, escape by t = 1; the error names cells by their
        # grid index, and each escapes when flowed alone
        h = validate_separation(parse_polynomial("1/2 * x2^2 - x1^3", 2), 1)
        spec = GridSpec(num_modes=2, points_per_mode=256, half_extent=16.0)
        fm = FlowMap(h, dt=0.05)
        rho0 = gaussian_density([0.0, 0.0], np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as info:
                liouville_density_grid(fm, rho0, 1.0, spec)
            cells = [(int(i), int(j)) for i, j in re.findall(r"\[(\d+), (\d+)\]", str(info.value))]
            assert cells and np.ravel_multi_index(cells[0], spec.shape) >= 2 * FLOW_CHUNK
            xs = spec.positions()
            for i, j in cells:
                with pytest.raises(BlowUpError):
                    fm.flow_array([xs[i], xs[j]], -1.0)


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
