import numpy as np
import pytest

from kvnsim.gaussian import GaussianState, evolve_gaussian
from kvnsim.kvn import KvNHamiltonian, KvNTerm, build_kvn, validate_separation
from kvnsim.phasepoly import PhasePolynomial, parse_polynomial


def ho_kvn():
    return build_kvn(
        validate_separation(parse_polynomial("1/2 * x2^2 + 1/2 * x1^2", 2), 1)
    )


class TestGaussianState:
    def test_vacuum(self):
        # inv(0.5 I) / 4 is 0.5 I exactly
        v = GaussianState.from_position_density(np.zeros(2), 0.5 * np.eye(2))
        assert np.array_equal(v.mean, np.zeros(4))
        assert np.array_equal(v.cov, 0.5 * np.eye(4))

    def test_from_position_density_vacuum_case(self):
        s = GaussianState.from_position_density(np.zeros(2), 0.5 * np.eye(2))
        assert np.allclose(s.mean, 0.0)
        assert np.allclose(s.cov, 0.5 * np.eye(4))

    def test_from_position_density_squeezed(self):
        # position variance 0.1 implies momentum variance 1/(4*0.1) = 2.5
        s = GaussianState.from_position_density(np.zeros(1), np.array([[0.1]]))
        assert s.cov[0, 0] == pytest.approx(0.1)
        assert s.cov[1, 1] == pytest.approx(2.5)

    def test_rejects_asymmetric_covariance(self):
        cov = np.array([[1.0, 0.2], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(1, np.zeros(2), cov)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianState(1, np.zeros(2), np.diag([1.0, -0.5]))


class TestEvolveGaussian:
    def test_harmonic_quarter_period(self):
        # means follow dx1/dt = x2, dx2/dt = -x1: (1,0) -> (0,-1)
        state = GaussianState.from_position_density(
            np.array([1.0, 0.0]), 0.5 * np.eye(2)
        )
        out = evolve_gaussian(state, ho_kvn(), np.pi / 2)
        assert np.allclose(out.position_mean(), [0.0, -1.0], atol=1e-12)
        assert np.allclose(out.position_cov(), 0.5 * np.eye(2), atol=1e-12)

    def test_zero_time_identity(self):
        state = GaussianState.from_position_density(
            np.array([0.3, -0.4]), np.diag([0.5, 0.7])
        )
        out = evolve_gaussian(state, ho_kvn(), 0.0)
        assert np.allclose(out.mean, state.mean, atol=1e-15)
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_forward_backward_composition(self):
        state = GaussianState.from_position_density(
            np.array([0.9, 0.2]), np.diag([0.5, 0.8])
        )
        k = ho_kvn()
        there = evolve_gaussian(state, k, 0.77)
        back = evolve_gaussian(there, k, -0.77)
        assert np.allclose(back.mean, state.mean, atol=1e-12)
        assert np.allclose(back.cov, state.cov, atol=1e-12)

    def test_rejects_nonquadratic_generator(self):
        k = build_kvn(
            validate_separation(
                parse_polynomial("1/2 * x2^2 + 1/40 * x1^4", 2), 1
            )
        )
        state = GaussianState.from_position_density(np.zeros(2), 0.5 * np.eye(2))
        with pytest.raises(ValueError, match="quadratic"):
            evolve_gaussian(state, k, 0.1)

    def test_controlled_x_moment_shift(self):
        # the generator X1 P2 shifts <X2> by t * <X1>
        term = KvNTerm(factor=PhasePolynomial.variable(2, 0), mode=1, sign=1)
        h = KvNHamiltonian(n=1, terms=(term,))
        state = GaussianState.from_position_density(
            np.array([1.0, 0.0]), 0.5 * np.eye(2)
        )
        out = evolve_gaussian(state, h, 0.4)
        assert out.position_mean()[1] == pytest.approx(0.4)
        assert out.position_mean()[0] == pytest.approx(1.0)

    def test_constant_drift_term(self):
        # constant factor: pure displacement of the target coordinate
        term = KvNTerm(factor=PhasePolynomial.constant(2, 1), mode=0, sign=1)
        h = KvNHamiltonian(n=1, terms=(term,))
        state = GaussianState.from_position_density(np.zeros(2), 0.5 * np.eye(2))
        out = evolve_gaussian(state, h, 0.6)
        assert out.position_mean()[0] == pytest.approx(0.6)
        assert np.allclose(out.cov, state.cov, atol=1e-12)

    def test_covariance_stays_symmetric_positive(self):
        state = GaussianState.from_position_density(
            np.array([1.0, 0.0]), np.diag([0.2, 0.9])
        )
        out = evolve_gaussian(state, ho_kvn(), 2.31)
        assert np.allclose(out.cov, out.cov.T)
        assert np.linalg.eigvalsh(out.cov).min() > 0

    def test_mode_count_mismatch(self):
        state = GaussianState.from_position_density(np.zeros(4), 0.5 * np.eye(4))
        with pytest.raises(ValueError, match="modes"):
            evolve_gaussian(state, ho_kvn(), 0.1)
