import numpy as np
import pytest

from kvnsim.gaussian import evolve_gaussian
from kvnsim.kvn import KvNHamiltonian, KvNTerm, build_kvn, validate_separation
from kvnsim.phasepoly import PhasePolynomial, parse_polynomial


def ho_kvn():
    return build_kvn(
        validate_separation(parse_polynomial("1/2 * x2^2 + 1/2 * x1^2", 2), 1)
    )


class TestEvolveGaussian:
    def test_harmonic_quarter_period(self):
        # means follow dx1/dt = x2, dx2/dt = -x1: (1,0) -> (0,-1)
        mean, cov = evolve_gaussian(ho_kvn(), np.array([1.0, 0.0]), 0.5 * np.eye(2), np.pi / 2)
        assert np.allclose(mean, [0.0, -1.0], atol=1e-12)
        assert np.allclose(cov, 0.5 * np.eye(2), atol=1e-12)

    def test_zero_time_identity(self):
        mean0, cov0 = np.array([0.3, -0.4]), np.diag([0.5, 0.7])
        mean, cov = evolve_gaussian(ho_kvn(), mean0, cov0, 0.0)
        assert np.allclose(mean, mean0, atol=1e-15)
        assert np.allclose(cov, cov0, atol=1e-15)

    def test_forward_backward_composition(self):
        mean0, cov0 = np.array([0.9, 0.2]), np.diag([0.5, 0.8])
        k = ho_kvn()
        back = evolve_gaussian(k, *evolve_gaussian(k, mean0, cov0, 0.77), -0.77)
        assert np.allclose(back[0], mean0, atol=1e-12)
        assert np.allclose(back[1], cov0, atol=1e-12)

    def test_rejects_nonquadratic_generator(self):
        k = build_kvn(
            validate_separation(
                parse_polynomial("1/2 * x2^2 + 1/40 * x1^4", 2), 1
            )
        )
        with pytest.raises(ValueError, match="quadratic"):
            evolve_gaussian(k, np.zeros(2), 0.5 * np.eye(2), 0.1)

    def test_controlled_x_moment_shift(self):
        # the generator X1 P2 shifts <X2> by t * <X1>
        term = KvNTerm(factor=PhasePolynomial.variable(2, 0), mode=1, sign=1)
        h = KvNHamiltonian(n=1, terms=(term,))
        mean, _ = evolve_gaussian(h, np.array([1.0, 0.0]), 0.5 * np.eye(2), 0.4)
        assert mean[1] == pytest.approx(0.4)
        assert mean[0] == pytest.approx(1.0)

    def test_constant_drift_term(self):
        # constant factor: pure displacement of the target coordinate
        term = KvNTerm(factor=PhasePolynomial.constant(2, 1), mode=0, sign=1)
        h = KvNHamiltonian(n=1, terms=(term,))
        mean, cov = evolve_gaussian(h, np.zeros(2), 0.5 * np.eye(2), 0.6)
        assert mean[0] == pytest.approx(0.6)
        assert np.allclose(cov, 0.5 * np.eye(2), atol=1e-12)

    def test_covariance_stays_symmetric_positive(self):
        _, cov = evolve_gaussian(ho_kvn(), np.array([1.0, 0.0]), np.diag([0.2, 0.9]), 2.31)
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > 0

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError, match="modes"):
            evolve_gaussian(ho_kvn(), np.zeros(4), 0.5 * np.eye(4), 0.1)
