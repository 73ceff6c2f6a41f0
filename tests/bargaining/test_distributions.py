"""Unit tests for the utility distributions of the BOSCO mechanism."""

import numpy as np
import pytest

from repro.bargaining.distributions import (
    JointUtilityDistribution,
    TruncatedNormalUtilityDistribution,
    UniformUtilityDistribution,
    paper_distribution_u1,
    paper_distribution_u2,
)


class TestUniformDistribution:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformUtilityDistribution(1.0, 1.0)

    @pytest.mark.parametrize(
        "low, high",
        [(-1e308, 1e308), (-np.inf, 1.0), (0.0, np.inf), (-np.inf, np.inf)],
    )
    def test_infinite_width_rejected(self, low, high):
        with pytest.raises(ValueError, match="finite width"):
            UniformUtilityDistribution(low, high)

    def test_pdf(self):
        dist = UniformUtilityDistribution(-1.0, 1.0)
        assert dist.pdf(0.0) == pytest.approx(0.5)
        assert dist.pdf(2.0) == 0.0

    def test_mass_full_support(self):
        dist = UniformUtilityDistribution(-1.0, 1.0)
        assert dist.mass(-1.0, 1.0) == pytest.approx(1.0)

    def test_mass_partial_interval(self):
        dist = UniformUtilityDistribution(0.0, 4.0)
        assert dist.mass(1.0, 2.0) == pytest.approx(0.25)

    def test_mass_outside_support(self):
        dist = UniformUtilityDistribution(0.0, 1.0)
        assert dist.mass(2.0, 3.0) == 0.0
        assert dist.mass(3.0, 2.0) == 0.0

    def test_partial_mean(self):
        dist = UniformUtilityDistribution(0.0, 2.0)
        # ∫_0^2 u * 0.5 du = 1.0
        assert dist.partial_mean(0.0, 2.0) == pytest.approx(1.0)
        # ∫_0^1 u * 0.5 du = 0.25
        assert dist.partial_mean(0.0, 1.0) == pytest.approx(0.25)

    def test_mean(self):
        assert UniformUtilityDistribution(-1.0, 3.0).mean == pytest.approx(1.0)

    def test_samples_stay_in_support(self):
        dist = UniformUtilityDistribution(-0.5, 1.0)
        rng = np.random.default_rng(0)
        samples = dist.sample(rng, size=500)
        assert samples.min() >= -0.5
        assert samples.max() <= 1.0


class TestTruncatedNormal:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TruncatedNormalUtilityDistribution(0.0, -1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            TruncatedNormalUtilityDistribution(0.0, 1.0, 1.0, 1.0)

    def test_mass_is_normalized(self):
        dist = TruncatedNormalUtilityDistribution(0.0, 1.0, -1.0, 1.0)
        assert dist.mass(-1.0, 1.0) == pytest.approx(1.0)

    def test_pdf_outside_support_is_zero(self):
        dist = TruncatedNormalUtilityDistribution(0.0, 1.0, -1.0, 1.0)
        assert dist.pdf(2.0) == 0.0
        assert dist.pdf(0.0) > 0.0

    def test_partial_mean_of_symmetric_distribution_is_zero(self):
        dist = TruncatedNormalUtilityDistribution(0.0, 1.0, -1.0, 1.0)
        assert dist.partial_mean(-1.0, 1.0) == pytest.approx(0.0, abs=1e-6)

    def test_samples_stay_in_support(self):
        dist = TruncatedNormalUtilityDistribution(0.5, 0.5, 0.0, 1.0)
        rng = np.random.default_rng(1)
        samples = dist.sample(rng, size=200)
        assert samples.min() >= 0.0
        assert samples.max() <= 1.0
        assert len(samples) == 200


class TestJointDistributions:
    def test_paper_u1_support(self):
        joint = paper_distribution_u1()
        assert joint.marginal_x.lower == -1.0
        assert joint.marginal_x.upper == 1.0
        assert joint.marginal_y.lower == -1.0

    def test_paper_u2_support(self):
        joint = paper_distribution_u2()
        assert joint.marginal_x.lower == -0.5
        assert joint.marginal_y.upper == 1.0

    def test_joint_sampling_shape(self):
        joint = JointUtilityDistribution(
            UniformUtilityDistribution(0.0, 1.0), UniformUtilityDistribution(-1.0, 0.0)
        )
        rng = np.random.default_rng(2)
        pairs = joint.sample(rng, size=10)
        assert pairs.shape == (10, 2)
        assert (pairs[:, 0] >= 0.0).all()
        assert (pairs[:, 1] <= 0.0).all()
