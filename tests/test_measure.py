"""Fractional measure: density values, mass profiles, scale invariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalssm.measure import (FractionalMeasure, density, mass_oldest, mass_recent,
                                measure_profile, total_mass)
from fractalssm.verify import check_scale_invariance


class TestDensity:
    def test_uniform(self):
        m = FractionalMeasure(0.0, 1.0)
        for x in (0.0, 0.3, 0.999):
            assert density(m, x) == pytest.approx(1.0)

    def test_half_index_unit_time(self):
        # (1-a)/t^(1-a) (t-x)^(-a) = 0.5 * 0.25^(-0.5) = 1
        m = FractionalMeasure(0.5, 1.0)
        assert density(m, 0.75) == pytest.approx(1.0, rel=1e-14)

    def test_half_index_t_two(self):
        m = FractionalMeasure(0.5, 2.0)
        assert density(m, 1.5) == pytest.approx(0.5, rel=1e-14)

    def test_singular_point_excluded(self):
        m = FractionalMeasure(0.5, 1.0)
        with pytest.raises(ValueError):
            density(m, 1.0)
        with pytest.raises(ValueError):
            density(m, -0.1)

    @pytest.mark.parametrize("x", [math.nan, [0.2, math.nan]], ids=["scalar", "array"])
    def test_nan_position_rejected(self, x):
        with pytest.raises(ValueError, match=r"\[0, t\)"):
            density(FractionalMeasure(0.5), x)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FractionalMeasure(1.0, 1.0)
        for t in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                FractionalMeasure(0.5, t)


class TestTotalMass:
    @pytest.mark.parametrize("alpha,tol", [(0.0, 1e-14), (0.5, 1e-12), (0.9, 1e-10)])
    def test_unit_mass(self, alpha, tol):
        m = FractionalMeasure(alpha, t=1.0)
        assert total_mass(m, order=32) == pytest.approx(1.0, abs=tol)

    def test_grid_normalization(self):
        for alpha in list(np.arange(0.0, 0.91, 0.1)) + [0.95]:
            for t in (0.5, 1.0, 7.3):
                m = FractionalMeasure(float(alpha), t)
                assert total_mass(m, order=32) == pytest.approx(1.0, abs=1e-10)

    def test_order_floor(self):
        with pytest.raises(ValueError):
            total_mass(FractionalMeasure(0.5, 1.0), order=2)


class TestMassProfiles:
    def test_printed_example(self):
        # most-recent-10% formula value at alpha = 1/2
        assert mass_oldest(0.5, 0.1) == pytest.approx(1.0 - 0.9 ** 0.5, abs=1e-15)
        assert mass_oldest(0.5, 0.1) == pytest.approx(0.0513, abs=5e-5)

    def test_uniform_is_linear(self):
        assert mass_oldest(0.0, 0.1) == pytest.approx(0.1)
        assert mass_recent(0.0, 0.37) == pytest.approx(0.37)

    def test_edges(self):
        assert mass_oldest(0.7, 1.0) == pytest.approx(1.0)
        assert mass_recent(0.7, 0.0) == pytest.approx(0.0)

    def test_recent_half_index(self):
        assert mass_recent(0.5, 0.1) == pytest.approx(math.sqrt(0.1), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            mass_oldest(0.5, 1.2)
        with pytest.raises(ValueError):
            mass_recent(0.5, -0.1)

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5, math.nan])
    @pytest.mark.parametrize("profile", [mass_oldest, mass_recent], ids=lambda f: f.__name__)
    def test_index_domain(self, profile, alpha):
        # the measure's own range: mass_oldest(1.5, 0.5) was a negative mass
        with pytest.raises(ValueError, match="singularity index"):
            profile(alpha, 0.5)

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=0.95),
           p=st.floats(min_value=1e-6, max_value=1.0))
    def test_complementarity(self, alpha, p):
        # p bounded away from 0 so that forming 1-p loses no mass to rounding
        assert mass_recent(alpha, p) + mass_oldest(alpha, 1.0 - p) == pytest.approx(
            1.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(p=st.floats(min_value=1e-3, max_value=0.999))
    def test_monotone_concentration(self, p):
        values = [mass_recent(alpha, p) for alpha in np.arange(0.0, 0.95, 0.05)]
        assert all(x < y for x, y in zip(values, values[1:]))


class TestMeasureProfile:
    def test_uniform_column(self):
        header, table = measure_profile([0.0], samples=3)
        col = header.index("alpha_0")
        assert all(row[col] == pytest.approx(1.0) for row in table)

    def test_density_agreement(self):
        header, table = measure_profile([0.5], samples=16)
        col = header.index("alpha_0.5")
        m = FractionalMeasure(0.5, 1.0)
        for row in table:
            assert row[col] == pytest.approx(density(m, row[0]), rel=1e-13)

    def test_reference_columns(self):
        header, table = measure_profile([0.25], samples=64)
        assert header[:2] == ["x", "alpha_0.25"]
        assert header[-3:] == ["legs", "lagt", "legt"]
        assert table.shape == (64, len(header)) and table.dtype == np.float64
        lagt = header.index("lagt")
        legt = header.index("legt")
        # exponential reference reaches e^0 at the (excluded) endpoint
        assert table[-1, lagt] == pytest.approx(1.0, abs=1e-5)
        assert table[0, lagt] == pytest.approx(math.exp(-1.0), rel=1e-6)
        # window of width t/2
        assert table[0, legt] == 0.0
        assert table[-1, legt] == pytest.approx(2.0)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            measure_profile([0.5], samples=1)

    def test_time_checked_without_alphas(self):
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError):
                measure_profile([], samples=3, t=t)


class TestScaleInvariance:
    def test_constant_signal(self):
        dev = check_scale_invariance(0.6, 6, 3.7, u=lambda s: np.full_like(s, 2.3))
        assert dev <= 1e-12

    def test_identity_dilation_exact_zero(self):
        dev = check_scale_invariance(0.5, 8, 1.0, u=np.sin)
        assert dev == 0.0

    def test_sine_dilation(self):
        assert check_scale_invariance(0.5, 8, 2.0, u=np.sin) < 1e-8

    def test_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            alpha = float(rng.uniform(0.0, 0.9))
            lam = float(rng.uniform(0.25, 4.0))
            assert check_scale_invariance(alpha, 8, lam, u=np.sin) < 1e-8

    def test_invalid_dilation(self):
        with pytest.raises(ValueError):
            check_scale_invariance(0.5, 8, 0.0)

    @pytest.mark.parametrize("dilation", [math.nan, math.inf])
    def test_non_finite_dilation_rejected(self, dilation):
        # a NaN or infinite dilation failed later, as a non-finite signal
        with pytest.raises(ValueError, match="dilation must be finite and positive"):
            check_scale_invariance(0.5, 8, dilation)

    @pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf])
    def test_invalid_time(self, t):
        # t = -1 was a pass: both projections read the same negative-time samples
        with pytest.raises(ValueError, match="current time"):
            check_scale_invariance(0.5, 8, 2.0, t=t)
