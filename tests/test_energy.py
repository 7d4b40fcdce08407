"""The relative-power curve, capacity scaling, and the curve fit."""

import io
import math

import numpy as np
import pytest

from migrent import (
    EnergyModel,
    MigrentError,
    PowerSample,
    capacity_marginal_power,
    fit,
    load_power_samples,
    marginal_gain_threshold,
    relative_power,
    scaled_power,
)

from oracles import curve, fit_ref


class TestRelativePower:
    def test_endpoints_exact(self, model):
        assert relative_power(model, 0.0) == 0.33
        assert relative_power(model, 1.0) == 1.0

    def test_known_values(self, model):
        assert relative_power(model, 0.5) == pytest.approx(0.5578, abs=1e-9)
        assert relative_power(model, 0.4) == pytest.approx(0.495088, abs=1e-9)
        assert relative_power(model, 0.8) == pytest.approx(0.797392, abs=1e-9)
        assert relative_power(model, 0.2) == pytest.approx(0.395392, abs=1e-9)

    def test_matches_reference_curve(self, model):
        u = np.linspace(0.0, 1.0, 101)
        assert np.allclose(relative_power(model, u), curve(0.33, 0.36, u), atol=1e-15)

    def test_vectorized_and_scalar_agree(self, model):
        u = np.array([0.0, 0.25, 0.5, 1.0])
        vec = relative_power(model, u)
        assert vec.tolist() == [relative_power(model, x) for x in u]

    def test_out_of_range_rejected(self, model):
        with pytest.raises(ValueError):
            relative_power(model, 1.5)
        with pytest.raises(ValueError):
            relative_power(model, np.array([0.5, -0.1]))

    def test_nondecreasing_and_bounded(self, model):
        u = np.linspace(0.0, 1.0, 1001)
        e = relative_power(model, u)
        assert np.all(np.diff(e) >= 0.0)
        assert np.all(e >= model.idle_fraction - 1e-15)
        assert np.all(e <= 1.0 + 1e-15)

    def test_convex_for_default_constants(self, model):
        u = np.linspace(0.0, 1.0, 501)
        e = relative_power(model, u)
        assert np.all(np.diff(e, 2) >= -1e-12)

    def test_endpoints_exact_for_any_parameters(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = EnergyModel(float(rng.uniform(0.0, 0.999)), float(rng.uniform(0.0, 1.0)))
            assert relative_power(m, 0.0) == m.idle_fraction
            assert relative_power(m, 1.0) == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(idle_fraction=1.0)
        with pytest.raises(ValueError):
            EnergyModel(linear_mix=1.1)


class TestScaledPower:
    def test_unit_capacity_identity(self, model):
        assert scaled_power(model, 0.4, 1.0) == relative_power(model, 0.4)

    def test_half_capacity(self, model):
        assert scaled_power(model, 0.4, 0.5) == pytest.approx(0.398696, abs=1e-9)

    def test_clamps_at_full_load(self, model):
        assert scaled_power(model, 0.9, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_nonpositive_capacity_rejected(self, model):
        with pytest.raises(ValueError):
            scaled_power(model, 0.5, 0.0)

    @pytest.mark.parametrize("utilization", [-0.5, math.nan, math.inf, [0.2, -1e-9]])
    def test_negative_or_non_finite_utilization_rejected(self, model, utilization):
        with pytest.raises(ValueError, match="utilization must be finite and non-negative"):
            scaled_power(model, utilization, 1.0)

    def test_demand_beyond_capacity_runs_at_full_load(self, model):
        assert scaled_power(model, 7.0, 1.0) == 1.0
        assert scaled_power(model, 7.0, 2.0) == 2.0

    def test_valid_arrays_match_the_clipped_curve_exactly(self, model):
        rng = np.random.default_rng(11)
        u = np.concatenate((rng.uniform(0.0, 1.0, 2000), [0.0, -0.0, 1.0, 0.5]))
        for c in (0.3, 0.5, 1.0, 2.0, rng.uniform(0.1, 2.0, u.size)):
            expected = relative_power(model, np.clip(u / c, 0.0, 1.0)) * c
            np.testing.assert_array_equal(scaled_power(model, u, c), expected)


class TestMarginalProperties:
    def test_threshold_value(self, model):
        expected = math.sqrt(0.33 / ((1 - 0.33) * (1 - 0.36)))
        assert marginal_gain_threshold(model) == pytest.approx(expected, rel=1e-12)
        assert marginal_gain_threshold(model) == pytest.approx(0.877, abs=1e-3)

    def test_matches_finite_differences(self, model):
        # derivative of scaled_power with respect to capacity at x = u/c
        h = 1e-6
        for x in (0.2, 0.5, 0.7, 0.85, 0.877, 0.92):
            u, c = x * 2.0, 2.0
            numeric = (scaled_power(model, u, c + h) - scaled_power(model, u, c - h)) / (2 * h)
            assert capacity_marginal_power(model, x) == pytest.approx(numeric, abs=1e-6)

    def test_sign_flips_at_threshold(self, model):
        thr = marginal_gain_threshold(model)
        assert capacity_marginal_power(model, thr - 1e-3) > 0.0
        assert capacity_marginal_power(model, thr + 1e-3) < 0.0

    def test_linear_model_threshold_infinite(self):
        assert marginal_gain_threshold(EnergyModel(0.33, 1.0)) == math.inf


class TestFit:
    def test_round_trip_recovers_defaults(self, model):
        u = np.arange(11) / 10.0
        samples = [PowerSample(float(x), relative_power(model, float(x))) for x in u]
        fitted = fit(samples)
        assert fitted.idle_fraction == pytest.approx(0.33, abs=1e-3)
        assert fitted.linear_mix == pytest.approx(0.36, abs=1e-3)

    def test_linear_samples_match_grid_oracle(self):
        u = np.arange(11) / 10.0
        samples = [PowerSample(float(x), float(x) if x > 0 else 1e-9) for x in u]
        fitted = fit(samples)
        a_ref, m_ref = fit_ref(u, [s.relative_power for s in samples])
        assert fitted.idle_fraction == pytest.approx(a_ref, abs=1e-12)
        assert fitted.linear_mix == pytest.approx(m_ref, abs=1e-12)

    def test_noisy_samples_match_grid_oracle(self):
        rng = np.random.default_rng(31)
        u = rng.uniform(0.0, 1.0, 24)
        p = np.clip(curve(0.41, 0.2, u) + rng.normal(0.0, 0.02, 24), 1e-6, None)
        fitted = fit([PowerSample(float(a), float(b)) for a, b in zip(u, p)])
        a_ref, m_ref = fit_ref(u, p)
        assert fitted.idle_fraction == pytest.approx(a_ref, abs=1e-12)
        assert fitted.linear_mix == pytest.approx(m_ref, abs=1e-12)

    def test_samples_at_single_utilization_rejected(self):
        samples = [PowerSample(0.5, 0.5), PowerSample(0.5, 0.6), PowerSample(0.5, 0.55)]
        with pytest.raises(MigrentError, match="distinct"):
            fit(samples)

    def test_fewer_than_three_samples_rejected(self):
        with pytest.raises(MigrentError, match="three"):
            fit([PowerSample(0.0, 0.33), PowerSample(1.0, 1.0)])

    def test_three_samples_two_distinct_utilizations_proceed(self):
        fitted = fit([PowerSample(0.0, 0.33), PowerSample(0.0, 0.34), PowerSample(1.0, 1.0)])
        assert 0.0 <= fitted.idle_fraction < 1.0


class TestPowerSamples:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerSample(1.2, 0.5)
        with pytest.raises(ValueError):
            PowerSample(0.5, 0.0)

    def test_load_from_csv(self):
        stream = io.StringIO("utilization_percent,relative_power\n0,0.33\n50,0.5578\n100,1.0\n")
        samples = load_power_samples(stream)
        assert len(samples) == 3
        assert samples[1].utilization == 0.5

    def test_load_rejects_bad_header(self):
        with pytest.raises(MigrentError, match="header"):
            load_power_samples(io.StringIO("a,b\n1,2\n"))

    @pytest.mark.parametrize("power", ["inf", "1e400", "nan"])
    def test_load_rejects_non_finite_power(self, power):
        stream = io.StringIO(f"utilization_percent,relative_power\n0,0.33\n50,{power}\n100,1.0\n")
        with pytest.raises(MigrentError, match="line 3.*relative_power must be finite and positive") as excinfo:
            load_power_samples(stream)
        assert excinfo.value.line == 3

    def test_load_names_bad_line(self):
        stream = io.StringIO("utilization_percent,relative_power\n0,0.33\n150,0.5\n")
        with pytest.raises(MigrentError, match="line 3") as excinfo:
            load_power_samples(stream)
        assert excinfo.value.line == 3
