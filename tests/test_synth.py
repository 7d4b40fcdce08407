"""Deterministic synthetic traces and fleets."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migrent import (
    Catalog,
    ParamRanges,
    SynthParams,
    bundled_catalog,
    daily_maxima,
    generate_fleet,
    generate_trace,
    write_fleet,
)
from migrent.trace import _parse_canonical

from conftest import POSIX_2016_06_01


class TestSynthParams:
    def test_defaults_valid(self):
        SynthParams(seed=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_days": 0},
            {"sample_period_seconds": 60},
            {"sample_period_seconds": 15},
            {"base_utilization": -0.1},
            {"base_utilization": 1.1},
            {"growth_per_day": -0.01},
            {"refresh_period_days": 0},
            {"diurnal_amplitude": 1.5},
            {"noise_stddev": -0.1},
            {"noise_stddev": math.inf},
            {"growth_per_day": math.nan},
            {"diurnal_amplitude": math.nan},
            {"base_utilization": math.nan},
            {"duration_days": 3661},
            {"refresh_period_days": 10**20},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be "):
            SynthParams(seed=1, **kwargs)


class TestGenerateTrace:
    def test_constant_base(self):
        params = SynthParams(seed=1, duration_days=2, sample_period_seconds=30, base_utilization=0.4)
        trace = generate_trace(params, "m1")
        assert trace.machine_id == "m1"
        assert len(trace) == 2 * 86400 // 30
        assert trace.times[0] == POSIX_2016_06_01
        assert np.all(np.diff(trace.times) == 30.0)
        assert np.all(trace.values == 0.4)

    def test_float_start_accepted(self):
        params = SynthParams(seed=1, duration_days=1, base_utilization=0.2)
        trace = generate_trace(params, "m1", start=0.0)
        assert trace.times[0] == 0.0

    def test_deterministic_for_same_seed(self):
        params = SynthParams(seed=77, duration_days=3, noise_stddev=0.05)
        a = generate_trace(params, "m1")
        b = generate_trace(params, "m1")
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_noise(self):
        a = generate_trace(SynthParams(seed=1, duration_days=2, noise_stddev=0.05), "m1")
        b = generate_trace(SynthParams(seed=2, duration_days=2, noise_stddev=0.05), "m1")
        assert not np.array_equal(a.values, b.values)

    def test_noise_free_daily_maxima_follow_envelope(self):
        params = SynthParams(
            seed=1,
            duration_days=10,
            base_utilization=0.3,
            growth_per_day=0.02,
            refresh_period_days=90,
            diurnal_amplitude=0.1,
        )
        trace = generate_trace(params, "m1")
        daily = daily_maxima(trace)
        assert len(daily.values) == 10
        for k, date in enumerate(daily.dates):
            d = (date - daily.dates[0]).days
            expected = min(0.3 + 0.02 * (d % 90) + 0.1, 1.0)
            assert daily.values[k] == pytest.approx(expected, abs=1e-9)

    def test_growth_resets_at_refresh(self):
        params = SynthParams(
            seed=1,
            duration_days=60,
            base_utilization=0.3,
            growth_per_day=0.01,
            refresh_period_days=30,
        )
        daily = daily_maxima(generate_trace(params, "m1"))
        values = daily.values
        # two identical 30-day ramps from 0.30 up to 0.59
        assert values[0] == pytest.approx(0.3, abs=1e-12)
        assert values[29] == pytest.approx(0.59, abs=1e-12)
        assert values[30] == pytest.approx(0.3, abs=1e-12)
        assert values[59] == pytest.approx(0.59, abs=1e-12)
        assert np.allclose(values[:30], values[30:], atol=1e-12)

    def test_values_clipped_to_unit_interval(self):
        params = SynthParams(
            seed=5,
            duration_days=2,
            base_utilization=0.9,
            diurnal_amplitude=0.3,
            noise_stddev=0.05,
        )
        trace = generate_trace(params, "m1")
        assert trace.values.max() == 1.0
        assert trace.values.min() >= 0.0

    def test_diurnal_peak_at_six_utc(self):
        params = SynthParams(seed=1, duration_days=1, base_utilization=0.5, diurnal_amplitude=0.2)
        trace = generate_trace(params, "m1")
        peak_idx = int(np.argmax(trace.values))
        assert (trace.times[peak_idx] - POSIX_2016_06_01) == 6 * 3600


class TestGenerateFleet:
    def test_round_robin_datacenters(self):
        fleet = generate_fleet(1, machines=10, datacenters=2)
        assert [m.machine_id for m in fleet] == [f"m{i:04d}" for i in range(10)]
        assert [m.datacenter_id for m in fleet] == ["dc000", "dc001"] * 5

    def test_deterministic(self):
        assert generate_fleet(42, 8, 3) == generate_fleet(42, 8, 3)

    def test_seed_sensitivity(self):
        a = generate_fleet(42, 8, 3)
        b = generate_fleet(43, 8, 3)
        assert any(x.params != y.params for x, y in zip(a, b))

    def test_machine_stable_under_fleet_growth(self):
        small = generate_fleet(7, machines=5, datacenters=2)
        large = generate_fleet(7, machines=12, datacenters=2)
        assert large[:5] == small

    def test_models_come_from_catalog(self):
        catalog = bundled_catalog()
        on_prem = {spec.model_name for spec in catalog if not spec.cloud}
        fleet = generate_fleet(3, 30, 4)
        assert {m.cpu_model for m in fleet} <= on_prem
        assert len({m.cpu_model for m in fleet}) > 1

    def test_catalog_of_cloud_entries_only_supplies_every_model(self):
        clouds = [spec for spec in bundled_catalog() if spec.cloud]
        catalog = Catalog(clouds, clouds[0].model_name)
        fleet = generate_fleet(3, 30, 4, catalog=catalog)
        assert {m.cpu_model for m in fleet} == {spec.model_name for spec in clouds}

    def test_parameters_respect_ranges(self):
        ranges = ParamRanges(
            duration_days=(8, 9),
            sample_periods=(30,),
            base_utilization=(0.2, 0.5),
            growth_per_day=(0.0, 0.01),
            refresh_days=(40, 50),
            diurnal_amplitude=(0.1, 0.2),
            noise_stddev=(0.01, 0.02),
        )
        for m in generate_fleet(11, 20, 3, ranges=ranges):
            p = m.params
            assert 8 <= p.duration_days <= 9
            assert p.sample_period_seconds == 30
            assert 0.2 <= p.base_utilization <= 0.5
            assert 0.0 <= p.growth_per_day <= 0.01
            assert 40 <= p.refresh_period_days <= 50
            assert 0.1 <= p.diurnal_amplitude <= 0.2
            assert 0.01 <= p.noise_stddev <= 0.02

    @pytest.mark.parametrize("kwargs", [
        {"noise_stddev": (0.01, math.inf)},
        {"growth_per_day": (math.nan, 0.01)},
        {"diurnal_amplitude": (0.0, math.nan)},
        {"duration_days": (0, 9)},
        {"refresh_days": (30, 10**20)},
    ])
    def test_each_bound_is_checked_before_any_draw(self, kwargs):
        # a bad bound fails even where no draw would come near it
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be "):
            ParamRanges(**kwargs)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_every_draw_from_valid_ranges_is_valid(self, data):
        def pair(values):
            return tuple(sorted(data.draw(st.tuples(values, values))))

        fraction = st.floats(0.0, 1.0)
        rate = st.floats(0.0, 1e300)
        days = st.integers(1, 3660)
        ranges = ParamRanges(
            duration_days=pair(days), base_utilization=pair(fraction), growth_per_day=pair(rate),
            refresh_days=pair(days), diurnal_amplitude=pair(fraction), noise_stddev=pair(rate),
        )
        generate_fleet(data.draw(st.integers(0, 2**32)), 4, 2, ranges)  # each SynthParams checks its draw

    def test_validation(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            generate_fleet(-1, machines=1, datacenters=1)
        with pytest.raises(ValueError):
            generate_fleet(1, machines=0, datacenters=1)
        with pytest.raises(ValueError):
            generate_fleet(1, machines=3, datacenters=5)
        with pytest.raises(ValueError):
            ParamRanges(base_utilization=(0.6, 0.2))
        with pytest.raises(ValueError):
            ParamRanges(sample_periods=(45,))
        with pytest.raises(ValueError, match="sample_periods must not be empty"):
            ParamRanges(sample_periods=())


class TestWriteFleet:
    def test_layout_and_manifest(self, tmp_path):
        fleet = generate_fleet(5, machines=4, datacenters=2)
        manifest_path = write_fleet(fleet, tmp_path)
        assert manifest_path == tmp_path / "manifest.csv"
        for m in fleet:
            assert (tmp_path / "traces" / f"{m.machine_id}.csv").exists()
        text = manifest_path.read_text()
        assert text.startswith("machine_id,trace_path,cpu_model,datacenter_id\n")
        assert "traces/m0000.csv" in text

    def test_byte_identical_reruns(self, tmp_path):
        fleet = generate_fleet(5, machines=3, datacenters=2)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        write_fleet(fleet, dir_a)
        write_fleet(fleet, dir_b)
        assert (dir_a / "manifest.csv").read_bytes() == (dir_b / "manifest.csv").read_bytes()
        for m in fleet:
            rel = f"traces/{m.machine_id}.csv"
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()

    def test_corpus_bytes_are_pinned(self, tmp_path):
        # the digest of this corpus as written when trace rows were formatted one string at a time
        fleet = generate_fleet(7, 3, 2, ParamRanges(duration_days=(2, 2), sample_periods=(20, 30)))
        assert {m.params.sample_period_seconds for m in fleet} == {20, 30}
        write_fleet(fleet, tmp_path)
        digest = hashlib.sha256()
        for rel in sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.csv")):
            digest.update(rel.encode() + b"\0" + (tmp_path / rel).read_bytes())
        assert digest.hexdigest() == "0d875e06da83f89be51c117d9f06d2f1d22da47d32d04b0f8166eefacbe10c23"
        for m in fleet:  # the writer's form is the one the parser reads a column at a time
            assert _parse_canonical((tmp_path / "traces" / f"{m.machine_id}.csv").read_bytes()) is not None

    @pytest.mark.parametrize("start", ["garbage", "9999-12-31T00:00:00Z", "0001-01-01T00:00:00+01:00", math.nan])
    def test_bad_start_writes_nothing(self, tmp_path, start):
        fleet = generate_fleet(1, 2, 1, ParamRanges(duration_days=(8, 8)))
        with pytest.raises(ValueError, match="^start must be "):
            write_fleet(fleet, tmp_path / "out", start=start)
        assert not (tmp_path / "out").exists()
