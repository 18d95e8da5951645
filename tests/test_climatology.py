import json
import re
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

from rollstab import GridSpec, RegionSpec, pooled_percentiles
from rollstab.climatology import (
    ClimatologyEnvelope,
    EnvelopeCoverageError,
    PoolSelect,
    ThresholdSet,
    build_envelope,
)
from rollstab.gridio import DailySeries
from conftest import make_series, region_scan


def pool_of(r, levels, region=RegionSpec("all", -90, 90, 0, 360)):
    """Thresholds of ``region``'s cells of T2m, gathered by one scan."""
    _, cells = region_scan(r, region)
    return pooled_percentiles(cells, "T2m", region.name, levels, r.start_time)


def daily_series_over(start, n_days, values):
    dates = np.datetime64(start, "D") + np.arange(n_days)
    return DailySeries(dates, values)


def constant_statistic(values_by_year):
    """Statistic extractor returning a fixed daily value per calendar year."""

    def stat(reference):
        ts = reference.timestamps.astype("datetime64[D]")
        dates = np.unique(ts)
        years = dates.astype("datetime64[Y]").astype(int) + 1970
        vals = np.array([values_by_year[y] for y in years], dtype=float)
        return DailySeries(dates, vals)

    return stat


@pytest.fixture
def two_year_reference(small_grid):
    # daily steps across 2021-2022 (non-leap years, 730 days)
    data = np.zeros((730, 1, 8, 16), dtype=np.float32)
    return make_series(small_grid, data, start=datetime(2021, 1, 1),
                       step_seconds=86400)


class TestBuildEnvelope:
    def test_two_identical_years(self, two_year_reference):
        env = build_envelope(constant_statistic({2021: 4.0, 2022: 4.0})(two_year_reference))
        assert np.all(env.range == 0.0)
        assert np.all(env.mean == 4.0)

    def test_three_years_mean_and_range(self, small_grid):
        data = np.zeros((1095, 1, 8, 16), dtype=np.float32)
        ref = make_series(small_grid, data, start=datetime(2021, 1, 1),
                          step_seconds=86400)
        env = build_envelope(constant_statistic({2021: 1.0, 2022: 3.0, 2023: 5.0})(ref))
        assert np.all(env.mean == 3.0)
        assert np.all(env.range == 4.0)
        assert env.year_span == (2021, 2023)

    def test_sinusoid_with_jitter_bounded_range(self, small_grid):
        # two years of a shared sinusoid, per-year offsets +-a
        a = 0.3

        def stat(reference):
            ts = reference.timestamps.astype("datetime64[D]")
            dates = np.unique(ts)
            doy = (dates - dates.astype("datetime64[Y]")).astype(int) + 1
            years = dates.astype("datetime64[Y]").astype(int) + 1970
            jit = np.where(years == 2021, -a, a)
            return DailySeries(dates, np.sin(2 * np.pi * doy / 365.25) + jit)

        data = np.zeros((730, 1, 8, 16), dtype=np.float32)
        ref = make_series(small_grid, data, start=datetime(2021, 1, 1),
                          step_seconds=86400)
        env = build_envelope(stat(ref))
        assert np.all(env.range <= 2 * a + 1e-9)

    def test_single_year_rejected(self, small_grid):
        data = np.zeros((365, 1, 8, 16), dtype=np.float32)
        ref = make_series(small_grid, data, start=datetime(2021, 1, 1),
                          step_seconds=86400)
        with pytest.raises(EnvelopeCoverageError):
            build_envelope(constant_statistic({2021: 1.0})(ref))

    def test_year_permutation_invariance(self, two_year_reference, small_grid):
        env_a = build_envelope(constant_statistic({2021: 1.0, 2022: 5.0})(two_year_reference))
        env_b = build_envelope(constant_statistic({2021: 5.0, 2022: 1.0})(two_year_reference))
        assert np.allclose(env_a.mean, env_b.mean)
        assert np.allclose(env_a.range, env_b.range)

    def test_adding_a_year_only_widens(self, small_grid):
        data2 = np.zeros((730, 1, 8, 16), dtype=np.float32)
        data3 = np.zeros((1095, 1, 8, 16), dtype=np.float32)
        ref2 = make_series(small_grid, data2, start=datetime(2021, 1, 1),
                           step_seconds=86400)
        ref3 = make_series(small_grid, data3, start=datetime(2021, 1, 1),
                           step_seconds=86400)
        vals = {2021: 2.0, 2022: 3.0, 2023: 7.5}
        env2 = build_envelope(constant_statistic(vals)(ref2))
        env3 = build_envelope(constant_statistic(vals)(ref3))
        assert np.all(env3.min <= env2.min)
        assert np.all(env3.max >= env2.max)

    def test_leap_day_folds_into_feb28(self, small_grid):
        # 2023-2024: 2024 is a leap year, 731 days total
        data = np.zeros((731, 1, 8, 16), dtype=np.float32)
        ref = make_series(small_grid, data, start=datetime(2023, 1, 1),
                          step_seconds=86400)

        def stat(reference):
            ts = reference.timestamps.astype("datetime64[D]")
            dates = np.unique(ts)
            vals = np.where(dates == np.datetime64("2024-02-29"), 100.0, 0.0)
            return DailySeries(dates, vals)

        env = build_envelope(stat(ref))
        assert env.max[58] == 100.0  # Feb 28 bucket (1-based doy 59)
        assert np.all(env.max[59:] == 0.0)
        assert env.mean.shape == (365,)

    def test_json_round_trip(self, two_year_reference):
        env = build_envelope(constant_statistic({2021: 1.0, 2022: 2.0})(two_year_reference))
        back = ClimatologyEnvelope.from_dict(json.loads(json.dumps(env.to_dict())))
        assert back.statistic == env.statistic
        assert np.array_equal(back.mean, env.mean)
        assert np.array_equal(back.range, env.range)
        assert back.year_span == env.year_span

    def test_from_dict_is_strict_but_takes_a_manifest(self, two_year_reference):
        doc = build_envelope(constant_statistic({2021: 1.0, 2022: 2.0})(
            two_year_reference)).to_dict()
        ClimatologyEnvelope.from_dict({**doc, "manifest": {"tool": "rollstab"}})
        missing = {k: v for k, v in doc.items() if k != "max"}
        with pytest.raises(ValueError, match="envelope: missing key 'max'"):
            ClimatologyEnvelope.from_dict(missing)
        with pytest.raises(ValueError, match="envelope: unknown key 'bogus'"):
            ClimatologyEnvelope.from_dict({**doc, "bogus": 1})
        with pytest.raises(ValueError, match="expected a JSON object"):
            ClimatologyEnvelope.from_dict([doc])


class TestPoolSelectCounts:
    """The histogram counts in int32, and in int64 from the block that would
    bring the values counted to 2**31; the thresholds do not change."""

    def test_switch_to_int64_keeps_the_thresholds(self):
        cells = np.random.default_rng(5).standard_normal((4, 50)).astype(np.float32)
        levels = [1.0, 50.0, 99.0]
        want = pooled_percentiles(cells, "T2m", "r", levels, datetime(2021, 1, 1))
        select = PoolSelect(levels)
        select.count(cells[:2])
        assert select._hist.dtype == np.int32
        # stand in for 2**31 - 51 values counted before: the next 50 still fit
        select._n = 2**31 - 1 - 50
        select.count(cells[2])
        assert select._hist.dtype == np.int32
        select.count(cells[3])
        assert select._hist.dtype == np.int64
        select.plan()
        select.gather(cells)
        got = select.thresholds("T2m", "r", 4, datetime(2021, 1, 1))
        assert got.values == want.values and got.pooling == want.pooling


class TestPoolSelectSlots:
    def test_more_needed_bins_than_uint16_can_name(self):
        """40,000 levels on 100,000 values, each in a bin of its own, read more
        than 2**16 bins; the slot lookup is then uint32, not uint16, and the
        thresholds are still ``np.percentile``'s bytes."""
        rng = np.random.default_rng(11)
        # the top 18 bits of finite non-zero floats of either sign, each once
        finite = np.arange(1, 255 << 9, dtype=np.uint32)
        tops = rng.choice(np.concatenate([finite, finite | (1 << 17)]), 100_000,
                          replace=False)
        pool = ((tops << 14) | rng.integers(0, 1 << 14, tops.size, dtype=np.uint32)).view(
            np.float32)
        levels = np.linspace(0.001, 99.999, 40_000)
        select = PoolSelect(levels)
        select.count(pool)
        select.plan()
        select.gather(pool)
        got = select.thresholds("T2m", "r", 1, datetime(2021, 1, 1))
        assert select._cap.size > 1 << 16 and select._lut.dtype == np.uint32
        # np.percentile slows faster than its levels grow, so 400 at a time
        want = np.concatenate([np.percentile(pool, part, method="linear")
                               for part in np.array_split(got.levels, 100)])
        assert np.array(got.values).tobytes() == want.tobytes()


class TestPooledPercentiles:
    def test_linear_interpolation_order_statistics(self, small_grid):
        # pool of exactly 1..100 via one region row
        g = GridSpec(lats=np.array([0.0]), lons=np.arange(100) * 3.6)
        data = np.arange(1, 101, dtype=np.float32).reshape(1, 1, 1, 100)
        thr = pool_of(make_series(g, data), [90.0])
        assert thr.values[0] == pytest.approx(90.1)

    def test_constant_pool(self, small_grid):
        r = make_series(small_grid, np.full((3, 1, 8, 16), 7.25))
        thr = pool_of(r, [10.0, 50.0, 90.0])
        assert all(v == 7.25 for v in thr.values)

    def test_standard_normal_p90(self, small_grid):
        rng = np.random.default_rng(123)
        # 1e6 pooled samples
        data = rng.standard_normal((7813, 1, 8, 16)).astype(np.float32)
        r = make_series(small_grid, data)
        thr = pool_of(r, [10.0, 90.0])
        assert thr.value_for(90.0) == pytest.approx(norm.ppf(0.9), abs=0.01)
        assert thr.value_for(10.0) == pytest.approx(norm.ppf(0.1), abs=0.01)

    def test_shuffle_invariance(self, small_grid):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((4, 1, 8, 16)).astype(np.float32)
        r1 = make_series(small_grid, data)
        flat = data.reshape(-1).copy()
        rng.shuffle(flat)
        r2 = make_series(small_grid, flat.reshape(data.shape))
        t1 = pool_of(r1, [25.0, 75.0])
        t2 = pool_of(r2, [25.0, 75.0])
        assert t1.values == pytest.approx(t2.values)

    def test_level_out_of_range(self, random_series):
        for bad in (0.0, 100.0, -5.0, 120.0):
            with pytest.raises(ValueError):
                pool_of(random_series, [bad])

    def test_values_monotone_in_level(self, random_series):
        thr = pool_of(random_series, [0.1, 10, 20, 80, 90, 99.9])
        assert list(thr.values) == sorted(thr.values)

    def test_value_for_each_level(self):
        thr = ThresholdSet(region="r", levels=(90.0, 10.0, 50.0), values=(1.0, -1.0, 0.25),
                           pooling="test")
        assert [thr.value_for(lv) for lv in (10.0, 50, 90.0)] == [-1.0, 0.25, 1.0]
        with pytest.raises(KeyError, match=re.escape("level 99.0 not present in threshold "
                                                     "set 'r'")):
            thr.value_for(99.0)

    def test_threshold_set_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            ThresholdSet(region="r", levels=(10.0, 90.0), values=(1.0, -1.0),
                         pooling="test")


class TestPooledPercentilesProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        values=arrays(np.float32, st.tuples(st.integers(1, 6), st.just(1), st.just(3),
                                            st.just(4)),
                      elements=st.sampled_from([-2.5, 0.0, 1.0, 1.0, 7.25]) | st.floats(
                          -1e6, 1e6, width=32)),
        constant=st.booleans(),
        levels=st.lists(st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
                        min_size=1, max_size=8),
    )
    def test_equal_to_percentile_of_the_unsorted_pool(self, values, constant, levels):
        """Sorting the pool first changes no threshold bit: ties and constant pools too."""
        if constant:
            values[:] = values.flat[0]
        r = make_series(GridSpec.regular(3, 4), values)
        region = RegionSpec("band", -10, 90, 0, 360)  # the two northern rows
        _, cells = region_scan(r, region)
        thr = pooled_percentiles(cells, "T2m", region.name, levels, r.start_time)
        pool = r.values("T2m")[:, :2]
        assert np.array_equal(thr.values, np.percentile(pool, thr.levels, method="linear"))
