import re
import tempfile
from datetime import datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rollstab import (
    GLOBE,
    GridSpec,
    RegionSpec,
    builtin_regions,
    event_series,
    exceedance_curve,
    pooled_percentiles,
    qq_tails,
)
from rollstab import gridio, spectra
from rollstab.climatology import ThresholdSet
from rollstab.extremes import match_windows
from rollstab.gridio import (
    EmptyRegionError,
    FormatError,
    RolloutFile,
    region_mask,
    write_rollout,
)
from conftest import make_series, region_scan


class TestRegionalExtremes:
    def test_constant_field(self, small_grid):
        r = make_series(small_grid, np.full((3, 1, 8, 16), 2.5))
        ext, _ = region_scan(r, GLOBE)
        assert np.all(ext.max == 2.5) and np.all(ext.min == 2.5)

    def test_spike_inside_region(self, small_grid):
        data = np.zeros((1, 1, 8, 16))
        data[0, 0, 4, 2] = 50.0
        r = make_series(small_grid, data)
        region = RegionSpec("band", -40, 10, 0, 360)  # row 4 is lat ~-12.9
        ext, _ = region_scan(r, region)
        assert ext.max[0] == 50.0

    def test_matches_exhaustive_scan(self, small_grid):
        rng = np.random.default_rng(0)
        r = make_series(small_grid, rng.standard_normal((5, 1, 8, 16)))
        region = RegionSpec("box", -50, 50, 90, 270)
        mask, _ = region_mask(small_grid, region)
        ext, _ = region_scan(r, region)
        vals = r.values("T2m")
        for t in range(5):
            sel = [vals[t, i, j] for i in range(8) for j in range(16) if mask[i, j]]
            assert ext.max[t] == max(sel)
            assert ext.min[t] == min(sel)

    def test_positional_order_matches_attributes(self, random_series):
        ext = region_scan(random_series, GLOBE)[0]
        lo, hi = ext
        assert lo is ext.min and hi is ext.max
        assert np.all(lo < hi)


def _boxes():
    """Region boxes: any lat/lon box (lon_min in -180..360, so some wrap 0 degrees),
    and polar caps spanning every longitude."""
    lat = st.floats(-90.0, 90.0)
    box = st.builds(
        lambda a, b, lon, width: (min(a, b), max(a, b), lon, lon + width),
        lat, lat, st.floats(-180.0, 359.0), st.floats(1.0, 360.0),
    ).filter(lambda b: b[0] < b[1])
    cap = st.floats(0.0, 89.0).flatmap(lambda edge: st.sampled_from(
        [(edge, 90.0, 0.0, 360.0), (-90.0, -edge, 0.0, 360.0)]))
    return st.lists(box | cap, min_size=1, max_size=3)


# the 400 levels `rollstab extremes` pools thresholds at: P80..P99.9, P0.1..P20
EXTREMES_LEVELS = sorted(set(list(np.round(np.arange(800, 1000) / 10.0, 1))
                             + list(np.round(np.arange(1, 201) / 10.0, 1)) + [10.0, 90.0]))


def _pools():
    """float32 pools of 1-300 values: any finite float32 (subnormals, +-0.0 and
    +-3.4e38 included) mixed with a few heavily tied ones, or one value repeated."""
    tied = st.sampled_from([-3e38, -2.5, -1.0, -1e-40, -0.0, 0.0, 1e-45, 1.0, 2.5, 3e38])
    value = st.floats(width=32, allow_nan=False, allow_infinity=False) | tied
    constant = st.builds(lambda x, n: [x] * n, value, st.integers(1, 300))
    return (st.lists(value, min_size=1, max_size=300) | constant).map(
        lambda xs: np.array(xs, dtype=np.float32))


class TestRegionalScanProperties:
    @settings(max_examples=300, deadline=None)
    @given(pool=_pools())
    @example(pool=np.array([-0.0], np.float32))
    @example(pool=np.array([-1.0, 2.0], np.float32))
    @example(pool=np.array([-3e38, 3e38], np.float32))
    @example(pool=np.array([-3e38, -3e38, 3e38, 3e38, 3e38], np.float32))
    @example(pool=np.array([-0.0, -0.0, 1e-45, -1e-45], np.float32))
    def test_pooled_percentiles_are_numpys_bytes(self, pool):
        """At the levels `extremes` uses, thresholds read from the sorted pool
        are ``np.percentile``'s byte for byte, including where ``b - a``
        overflows float32. Only where both signed zeros occur is the sign of a
        zero threshold the sort's choice (numpy's own result then depends on
        the pool's order), so those pools are compared by value."""
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.percentile(pool, EXTREMES_LEVELS, method="linear")
            try:
                thr = pooled_percentiles(pool.copy()[None], "T2m", "r", EXTREMES_LEVELS,
                                         datetime(2021, 1, 1))
            except ValueError as e:  # an overflow can unorder numpy's thresholds too
                assert "monotone" in str(e) and np.any(np.diff(want) < 0)
                return
        got = np.array(thr.values)
        zero_signs = np.signbit(pool[pool == 0])
        if zero_signs.any() and not zero_signs.all():
            assert np.array_equal(got, want, equal_nan=True)
        else:
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 30), st.integers(2, 9), st.integers(4, 24)),
        seed=st.integers(0, 2**32 - 1),
        boxes=_boxes(),
        block_rows=st.integers(1, 40),
        via_file=st.booleans(),
    )
    def test_equal_to_whole_array_masked_reduction(self, shape, seed, boxes, block_rows,
                                                   via_file):
        """However the steps are blocked, one scan's regional extremes are the
        masked min/max of the whole array, and the thresholds its pools give
        after a second walk are ``np.percentile``'s of the whole masked sample,
        byte for byte (by value where that sample holds both signed zeros)."""
        n_time, n_lat, n_lon = shape
        grid = GridSpec.regular(n_lat, n_lon)
        regions = [RegionSpec(f"r{i}", *b) for i, b in enumerate(boxes)]
        masks = {}
        for region in regions:
            try:
                masks[region.name] = region_mask(grid, region)[0]
            except EmptyRegionError:
                assume(False)
        data = np.random.default_rng(seed).standard_normal((n_time, 1, n_lat, n_lon))
        r = make_series(grid, np.round(data, 1))  # rounding makes ties
        values = r.values("T2m")
        block_bytes = block_rows * n_lat * n_lon * 12
        with mock.patch.object(gridio, "BLOCK_BYTES", block_bytes), \
                tempfile.TemporaryDirectory() as d:
            if via_file:
                write_rollout(r, Path(d) / "r.rgf")
                with RolloutFile(Path(d) / "r.rgf") as f:
                    s = spectra.scan(f, ("T2m",), spectra=None, regions=[*regions, GLOBE],
                                     levels=EXTREMES_LEVELS)
                    thr = spectra.pooled_thresholds(f, "T2m", regions, s.pools["T2m"])
            else:
                s = spectra.scan(r, ("T2m",), spectra=None, regions=[*regions, GLOBE],
                                 levels=EXTREMES_LEVELS)
                thr = spectra.pooled_thresholds(r, "T2m", regions, s.pools["T2m"])
        assert np.array_equal(s.regional["T2m"]["globe"].min, values.min(axis=(1, 2)))
        assert np.array_equal(s.regional["T2m"]["globe"].max, values.max(axis=(1, 2)))
        for name, mask in masks.items():
            whole = values[:, mask]
            ext = s.regional["T2m"][name]
            assert np.array_equal(ext.min, whole.min(axis=1))
            assert np.array_equal(ext.max, whole.max(axis=1))
            got = np.array(thr[name].values)
            want = np.percentile(whole, EXTREMES_LEVELS, method="linear")
            zero_signs = np.signbit(whole[whole == 0])
            if zero_signs.any() and not zero_signs.all():
                assert np.array_equal(got, want)
            else:
                assert got.tobytes() == want.tobytes()

    def test_changed_reference_between_passes(self, tmp_path):
        """The second walk is not hashed, so a file whose values move between
        the walks is caught by the counts of its bins, naming the file."""
        grid = GridSpec.regular(8, 16)
        data = np.random.default_rng(3).standard_normal((40, 1, 8, 16))
        path = tmp_path / "r.rgf"
        write_rollout(make_series(grid, data), path)
        regions = [GLOBE]
        with RolloutFile(path) as f:
            s = spectra.scan(f, ("T2m",), spectra=None, regions=regions,
                             levels=[10.0, 90.0])
            raw = bytearray(path.read_bytes())
            raw[-20 * 512:] = (data[20:] + 100).astype(np.float32).tobytes()  # last 20 steps
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatError, match=f"{re.escape(str(path))}: changed between "
                                                  "passes"):
                spectra.pooled_thresholds(f, "T2m", regions, s.pools["T2m"])


class TestEventSeries:
    def test_flags_match_brute_force(self, small_grid):
        rng = np.random.default_rng(1)
        r = make_series(small_grid, rng.standard_normal((200, 1, 8, 16)))
        ext, cells = region_scan(r, GLOBE)
        thr = pooled_percentiles(cells, "T2m", GLOBE.name, [10.0, 90.0], r.start_time)
        hot, cold = event_series(ext, thr)
        vals = r.values("T2m")
        for t in range(200):
            assert hot[t] == (vals[t].max() > thr.value_for(90.0))
            assert cold[t] == (vals[t].min() < thr.value_for(10.0))


class TestQQTails:
    def test_self_on_diagonal(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal(5000)
        qq = qq_tails(s, s, "hot")
        assert np.array_equal(qq.model, qq.reference)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal(5000)
        qq = qq_tails(ref - 2.0, ref, "hot")
        assert np.allclose(qq.model, qq.reference - 2.0, atol=1e-12)

    def test_variance_shrunk_below_diagonal(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal(20000)
        model = ref.mean() + 0.5 * (ref - ref.mean())
        qq = qq_tails(model, ref, "hot")
        assert np.all(qq.model < qq.reference)
        cold = qq_tails(model, ref, "cold")
        assert np.all(cold.model > cold.reference)  # lighter cold tail too

    def test_default_levels(self):
        s = np.arange(10000.0)
        hot = qq_tails(s, s, "hot")
        assert hot.levels[0] == 90.0 and hot.levels[-1] == 99.9
        cold = qq_tails(s, s, "cold")
        assert cold.levels[0] == 0.1 and cold.levels[-1] == 10.0

    def test_affine_equivariance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(3000)
        b = rng.standard_normal(3000)
        qq = qq_tails(a, b, "hot")
        qq2 = qq_tails(3.0 * a + 1.0, 3.0 * b + 1.0, "hot")
        assert np.allclose(qq2.model, 3.0 * qq.model + 1.0)
        assert np.allclose(qq2.reference, 3.0 * qq.reference + 1.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            qq_tails(np.array([]), np.ones(10), "hot")


def simple_thresholds(levels, values):
    return ThresholdSet(region="r", levels=tuple(levels), values=tuple(values),
                        pooling="test")


class TestExceedanceCurve:
    def test_threshold_below_minimum(self):
        s = np.linspace(1.0, 2.0, 100)
        thr = simple_thresholds([80.0], [0.5])
        exc = exceedance_curve(s, s, thr, "hot")
        assert exc.model_fraction[0] == 1.0
        assert exc.ratio[0] == 1.0

    def test_hot_fractions_monotone_nonincreasing(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal(5000)
        levels = [80.0, 90.0, 95.0, 99.0]
        thr = simple_thresholds(levels, np.percentile(s, levels))
        exc = exceedance_curve(s, s, thr, "hot")
        assert np.all(np.diff(exc.model_fraction) <= 0)

    def test_cold_fractions_monotone_nondecreasing(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal(5000)
        levels = [0.1, 1.0, 10.0, 20.0]
        thr = simple_thresholds(levels, np.percentile(s, levels))
        exc = exceedance_curve(s, s, thr, "cold")
        assert np.all(np.diff(exc.model_fraction) >= 0)

    def test_undefined_ratio_flagged(self):
        model = np.linspace(0, 1, 50)
        ref = np.zeros(50)
        thr = simple_thresholds([99.0], [0.5])
        exc = exceedance_curve(model, ref, thr, "hot")
        assert not exc.ratio_defined[0]
        assert np.isnan(exc.ratio[0])

    def test_regional_max_exceeds_pooled_pixel_quantile(self, small_grid):
        # the max of many pixels clears a pooled pixel P90 at least 10% of steps
        rng = np.random.default_rng(8)
        r = make_series(small_grid, rng.standard_normal((500, 1, 8, 16)))
        ext, cells = region_scan(r, GLOBE)
        thr = pooled_percentiles(cells, "T2m", GLOBE.name, [90.0], r.start_time)
        frac = float((ext.max > thr.values[0]).mean())
        # direct counting oracle
        vals = r.values("T2m").reshape(500, -1)
        manual = float((vals.max(axis=1) > thr.values[0]).mean())
        assert frac == manual
        assert frac >= 0.10


class TestMatchWindows:
    def test_intersection(self):
        a = np.array(["2021-01-01", "2021-01-02", "2021-01-03"],
                     dtype="datetime64[s]")
        b = np.array(["2021-01-02", "2021-01-03", "2021-01-04"],
                     dtype="datetime64[s]")
        ma, mb = match_windows(a, b)
        assert list(a[ma]) == list(b[mb])

    def test_disjoint_rejected(self):
        a = np.array(["2021-01-01"], dtype="datetime64[s]")
        b = np.array(["2022-01-01"], dtype="datetime64[s]")
        with pytest.raises(ValueError):
            match_windows(a, b)
