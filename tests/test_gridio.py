import hashlib
import json
import re
import struct
import threading
import tracemalloc
from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rollstab import GridSpec, RegionSpec, RolloutSeries, builtin_regions
from rollstab.gridio import (
    EmptyRegionError,
    FormatError,
    HeaderMismatchError,
    IncompleteFieldError,
    RGFError,
    RolloutFile,
    TruncatedPayloadError,
    UnknownVariableError,
    cell_weights,
    daily_mean,
    folded_doy,
    latitude_weights,
    read_rollout,
    read_series_csv,
    region_mask,
    require_finite,
    write_rollout,
    write_series_csv,
)
from rollstab.spectra import scan
from conftest import global_extremes, make_series


class TestGridSpec:
    def test_regular_dims(self):
        g = GridSpec.from_resolution(0.25)
        assert (g.n_lat, g.n_lon) == (721, 1440)
        g = GridSpec.from_resolution(1.5)
        assert (g.n_lat, g.n_lon) == (121, 240)

    def test_rejects_nonuniform_lons(self):
        with pytest.raises(ValueError):
            GridSpec(lats=np.array([0.0]), lons=np.array([0.0, 10.0, 30.0, 200.0]))

    def test_rejects_nonmonotone_lats(self):
        with pytest.raises(ValueError):
            GridSpec(lats=np.array([0.0, 10.0, 5.0]), lons=np.arange(4) * 90.0)

    def test_rejects_out_of_range_lats(self):
        with pytest.raises(ValueError):
            GridSpec(lats=np.array([-95.0, 0.0]), lons=np.arange(4) * 90.0)

    @pytest.mark.parametrize("lats, lons, radius", [
        ([np.nan], [0.0], 6371.0),
        ([0.0], [np.nan], 6371.0),
        ([0.0], [0.0], np.nan),
        ([0.0], [0.0], np.inf),
    ])
    def test_rejects_non_finite_geometry(self, lats, lons, radius):
        with pytest.raises(ValueError):
            GridSpec(lats=np.array(lats), lons=np.array(lons), earth_radius_km=radius)


class TestLatitudeWeights:
    def test_single_equator_row(self):
        g = GridSpec(lats=np.array([0.0]), lons=np.arange(8) * 45.0)
        assert latitude_weights(g) == pytest.approx([1.0])

    def test_symmetric_rows(self):
        g = GridSpec(lats=np.array([60.0, -60.0]), lons=np.arange(8) * 45.0)
        assert latitude_weights(g) == pytest.approx([0.5, 0.5])

    def test_quarter_degree_sums_to_one(self):
        g = GridSpec.from_resolution(0.25)
        assert abs(latitude_weights(g).sum() - 1.0) < 1e-12

    def test_reversal_invariance(self):
        g = GridSpec.regular(33, 8)
        rev = GridSpec(lats=g.lats[::-1].copy(), lons=g.lons)
        assert latitude_weights(g) == pytest.approx(latitude_weights(rev)[::-1])

    def test_poles_get_zero(self):
        g = GridSpec.regular(5, 8)
        w = latitude_weights(g)
        assert w[0] == 0.0 and w[-1] == 0.0


class TestSpatialExtremes:
    def test_constant_field(self, small_grid):
        r = make_series(small_grid, np.full((3, 1, 8, 16), 5.0))
        ext = global_extremes(r)
        assert np.all(ext.min == 5.0) and np.all(ext.max == 5.0)

    def test_single_spike(self, small_grid):
        data = np.zeros((1, 1, 8, 16))
        data[0, 0, 3, 7] = 100.0
        ext = global_extremes(make_series(small_grid, data))
        assert ext.max[0] == 100.0 and ext.min[0] == 0.0

    def test_matches_exhaustive_scan(self, random_series):
        ext = global_extremes(random_series)
        vals = random_series.values("T2m")
        for t in range(random_series.n_time):
            lo = min(vals[t, i, j] for i in range(8) for j in range(16))
            hi = max(vals[t, i, j] for i in range(8) for j in range(16))
            assert ext.min[t] == lo and ext.max[t] == hi

    def test_min_below_weighted_mean_below_max(self, random_series):
        ext = global_extremes(random_series)
        w = cell_weights(random_series.grid)
        mean = (random_series.values("T2m") * w).sum(axis=(1, 2))
        assert np.all(ext.min <= mean + 1e-12) and np.all(mean <= ext.max + 1e-12)

    def test_unknown_variable_names_available(self, random_series):
        with pytest.raises(UnknownVariableError, match="T2m"):
            global_extremes(random_series, "Z500")


class TestRolloutSeries:
    def test_rejects_nan_without_fill(self, small_grid):
        data = np.zeros((1, 1, 8, 16))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="fill"):
            make_series(small_grid, data)

    @pytest.mark.parametrize("fill_value", [1e39, -np.inf, np.nan])
    def test_rejects_fill_value_outside_float32(self, small_grid, fill_value):
        # write_rollout stores the fill value as float32; it must survive that
        with pytest.raises(ValueError, match="fill_value"):
            RolloutSeries(grid=small_grid, variables=("T2m",), start_time=datetime(2021, 1, 1),
                          data=np.zeros((1, 1, 8, 16)), fill_value=fill_value)

    def test_finiteness_checks_allocate_no_copy(self):
        """Building a series and requiring a variable finite scan the values
        without a boolean temporary (4 MB for this 16 MB payload)."""
        data = np.random.default_rng(0).standard_normal((64, 2, 128, 256)).astype(np.float32)
        tracemalloc.start()
        try:
            r = RolloutSeries(grid=GridSpec.regular(128, 256), variables=("a", "b"),
                              start_time=datetime(2021, 1, 1), data=data)
            require_finite(r, "b")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        data[5, 1, 7, 9] = -np.inf
        with pytest.raises(IncompleteFieldError):
            require_finite(r, "b")

    def test_rejects_start_time_with_utc_offset(self, small_grid):
        start = datetime.fromisoformat("2021-01-01T00:00:00+05:00")
        with pytest.raises(ValueError, match=re.escape(
                "start_time: 2021-01-01T00:00:00+05:00 carries a UTC offset")):
            make_series(small_grid, np.zeros((1, 1, 8, 16)), start=start)

    def test_timestamps(self, small_grid):
        r = make_series(small_grid, np.zeros((3, 1, 8, 16)))
        ts = r.timestamps
        assert str(ts[0]) == "2021-01-01T00:00:00"
        assert str(ts[2]) == "2021-01-01T12:00:00"


class TestRGFFormat:
    def test_round_trip_bit_exact(self, tmp_path, random_series):
        p = tmp_path / "x.rgf"
        write_rollout(random_series, p)
        back = read_rollout(p)
        assert np.array_equal(back.data, random_series.data)
        assert back.variables == random_series.variables
        assert back.start_time == random_series.start_time
        assert back.step_seconds == random_series.step_seconds
        assert back.grid.same_geometry(random_series.grid)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.rgf"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            read_rollout(p)

    def test_truncated_payload(self, tmp_path, random_series):
        p = tmp_path / "x.rgf"
        write_rollout(random_series, p)
        raw = p.read_bytes()
        # drop one timestep worth of floats off the end
        step = random_series.grid.n_lat * random_series.grid.n_lon * 4
        p.write_bytes(raw[:-step])
        with pytest.raises(TruncatedPayloadError):
            read_rollout(p)

    def test_oversized_payload_is_mismatch(self, tmp_path, random_series):
        p = tmp_path / "x.rgf"
        write_rollout(random_series, p)
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(HeaderMismatchError):
            read_rollout(p)

    def test_fill_value_round_trip(self, tmp_path, small_grid):
        data = np.zeros((2, 1, 8, 16), dtype=np.float32)
        data[1, 0, 2, 3] = np.nan
        r = RolloutSeries(grid=small_grid, variables=("T2m",),
                          start_time=datetime(2021, 1, 1), data=data,
                          fill_value=-9e30)
        p = tmp_path / "fill.rgf"
        write_rollout(r, p)
        back = read_rollout(p)
        assert np.isnan(back.data[1, 0, 2, 3])
        assert np.isfinite(back.data[0]).all()

    def test_attrs_survive(self, tmp_path, random_series):
        random_series.attrs["note"] = "hello"
        p = tmp_path / "x.rgf"
        write_rollout(random_series, p)
        assert read_rollout(p).attrs["note"] == "hello"


def _rewrite_header(path, **changes):
    """Replace header fields of an RGF file in place, keeping its payload."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12 : 12 + hlen]) | changes
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:4] + struct.pack("<Q", len(blob)) + blob + raw[12 + hlen :])


class TestMalformedRGF:
    """Every malformed file is a typed RGFError whose message names the file."""

    @pytest.mark.parametrize("changes", [
        {"earth_radius_km": "far"},
        {"earth_radius_km": float("nan")},
        {"fill_value": "none"},
        {"fill_value": -1e39},
        {"lats": [90.0, 60.0, 70.0, 30.0, 0.0, -30.0, -60.0, -90.0]},
        {"lons": [0.0, 10.0] + [22.5 * i for i in range(2, 16)]},
        {"step_seconds": 0},
        {"attrs": ["not", "an", "object"]},
    ], ids=["earth_radius", "earth_radius_nan", "fill_value", "fill_overflow", "lats",
            "lons", "step_0", "attrs"])
    def test_bad_header_field_is_format_error(self, tmp_path, random_series, changes):
        p = tmp_path / "x.rgf"
        write_rollout(random_series, p)
        _rewrite_header(p, **changes)
        with pytest.raises(FormatError, match=re.escape(str(p))):
            read_rollout(p)

    @pytest.mark.parametrize("changes, message", [
        ({"step_seconds": 21600.9}, "step_seconds: expected int, got 21600.9"),
        ({"step_seconds": "21600"}, "step_seconds: expected int, got '21600'"),
        ({"n_time": 12.7}, "n_time: expected int, got 12.7"),  # the series has 12 steps
        ({"variables": "T"}, "variables must be a list of names"),
        ({"units": "K"}, "header: unknown key 'units'"),
        ({"fill_value": "1e20"}, "fill_value: expected float, got '1e20'"),
        ({"start_time": "2021-01-01T00:00:00+05:00"},
         "start_time: 2021-01-01T00:00:00+05:00 carries a UTC offset"),
    ], ids=["step_float", "step_str", "n_time_float", "variables_str", "unknown_key",
            "fill_str", "start_offset"])
    def test_header_is_read_strictly(self, tmp_path, random_series, changes, message):
        p = tmp_path / "x.rgf"
        write_rollout(random_series, p)
        _rewrite_header(p, **changes)
        with pytest.raises(FormatError, match=re.escape(f"{p}: ") + ".*" + re.escape(message)):
            read_rollout(p)

    @pytest.mark.parametrize("key", ["earth_radius_km", "fill_value", "attrs"])
    def test_optional_header_keys(self, tmp_path, random_series, key):
        p = tmp_path / "x.rgf"
        write_rollout(random_series, p)
        raw = p.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[4:12])
        header = json.loads(raw[12 : 12 + hlen])
        del header[key]
        blob = json.dumps(header).encode()
        p.write_bytes(raw[:4] + struct.pack("<Q", len(blob)) + blob + raw[12 + hlen :])
        assert np.array_equal(read_rollout(p).data, random_series.data)

    def test_nan_payload_without_fill_value(self, tmp_path, random_series):
        p = tmp_path / "x.rgf"
        write_rollout(random_series, p)
        raw = bytearray(p.read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=re.escape(str(p))):
            read_rollout(p)

    def test_n_time_0(self, tmp_path, random_series):
        """A mismatch while payload bytes remain, an invalid header without them."""
        p = tmp_path / "x.rgf"
        write_rollout(random_series, p)
        _rewrite_header(p, n_time=0)
        with pytest.raises(HeaderMismatchError, match=re.escape(str(p))):
            read_rollout(p)
        raw = p.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[4:12])
        p.write_bytes(raw[: 12 + hlen])
        with pytest.raises(FormatError, match=re.escape(str(p))):
            read_rollout(p)


class TestReadMemory:
    """read_rollout fills one array from the file: no byte-string copies."""

    @pytest.mark.parametrize("fill_value", [None, -9e30])
    def test_peak_below_one_and_a_half_payloads(self, tmp_path, fill_value):
        data = np.random.default_rng(0).standard_normal((64, 2, 64, 128)).astype(np.float32)
        if fill_value is not None:
            data[3, 1, 5, :7] = np.nan
        r = RolloutSeries(grid=GridSpec.regular(64, 128), variables=("a", "b"),
                          start_time=datetime(2021, 1, 1), data=data, fill_value=fill_value)
        p = tmp_path / "x.rgf"
        write_rollout(r, p)
        tracemalloc.start()
        try:
            back = read_rollout(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * data.nbytes
        assert back.data.tobytes() == data.tobytes()


class TestWriteMemory:
    """write_rollout writes the payload step by step: no whole-payload copy."""

    @pytest.mark.parametrize("fill_value", [None, -9e30])
    def test_peak_below_a_quarter_payload(self, tmp_path, fill_value):
        data = np.random.default_rng(0).standard_normal((240, 2, 64, 128)).astype(np.float32)
        if fill_value is not None:
            data[3, 1, 5, :7] = np.nan
        r = RolloutSeries(grid=GridSpec.regular(64, 128), variables=("a", "b"),
                          start_time=datetime(2021, 1, 1), data=data, fill_value=fill_value)
        p = tmp_path / "x.rgf"
        tracemalloc.start()
        try:
            write_rollout(r, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes / 4, (peak, data.nbytes)
        assert read_rollout(p).data.tobytes() == data.tobytes()


class TestRolloutFile:
    """The block reader: the same values, checks and digest as a whole read."""

    @pytest.fixture
    def holed(self, tmp_path):
        data = np.random.default_rng(1).standard_normal((23, 2, 4, 8)).astype(np.float32)
        data[7, 1, 2, :3] = np.nan
        data[22, 0, 0, 0] = np.nan
        r = RolloutSeries(grid=GridSpec.regular(4, 8), variables=("a", "b"),
                          start_time=datetime(2021, 1, 1), data=data, fill_value=-9e30)
        p = tmp_path / "holed.rgf"
        write_rollout(r, p)
        return p, data

    @pytest.mark.parametrize("rows", [1, 5, 23, 100])
    def test_blocks_concatenate_to_the_payload(self, holed, rows):
        p, data = holed
        with RolloutFile(p) as f:
            got = np.concatenate([b.copy() for b in f.blocks(rows)])
            assert f.sha256 == hashlib.sha256(p.read_bytes()).hexdigest()
        assert got.tobytes() == data.tobytes()  # fill cells come back as NaN

    def test_in_memory_blocks_are_views(self, holed):
        r = read_rollout(holed[0])
        blocks = list(r.blocks(5))
        assert [b.shape[0] for b in blocks] == [5, 5, 5, 5, 3]
        assert all(np.shares_memory(b, r.data) for b in blocks)

    def test_header_matches_read_rollout(self, holed):
        r = read_rollout(holed[0])
        with RolloutFile(holed[0]) as f:
            assert (f.variables, f.n_time, f.step_seconds, f.fill_value, f.start_time) == (
                r.variables, r.n_time, r.step_seconds, r.fill_value, r.start_time)
            assert np.array_equal(f.timestamps, r.timestamps)
            assert f.grid.same_geometry(r.grid)
        assert r.sha256 == hashlib.sha256(holed[0].read_bytes()).hexdigest()

    def test_digest_needs_a_full_pass(self, holed):
        with RolloutFile(holed[0]) as f:
            next(f.blocks(5))
            with pytest.raises(RuntimeError, match="full pass"):
                f.sha256

    def test_nan_without_fill_value_raises_in_the_block_holding_it(self, tmp_path,
                                                                   random_series):
        p = tmp_path / "x.rgf"
        write_rollout(random_series, p)
        raw = bytearray(p.read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()  # last step of 12
        p.write_bytes(bytes(raw))
        with RolloutFile(p) as f:
            walk = f.blocks(5)
            next(walk), next(walk)
            with pytest.raises(FormatError, match=re.escape(f"{p}: invalid header or payload: "
                                                            "non-finite values present")):
                next(walk)

    def test_oversized_declaration_raises_on_open(self, tmp_path, random_series):
        p = tmp_path / "x.rgf"
        write_rollout(random_series, p)
        _rewrite_header(p, n_time=10**9)
        with pytest.raises(TruncatedPayloadError, match=re.escape(str(p))):
            RolloutFile(p)

    @pytest.fixture(scope="class")
    def holed_in_every_step(self, tmp_path_factory):
        """4 MB, with fill cells in every step, so in every block of any walk."""
        data = np.random.default_rng(2).standard_normal((64, 2, 64, 128)).astype(np.float32)
        for t in range(data.shape[0]):
            data[t, t % 2, t % 64, : 1 + t % 5] = np.nan
        r = RolloutSeries(grid=GridSpec.regular(64, 128), variables=("a", "b"),
                          start_time=datetime(2021, 1, 1), data=data, fill_value=-9e30)
        p = tmp_path_factory.mktemp("holed") / "holed.rgf"
        write_rollout(r, p)
        return p, data

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_overlapped_hash_is_the_file_digest(self, holed_in_every_step, rows):
        p, data = holed_in_every_step
        before = threading.active_count()
        with RolloutFile(p) as f:
            got = []
            for block in f.blocks(rows):
                assert threading.active_count() == before + 1  # the walk's one hasher
                got.append(block.copy())
            assert f.sha256 == hashlib.sha256(p.read_bytes()).hexdigest()
        assert threading.active_count() == before
        got = np.concatenate(got)
        assert got.tobytes() == read_rollout(p).data.tobytes() == data.tobytes()

    def test_abandoned_walk_ends_its_thread(self, holed_in_every_step):
        p, _ = holed_in_every_step
        before = threading.active_count()
        with RolloutFile(p) as f:
            walk = f.blocks(7)
            next(walk)
            assert threading.active_count() == before + 1
            del walk
            assert threading.active_count() == before
        assert f._f.closed

    @pytest.mark.parametrize("variables", [("a", "b"), ("b", "a")])
    def test_scan_stops_at_the_first_fill_cell(self, holed_in_every_step, variables):
        # both variables hold fill cells in the first block: the first asked for is named
        p, _ = holed_in_every_step
        before = threading.active_count()
        with RolloutFile(p) as f:
            with pytest.raises(IncompleteFieldError, match=f"variable {variables[0]!r}") as exc:
                scan(f, variables)
            assert threading.active_count() == before, exc  # the traceback holds the walk

    def test_walk_failing_mid_file_ends_its_thread(self, tmp_path):
        data = np.random.default_rng(3).standard_normal((64, 2, 64, 128)).astype(np.float32)
        r = RolloutSeries(grid=GridSpec.regular(64, 128), variables=("a", "b"),
                          start_time=datetime(2021, 1, 1), data=data)
        p = tmp_path / "x.rgf"
        write_rollout(r, p)
        raw = bytearray(p.read_bytes())
        nan_at = len(raw) - data.nbytes + data[:30].nbytes + 4  # in step 30
        raw[nan_at : nan_at + 4] = np.float32(np.nan).tobytes()
        p.write_bytes(bytes(raw))
        before = threading.active_count()
        with RolloutFile(p) as f:
            walk = f.blocks(7)
            for _ in range(4):  # steps 0..27
                next(walk)
            with pytest.raises(FormatError, match="non-finite values present"):
                next(walk)
            assert threading.active_count() == before
        assert f._f.closed


@pytest.fixture(scope="module")
def small_rgf(tmp_path_factory):
    """Bytes of a valid two-variable RGF with a fill value and attrs."""
    grid = GridSpec.regular(3, 4)
    data = np.arange(2 * 2 * 3 * 4, dtype=np.float32).reshape(2, 2, 3, 4)
    data[1, 0, 1, 2] = np.nan
    r = RolloutSeries(grid=grid, variables=("T2m", "U10"), start_time=datetime(2021, 1, 1),
                      data=data, fill_value=-9e30, attrs={"note": "x"})
    p = tmp_path_factory.mktemp("rgf") / "small.rgf"
    write_rollout(r, p)
    return p.read_bytes()


class TestRGFProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5),
                        st.integers(1, 8)),
        fill_value=st.none() | st.floats(width=32, allow_nan=False, allow_infinity=False),
        data=st.data(),
    )
    def test_round_trip_bit_exact(self, tmp_path_factory, shape, fill_value, data):
        values = data.draw(arrays(np.float32, shape, elements=st.floats(
            width=32, allow_nan=False, allow_infinity=False)))
        if fill_value is not None:  # a cell equal to the fill value is a hole
            holes = data.draw(arrays(np.bool_, shape)) | (values == np.float32(fill_value))
            values[holes] = np.nan
        r = RolloutSeries(grid=GridSpec.regular(shape[2], shape[3]),
                          variables=tuple(f"v{i}" for i in range(shape[1])),
                          start_time=datetime(2021, 1, 1), data=values,
                          fill_value=fill_value)
        p = tmp_path_factory.getbasetemp() / "roundtrip.rgf"
        write_rollout(r, p)
        back = read_rollout(p)
        assert back.data.tobytes() == values.tobytes()
        assert back.fill_value == (None if fill_value is None else float(fill_value))

    def test_every_truncation_is_rgf_error(self, tmp_path, small_rgf):
        cut = tmp_path / "cut.rgf"
        for n in range(len(small_rgf)):
            cut.write_bytes(small_rgf[:n])
            with pytest.raises(RGFError):
                read_rollout(cut)

    @settings(max_examples=500, deadline=None)
    @given(position=st.integers(min_value=0),
           value=st.integers(0, 255) | st.sampled_from(b"-.0123456789e"))
    def test_header_byte_corruption_reads_or_raises_rgf_error(self, tmp_path_factory,
                                                              small_rgf, position, value):
        p = tmp_path_factory.getbasetemp() / "corrupt.rgf"
        raw = bytearray(small_rgf)
        (hlen,) = struct.unpack("<Q", raw[4:12])
        raw[position % (12 + hlen)] = value
        p.write_bytes(bytes(raw))
        try:
            read_rollout(p)
        except RGFError as e:
            assert str(p) in str(e)

    @settings(max_examples=20, deadline=None)
    @given(n_time=st.integers(min_value=3, max_value=10**15))
    @example(n_time=10**9)
    def test_oversized_declaration_raises_before_allocating(self, tmp_path_factory, small_rgf,
                                                            n_time):
        p = tmp_path_factory.getbasetemp() / "oversized.rgf"
        p.write_bytes(small_rgf)
        _rewrite_header(p, n_time=n_time)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayloadError):
                read_rollout(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRegions:
    def test_global_region_selects_all(self, small_grid):
        reg = RegionSpec("globe", -90, 90, 0, 360)
        mask, count = region_mask(small_grid, reg)
        assert count == small_grid.n_lat * small_grid.n_lon
        assert mask.all()

    def test_amazon_count_matches_brute_force(self):
        g = GridSpec.from_resolution(0.25)
        reg = builtin_regions()["amazon"]
        mask, count = region_mask(g, reg)
        expected = 0
        for lat in g.lats:
            if -15.0 <= lat <= 5.0:
                expected += sum(1 for lon in g.lons if 290.0 <= lon <= 315.0)
        assert count == expected
        assert count > 0

    def test_wrapping_equals_union(self):
        g = GridSpec.regular(9, 36)
        wrap = RegionSpec("w", -30, 30, 350, 370)
        left = RegionSpec("l", -30, 30, 350, 359.999)
        right = RegionSpec("r", -30, 30, 0, 10)
        m, _ = region_mask(g, wrap)
        ml, _ = region_mask(g, left)
        mr, _ = region_mask(g, right)
        assert np.array_equal(m, ml | mr)

    def test_west_longitudes_normalized(self):
        g = GridSpec.from_resolution(1.5)
        reg = builtin_regions()["western_us"]  # given as -125..-105
        mask, count = region_mask(g, reg)
        sel_lons = g.lons[mask.any(axis=0)]
        assert sel_lons.min() >= 235.0 and sel_lons.max() <= 255.0

    def test_empty_region_errors(self):
        g = GridSpec.regular(5, 8)  # rows at 90, 45, 0, -45, -90
        with pytest.raises(EmptyRegionError):
            region_mask(g, RegionSpec("sliver", 50.0, 60.0, 0.0, 360.0))

    def test_builtins_nonempty_on_coarse_grid(self):
        g = GridSpec.from_resolution(1.5)
        for reg in builtin_regions().values():
            _, count = region_mask(g, reg)
            assert count > 0


class TestDailyHelpers:
    def test_daily_mean_groups_four_steps(self, small_grid):
        r = make_series(small_grid, np.zeros((8, 1, 8, 16)))
        vals = np.arange(8.0)
        daily = daily_mean(r.timestamps, vals)
        assert len(daily) == 2
        assert daily.values == pytest.approx([1.5, 5.5])

    def test_folded_doy_leap(self):
        assert folded_doy(np.array(["2020-02-28"], dtype="datetime64[D]"))[0] == 59
        assert folded_doy(np.array(["2020-02-29"], dtype="datetime64[D]"))[0] == 59
        assert folded_doy(np.array(["2020-03-01"], dtype="datetime64[D]"))[0] == 60
        assert folded_doy(np.array(["2020-12-31"], dtype="datetime64[D]"))[0] == 365
        assert folded_doy(np.array(["2021-03-01"], dtype="datetime64[D]"))[0] == 60
        assert folded_doy(np.array(["2021-12-31"], dtype="datetime64[D]"))[0] == 365


class TestSeriesCSV:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "s.csv"
        ts = np.array(["2021-01-01T00:00:00", "2021-01-01T06:00:00"],
                      dtype="datetime64[s]")
        write_series_csv(p, ts, [1.5, -2.25], comments=["a comment"])
        rts, vals = read_series_csv(p)
        assert np.array_equal(rts, ts)
        assert vals == pytest.approx([1.5, -2.25])
