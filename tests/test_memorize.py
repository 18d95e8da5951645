import os
import tempfile
import threading
import tracemalloc
from datetime import datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rollstab import GridSpec, RolloutSeries, build_index, distance_ratio, gridio, memorize
from rollstab.gridio import (IncompleteFieldError, RolloutFile, folded_doy, read_rollout,
                             write_rollout)
from rollstab.memorize import TooFewCandidatesError, memorization_series
from conftest import make_series


def training_series(n_days=400, n_lat=8, n_lon=16, seed=0, start="1990-01-01"):
    rng = np.random.default_rng(seed)
    grid = GridSpec.regular(n_lat, n_lon)
    data = rng.standard_normal((n_days, 1, n_lat, n_lon)).astype(np.float32)
    return make_series(grid, data, start=datetime.fromisoformat(start),
                       step_seconds=86400)


class TestDistanceRatio:
    def test_planted_copy_is_zero(self):
        train = training_series()
        idx = build_index(train)
        t = 100
        sample = train.data[t]
        res = distance_ratio(sample, train.timestamps[t].astype(datetime), idx)
        assert res.ratio == 0.0
        assert res.d1 == 0.0
        assert res.memorized
        assert res.first_id == str(train.timestamps[t])

    def test_planted_near_copy_below_threshold(self):
        train = training_series(seed=1)
        idx = build_index(train)
        t = 50
        rng = np.random.default_rng(2)
        noisy = train.data[t] + 0.01 * rng.standard_normal(train.data[t].shape).astype(np.float32)
        res = distance_ratio(noisy, train.timestamps[t].astype(datetime), idx)
        assert 0 < res.ratio < 0.5
        assert res.memorized

    def test_random_queries_near_one(self):
        train = training_series(n_days=365 * 4, seed=3)
        idx = build_index(train)
        rng = np.random.default_rng(4)
        ratios = []
        for i in range(20):
            q = rng.standard_normal((1, 8, 16)).astype(np.float32)
            ratios.append(distance_ratio(q, datetime(2021, 6, 1 + i % 28), idx).ratio)
        assert float(np.median(ratios)) > 0.8
        assert all(r <= 1.0 for r in ratios)

    def test_doy_window_wraps_year_boundary(self):
        # snapshots only around New Year; a Dec 28 query must see Jan 5 ones
        train = training_series(n_days=10, start="1990-01-01", seed=5)
        idx = build_index(train)
        sample = np.zeros((1, 8, 16), dtype=np.float32)
        res = distance_ratio(sample, datetime(2021, 12, 28), idx)
        assert res.ratio > 0  # found two candidates through the wrap

    def test_too_few_candidates(self):
        train = training_series(n_days=5, start="1990-06-01")
        idx = build_index(train)
        with pytest.raises(TooFewCandidatesError):
            distance_ratio(np.zeros((1, 8, 16), dtype=np.float32),
                           datetime(2021, 1, 1), idx)

    @pytest.mark.parametrize("index_day, inside, outside", [
        (datetime(2021, 3, 1), datetime(2020, 3, 11), datetime(2020, 3, 12)),
        (datetime(2020, 3, 11), datetime(2021, 3, 1), datetime(2021, 2, 28)),
    ], ids=["common-year index", "leap-year index"])
    def test_window_counts_calendar_days_across_leap_years(self, index_day, inside, outside):
        """Feb 29 counts as Feb 28, so Mar 11 is ten days from Mar 1 in any year."""
        rng = np.random.default_rng(12)
        train = make_series(GridSpec.regular(8, 16), rng.standard_normal((2, 1, 8, 16)),
                            start=index_day, step_seconds=21600)  # two snapshots that day
        idx = build_index(train)
        sample = np.zeros((1, 8, 16), dtype=np.float32)
        res = distance_ratio(sample, inside, idx)
        assert {res.first_id, res.second_id} == {str(t) for t in train.timestamps}
        with pytest.raises(TooFewCandidatesError):
            distance_ratio(sample, outside, idx)

    def test_far_snapshot_does_not_change_ratio(self):
        train = training_series(n_days=60, seed=6)
        idx = build_index(train)
        q = np.random.default_rng(7).standard_normal((1, 8, 16)).astype(np.float32)
        when = datetime(2021, 1, 15)
        before = distance_ratio(q, when, idx)

        # append a hugely distant snapshot inside the day-of-year window
        idx.vectors = np.vstack([idx.vectors,
                                 np.full((1, idx.vectors.shape[1]), 1e6,
                                         dtype=np.float32)])
        idx.doys = np.append(idx.doys, 15)
        idx.ids = idx.ids + ("far-snapshot",)
        after = distance_ratio(q, when, idx)
        assert after.ratio == before.ratio
        assert after.first_id == before.first_id

    def test_orthogonal_transform_invariance(self):
        # permuting longitudes inside each row is orthogonal under equal
        # within-row weights; applied to sample and index alike
        train = training_series(n_days=80, seed=8)
        idx = build_index(train)
        rng = np.random.default_rng(9)
        q = rng.standard_normal((1, 8, 16)).astype(np.float32)
        when = datetime(2021, 2, 1)
        base = distance_ratio(q, when, idx)

        perm = rng.permutation(16)
        permuted = train.data[:, :, :, perm]
        train_p = RolloutSeries(grid=train.grid, variables=train.variables,
                                start_time=train.start_time, data=permuted,
                                step_seconds=86400)
        idx_p = build_index(train_p)
        res = distance_ratio(q[:, :, perm], when, idx_p)
        assert res.ratio == pytest.approx(base.ratio, rel=1e-6)
        assert res.d1 == pytest.approx(base.d1, rel=1e-5)


def as_tuple(res):
    """(ratio, d1, d2, first id, second id), the floats as their exact hex."""
    return res.ratio.hex(), res.d1.hex(), res.d2.hex(), res.first_id, res.second_id


class TestMemorizationSeries:
    def test_composition_matches_pointwise(self):
        train = training_series(n_days=90, seed=10)
        idx = build_index(train)
        grid = train.grid
        rng = np.random.default_rng(11)
        roll = make_series(grid, rng.standard_normal((3, 1, 8, 16)),
                           start=datetime(2021, 1, 10), step_seconds=86400)
        series = memorization_series(roll, idx)
        assert len(series) == 3
        for t, res in zip(roll.timestamps, series):
            fields = np.stack([roll.values("T2m")[list(roll.timestamps).index(t)]])
            single = distance_ratio(fields, t.astype(datetime), idx)
            assert as_tuple(res) == as_tuple(single)


class TestIndexWalked:
    """The index is read in one walk into the array that becomes ``vectors``;
    a file and the same data in memory give the same bytes, and those of
    embedding each snapshot on its own."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_time=st.integers(2, 60),
        n_var=st.integers(1, 3),
        shape=st.tuples(st.integers(3, 6), st.integers(1, 8)),
        seed=st.integers(0, 2**32 - 1),
        block_rows=st.integers(1, 25),
        fill=st.booleans(),
        data=st.data(),
    )
    def test_file_and_memory_agree(self, n_time, n_var, shape, seed, block_rows, fill, data):
        names = tuple(f"v{i}" for i in range(n_var))
        chosen = data.draw(st.none() | st.lists(st.sampled_from(names), min_size=1,
                                                max_size=3, unique=True).map(tuple))
        grid = GridSpec.regular(*shape)
        values = np.random.default_rng(seed).standard_normal((n_time, n_var, *shape)) * 50 + 9
        train = RolloutSeries(grid=grid, variables=names, start_time=datetime(2020, 2, 20),
                              data=values.astype(np.float32), step_seconds=21600,
                              fill_value=-9e30 if fill else None)
        cells = shape[0] * shape[1]
        with mock.patch.object(gridio, "BLOCK_BYTES", block_rows * cells * (4 * n_var + 8)), \
                tempfile.TemporaryDirectory() as d:
            write_rollout(train, Path(d) / "train.rgf")
            with RolloutFile(Path(d) / "train.rgf") as f:
                from_file = build_index(f, chosen)
            in_memory = build_index(train, chosen)
        assert from_file.vectors.tobytes() == in_memory.vectors.tobytes()
        assert from_file.stats == in_memory.stats
        assert from_file.ids == in_memory.ids and np.array_equal(from_file.doys, in_memory.doys)
        cols = [names.index(v) for v in in_memory.variables]
        one_by_one = np.stack([in_memory.embed(frame[cols]) for frame in train.data])
        assert one_by_one.tobytes() == in_memory.vectors.tobytes()


class TestWalksStopAtAFillCell:
    """Indexing and scoring stop at the first fill cell of a chosen variable,
    and the walk's hashing thread ends with them."""

    @pytest.fixture
    def files(self, tmp_path):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((120, 2, 8, 16)).astype(np.float32)
        clean = RolloutSeries(grid=GridSpec.regular(8, 16), variables=("a", "b"),
                              start_time=datetime(1990, 1, 1), data=data, step_seconds=86400)
        write_rollout(clean, tmp_path / "clean.rgf")
        data = data.copy()
        data[70, 1, 4, 4] = np.nan
        write_rollout(RolloutSeries(grid=clean.grid, variables=clean.variables,
                                    start_time=clean.start_time, data=data,
                                    step_seconds=86400, fill_value=-9e30),
                      tmp_path / "holed.rgf")
        return tmp_path / "clean.rgf", tmp_path / "holed.rgf"

    def test_index(self, files, monkeypatch):
        monkeypatch.setattr(gridio, "BLOCK_BYTES", 16 * 8 * 16 * 16)  # 16 steps a block
        threads = threading.active_count()
        with RolloutFile(files[1]) as f:
            assert build_index(f, ("a",)).vectors.shape == (120, 128)
            with pytest.raises(IncompleteFieldError, match="'b'"):
                build_index(f)
        assert threading.active_count() == threads

    def test_rollout(self, files, monkeypatch):
        monkeypatch.setattr(gridio, "BLOCK_BYTES", 16 * 8 * 16 * 16)
        with RolloutFile(files[0]) as f:
            index = build_index(f)
        threads = threading.active_count()
        with RolloutFile(files[1]) as f:
            with pytest.raises(IncompleteFieldError, match="'b'"):
                memorization_series(f, index)
        assert threading.active_count() == threads

    def test_rollout_on_another_grid(self, files):
        with RolloutFile(files[0]) as f:
            index = build_index(f)
        train = read_rollout(files[0])
        flipped = RolloutSeries(grid=GridSpec(lats=train.grid.lats[::-1], lons=train.grid.lons),
                                variables=train.variables, start_time=train.start_time,
                                data=train.data[:, :, ::-1], step_seconds=86400)
        assert memorization_series(train, index)[5].ratio == 0.0
        with pytest.raises(ValueError, match="rollout and index grids differ"):
            memorization_series(flipped, index)


def whole_set_ratio(frame, when, index, window_days):
    """(ratio, d1, d2, first id, second id) of one sample from one float64
    difference to its whole candidate set, the search before it was tiled."""
    doy = int(folded_doy(np.datetime64(when, "s")))
    cand = np.flatnonzero(memorize._circular_doy_distance(index.doys, doy) <= window_days)
    if cand.size < 2:
        raise TooFewCandidatesError(f"{cand.size} candidates")
    diff = index.vectors[cand].astype(np.float64)  # the one (candidates, dim) temporary
    diff -= index.embed(frame)
    dists = np.sqrt(np.square(diff, out=diff).sum(axis=1))
    order = np.lexsort((cand, dists))
    d1, d2 = float(dists[order[0]]), float(dists[order[1]])
    ratio = 0.0 if d1 == 0.0 else (float("inf") if d2 == 0.0 else d1 / d2)
    return ratio, d1, d2, index.ids[cand[order[0]]], index.ids[cand[order[1]]]


class TestTiledScoring:
    """Candidates are differenced in tiles and a block's frames are scored on
    a worker pool; neither may change a byte of any result."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_index=st.integers(2, 40),
        n_roll=st.integers(1, 12),
        n_var=st.integers(1, 2),
        shape=st.tuples(st.integers(3, 5), st.integers(2, 6)),
        # Feb 29 of a leap year, and New Year
        start=st.sampled_from([datetime(2020, 2, 25), datetime(2019, 12, 27)]),
        step_seconds=st.sampled_from([21600, 86400]),
        window_days=st.integers(0, 12),
        tile_rows=st.integers(1, 40),  # 1 vector a tile, up to every candidate
        threads=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equal_to_whole_candidate_set(self, n_index, n_roll, n_var, shape, start,
                                          step_seconds, window_days, tile_rows, threads,
                                          seed, data):
        rng = np.random.default_rng(seed)
        grid = GridSpec.regular(*shape)
        names = tuple(f"v{i}" for i in range(n_var))
        train = rng.standard_normal((n_index, n_var, *shape)).astype(np.float32)
        for j, k in data.draw(st.lists(st.tuples(st.integers(0, n_index - 1),
                                                 st.integers(0, n_index - 1)), max_size=4)):
            train[j] = train[k]  # duplicated snapshots: exact ties
        roll = rng.standard_normal((n_roll, n_var, *shape)).astype(np.float32)
        for j in data.draw(st.lists(st.integers(0, n_roll - 1), max_size=3)):
            roll[j] = train[j % n_index]  # planted copies: zero distances
        index = build_index(make_series(grid, train, start=start, step_seconds=step_seconds,
                                        variables=names))
        rollout = make_series(grid, roll, start=start, step_seconds=step_seconds,
                              variables=names)
        try:
            want = [whole_set_ratio(frame, t.astype(datetime), index, window_days)
                    for frame, t in zip(rollout.data, rollout.timestamps)]
        except TooFewCandidatesError:
            want = TooFewCandidatesError
        dim = n_var * shape[0] * shape[1]
        with mock.patch.object(gridio, "TILE_BYTES", tile_rows * dim * 8), \
                mock.patch.dict(os.environ, {"ROLLOUT_STAB_THREADS": str(threads)}):
            if want is TooFewCandidatesError:
                with pytest.raises(TooFewCandidatesError):
                    memorization_series(rollout, index, window_days)
                return
            got = memorization_series(rollout, index, window_days)
        assert [(r.ratio, r.d1, r.d2, r.first_id, r.second_id) for r in got] == want

    def test_peak_memory_does_not_grow_with_the_candidates(self):
        """Doubling the candidates adds no float64 copy of them to a search's
        traced peak: they are differenced a tile at a time."""
        grid = GridSpec.regular(32, 64)  # 16 KiB of float64 a vector: 64 vectors a tile
        rng = np.random.default_rng(14)
        peaks = []
        for n in (256, 512):  # every snapshot on one day, so every one a candidate
            train = make_series(grid, rng.standard_normal((n, 1, 32, 64)), step_seconds=60)
            index = build_index(train)
            tracemalloc.start()
            try:
                distance_ratio(train.data[0], datetime(2021, 1, 1), index)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 256 more candidates hold 2 MiB of float32 and 4 MiB of float64 vectors
        assert peaks[1] - peaks[0] < 64 << 10, peaks

    @pytest.mark.parametrize("ending", ["too few candidates", "fill cell"])
    def test_no_thread_outlives_a_walk_stopped_part_way(self, tmp_path, monkeypatch, ending):
        """Scoring stops at a step with too few candidates, or in the walk of a
        later block; the error reaches the caller, and the file walk's hashing
        thread is gone when it does."""
        monkeypatch.setattr(gridio, "BLOCK_BYTES", 16 * 8 * 16 * 12)  # 16 steps a block
        monkeypatch.setenv("ROLLOUT_STAB_THREADS", "3")
        index = build_index(training_series(n_days=60))  # Jan 1 to Mar 1
        start = "1990-02-01" if ending == "too few candidates" else "1990-01-01"
        rollout = training_series(n_days=60, start=start, seed=1)
        rollout.data[40, 0, 2, 3] = np.nan if ending == "fill cell" else 0.0
        rollout.fill_value = -9e30
        write_rollout(rollout, tmp_path / "r.rgf")
        before = threading.active_count()
        # the first step, in step order, that has too few; or the block of step 40
        error, match = ((TooFewCandidatesError, "day-of-year 70;") if ending != "fill cell"
                        else (IncompleteFieldError, "'T2m'"))
        with RolloutFile(tmp_path / "r.rgf") as f, pytest.raises(error, match=match):
            memorization_series(f, index)
        assert threading.active_count() == before



def identity_index(train: np.ndarray, timestamps) -> memorize.NeighborIndex:
    """An index of (n, 1, lat, lon) snapshots whose embedding is the identity
    (mean 0, deviation 1, unit weights), so its vectors are the snapshots'
    float32 values and a sample's embedding is its own."""
    n, _, n_lat, n_lon = train.shape
    return memorize.NeighborIndex(
        vectors=np.array(train, dtype=np.float32).reshape(n, -1), doys=folded_doy(timestamps),
        ids=tuple(str(t) for t in timestamps), variables=("T2m",), stats={"T2m": (0.0, 1.0)},
        sqrt_weights=np.ones((n_lat, n_lon), dtype=np.float32),
        grid=GridSpec.regular(n_lat, n_lon))


class TestShortlist:
    """Shortlisting by the matrix-product estimate and its bound, then the
    exact re-check, gives the exhaustive search's results byte for byte, also
    where the estimate cannot tell the candidates apart."""

    UNIT = 2.0 ** -23  # the float32 spacing of the pattern's values, all in [1, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        n_index=st.integers(2, 40),
        n_roll=st.integers(1, 12),
        shape=st.tuples(st.integers(4, 5), st.integers(5, 8)),
        noise=st.sampled_from([0, 1, 30, 1000]),  # in UNITs; 1000 is 1e-4 of the pattern
        window_days=st.integers(0, 12),
        standardized=st.booleans(),  # through build_index, or the identity embedding
        tile_rows=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equal_to_whole_candidate_set(self, n_index, n_roll, shape, noise, window_days,
                                          standardized, tile_rows, seed, data):
        rng = np.random.default_rng(seed)
        dim = shape[0] * shape[1]
        pattern = rng.integers(320, 448, dim) / 256  # multiples of 2**-8 in [1.25, 1.75)
        units = rng.integers(-noise, noise + 1, (n_index, dim))
        train = (pattern + units * self.UNIT).astype(np.float32)  # exact: no rounding
        for j, k in data.draw(st.lists(st.tuples(st.integers(0, n_index - 1),
                                                 st.integers(0, n_index - 1)), max_size=4)):
            train[j] = train[k]  # duplicated snapshots: exact ties
        roll = (pattern + rng.integers(-noise, noise + 1, (n_roll, dim)) * self.UNIT
                ).astype(np.float32)
        for j in data.draw(st.lists(st.integers(0, n_roll - 1), max_size=3)):
            roll[j] = train[j % n_index]  # planted copies: zero distances
        for j in data.draw(st.lists(st.integers(0, n_roll - 1), max_size=2)):
            # a sample 2.0 below snapshot k in 16 values, where k sits lowest,
            # is 8 from k and, after the square root, from k's same-day partner
            # k ^ 1, one UNIT above k in one more value: 64 and 64 + 2**-46
            k = j % n_index
            if k ^ 1 < n_index:
                train[k, :16] = pattern[:16] - noise * self.UNIT
                train[k ^ 1] = train[k]
                train[k ^ 1, 16] += self.UNIT
                roll[j] = train[k]
                roll[j, :16] -= 2.0
        shaped = (-1, 1, *shape)
        start = datetime(2019, 12, 27)  # steps of 6 h from midnight, across New Year
        series = make_series(GridSpec.regular(*shape), train.reshape(shaped), start=start)
        index = build_index(series) if standardized else identity_index(
            train.reshape(shaped), series.timestamps)
        rollout = make_series(index.grid, roll.reshape(shaped), start=start)
        try:
            want = [whole_set_ratio(frame, t.astype(datetime), index, window_days)
                    for frame, t in zip(rollout.data, rollout.timestamps)]
        except TooFewCandidatesError as e:
            with pytest.raises(TooFewCandidatesError, match=str(e).split(";")[0]):
                memorization_series(rollout, index, window_days)
            return
        with mock.patch.object(gridio, "TILE_BYTES", tile_rows * dim * 8):
            got = memorization_series(rollout, index, window_days)
        assert [as_tuple(r) for r in got] == [
            (r.hex(), d1.hex(), d2.hex(), a, b) for r, d1, d2, a, b in want]

    def test_sqrt_ties_break_by_snapshot_index(self):
        """Squared distances 64 + 2**-46 and 64 are both 8 after the square
        root, so the lower snapshot index is first."""
        assert np.sqrt(64 + 2.0 ** -46) == 8.0
        sample = np.full((1, 1, 4, 5), 1.5, dtype=np.float32)
        far = sample.copy()
        far += 2.0  # 20 values 2.0 away: 80
        tied = sample.copy()
        tied[..., :4, :4] += 2.0  # 16 values 2.0 away: 64
        nudged = tied.copy()
        nudged[..., 3, 4] += self.UNIT  # and one more UNIT away: 64 + 2**-46
        train = np.concatenate([far, nudged, tied])
        series = make_series(GridSpec.regular(4, 5), train)
        index = identity_index(train, series.timestamps)
        got, = memorization_series(make_series(index.grid, sample), index)
        assert as_tuple(got) == (1.0.hex(), 8.0.hex(), 8.0.hex(), index.ids[1], index.ids[2])

    def test_estimate_alone_picks_the_wrong_first_neighbor(self):
        """Integers near 2**23 make every norm and product exact in any
        summation order, and ‖e‖² + ‖x‖² a 54-bit integer that rounds to even.
        Snapshots (0, 1, 2) are all 1 from the sample, and their estimates are
        exactly (2, 0, 0): by estimate and index, snapshot 1 is first, 2 second
        and 0 third. The search must say snapshot 0, then 1, which it can only
        do if the bound keeps all three and the re-check orders them."""
        e = 2**23 + 1000 + np.arange(64)
        deltas = np.zeros((3, 64), dtype=np.int64)
        deltas[[0, 1, 2], [1, 0, 2]] = 1
        norm_e = int((e * e).sum())
        estimates = [float(norm_e + int((x * x).sum())) - 2 * int((e * x).sum())
                     for x in e + deltas]
        assert estimates == [2.0, 0.0, 0.0]
        train = (e + deltas).astype(np.float32).reshape(3, 1, 8, 8)
        series = make_series(GridSpec.regular(8, 8), train)
        index = identity_index(train, series.timestamps)
        got, = memorization_series(make_series(index.grid, e.reshape(1, 1, 8, 8)), index)
        assert as_tuple(got) == (1.0.hex(), 1.0.hex(), 1.0.hex(), index.ids[0], index.ids[1])
        assert as_tuple(got) == as_tuple(distance_ratio(e.reshape(1, 8, 8), datetime(2021, 1, 1),
                                                        index))
