from datetime import datetime

import numpy as np
import pytest

from rollstab import GridSpec, RolloutSeries, build_index, distance_ratio
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
            assert res.ratio == pytest.approx(single.ratio)
