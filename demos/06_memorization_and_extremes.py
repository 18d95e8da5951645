"""Memorization ratios against a training pool, and extreme-event tails.

A rollout snapshot counts as memorized when it is at most half as far from
its first training neighbor as from its second, searching only snapshots
within ten calendar days. Extreme events compare regional spatial extremes
against percentile thresholds pooled from a reference period.
"""

from datetime import datetime

import numpy as np

import rollstab as rs
from rollstab.memorize import build_index, distance_ratio
from rollstab.spectra import pooled_thresholds

rng = np.random.default_rng(0)
grid = rs.GridSpec.regular(16, 32)

# ten years of daily training snapshots
train = rs.RolloutSeries(
    grid=grid, variables=("T2m",), start_time=datetime(1990, 1, 1),
    data=rng.standard_normal((3650, 1, 16, 32)).astype(np.float32),
    step_seconds=86400)
index = build_index(train)

copy = distance_ratio(train.data[500], datetime(2021, 5, 16), index)
fresh = distance_ratio(rng.standard_normal((1, 16, 32)).astype(np.float32),
                       datetime(2021, 5, 16), index)
print(f"planted training copy: ratio {copy.ratio:.3f} "
      f"(memorized={copy.memorized}, neighbor {copy.first_id})")
print(f"fresh random sample:   ratio {fresh.ratio:.3f} "
      f"(memorized={fresh.memorized})")

# extremes: pooled thresholds, event flags, tail QQ, exceedance ratios
reference = rs.RolloutSeries(
    grid=grid, variables=("T2m",), start_time=datetime(2021, 1, 1),
    data=(280 + 10 * rng.standard_normal((2000, 1, 16, 32))).astype(np.float32))
model = rs.RolloutSeries(
    grid=grid, variables=("T2m",), start_time=datetime(2021, 1, 1),
    data=(280 + 8 * rng.standard_normal((2000, 1, 16, 32))).astype(np.float32))

# one scan per series takes the region's per-step extremes. The reference's
# scan also histograms the region's values, the pool the percentile
# thresholds come from, and a second walk keeps only the values in the bins
# that hold the thresholds' ranks, so the pool itself is never held
region = rs.RegionSpec("tropics", -20, 20, 0, 360)
ref_scan = rs.scan(reference, ("T2m",), spectra=None, regions=[region],
                   levels=[0.1, 10, 20, 80, 90, 99.9])
ref_ext = ref_scan.regional["T2m"][region.name]
mod_ext = rs.scan(model, ("T2m",), spectra=None, regions=[region]).regional["T2m"][region.name]
thresholds = pooled_thresholds(reference, "T2m", [region], ref_scan.pools["T2m"])[region.name]
hot, cold = rs.event_series(mod_ext, thresholds)
p90, p10 = thresholds.value_for(90.0), thresholds.value_for(10.0)
print(f"{region.name}: P90={p90:.2f} P10={p10:.2f}, "
      f"hot steps {int(hot.sum())}, cold steps {int(cold.sum())}")
qq = rs.qq_tails(mod_ext.max, ref_ext.max, "hot")
below = float((qq.model < qq.reference).mean())
print(f"hot-tail QQ: {below:.0%} of levels below the diagonal "
      f"(narrower model distribution -> lighter tails)")

exc = rs.exceedance_curve(mod_ext.max, ref_ext.max, thresholds, "hot")
for lv, ratio in zip(exc.levels, exc.ratio):
    if lv in (80.0, 90.0, 99.9):
        print(f"  P{lv:5.1f}: model/reference exceedance ratio {ratio:.2f}")
