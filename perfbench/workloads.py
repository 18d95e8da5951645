"""The benchmark's workloads: seeded inputs, the command, and its checks.

Each workload generates its inputs with rollstab's own synthetic generator
from seeds derived from the benchmark's ``--seed`` (seed 0 gives the sizing
seeds: 7 for the 1.5-degree BLOWUP prediction, 3 for its STABLE reference).
The command under test only ever sees the generated files. Paths are
relative to the workload's directory, so manifests, and with them the
outputs, are byte-identical from one run to the next.

`setup` and `check` import rollstab and run in a child process; the parent
uses only the names, the argv and the output paths.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GRID_1P5 = (121, 240)
GRID_PERTURB = (16, 240)
GRID_MEM = (32, 64)
VARS4 = ("T2m", "U10", "V10", "Z500")
STEPS_PER_DAY = 4
PLANT_EVERY = 4  # memorize: every 4th rollout step is a training snapshot
PERTURB_STEPS = 730
PERTURB_K = 0.5


def _seed(seed: int, offset: int) -> int:
    return 10 * seed + offset


def _frames(n_days: float, n_var: int = 1) -> int:
    return (round(n_days * STEPS_PER_DAY) + 1) * n_var


def _regime(regime, grid, seed, variables=("T2m",), **kw):
    from rollstab import gridio, synth

    return synth.RegimeConfig(regime=regime, grid=gridio.GridSpec.regular(*grid),
                              variables=variables, seed=seed, **kw)


def _generate(cfg, days, path: Path):
    from rollstab import gridio, synth

    series, labels = synth.generate(cfg, days)
    gridio.write_rollout(series, path)
    return series, labels


def _data_rows(path: Path):
    with open(path) as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


# ---------------------------------------------------------------------------
# report-1p5deg and extremes-1p5deg share their inputs


def setup_1p5(seed: int, wd: Path) -> dict:
    pred_cfg = _regime("BLOWUP", GRID_1P5, _seed(seed, 7), onset_day=150.0, growth_rate=0.1)
    _, labels = _generate(pred_cfg, 730, wd / "pred.rgf")
    _generate(_regime("STABLE", GRID_1P5, _seed(seed, 3)), 800, wd / "ref.rgf")
    return {
        "seeds": {"prediction": pred_cfg.seed, "reference": _seed(seed, 3)},
        "labels": {"blowup_window": list(labels.blowup_window)},
        "frames": _frames(730) + _frames(800),
        "inputs": ["pred.rgf", "ref.rgf"],
    }


def check_report(wd: Path, facts: dict) -> tuple[list[str], dict]:
    rep = json.loads((wd / "report.json").read_text())
    lo, hi = facts["labels"]["blowup_window"]
    b = rep["blowup"]["T2m"]
    problems = []
    if b["censored"] or not lo <= b["day"] <= hi:
        problems.append(f"blow-up day {b.get('day')} outside label window [{lo}, {hi}]")
    if rep["small_scale"]["T2m"] is not None:
        problems.append("small_scale should be null: the small band is unresolved at n_lon=240")
    if not (wd / "report.csv").is_file():
        problems.append("report.csv missing")
    return problems, {"blowup_day": b.get("day"), "blowup_window": [lo, hi]}


def check_extremes(wd: Path, facts: dict) -> tuple[list[str], dict]:
    from rollstab import gridio

    problems = []
    regions = sorted(gridio.builtin_regions())
    for name in regions:
        for kind in ("qq", "exceedance", "events"):
            if not (wd / "ext" / f"{name}_{kind}.csv").is_file():
                problems.append(f"{name}_{kind}.csv missing")
        path = wd / "ext" / f"{name}_exceedance.csv"
        if path.is_file():
            for row in _data_rows(path):
                for col in ("model_fraction", "reference_fraction"):
                    if not 0.0 <= float(row[col]) <= 1.0:
                        problems.append(f"{name}: {col}={row[col]} outside [0, 1]")
    return problems, {"regions": len(regions)}


# ---------------------------------------------------------------------------
# memorize-32x64


def setup_memorize(seed: int, wd: Path) -> dict:
    import numpy as np
    from rollstab import gridio

    training, _ = _generate(_regime("STABLE", GRID_MEM, _seed(seed, 1)), 730,
                            wd / "training.rgf")
    rollout, _ = _generate(_regime("STABLE", GRID_MEM, _seed(seed, 2)), 90, wd / "rollout.rgf")
    planted = np.arange(0, rollout.n_time, PLANT_EVERY)
    rollout.data[planted] = training.data[planted]  # both start at the same epoch
    gridio.write_rollout(rollout, wd / "rollout.rgf")
    return {
        "seeds": {"training": _seed(seed, 1), "rollout": _seed(seed, 2)},
        "planted": [str(t) for t in rollout.timestamps[planted]],
        "frames": _frames(730) + _frames(90),
        "inputs": ["training.rgf", "rollout.rgf"],
    }


def check_memorize(wd: Path, facts: dict) -> tuple[list[str], dict]:
    planted = set(facts["planted"])
    problems, found = [], 0
    for row in _data_rows(wd / "ratios.csv"):
        ratio = float(row["ratio"])
        if row["timestamp"] in planted:
            if ratio == 0.0 and row["first_neighbor"] == row["timestamp"]:
                found += 1
            else:
                problems.append(f"planted copy {row['timestamp']}: ratio {ratio}, "
                                f"first neighbour {row['first_neighbor']}")
        elif ratio <= 0.5:
            problems.append(f"unplanted sample {row['timestamp']} scores {ratio} <= 0.5")
    return problems, {"copies_found": found, "copies_planted": len(planted)}


# ---------------------------------------------------------------------------
# perturb-16x240


def setup_perturb(seed: int, wd: Path) -> dict:
    from rollstab import synth

    _generate(_regime("STABLE", GRID_PERTURB, _seed(seed, 3), variables=VARS4), 730,
              wd / "stable.rgf")
    adapter = _regime("STABLE", GRID_PERTURB, _seed(seed, 5), variables=VARS4)
    (wd / "adapter.json").write_text(json.dumps(synth.config_to_dict(adapter), sort_keys=True))
    return {
        "seeds": {"stats": _seed(seed, 3), "adapter": adapter.seed, "perturbation": seed},
        "frames": _frames(730, len(VARS4)) + (PERTURB_STEPS + 1) * len(VARS4),
        "inputs": ["stable.rgf", "adapter.json"],
    }


def check_perturb(wd: Path, facts: dict) -> tuple[list[str], dict]:
    import numpy as np
    from rollstab import gridio, synth

    out = gridio.read_rollout(wd / "perturbed.rgf")
    stats = gridio.read_rollout(wd / "stable.rgf")
    cfg = synth.load_config(wd / "adapter.json")
    problems = []
    if "error" in out.attrs:
        problems.append(f"rollout stopped early: {out.attrs['error']}")
    if out.n_time != PERTURB_STEPS + 1:
        problems.append(f"{out.n_time} frames, expected {PERTURB_STEPS + 1}")
    worst = 0.0
    for vi, v in enumerate(cfg.variables):
        clean = synth.initial_state(cfg, vi).astype(np.float32)
        got = float(np.std(out.values(v)[0].astype(np.float64) - clean))
        want = PERTURB_K * float(np.std(stats.values(v).astype(np.float64)))
        rel = abs(got - want) / want
        worst = max(worst, rel)
        # float32 storage of the perturbed and clean fields bounds the error
        if rel > 1e-4:
            problems.append(f"{v}: std(frame0 - clean init) = {got}, expected k*sigma = {want}")
    return problems, {"perturb_std_rel_error": worst}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], dict]
    argv: Callable[[int], list[str]]
    outputs: tuple[str, ...]
    check: Callable[[Path, dict], tuple[list[str], dict]]


WORKLOADS = {w.name: w for w in (
    Workload(
        "report-1p5deg",
        setup_1p5,
        lambda seed: ["report", "--prediction", "pred.rgf", "--reference", "ref.rgf",
                      "-o", "report.json", "--csv", "report.csv"],
        ("report.json", "report.csv"),
        check_report,
    ),
    Workload(
        "extremes-1p5deg",
        setup_1p5,
        lambda seed: ["extremes", "--input", "pred.rgf", "--reference", "ref.rgf",
                      "--variable", "T2m", "--outdir", "ext"],
        ("ext",),
        check_extremes,
    ),
    Workload(
        "memorize-32x64",
        setup_memorize,
        lambda seed: ["memorize", "--rollout", "rollout.rgf", "--index", "training.rgf",
                      "-o", "ratios.csv"],
        ("ratios.csv",),
        check_memorize,
    ),
    Workload(
        "perturb-16x240",
        setup_perturb,
        lambda seed: ["perturb", "--adapter", "synth:adapter.json", "--kind", "grf",
                      "--k", str(PERTURB_K), "--correlation-length", "10",
                      "--stats-from", "stable.rgf", "--steps", str(PERTURB_STEPS),
                      "--seed", str(seed), "-o", "perturbed.rgf"],
        ("perturbed.rgf",),
        check_perturb,
    ),
)}
