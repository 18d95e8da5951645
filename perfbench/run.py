"""Run one rollstab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rollstab is imported from its
``src`` directory. Load is a closed loop: one client runs one command at a
time, each in a fresh child process, at the program's default thread count.

* Set-up generates the workload's inputs from ``--seed`` with rollstab's
  generator, at least ``SETUP_REPEATS`` times in one child (see child.py);
  ``setup_s`` is the median.
* ``--trace 0`` runs the command until the timed runs add up to
  ``--seconds`` (and at least ``MIN_OPS`` times) and reports the end-to-end
  metrics: the median wall time of ``main(argv)``, frames per second of it,
  the median peak RSS and the set-up time.
* ``--trace 1`` sets up once with tracing on, alternates untraced and
  traced runs until they add up to ``--seconds`` (at least one of each),
  then makes one traced run with ``ROLLOUT_STAB_THREADS=1``, and reports
  the per-layer metrics.

Every run's outputs are checked: the first against the workload's analytic
check, every later one for byte-identity with the first. A run that exits
non-zero or fails either check counts as failed. Everything but the last
line goes to stdout for people; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
machine facts included, is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import generate_totals, layer_metrics, layer_self  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 2
# set-ups per run at least, whose median is setup_s; one 1.5-degree set-up
# takes 7-10 s, and every run of every workload has to fit the time budget
SETUP_REPEATS = 2
DEADLINE_S = 170.0
THREADS_ENV = "ROLLOUT_STAB_THREADS"

END_TO_END = {"wall_s": "s", "steps_per_s": "frames/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "gridio.read_s": "s", "gridio.read_bytes": "B", "gridio.write_s": "s",
    "gridio.write_bytes": "B", "gridio.spatial_extremes_s": "s",
    "spectra.spectrum_series_s": "s", "spectra.calls": "count",
    "spectra.rows_transformed": "count", "spectra.bytes_computed": "B",
    "spectra.spectrum_series_1t_s": "s",
    "climatology.build_envelope_self_s": "s", "climatology.pooled_percentiles_s": "s",
    "detectors.build_report_self_s": "s", "detectors.detect_blowup_s": "s",
    "detectors.detect_seasonality_loss_s": "s",
    "extremes.regional_extreme_series_s": "s",
    "extremes.regional_extreme_series_calls": "count", "extremes.curves_s": "s",
    "memorize.build_index_s": "s", "memorize.distance_ratio_p50_ms": "ms",
    "memorize.distance_ratio_p95_ms": "ms", "memorize.candidates_scanned": "count",
    "memorize.copies_found": "count", "memorize.copies_planted": "count",
    "memorize.copy_recall": "ratio",
    "synth.generate_s": "s", "synth.step_us": "us",
    "perturb.adapter_step_us": "us", "perturb.run_rollout_self_s": "s",
    "perturb.apply_perturbation_s": "s", "perturb.variable_stats_s": "s",
    "cli.self_s": "s", "proc.cpu_s": "s", "proc.wall_1t_s": "s",
    "proc.peak_rss_1t_mb": "MB", "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def digest(wd: Path, outputs) -> str | None:
    """SHA-256 over every output file (sorted relative path, then bytes).

    Each file is also flushed to disk, so that writing back one run's
    outputs does not overlap the next run.
    """
    files = []
    for rel in outputs:
        p = wd / rel
        if p.is_dir():
            files += sorted(q for q in p.rglob("*") if q.is_file())
        elif p.is_file():
            files.append(p)
        else:
            return None
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(wd)).encode() + b"\0")
        with open(p, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
            os.fsync(f.fileno())
    return h.hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.wd = work / "wd"
        self.ctl = work / "ctl"
        self.deadline = deadline
        self.n_child = 0
        self.facts: dict = {}
        self.ref_digest: str | None = None  # outputs of the first successful run
        self.check_problems: list[str] = []
        self.check_info: dict = {}

    def child(self, mode: str, trace: bool = False, threads: str | None = None,
              **extra) -> dict:
        self.n_child += 1
        req = self.ctl / f"req{self.n_child}.json"
        res = self.ctl / f"res{self.n_child}.json"
        req.write_text(json.dumps({
            "mode": mode, "workload": self.w.name, "seed": self.seed,
            "src": str(ROOT / "src"), "trace": trace, "result": str(res), **extra,
        }))
        env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
        if threads is not None:
            env[THREADS_ENV] = threads
        # the child's stdout goes to stderr so that the last stdout line
        # stays the result
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(req)],
                                cwd=self.wd, env=env, stdout=sys.stderr)
        try:
            rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child passed the {DEADLINE_S:.0f} s deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if rc != 0 or not res.is_file():
            raise BenchError(f"{mode} child exited with code {rc}")
        return json.loads(res.read_text())

    def setup(self, repeats: int, trace: bool) -> dict:
        out = self.child("setup", trace=trace, repeats=repeats)
        self.facts = out["facts"]
        return out

    def op(self, kind: str) -> dict:
        """One run of the command: kind is plain, traced or 1t."""
        out = self.child("run", trace=kind != "plain", threads="1" if kind == "1t" else None,
                         argv=self.w.argv(self.seed))
        out["kind"] = kind
        out["digest"] = digest(self.wd, self.w.outputs) if out["rc"] == 0 else None
        if out["digest"] is not None and self.ref_digest is None:
            self.ref_digest = out["digest"]
            chk = self.child("check", facts=self.facts)
            self.check_problems, self.check_info = chk["problems"], chk["info"]
        problems = []
        if out["rc"] != 0:
            problems.append(f"exit code {out['rc']}")
        elif out["digest"] != self.ref_digest:
            problems.append("outputs differ from the first run's")
        else:
            problems += self.check_problems
        out["problems"] = problems
        return out

    def measure(self, seconds: float, kinds: tuple[str, ...], min_rounds: int) -> list[dict]:
        """Rounds of runs until their timed regions add up to ``seconds``."""
        ops = []
        while len(ops) < min_rounds * len(kinds) or sum(o["seconds"] for o in ops) < seconds:
            ops += [self.op(k) for k in kinds]
        return ops


def _median(xs) -> float:
    return float(statistics.median(xs))


def end_to_end(bench: Bench, setup, ops) -> dict:
    wall = _median(o["seconds"] for o in ops)
    return {
        "wall_s": wall,
        "steps_per_s": bench.facts["frames"] / wall,
        "peak_rss_mb": _median(o["maxrss_kb"] for o in ops) / 1024.0,
        "setup_s": _median(setup["seconds"]),
    }


def per_layer(bench: Bench, setup, ops) -> dict:
    plain = [o for o in ops if o["kind"] == "plain"]
    traced = [o for o in ops if o["kind"] == "traced"]
    single = next(o for o in ops if o["kind"] == "1t")
    per_op = [layer_metrics(o["spans"]) for o in traced]
    out = {k: _median(m[k] for m in per_op) for k in per_op[0]}
    for k in out:
        if PER_LAYER[k] in ("count", "B"):
            out[k] = int(out[k])
    gen_s, frames = generate_totals(setup["spans"])
    info = bench.check_info
    found, planted = info.get("copies_found", 0), info.get("copies_planted", 0)
    out.update({
        "spectra.spectrum_series_1t_s": layer_metrics(single["spans"])["spectra.spectrum_series_s"],
        "memorize.copies_found": found,
        "memorize.copies_planted": planted,
        "memorize.copy_recall": found / planted if planted else 0.0,
        "synth.generate_s": gen_s / len(setup["seconds"]),
        "synth.step_us": gen_s / frames * 1e6,
        "proc.cpu_s": _median(o["cpu_s"] for o in plain),
        "proc.wall_1t_s": single["seconds"],
        "proc.peak_rss_1t_mb": single["maxrss_kb"] / 1024.0,
        "trace.overhead_s": _median(o["seconds"] for o in traced)
        - _median(o["seconds"] for o in plain),
    })
    return {k: out[k] for k in PER_LAYER}


def _cache_sizes() -> dict:
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            size = (d / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _bytes(size: str | None) -> int | None:
    if not size:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def machine_facts(bench: Bench) -> dict:
    caches = _cache_sizes()
    l3 = _bytes(caches.get("L3"))
    inputs = {n: (bench.wd / n).stat().st_size for n in bench.facts["inputs"]}
    total = sum(inputs.values())
    return {
        "nproc": os.cpu_count(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        THREADS_ENV: {"inherited": os.environ.get(THREADS_ENV),
                      "runs": "unset (program default)", "1t run": "1"},
        "input_bytes": inputs,
        "input_bytes_total": total,
        "input_over_L3": total / l3 if l3 else None,
    }


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def report(bench, trace, setup, ops, metrics, units, machine) -> list[str]:
    plain = [o for o in ops if o["kind"] == "plain"]
    failed = sum(1 for o in ops if o["problems"])
    n = {"setup_s": len(setup["seconds"])}
    lines = [
        f"rollstab benchmark: workload {bench.w.name}, seed {bench.seed}, trace {int(trace)}",
        "  load: closed loop, 1 client, 1 command at a time, default thread count "
        f"(nproc={machine['nproc']})",
    ]
    for k, v in metrics.items():
        runs = n.get(k, len(plain) if not trace else len([o for o in ops if o["kind"] == "traced"]))
        lines.append(f"  {k:40s} {_fmt(v):>14s} {units[k]:9s} n={runs}")
    walls = sorted(o["seconds"] for o in plain)
    if len(walls) >= 20:
        lines.append(f"  wall p{100 * (1 - 10 / len(walls)):.0f}: {walls[-11]:.4f} s "
                     f"(10 of {len(walls)} runs beyond it)")
    else:
        lines.append(f"  (median of {len(walls)} runs: no percentile above the median "
                     "has 10 runs beyond it)")
    lines.append(f"  failed_frac {failed}/{len(ops)} = {failed / len(ops):.3g}")
    for o in ops:
        if o["problems"]:
            more = len(o["problems"]) - 3
            lines.append(f"    failed {o['kind']} run: {'; '.join(o['problems'][:3])}"
                         + (f" (and {more} more)" if more > 0 else ""))
    if trace:
        t = next(o for o in ops if o["kind"] == "traced")
        main = next(s for s in t["spans"] if s[1] == "cli.main")
        by_layer = layer_self(t["spans"])
        lines.append(f"  traced wall {t['seconds']:.4f} s; cli.main span {main[3] - main[2]:.4f} s"
                     f" = cli.self {by_layer['cli']:.4f} s + child spans "
                     f"{main[3] - main[2] - by_layer['cli']:.4f} s")
        lines.append("  self time by layer: " + ", ".join(
            f"{k} {v:.3f}" for k, v in by_layer.items() if v))
    lines.append(f"  machine: nproc {machine['nproc']}, caches {machine['caches']}, "
                 f"python {machine['python']}, numpy {machine['numpy']}, scipy {machine['scipy']}, "
                 f"{THREADS_ENV} {machine[THREADS_ENV]}")
    over = machine["input_over_L3"]
    lines.append(f"  inputs: {machine['input_bytes']} = {machine['input_bytes_total'] / 1e6:.1f} MB"
                 + (f" = {over:.2f}x L3" if over else ""))
    lines.append(f"  seeds {bench.facts['seeds']}; labels {bench.facts.get('labels', {})}; "
                 f"check {bench.check_info}")
    return lines


def run(args) -> None:
    src = ROOT / "src" / "rollstab"
    if not (src / "cli.py").is_file():
        raise BenchError(f"no rollstab sources at {src}")
    results = ROOT / ".perfbench" / "results"
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "wd").mkdir(parents=True)
    (work / "ctl").mkdir()
    bench = Bench(args.workload, args.seed, work, time.monotonic() + DEADLINE_S)
    try:
        if args.trace:
            setup = bench.setup(1, trace=True)
            ops = bench.measure(args.seconds, ("plain", "traced"), 1)
            ops.append(bench.op("1t"))
            metrics, units = per_layer(bench, setup, ops), PER_LAYER
        else:
            setup = bench.setup(SETUP_REPEATS, trace=False)
            ops = bench.measure(args.seconds, ("plain",), MIN_OPS)
            metrics, units = end_to_end(bench, setup, ops), END_TO_END
        machine = machine_facts(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for o in ops if o["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, facts=bench.facts, machine=machine,
                  check=bench.check_info, setup_s=setup["seconds"],
                  runs=[{k: o.get(k) for k in ("kind", "rc", "seconds", "cpu_s", "maxrss_kb",
                                               "digest", "problems")} for o in ops])
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    for line in report(bench, args.trace, setup, ops, metrics, units, machine):
        print(line)
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    signal.signal(signal.SIGTERM, _terminate)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run(argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
