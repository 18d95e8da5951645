"""One measured step of the benchmark, in a fresh process.

    python3 child.py REQUEST.json

REQUEST names a mode (``setup``, ``run`` or ``check``), the workload, the
seed, the checkout's ``src`` directory and where to write the result JSON.
``setup`` generates the inputs ``repeats`` times, and again until the
repeats add up to ``SETUP_MIN_S``, timing each: a set-up of under a second
is too noisy to compare from a median of two.
``run`` times ``rollstab.cli.main(argv)`` only; interpreter start-up and
imports are outside the timed region. With ``trace`` set, the layers are
wrapped before the timed region and the spans go into the result.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SETUP_MIN_S = 4.0


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text())
    src = Path(req["src"]).resolve()
    sys.path.insert(0, str(src))
    import rollstab.cli

    if src not in Path(rollstab.__file__).resolve().parents:
        raise ImportError(f"rollstab imported from {rollstab.__file__}, not from {src}")

    from workloads import WORKLOADS
    from spans import Tracer

    w = WORKLOADS[req["workload"]]
    wd = Path.cwd()
    tracer = Tracer() if req.get("trace") else None
    if tracer:
        tracer.install("rollstab")
    out: dict = {}
    if req["mode"] == "setup":
        out["seconds"] = []
        while len(out["seconds"]) < req["repeats"] or sum(out["seconds"]) < SETUP_MIN_S:
            t0 = time.perf_counter()
            out["facts"] = w.setup(req["seed"], wd)
            out["seconds"].append(time.perf_counter() - t0)
        # flush the inputs now, so that writeback does not overlap the runs
        for name in out["facts"]["inputs"]:
            with open(wd / name, "rb+") as f:
                os.fsync(f.fileno())
    elif req["mode"] == "run":
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            rc = rollstab.cli.main(req["argv"])
        except SystemExit as e:  # argparse errors
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is a failed run, not a broken benchmark
            traceback.print_exc()
            rc = 1
        out["seconds"] = time.perf_counter() - t0
        out["cpu_s"] = _cpu_s() - cpu0
        out["rc"] = rc
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif req["mode"] == "check":
        try:
            out["problems"], out["info"] = w.check(wd, req["facts"])
        except Exception as e:  # malformed outputs fail the check
            traceback.print_exc()
            out["problems"], out["info"] = [f"check raised {e!r}"], {}
    else:
        raise ValueError(f"unknown mode {req['mode']!r}")
    if tracer:
        out["spans"] = tracer.spans
    Path(req["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
