"""Span tracing of rollstab's layers, installed from outside the package.

`Tracer.install` wraps every public function of each layer module (and the
public methods of the classes those modules define) and rebinds the wrapper
at every place a caller looks the name up: the defining module, every other
layer module that imported the name, and the package namespace. Each call
then records one span ``(id, name, start, end, parent, thread, attrs)`` in
memory; the child process writes the list out once, when it ends.

`layer_metrics` turns the spans of one traced command into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time

import numpy as np

LAYERS = ("gridio", "spectra", "climatology", "detectors", "extremes",
          "memorize", "synth", "perturb", "cli")


def _doy(t) -> int:
    d = np.datetime64(t, "D")
    return int((d - d.astype("datetime64[Y]")).astype(int)) + 1


def _candidates(a: dict) -> int:
    # The exhaustive search's candidate rule: index snapshots whose day of
    # year lies within window_days of the sample's, wrapping at 365.
    doys = np.minimum(a["index"].doys, 365)
    d = np.abs(doys - min(_doy(a["sample_time"]), 365))
    return int((np.minimum(d, 365 - d) <= a["window_days"]).sum())


# Counts taken at the layer boundary, computed from arguments, results and
# file sizes. They are what the call was asked to do, not counters inside it.
MEASURES = {
    "gridio.read_rollout": lambda a, res: {"bytes": os.path.getsize(a["path"])},
    "gridio.write_rollout": lambda a, res: {"bytes": os.path.getsize(a["path"])},
    "spectra.spectrum_series": lambda a, res: {
        "rows": a["r"].n_time * a["r"].grid.n_lat,
        "bytes": a["r"].n_time * a["r"].grid.n_lat * a["r"].grid.n_lon * 8,
    },
    "memorize.distance_ratio": lambda a, res: {"candidates": _candidates(a)},
    "synth.generate": lambda a, res: {"frames": res[0].n_time * len(res[0].variables)},
}


class Tracer:
    """Records spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        measure = MEASURES.get(name)
        sig = inspect.signature(fn) if measure else None
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec = [sid, name, t0, time.perf_counter(), parent, threading.get_ident(), None]
                stack.pop()
                spans.append(rec)
            if measure:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[6] = measure(bound.arguments, res)
            return res

        return traced

    def install(self, package: str = "rollstab") -> None:
        """Wrap the layers of ``package`` and rebind every lookup site."""
        pkg = importlib.import_module(package)
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, f in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(f):
                            setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", f))
        for mod in (pkg, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])


# ---------------------------------------------------------------------------
# derived metrics


def _durations(spans, name):
    return [s[3] - s[2] for s in spans if s[1] == name]


def _total(spans, name) -> float:
    return float(sum(_durations(spans, name)))


def _attr_sum(spans, name, key) -> int:
    return int(sum(s[6][key] for s in spans if s[1] == name))


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children run on their parent's thread and nest inside it, so the part
    of the interval they cover is the sum of their durations.
    """
    out = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            out[s[4]] -= s[3] - s[2]
    return out


def layer_self(spans, selft=None) -> dict[str, float]:
    """Self time per layer, over spans on the main thread."""
    selft = self_times(spans) if selft is None else selft
    main = next((s[5] for s in spans if s[1] == "cli.main"), None)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s[5] == main:
            out[s[1].split(".", 1)[0]] += selft[s[0]]
    return out


def _self_of(spans, selft, names) -> float:
    return float(sum(selft[s[0]] for s in spans if s[1] in names))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced command (see README.md for the map)."""
    selft = self_times(spans)
    by_layer = layer_self(spans, selft)
    ratio_ms = np.array(_durations(spans, "memorize.distance_ratio")) * 1e3
    steps_us = np.array(_durations(spans, "perturb.SynthAdapter.step")) * 1e6
    return {
        "gridio.read_s": _total(spans, "gridio.read_rollout"),
        "gridio.read_bytes": _attr_sum(spans, "gridio.read_rollout", "bytes"),
        "gridio.write_s": _total(spans, "gridio.write_rollout"),
        "gridio.write_bytes": _attr_sum(spans, "gridio.write_rollout", "bytes"),
        "gridio.spatial_extremes_s": _total(spans, "gridio.spatial_extremes"),
        "spectra.spectrum_series_s": _total(spans, "spectra.spectrum_series"),
        "spectra.calls": len(_durations(spans, "spectra.spectrum_series")),
        "spectra.rows_transformed": _attr_sum(spans, "spectra.spectrum_series", "rows"),
        "spectra.bytes_computed": _attr_sum(spans, "spectra.spectrum_series", "bytes"),
        "climatology.build_envelope_self_s": _self_of(
            spans, selft, {"climatology.build_envelope"}),
        "climatology.pooled_percentiles_s": _total(spans, "climatology.pooled_percentiles"),
        "detectors.build_report_self_s": _self_of(spans, selft, {"detectors.build_report"}),
        "detectors.detect_blowup_s": _total(spans, "detectors.detect_blowup"),
        "detectors.detect_seasonality_loss_s": _total(
            spans, "detectors.detect_seasonality_loss"),
        "extremes.regional_extreme_series_s": _total(
            spans, "extremes.regional_extreme_series"),
        "extremes.regional_extreme_series_calls": len(
            _durations(spans, "extremes.regional_extreme_series")),
        "extremes.curves_s": _self_of(
            spans, selft, {"extremes.qq_tails", "extremes.exceedance_curve",
                           "extremes.event_series"}),
        "memorize.build_index_s": _total(spans, "memorize.build_index"),
        "memorize.distance_ratio_p50_ms": float(np.percentile(ratio_ms, 50)) if ratio_ms.size else 0.0,
        "memorize.distance_ratio_p95_ms": float(np.percentile(ratio_ms, 95)) if ratio_ms.size else 0.0,
        "memorize.candidates_scanned": _attr_sum(spans, "memorize.distance_ratio", "candidates"),
        "perturb.adapter_step_us": float(np.median(steps_us)) if steps_us.size else 0.0,
        "perturb.run_rollout_self_s": _self_of(spans, selft, {"perturb.run_rollout"}),
        "perturb.apply_perturbation_s": _total(spans, "perturb.apply_perturbation"),
        "perturb.variable_stats_s": _total(spans, "perturb.variable_stats"),
        "cli.self_s": by_layer["cli"],
    }


def generate_totals(spans) -> tuple[float, int]:
    """Seconds inside synth.generate and the frames it produced."""
    return _total(spans, "synth.generate"), _attr_sum(spans, "synth.generate", "frames")
