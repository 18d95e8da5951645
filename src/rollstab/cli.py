"""Command-line surface: one subcommand per diagnostic, JSON for machines
and CSV tables mirroring the headline result layouts for humans.

Every emitted file embeds a run manifest (subcommand, parameters, input
content hashes, seed, toolkit version) so identical manifests yield
byte-identical outputs. Exit codes: 0 success, 2 input error, 3 detection
precondition not met (e.g. an unresolved wavelength band).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import climatology, detectors, extremes, gridio, memorize, perturb, spectra, synth
from .gridio import PreconditionError, RolloutFile


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args, inputs: dict) -> dict:
    """The run manifest: subcommand, parameters, and the path and SHA-256 of
    every input that was given (``None`` entries are left out).

    An RGF input is given as its open :class:`RolloutFile`, with the digest its
    reader took from the bytes it read; any other input is a path, hashed here.
    """
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and not callable(v)
    }
    entries = {}
    for name, p in inputs.items():
        if p:
            path, digest = (p.path, p.sha256) if isinstance(p, RolloutFile) else (p, _sha256(p))
            entries[name] = {"path": str(path), "sha256": digest}
    return {
        "tool": "rollstab",
        "version": __version__,
        "subcommand": args.subcommand,
        "params": params,
        "inputs": entries,
    }


def _write_json(path, doc: dict, manifest: dict) -> None:
    """A result JSON: ``doc`` plus its manifest, sorted and indented."""
    with open(path, "w") as f:
        json.dump({**doc, "manifest": manifest}, f, sort_keys=True, indent=1)
        f.write("\n")


def _write_csv(path, manifest: dict, units: str, columns, rows, notes=()) -> None:
    """A CSV table: three ``#`` header lines (tool, units, manifest), one
    ``# note:`` line per note, the column line, then rows of formatted cells."""
    with open(path, "w") as f:
        f.write(f"# rollstab {__version__} {manifest['subcommand']}\n")
        f.write(f"# units: {units}\n")
        f.write(f"# manifest: {json.dumps(manifest, sort_keys=True)}\n")
        for note in notes:
            f.write(f"# note: {note}\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if x.is_integer():
        return str(int(x))
    return repr(x)


def _day_cell(day, horizon) -> str:
    if day is None:
        return f">{_fmt(horizon)}"
    return _fmt(day)


def _result_doc(result, units: str, day_key: str | None = None) -> dict:
    """A detector result's fields plus ``units``, its ``day`` renamed to
    ``day_key`` and flagged ``censored`` when it is None."""
    doc = asdict(result) | {"units": units}
    if day_key:
        doc[day_key] = day = doc.pop("day")
        doc["censored"] = day is None
    return doc


def _ratio_cell(ss) -> str:
    if ss is None:
        return "unresolved"
    return f"{ss.ratio_vs_reference:.2g} ({ss.ratio_vs_self:.2g})"


def _check_unused(args, defaults: dict, used, reason: str) -> None:
    """Unless ``used``, reject the flags of ``defaults`` that were given,
    naming them and ``reason``; then fill in the defaults. Such flags parse as
    None, so a given one is caught, and the run and manifest see the value used."""
    given = ["--" + d.replace("_", "-") for d in defaults if getattr(args, d) is not None]
    if given and not used:
        raise ValueError(f"{', '.join(given)}: {reason}")
    for d, default in defaults.items():
        if getattr(args, d) is None:
            setattr(args, d, default)


def _check_same_grid(a: RolloutFile, b: RolloutFile) -> None:
    """Reject two files on different grids, naming both files and grids,
    before either is walked."""
    if not a.grid.same_geometry(b.grid):
        a_grid, b_grid = (f"{g.n_lat}x{g.n_lon} (lats {g.lats[0]:g} to {g.lats[-1]:g}, "
                          f"lons from {g.lons[0]:g}, radius {g.earth_radius_km:g} km)"
                          for g in (a.grid, b.grid))
        raise ValueError(f"{a.path} and {b.path} lie on different grids: {a_grid} and {b_grid}")


# ---------------------------------------------------------------------------
# subcommands


# synth flags that set the RegimeConfig field named here, which gives their default
_FLAG_FIELDS = {
    "g_large": "g_large", "g_medium": "g_medium", "g_small": "g_small",
    "amplitude": "seasonal_amplitude", "tau_days": "tau_days", "onset_days": "onset_day",
    "delta": "growth_rate", "blowup_band": "blowup_band", "seed_amplitude": "seed_amplitude",
    "noise": "noise_large", "noise_small": "noise_small", "cap": "cap",
    "init_std": "init_std", "year_jitter": "year_jitter", "seed": "seed",
}
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(synth.RegimeConfig)}
# every synth flag that sets a config field, and its default; --regime-config
# sets every field, so they are unused with it. The config holds objects for
# the first three, and --noise-small's None stands for --noise.
_FIELD_DEFAULTS = {"regime": "STABLE", "grid": "16x240", "variables": "T2m",
                   **{flag: _CONFIG_DEFAULTS[f] for flag, f in _FLAG_FIELDS.items()},
                   "noise_small": None}


def cmd_synth(args) -> int:
    _check_unused(args, _FIELD_DEFAULTS, not args.regime_config,
                  "unused with --regime-config, which sets every field; drop them")
    if args.regime_config:
        cfg = synth.load_config(args.regime_config)
    else:
        shape = re.fullmatch(r"([0-9]+)x([0-9]+)", args.grid)
        if shape is None:
            raise ValueError(f"--grid {args.grid!r}: expected NLATxNLON, e.g. 16x240")
        values = {f: getattr(args, flag) for flag, f in _FLAG_FIELDS.items()}
        values["noise_small"] = args.noise if args.noise_small is None else args.noise_small
        cfg = synth.RegimeConfig(
            regime=args.regime, grid=gridio.GridSpec.regular(*map(int, shape.groups())),
            variables=gridio.names_of(args.variables.split(","), "--variables"),
            noise_medium=args.noise, **values)
    start = args.start_time and gridio.utc_time(args.start_time, "--start-time")
    adapter, start, n_steps = synth.prepare(cfg, args.horizon_days, args.step_seconds, start)
    manifest = _manifest(args, {"regime_config": args.regime_config})
    attrs = {"regime": cfg.regime, "seed": cfg.seed, "manifest": manifest}
    with gridio.RolloutWriter(args.output, adapter.grid, adapter.all_variables, start,
                              n_steps + 1, adapter.step_seconds, attrs=attrs) as out:
        perturb.run_rollout(adapter, adapter.initial_state(), start, n_steps, sink=out)
        synth.check_complete(out.attrs)
    if args.labels:
        with gridio.RolloutFile(args.output) as written:
            labels = synth.ground_truth(adapter, written, start, args.horizon_days)
        _write_json(args.labels, {**asdict(labels), "config": synth.config_to_dict(cfg)},
                    manifest)
    return 0


def cmd_spectra(args) -> int:
    with gridio.RolloutFile(args.input) as r:
        spec = spectra.spectrum_series(r, args.variable, daily=args.daily)
    manifest = _manifest(args, {"input": r})
    bands = [spec.band_large, spec.band_medium, spec.band_small]
    _write_csv(
        args.output, manifest, "band energies in variable units (zonal Fourier amplitude)",
        ["timestamp"] + [f"band_{name}" for name in spectra.BANDS],
        ([str(t)] + ["" if b is None else _fmt(b[i]) for b in bands]
         for i, t in enumerate(spec.timestamps)),
        notes=[f"{name} band unresolved on this grid; column left empty"
               for name, b in zip(spectra.BANDS, bands) if b is None],
    )
    if args.full_output:
        _write_csv(args.full_output, manifest, "per-wavenumber zonal Fourier amplitude",
                   ["timestamp"] + [f"k{int(k)}" for k in spec.wavenumbers],
                   ([str(t)] + [_fmt(x) for x in spec.energy[i]]
                    for i, t in enumerate(spec.timestamps)))
    return 0


def _series_steps_per_day(times: np.ndarray) -> float:
    steps = np.diff(times).astype("timedelta64[s]").astype(float)
    if steps.size == 0 or np.any(steps != steps[0]) or steps[0] <= 0:
        raise ValueError("series timestamps must be uniformly spaced")
    return 86400.0 / steps[0]


def cmd_blowup(args) -> int:
    _check_unused(args, {"min_csv": None, "max_csv": None}, not args.input,
                  "cannot be combined with --input")
    _check_unused(args, {"variable": None}, not (args.min_csv or args.max_csv),
                  "cannot be combined with --min-csv/--max-csv, which hold one series")
    rgf = None
    if args.input:
        if args.variable is None:
            raise ValueError("--variable is required with --input")
        with gridio.RolloutFile(args.input) as rgf:
            steps_per_day = 86400.0 / rgf.step_seconds
            detectors.check_blowup_parameters(steps_per_day, args.smoothing_days,
                                              args.window_days, args.r2_threshold,
                                              args.stride_days)
            s = spectra.scan(rgf, (args.variable,), spectra=None, regions=(gridio.GLOBE,))
        mn, mx = s.regional[args.variable][gridio.GLOBE.name]
    else:
        if not (args.min_csv and args.max_csv):
            raise ValueError("need either --input RGF or both --min-csv and --max-csv")
        tmin, mn = gridio.read_series_csv(args.min_csv)
        tmax, mx = gridio.read_series_csv(args.max_csv)
        if tmin.size != tmax.size or np.any(tmin != tmax):
            raise ValueError("min and max series timestamps differ")
        steps_per_day = _series_steps_per_day(tmin)
    res = detectors.detect_blowup(
        mn, mx, steps_per_day=steps_per_day, smoothing_days=args.smoothing_days,
        window_days=args.window_days, r2_threshold=args.r2_threshold,
        stride_days=args.stride_days,
    )
    doc = _result_doc(res, "days from rollout start", "blowup_day")
    _write_json(args.output, doc, _manifest(
        args, {"input": rgf, "min_csv": args.min_csv, "max_csv": args.max_csv}))
    return 0


def cmd_seasonality(args) -> int:
    _check_unused(args, {"reference": None}, not args.envelope,
                  "cannot be combined with --envelope")
    detectors.check_seasonality_parameters(args.multiplier, args.run_days)
    ref = None
    if args.envelope:
        env = gridio.read_json(args.envelope, climatology.ClimatologyEnvelope.from_dict)
        with gridio.RolloutFile(args.input) as r:
            spec = spectra.spectrum_series(r, args.variable, daily=True)
    elif args.reference:
        # the rollout is walked first, so a fill cell in it costs no walk of the reference
        with gridio.RolloutFile(args.input) as r, gridio.RolloutFile(args.reference) as ref:
            _check_same_grid(r, ref)
            spec = spectra.spectrum_series(r, args.variable, daily=True)
            ref_spec = spectra.spectrum_series(ref, args.variable, daily=True)
        env = climatology.build_envelope(ref_spec.daily_band("large"),
                                         name=f"band_large[{args.variable}]")
    else:
        raise ValueError("need --envelope or --reference to define the climatology")
    manifest = _manifest(args, {"input": r, "envelope": args.envelope, "reference": ref})
    res = detectors.detect_seasonality_loss(spec.daily_band("large"), env,
                                            multiplier=args.multiplier, run_days=args.run_days)
    if args.save_envelope:
        _write_json(args.save_envelope, env.to_dict(), manifest)
    _write_json(args.output, _result_doc(res, "days from rollout start", "seasonality_loss_day"),
                manifest)
    return 0


def cmd_smallscale(args) -> int:
    detectors.check_small_scale_parameters(args.window_days, args.blowup_day)
    with gridio.RolloutFile(args.input) as pred, gridio.RolloutFile(args.reference) as ref:
        _check_same_grid(pred, ref)
        spec = spectra.spectrum_series(pred, args.variable, daily=True)
        ref_spec = spectra.spectrum_series(ref, args.variable, daily=True)
    res = detectors.small_scale_ratios(spec, ref_spec, blowup_day=args.blowup_day,
                                       window_days=args.window_days)
    doc = _result_doc(res, "dimensionless energy ratios")
    _write_json(args.output, doc, _manifest(args, {"input": pred, "reference": ref}))
    return 0


def cmd_cycle_rmse(args) -> int:
    with gridio.RolloutFile(args.input) as a, gridio.RolloutFile(args.reference) as b:
        _check_same_grid(a, b)
        rmse = detectors.seasonal_cycle_rmse(a, b, args.variable)
    doc = {"seasonal_cycle_rmse": rmse, "units": "variable units"}
    _write_json(args.output, doc, _manifest(args, {"input": a, "reference": b}))
    return 0


def _load_adapter(spec_str: str, init, step_seconds: int):
    kind, _, path = spec_str.partition(":")
    if kind == "synth":
        cfg = synth.load_config(path)
        return perturb.SynthAdapter(cfg, step_seconds=step_seconds), path
    if kind == "external":
        if init is None:
            raise ValueError("external adapters need --init to define the grid")
        return perturb.ExternalProcessAdapter(path, init.grid, step_seconds), path
    raise ValueError(f"unknown adapter kind {kind!r}; use synth:FILE or external:FILE")


# perturb flags that only a perturbation (--kind) uses, and their defaults: the
# PerturbationSpec fields but its kind, and --stats-from
_SPEC_DEFAULTS = {f.name: f.default for f in fields(perturb.PerturbationSpec) if f.name != "kind"}
_KIND_DEFAULTS = {"stats_from": None, **_SPEC_DEFAULTS}


def cmd_perturb(args) -> int:
    _check_unused(args, _KIND_DEFAULTS, args.kind,
                  "only used with --kind; give --kind or drop them")
    init = None
    if args.init:  # frame 0 is the initial state; the rest is walked for the digest
        with gridio.RolloutFile(args.init) as init:
            walk = gridio.walk(init, ())
            state = next(walk)[0].astype(np.float64)
            for _ in walk:
                pass
        for v, frame in zip(init.variables, state):
            if not gridio.all_finite(frame):
                raise gridio.IncompleteFieldError(
                    f"{args.init}: variable {v!r} holds fill cells in frame 0, the initial state")
    adapter, adapter_path = _load_adapter(args.adapter, init, args.step_seconds)

    if init is not None:
        start = init.start_time
        if tuple(init.variables) != adapter.all_variables:
            raise ValueError("init file variables do not match the adapter")
    else:  # only a synth adapter runs without --init
        state = adapter.initial_state()
        start = adapter.cfg.epoch
    if args.start_time:
        start = gridio.utc_time(args.start_time, "--start-time")
    if isinstance(adapter, perturb.SynthAdapter) and args.steps > 0:
        # the first step, from the shifted clock, must end at or after the epoch
        adapter.step_index(perturb.shifted_clock(adapter, start, args.time_shift_days))

    spec = stats = ref = None
    if args.kind:
        spec = perturb.PerturbationSpec(kind=args.kind.upper(),
                                        **{f: getattr(args, f) for f in _SPEC_DEFAULTS})
        if not args.stats_from:
            raise ValueError("--stats-from REF.rgf is required with --kind")
        with gridio.RolloutFile(args.stats_from) as ref:
            stats = perturb.pooled_stats(ref, [v for v in adapter.all_variables
                                               if v in ref.variables])

    manifest = _manifest(args, {"init": init, "adapter": adapter_path, "stats_from": ref})
    with gridio.RolloutWriter(args.output, adapter.grid, adapter.all_variables, start,
                              args.steps + 1, adapter.step_seconds,
                              attrs={"manifest": manifest}) as out:
        perturb.run_rollout(adapter, state, start, args.steps, spec=spec, stats=stats,
                            time_shift_days=args.time_shift_days, sink=out)
    return 0


def cmd_extremes(args) -> int:
    v = args.variable
    regions = (gridio.load_regions(args.regions) if args.regions
               else gridio.builtin_regions()).values()
    levels = sorted(set(extremes.HOT_THRESHOLD_LEVELS + extremes.COLD_THRESHOLD_LEVELS))
    # the model is walked for its regional extremes on a worker thread while the
    # reference's first walk hashes it and counts its pools. A model that failed
    # ends the command before the reference's second walk, which, with the
    # digest known, is not hashed and gathers the thresholds' bins
    with gridio.RolloutFile(args.input) as model, \
            gridio.RolloutFile(args.reference) as reference, \
            ThreadPoolExecutor(max_workers=1) as worker:
        walked = worker.submit(spectra.scan, model, (v,), spectra=None, regions=regions)
        ref = spectra.scan(reference, (v,), spectra=None, regions=regions, levels=levels)
        model_regional = walked.result().regional[v]
        thresholds = spectra.pooled_thresholds(reference, v, regions, ref.pools[v])
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(args, {"input": model, "reference": reference,
                                "regions": args.regions})

    mt, rt = model.timestamps, reference.timestamps
    msel, rsel = (extremes.match_windows(mt, rt) if args.match_window
                  else (np.ones(mt.size, dtype=bool), np.ones(rt.size, dtype=bool)))

    summary = {}
    for name in sorted(model_regional):
        thr = thresholds[name]
        model_ext, ref_ext = model_regional[name], ref.regional[v][name]

        qqs, excs = [], []
        for side, stat, side_levels in (("hot", "max", extremes.HOT_THRESHOLD_LEVELS),
                                        ("cold", "min", extremes.COLD_THRESHOLD_LEVELS)):
            m, r = getattr(model_ext, stat)[msel], getattr(ref_ext, stat)[rsel]
            qqs.append(extremes.qq_tails(m, r, side))
            side_thr = climatology.ThresholdSet(
                region=name, levels=side_levels,
                values=tuple(thr.value_for(lv) for lv in side_levels), pooling=thr.pooling)
            excs.append(extremes.exceedance_curve(m, r, side_thr, side))
        _write_csv(outdir / f"{name}_qq.csv", manifest, "tail quantiles in variable units",
                   ["side", "level", "reference", "model"],
                   ([qq.side, _fmt(lv), _fmt(rq), _fmt(mq)]
                    for qq in qqs for lv, rq, mq in zip(qq.levels, qq.reference, qq.model)))
        _write_csv(outdir / f"{name}_exceedance.csv", manifest,
                   "exceedance fractions (dimensionless)",
                   ["side", "level", "threshold", "model_fraction", "reference_fraction",
                    "ratio"],
                   ([exc.side, _fmt(lv), _fmt(exc.thresholds[i]), _fmt(exc.model_fraction[i]),
                     _fmt(exc.reference_fraction[i]),
                     _fmt(exc.ratio[i]) if exc.ratio_defined[i] else "undefined"]
                    for exc in excs for i, lv in enumerate(exc.levels)))

        counts = {}
        for series, ext, sel in (("model", model_ext, msel), ("reference", ref_ext, rsel)):
            hot, cold = extremes.event_series(ext, thr)
            counts[series] = (int(hot[sel].sum()), int(cold[sel].sum()), int(sel.sum()))
        _write_csv(outdir / f"{name}_events.csv", manifest,
                   "event counts at pooled P90/P10 thresholds",
                   ["series", "hot_events", "cold_events", "n_timesteps"],
                   ([series, *map(str, c)] for series, c in counts.items()))
        summary[name] = {
            "p90": thr.value_for(90.0), "p10": thr.value_for(10.0),
            "model_hot": counts["model"][0],
            "model_cold": counts["model"][1],
            "reference_hot": counts["reference"][0],
            "reference_cold": counts["reference"][1],
        }
    _write_json(outdir / "summary.json", {"regions": summary}, manifest)
    return 0


def cmd_memorize(args) -> int:
    if args.window_days < 0:  # these two checks come before any input is read
        raise ValueError(f"--window-days must be >= 0, got {args.window_days}")
    variables = (None if args.variables is None
                 else gridio.names_of(args.variables.split(","), "--variables"))
    # the grids and windows are checked from the headers, then the index is
    # walked for its stats, the rollout to embed it, and the index to score it
    with gridio.RolloutFile(args.rollout) as rollout, gridio.RolloutFile(args.index) as training:
        _check_same_grid(rollout, training)
        memorize.check_windows(gridio.folded_doy(training.timestamps),
                               gridio.folded_doy(rollout.timestamps), args.window_days)
        index = memorize.build_index(training, variables)
        results = memorize.memorization_series(rollout, index, window_days=args.window_days)
    _write_csv(args.output, _manifest(args, {"rollout": rollout, "index": training}),
               "dimensionless distance ratio; d1/d2 in weighted L2",
               ["timestamp", "ratio", "d1", "d2", "first_neighbor", "second_neighbor"],
               ([str(t), _fmt(res.ratio), _fmt(res.d1), _fmt(res.d2),
                 res.first_id, res.second_id]
                for t, res in zip(rollout.timestamps, results)))
    return 0


def cmd_report(args) -> int:
    with gridio.RolloutFile(args.prediction) as pred, gridio.RolloutFile(args.reference) as ref:
        _check_same_grid(pred, ref)
        rep = detectors.build_report(
            pred, ref, name=args.name, multiplier=args.multiplier, run_days=args.run_days,
            window_days=args.window_days, smoothing_days=args.smoothing_days,
            r2_threshold=args.r2_threshold,
        )
    manifest = _manifest(args, {"prediction": pred, "reference": ref})
    _write_json(args.output, rep.to_dict(), manifest)
    if args.csv:
        variables = rep.variables
        _write_csv(
            args.csv, manifest,
            "days from rollout start; >H means censored at horizon H; "
            "small_scale cells are ratio_vs_reference (ratio_vs_self)",
            ["run", "metric", *variables],
            [[rep.name, "blowup_days",
              *(_day_cell(rep.blowup[v].day, rep.horizon_days) for v in variables)],
             [rep.name, "seasonality_days",
              *(_day_cell(rep.seasonality[v].day, rep.horizon_days) for v in variables)],
             [rep.name, "small_scale",
              *(_ratio_cell(rep.small_scale.get(v)) for v in variables)]],
        )
    return 0


def cmd_aggregate(args) -> int:
    agg = detectors.aggregate_runs([gridio.read_json(p, detectors.StabilityReport.from_dict)
                                    for p in args.reports])
    manifest = _manifest(args, {f"report_{i}": p for i, p in enumerate(args.reports)})
    _write_json(args.output, agg, manifest)
    if args.csv:
        variables = agg["variables"]
        _write_csv(args.csv, manifest, "mean +- sample std per metric per variable",
                   ["metric", *variables],
                   ([metric, *("unresolved" if e is None
                               else f"{e['mean']:.6g} +- {e['std']:.6g}"
                               for e in (per_var[v] for v in variables))]
                    for metric, per_var in agg["metrics"].items()))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="rollstab",
        description="Stability diagnostics for long autoregressive forecast rollouts.",
    )
    parser.add_argument("--version", action="version", version=f"rollstab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sps = {}

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func, subcommand=name)
        sp.add_argument("--config", help="JSON file of flag defaults", default=None)
        sps[name] = sp
        return sp

    sp = add("synth", cmd_synth, "generate a synthetic rollout with a failure regime")
    # the config-field flags parse as None; _FIELD_DEFAULTS holds their defaults
    sp.add_argument("--regime", choices=synth.REGIMES, default=None)
    sp.add_argument("--regime-config", default=None,
                    help="JSON regime config, in place of the config-field flags")
    sp.add_argument("--horizon-days", type=float, required=True)
    sp.add_argument("--grid", default=None, help="NLATxNLON regular grid")
    sp.add_argument("--variables", default=None, help="comma-separated names")
    sp.add_argument("--g-large", type=float, default=None)
    sp.add_argument("--g-medium", type=float, default=None)
    sp.add_argument("--g-small", type=float, default=None)
    sp.add_argument("--amplitude", type=float, default=None, help="seasonal amplitude")
    sp.add_argument("--tau-days", type=float, default=None, help="DRIFT decay time")
    sp.add_argument("--onset-days", type=float, default=None, help="BLOWUP onset day")
    sp.add_argument("--delta", type=float, default=None, help="BLOWUP per-step growth")
    sp.add_argument("--blowup-band", choices=spectra.BANDS, default=None)
    sp.add_argument("--seed-amplitude", type=float, default=None)
    sp.add_argument("--noise", type=float, default=None, help="per-band noise std")
    sp.add_argument("--noise-small", type=float, default=None)
    sp.add_argument("--cap", type=float, default=None, help="SHARPEN amplitude clamp")
    sp.add_argument("--init-std", type=float, default=None)
    sp.add_argument("--year-jitter", type=float, default=None)
    sp.add_argument("--start-time", default=None, help="ISO-8601 start timestamp")
    sp.add_argument("--step-seconds", type=int, default=21600)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("-o", "--output", required=True, help="output RGF path")
    sp.add_argument("--labels", default=None, help="ground-truth labels JSON path")

    sp = add("spectra", cmd_spectra, "band-averaged zonal energy spectra as CSV")
    sp.add_argument("--input", required=True, help="rollout RGF")
    sp.add_argument("--variable", required=True)
    sp.add_argument("--daily", action="store_true", help="average spectra per UTC day")
    sp.add_argument("-o", "--output", required=True, help="band CSV path")
    sp.add_argument("--full-output", default=None, help="optional per-wavenumber CSV")

    sp = add("blowup", cmd_blowup, "detect exponential blow-up of spatial extremes")
    sp.add_argument("--input", default=None, help="rollout RGF")
    sp.add_argument("--variable", default=None)
    sp.add_argument("--min-csv", default=None, help="1-D min series CSV")
    sp.add_argument("--max-csv", default=None, help="1-D max series CSV")
    sp.add_argument("--window-days", type=float, default=30)
    sp.add_argument("--smoothing-days", type=float, default=4)
    sp.add_argument("--r2-threshold", type=float, default=0.9)
    sp.add_argument("--stride-days", type=float, default=1)
    sp.add_argument("-o", "--output", required=True, help="result JSON path")

    sp = add("seasonality", cmd_seasonality, "detect loss of seasonality vs climatology")
    sp.add_argument("--input", required=True, help="rollout RGF")
    sp.add_argument("--variable", required=True)
    sp.add_argument("--envelope", default=None, help="envelope JSON from a previous run")
    sp.add_argument("--reference", default=None, help="multi-year reference RGF")
    sp.add_argument("--save-envelope", default=None, help="write the built envelope here")
    sp.add_argument("--multiplier", type=float, default=2.0)
    sp.add_argument("--run-days", type=int, default=45)
    sp.add_argument("-o", "--output", required=True, help="result JSON path")

    sp = add("smallscale", cmd_smallscale, "small-band energy ratios vs reference and self")
    sp.add_argument("--input", required=True, help="prediction RGF")
    sp.add_argument("--reference", required=True, help="reference RGF")
    sp.add_argument("--variable", required=True)
    sp.add_argument("--blowup-day", type=float, default=None)
    sp.add_argument("--window-days", type=float, default=30)
    sp.add_argument("-o", "--output", required=True, help="result JSON path")

    sp = add("cycle-rmse", cmd_cycle_rmse, "RMSE between monthly seasonal cycles")
    sp.add_argument("--input", required=True, help="rollout RGF")
    sp.add_argument("--reference", required=True, help="reference RGF, same span")
    sp.add_argument("--variable", required=True)
    sp.add_argument("-o", "--output", required=True, help="result JSON path")

    sp = add("perturb", cmd_perturb, "run a perturbed rollout through an adapter")
    sp.add_argument("--adapter", required=True, help="synth:CFG.json or external:MANIFEST.json")
    sp.add_argument("--init", default=None, help="initial state RGF (first timestep used)")
    sp.add_argument("--kind", choices=[k.lower() for k in perturb.KINDS], default=None)
    sp.add_argument("--k", type=float, default=None,
                    help=f"amplitude in sigma units (default {_SPEC_DEFAULTS['k']}; needs --kind)")
    sp.add_argument("--correlation-length", type=float, default=None,
                    help=f"default {_SPEC_DEFAULTS['correlation_length']}; needs --kind")
    sp.add_argument("--target", choices=perturb.TARGETS, default=None,
                    help=f"default {_SPEC_DEFAULTS['target']}; needs --kind")
    sp.add_argument("--time-shift-days", type=float, default=None, help="adapter clock offset")
    sp.add_argument("--stats-from", default=None, help="RGF giving (mu, sigma); needs --kind")
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--step-seconds", type=int, default=21600)
    sp.add_argument("--start-time", default=None)
    sp.add_argument("--seed", type=int, default=None,
                    help=f"default {_SPEC_DEFAULTS['seed']}; needs --kind")
    sp.add_argument("-o", "--output", required=True, help="output rollout RGF")

    sp = add("extremes", cmd_extremes, "regional extreme-event statistics")
    sp.add_argument("--input", required=True, help="model rollout RGF")
    sp.add_argument("--reference", required=True, help="reference RGF (thresholds pool)")
    sp.add_argument("--variable", required=True)
    sp.add_argument("--regions", default=None, help="regions JSON (default: built-ins)")
    sp.add_argument("--no-match-window", dest="match_window", action="store_false",
                    help="skip timestamp-intersection windowing")
    sp.add_argument("--outdir", required=True, help="directory for per-region CSVs")

    sp = add("memorize", cmd_memorize, "nearest-neighbor distance ratios vs training data")
    sp.add_argument("--rollout", required=True, help="rollout RGF to test")
    sp.add_argument("--index", required=True, help="training RGF to index")
    sp.add_argument("--variables", default=None, help="comma-separated subset")
    sp.add_argument("--window-days", type=int, default=10)
    sp.add_argument("-o", "--output", required=True, help="ratios CSV path")

    sp = add("report", cmd_report, "full stability report (blow-up, seasonality, small scales)")
    sp.add_argument("--prediction", required=True, help="prediction RGF")
    sp.add_argument("--reference", required=True, help="multi-year reference RGF")
    sp.add_argument("--name", default="rollout")
    sp.add_argument("--multiplier", type=float, default=2.0)
    sp.add_argument("--run-days", type=int, default=45)
    sp.add_argument("--window-days", type=float, default=30)
    sp.add_argument("--smoothing-days", type=float, default=4)
    sp.add_argument("--r2-threshold", type=float, default=0.9)
    sp.add_argument("-o", "--output", required=True, help="report JSON path")
    sp.add_argument("--csv", default=None, help="optional CSV table path")

    sp = add("aggregate", cmd_aggregate, "mean +- std across multiple report JSONs")
    sp.add_argument("reports", nargs="+", help="report JSON files")
    sp.add_argument("-o", "--output", required=True, help="aggregate JSON path")
    sp.add_argument("--csv", default=None, help="optional CSV table path")

    return parser, sps


def _apply_config(argv: list[str], sps: dict) -> None:
    """Splice the ``--config FILE`` JSON into ``argv`` as flags right after the
    subcommand, so a flag on the command line, coming later, wins. ``true`` or
    ``false`` selects a flag that takes no value, ``null`` keeps the default,
    and any other value is a JSON string or number, checked by its flag's
    type and choices as argparse checks them, with an error naming FILE. Any
    other spelling of ``--config``, and any key that is not a flag of the
    subcommand, is rejected rather than ignored.
    """
    for tok in argv:
        opt = tok.partition("=")[0]
        if tok != "--config" and len(opt) > 2 and "--config".startswith(opt):
            raise ValueError(f"{tok!r}: give the config file as '--config FILE'")
    if "--config" not in argv:
        return
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ValueError("--config needs a file argument")
    path = argv[i + 1]
    overrides = gridio.read_json(path)
    if not isinstance(overrides, dict):
        raise ValueError(f"{path}: config must be a JSON object of flag defaults")
    name = next((a for a in argv if not a.startswith("-")), None)
    sp = sps.get(name)
    if sp is None:
        return  # argparse reports the missing or unknown subcommand
    flags = {a.dest: a for a in sp._actions
             if a.option_strings and a.dest not in ("help", "config")}
    tokens = []
    for key, value in overrides.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise ValueError(f"{path}: config key {key!r} is not a flag of 'rollstab {name}'")
        opt, switch = flag.option_strings[-1], flag.nargs == 0  # --daily, --no-match-window
        if value is not None and (switch != isinstance(value, bool)
                                  or isinstance(value, (list, dict))):
            want = "true or false" if switch else "a string or a number"
            raise ValueError(f"{path}: config key {key!r}: expected {want}, got {value!r}")
        if switch and value == flag.const:
            tokens.append(opt)
        elif not switch and value is not None:
            try:  # argparse's own check, here where the file can be named
                sp._check_value(flag, sp._get_value(flag, str(value)))
            except argparse.ArgumentError as e:
                raise ValueError(f"{path}: config key {key!r}: {e}") from None
            tokens.append(f"{opt}={value}")  # with '=', a value like -1e-05 is not a flag
    j = argv.index(name) + 1
    argv[j:j] = tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sps = build_parser()
    try:
        _apply_config(argv, sps)
        args = parser.parse_args(argv)
        spectra.thread_count()  # a bad ROLLOUT_STAB_THREADS fails every subcommand
        return args.func(args)
    except PreconditionError as e:
        print(f"rollstab: precondition not met: {e}", file=sys.stderr)
        return 3
    except (gridio.RGFError, ValueError, OSError) as e:
        print(f"rollstab: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
