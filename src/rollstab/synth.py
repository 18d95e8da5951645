"""Synthetic rollout regimes: configs, ground-truth labels and runs.

The generator is :class:`rollstab.perturb.SynthAdapter`: each step applies
per-band gains and band-limited noise in zonal Fourier space, then adds a
seasonal forcing (a wavenumber-1 zonal wave tapered by cos(lat), with a
sinusoidal annual cycle). This module keeps the regimes, their config I/O,
the initial state, the analytic labels and :func:`generate`. The system is
linear, so every detector's expected response is analytically derivable:
the generator doubles as the ground-truth oracle for the detectors.

Regimes: STABLE (all gains <= 1), BLOWUP (one band's gain switches to
1 + delta after an onset day, with a small mode planted at onset), DRIFT
(seasonal amplitude decays with time constant tau), SHARPEN (small-band
gain > 1 with a hard amplitude clamp), BLUR (small-band gain below 1 in
magnitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from datetime import datetime

import numpy as np

from .gridio import (EARTH_RADIUS_KM, GLOBE, GridSpec, RolloutSeries, check_fields, check_keys,
                     json_value, latitude_weights, names_of, numbers_of, read_json, utc_time)
from .spectra import BANDS, band_members, scan
from .climatology import ClimatologyEnvelope
from .detectors import BLOWUP_GROWTH_FACTOR

REGIMES = ("STABLE", "BLOWUP", "DRIFT", "SHARPEN", "BLUR")

_DEFAULT_EPOCH = datetime(2021, 1, 1)
# days past the analytic onset-plus-emergence estimate that a blow-up day may
# still fall in, and past the DRIFT crossing for a seasonality-loss day
_BLOWUP_SLACK_DAYS = 5.0
_SEASONALITY_SLACK_DAYS = 60.0


def _default_grid() -> GridSpec:
    return GridSpec.regular(16, 240)


@dataclass(frozen=True)
class RegimeConfig:
    """Parameters of the synthetic generator; doubles as ground-truth label."""

    regime: str
    grid: GridSpec = field(default_factory=_default_grid)
    variables: tuple[str, ...] = ("T2m",)
    g_large: float = 0.95
    g_medium: float = 0.95
    g_small: float = 0.95
    seasonal_amplitude: float = 5.0
    tau_days: float | None = None  # DRIFT: seasonal decay time
    onset_day: float | None = None  # BLOWUP: t0
    growth_rate: float | None = None  # BLOWUP: delta, per-step gain excess
    blowup_band: str = "medium"
    seed_amplitude: float = 0.05  # BLOWUP: planted mode coefficient amplitude
    noise_large: float = 0.02
    noise_medium: float = 0.02
    noise_small: float = 0.02
    cap: float | None = None  # SHARPEN: hard amplitude clamp
    init_std: float = 1.0
    year_jitter: float = 0.0  # seasonal amplitude spread across calendar years
    jitter_cycle_years: int = 5
    epoch: datetime = _DEFAULT_EPOCH
    seed: int = 0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")
        for f in fields(self):  # annotations are strings: "float", "float | None"
            value = getattr(self, f.name)
            if f.type.startswith("float") and value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not self.variables:
            raise ValueError("variables must name at least one variable")
        if not (abs(self.g_large) <= 1.0 and abs(self.g_medium) <= 1.0):  # NaN fails too
            raise ValueError(f"{self.regime} requires |g_large| and |g_medium| <= 1")
        if self.regime in ("STABLE", "DRIFT", "BLOWUP") and not abs(self.g_small) <= 1.0:
            raise ValueError(f"{self.regime} requires |g_small| <= 1")
        if self.regime == "DRIFT":
            if self.tau_days is None or self.tau_days <= 0:
                raise ValueError("DRIFT requires a positive tau_days")
        if self.regime == "BLOWUP":
            if self.growth_rate is None or self.growth_rate <= 0:
                raise ValueError("BLOWUP requires growth_rate (delta) > 0")
            if self.onset_day is None or self.onset_day < 0:
                raise ValueError("BLOWUP requires onset_day >= 0")
            if self.blowup_band not in BANDS:
                raise ValueError(f"blowup_band must be one of {BANDS}")
        if self.regime == "BLUR" and not abs(self.g_small) < 1.0:
            raise ValueError("BLUR requires |g_small| < 1")
        if self.regime == "SHARPEN":
            if not self.g_small > 1.0:
                raise ValueError("SHARPEN requires g_small > 1")
            if self.cap is None or self.cap <= 0:
                raise ValueError("SHARPEN requires a positive amplitude cap")
        if min(self.noise_large, self.noise_medium, self.noise_small) < 0:
            raise ValueError("noise levels must be >= 0")
        if self.init_std < 0 or self.year_jitter < 0:
            raise ValueError("init_std and year_jitter must be >= 0")
        if self.year_jitter > 0 and self.jitter_cycle_years < 2:
            raise ValueError("year_jitter needs a jitter cycle of >= 2 years")


def config_to_dict(cfg: RegimeConfig) -> dict:
    d = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    d["grid"] = cfg.grid.to_dict()
    d["variables"] = list(cfg.variables)
    d["epoch"] = cfg.epoch.isoformat()
    return d


def _grid_from_dict(g) -> GridSpec:
    """A config's grid: ``lats`` and ``lons`` with an optional ``earth_radius_km``,
    or an ``{n_lat, n_lon}`` shorthand for a regular grid."""
    if not (isinstance(g, dict) and "lats" in g):
        check_keys(g, ("n_lat", "n_lon"), "grid")
        return GridSpec.regular(*(json_value(g[k], "int", k) for k in ("n_lat", "n_lon")))
    check_keys(g, ("lats", "lons"), "grid", optional=("earth_radius_km",))
    lats, lons = (numbers_of(g[k], k) for k in ("lats", "lons"))
    radius = json_value(g.get("earth_radius_km", EARTH_RADIUS_KM), "float", "earth_radius_km")
    return GridSpec(lats=lats, lons=lons, earth_radius_km=float(radius))


def config_from_dict(d: dict) -> RegimeConfig:
    """Build a config from JSON as :func:`config_to_dict` writes it, though
    the grid may be given in shorthand. A missing ``regime``, an unknown key
    or a value of the wrong kind raises ValueError naming the key."""
    check_keys(d, ("regime",), "regime config",
               optional=[f.name for f in fields(RegimeConfig)])
    check_fields(d, RegimeConfig)
    d = dict(d)
    if "grid" in d:
        d["grid"] = _grid_from_dict(d["grid"])
    if "variables" in d:
        d["variables"] = names_of(d["variables"], "variables")
    if "epoch" in d:
        d["epoch"] = utc_time(d["epoch"], "epoch")
    return RegimeConfig(**d)


def load_config(path) -> RegimeConfig:
    """The config in a JSON file; an error names the file."""
    return read_json(path, config_from_dict)


def initial_state(cfg: RegimeConfig, var_index: int = 0) -> np.ndarray:
    """Seeded white-noise initial field."""
    rng = np.random.default_rng([cfg.seed, var_index, 999999937])
    return cfg.init_std * rng.standard_normal((cfg.grid.n_lat, cfg.grid.n_lon))


@dataclass
class GroundTruthLabels:
    """Analytic expectations for the detectors on one generated rollout."""

    regime: str
    horizon_days: float
    blowup_window: tuple[float, float] | None = None  # (earliest, latest) day
    emergence_days: float | None = None
    noise_floor: float | None = None
    seasonal_band_amplitude: float | None = None  # band_large units, at the first step
    tau_days: float | None = None
    small_scale_direction: str = "eq1"  # "lt1", "gt1", or "eq1"
    ratio_vs_self_estimate: float | None = None

    def expected_seasonality_window(
        self, envelope: ClimatologyEnvelope, multiplier: float = 2.0,
    ) -> tuple[float, float] | None:
        """DRIFT oracle: solve a * exp(-t/tau) = multiplier * mean range."""
        if self.regime != "DRIFT":
            return None
        rbar = float(envelope.range.mean())
        a = self.seasonal_band_amplitude
        if rbar <= 0 or a <= multiplier * rbar:
            return None
        t_star = self.tau_days * math.log(a / (multiplier * rbar))
        return (t_star, t_star + _SEASONALITY_SLACK_DAYS)


def _band_response_amplitude(cfg: RegimeConfig) -> float:
    """Steady-state band_large amplitude of the seasonal forcing at its peak."""
    w = latitude_weights(cfg.grid)
    taper = float(w @ np.cos(np.radians(cfg.grid.lats)))
    n_large = band_members(cfg.grid, "large").size
    return cfg.seasonal_amplitude * taper / (2.0 * (1.0 - cfg.g_large) * n_large)


def _blowup_labels(cfg: RegimeConfig, source, steps_per_day: float, onset: float):
    """The blow-up window from ``onset``, in days from the first step of ``source``."""
    v = source.variables[0]
    ext = scan(source, (v,), spectra=None, regions=(GLOBE,)).regional[v][GLOBE.name]
    t_days = np.arange(source.n_time) / steps_per_day
    pre = t_days < onset
    base_steps = min(int(round(30 * steps_per_day)), source.n_time)
    floors = []
    for s in (ext.min, ext.max):
        s = np.asarray(s, dtype=np.float64)
        baseline = s[:base_steps].mean()
        floors.append(np.abs(s[pre] - baseline).max())
    nf = float(max(floors))
    peak = 2.0 * cfg.seed_amplitude * float(np.cos(np.radians(cfg.grid.lats)).max())
    ratio = BLOWUP_GROWTH_FACTOR * nf / peak
    emergence_steps = 0.0 if ratio <= 1.0 else math.ceil(
        math.log(ratio) / math.log1p(cfg.growth_rate)
    )
    emergence_days = emergence_steps / steps_per_day
    window = (float(onset), float(onset) + emergence_days + _BLOWUP_SLACK_DAYS)
    return window, emergence_days, nf


def prepare(cfg: RegimeConfig, horizon_days: float, step_seconds: int = 21600,
            start_time: datetime | None = None):
    """The checked run :func:`generate` makes: its adapter, start time and step
    count. ``horizon_days`` must be finite and at least 60, ``step_seconds``
    positive, and a BLOWUP onset, counted from the config's epoch, inside the
    horizon from ``start_time`` (the epoch if None)."""
    from .perturb import SynthAdapter  # perturb imports this module

    if not math.isfinite(horizon_days):
        raise ValueError(f"horizon must be a finite number of days, got {horizon_days}")
    if horizon_days < 60:
        raise ValueError("horizon must be at least 60 days")
    if cfg.regime == "DRIFT" and cfg.tau_days >= horizon_days:
        raise ValueError("DRIFT requires tau_days < horizon")
    # the generator counts onset_day and the DRIFT decay from the epoch, and
    # the labels count days from the first step
    start = start_time or cfg.epoch
    offset = (start - cfg.epoch).total_seconds() / 86400.0
    if cfg.regime == "BLOWUP" and not offset <= cfg.onset_day < offset + horizon_days:
        raise ValueError(
            f"BLOWUP onset, day {cfg.onset_day:g} from the epoch {cfg.epoch.isoformat()}, "
            f"must fall inside the {horizon_days:g}-day horizon from the start time "
            f"{start.isoformat()}")
    adapter = SynthAdapter(cfg, step_seconds=step_seconds)
    return adapter, start, int(round(horizon_days * 86400 / step_seconds))


def check_complete(attrs: dict) -> None:
    """ValueError if a synthetic run's ``attrs`` hold the error that stopped it early."""
    if "error" in attrs:
        raise ValueError(f"synthetic rollout stopped early: {attrs['error']}")


def ground_truth(adapter, source, start: datetime, horizon_days: float) -> GroundTruthLabels:
    """Analytic labels of the run :func:`prepare` gave, in days from its first
    step. A BLOWUP run's come from one scan of ``source``, the run's frames as
    a :class:`RolloutSeries` or the RGF file they were written to."""
    cfg = adapter.cfg
    steps_per_day = 86400.0 / adapter.step_seconds
    offset = (start - cfg.epoch).total_seconds() / 86400.0
    labels = GroundTruthLabels(regime=cfg.regime, horizon_days=horizon_days)
    if cfg.regime == "BLOWUP":
        labels.blowup_window, labels.emergence_days, labels.noise_floor = _blowup_labels(
            cfg, source, steps_per_day, cfg.onset_day - offset
        )
        labels.small_scale_direction = "gt1"
    if cfg.regime in ("STABLE", "DRIFT", "BLUR", "SHARPEN"):
        labels.seasonal_band_amplitude = _band_response_amplitude(cfg)
    if cfg.regime == "DRIFT":
        labels.tau_days = cfg.tau_days
        labels.seasonal_band_amplitude *= math.exp(-offset / cfg.tau_days)  # at the first step
    if cfg.regime == "BLUR":
        labels.small_scale_direction = "lt1"
        # the small-band noise injected, if any (none when it holds only the Nyquist k)
        small = adapter.band_k.get("small")
        s_raw = 0.0 if small is None else float(adapter.noise_sigma[small].max())
        if s_raw > 0 and cfg.init_std > 0:
            steady = s_raw / math.sqrt(1.0 - cfg.g_small**2)
            init_coeff = cfg.init_std * math.sqrt(cfg.grid.n_lon / 2.0)
            labels.ratio_vs_self_estimate = steady / init_coeff
    if cfg.regime == "SHARPEN":
        labels.small_scale_direction = "gt1"
    return labels


def generate(
    cfg: RegimeConfig,
    horizon_days: float,
    step_seconds: int = 21600,
    start_time: datetime | None = None,
) -> tuple[RolloutSeries, GroundTruthLabels]:
    """Iterate the configured regime from a seeded random initial field: the
    in-memory form of the run ``rollstab synth`` writes frame by frame.

    The rollout is :func:`rollstab.perturb.run_rollout` over the adapter of
    :func:`prepare`, which checks the arguments. Returns it (initial state at
    index 0, ``attrs`` holding the regime and seed) and its :func:`ground_truth`.
    """
    from .perturb import run_rollout  # perturb imports this module

    adapter, start, n_steps = prepare(cfg, horizon_days, step_seconds, start_time)
    series = run_rollout(adapter, adapter.initial_state(), start, n_steps)
    check_complete(series.attrs)
    series.attrs = {"regime": cfg.regime, "seed": cfg.seed}
    return series, ground_truth(adapter, series, start, horizon_days)
