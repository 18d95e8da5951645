"""Synthetic spectral rollout generator with controllable failure regimes.

Each step transforms the field row-wise to zonal Fourier space, applies
per-band gains, injects band-limited white noise, transforms back, and adds
a seasonal forcing (a wavenumber-1 zonal wave tapered by cos(lat), with a
sinusoidal annual cycle). The system is linear, so the expected response of
every detector is analytically derivable: the generator doubles as the
ground-truth oracle for validating the detectors.

Regimes: STABLE (all gains <= 1), BLOWUP (one band's gain switches to
1 + delta after an onset day, with a small mode planted at onset), DRIFT
(seasonal amplitude decays with time constant tau), SHARPEN (small-band
gain > 1 with a hard amplitude clamp), BLUR (small-band gain below 1 in
magnitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta

import numpy as np

from .gridio import (EARTH_RADIUS_KM, GridSpec, RolloutSeries, check_keys, json_value,
                     latitude_weights, names_of, numbers_of, read_json, utc_time)
from .spectra import BANDS, BandUnresolvedError, band_members, scan
from .climatology import ClimatologyEnvelope
from .detectors import BLOWUP_GROWTH_FACTOR

REGIMES = ("STABLE", "BLOWUP", "DRIFT", "SHARPEN", "BLUR")

_DEFAULT_EPOCH = datetime(2021, 1, 1)
_YEAR_DAYS = 365.25
_SATURATION = 1e30
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
    d = dict(d)
    for f in fields(RegimeConfig):  # annotations are strings: "float | None", ...
        kind, _, optional = f.type.partition(" | ")
        if f.name in d and kind in ("float", "int", "str") and not (optional and d[f.name] is None):
            json_value(d[f.name], kind, f.name)
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


class Stepper:
    """Advances fields of one config: its spectral machinery is precomputed
    once, and :meth:`step` takes one field one step forward."""

    def __init__(self, cfg: RegimeConfig):
        self.cfg = cfg
        grid = cfg.grid
        n = grid.n_lon
        n_k = n // 2 + 1
        self.gain = np.ones(n_k)
        self.band_k: dict[str, np.ndarray] = {}
        for band, g in (("large", cfg.g_large), ("medium", cfg.g_medium), ("small", cfg.g_small)):
            try:
                idx = band_members(grid, band)
            except BandUnresolvedError:
                if cfg.regime == "SHARPEN" and band == "small":
                    raise
                continue
            self.band_k[band] = idx
            self.gain[idx] = g
        self.gain_after_onset = self.gain.copy()
        if cfg.regime == "BLOWUP":
            if cfg.blowup_band not in self.band_k:
                raise BandUnresolvedError(
                    f"blow-up band {cfg.blowup_band!r} unresolved on this grid"
                )
            self.gain_after_onset[self.band_k[cfg.blowup_band]] = 1.0 + cfg.growth_rate

        # band-limited noise: complex coefficient sigma per wavenumber, chosen
        # so the injected field has the configured std per band; k=0 and the
        # Nyquist column stay noise-free
        self.noise_sigma = np.zeros(n_k)
        interior = np.arange(1, (n + 1) // 2)
        for band, sigma in (("large", cfg.noise_large), ("medium", cfg.noise_medium),
                            ("small", cfg.noise_small)):
            if sigma <= 0 or band not in self.band_k:
                continue
            idx = np.intersect1d(self.band_k[band], interior)
            if idx.size == 0:
                continue
            self.noise_sigma[idx] = sigma * n / (2.0 * math.sqrt(idx.size))
        self.noisy_k = np.flatnonzero(self.noise_sigma > 0)

        lat_rad = np.radians(grid.lats)
        lon_rad = np.radians(grid.lons)
        self.pattern = np.cos(lat_rad)[:, None] * np.cos(lon_rad)[None, :]
        if cfg.regime == "BLOWUP":
            k_band = self.band_k[cfg.blowup_band]
            k0 = int(k_band[len(k_band) // 2])
            if k0 == 0:
                k0 = int(k_band[-1])
            self.planted = 2.0 * cfg.seed_amplitude * (
                np.cos(lat_rad)[:, None] * np.cos(k0 * lon_rad)[None, :]
            )
            self.planted_k = k0

    def _seasonal_amplitude(self, clock_out: datetime, t_out_days: float) -> float:
        cfg = self.cfg
        a = cfg.seasonal_amplitude
        if cfg.regime == "DRIFT":
            a *= math.exp(-t_out_days / cfg.tau_days)
        if cfg.year_jitter > 0:
            # deterministic evenly spaced per-year factors spanning +-jitter,
            # so a reference covering one cycle has an exactly known range
            pos = (clock_out.year - cfg.epoch.year) % cfg.jitter_cycle_years
            frac = pos / (cfg.jitter_cycle_years - 1)
            a *= 1.0 + cfg.year_jitter * (2.0 * frac - 1.0)
        return a

    def _forcing(self, clock_out: datetime, t_out_days: float) -> np.ndarray:
        a = self._seasonal_amplitude(clock_out, t_out_days)
        if a == 0.0:
            return np.zeros_like(self.pattern)
        year_start = datetime(clock_out.year, 1, 1)
        doy = (clock_out - year_start).total_seconds() / 86400.0 + 1.0
        return a * math.sin(2.0 * math.pi * doy / _YEAR_DAYS) * self.pattern

    def step_index(self, clock: datetime, step_seconds: int) -> int:
        """Steps from the config's epoch to the end of a step from ``clock``,
        which key its noise; a step ending before the epoch raises ValueError."""
        out_seconds = (clock + timedelta(seconds=step_seconds) - self.cfg.epoch).total_seconds()
        index = int(round(out_seconds / step_seconds))
        if index < 0:
            raise ValueError(f"a step from clock {clock.isoformat()} ends before the "
                             f"config's epoch {self.cfg.epoch.isoformat()}")
        return index

    def step(self, state: np.ndarray, clock: datetime, step_seconds: int,
             var_index: int) -> np.ndarray:
        """The field of variable ``var_index`` at ``clock + step_seconds``."""
        cfg = self.cfg
        grid = cfg.grid
        step_index = self.step_index(clock, step_seconds)
        clock_out = clock + timedelta(seconds=step_seconds)
        t_out_days = (clock_out - cfg.epoch).total_seconds() / 86400.0

        coeffs = np.fft.rfft(state, axis=-1)
        if cfg.regime == "BLOWUP" and t_out_days >= cfg.onset_day:
            coeffs *= self.gain_after_onset
        else:
            coeffs *= self.gain
        if self.noisy_k.size:
            rng = np.random.default_rng([cfg.seed, var_index, step_index])
            shape = (grid.n_lat, self.noisy_k.size)
            sig = self.noise_sigma[self.noisy_k]
            coeffs[:, self.noisy_k] += sig * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
        nxt = np.fft.irfft(coeffs, n=grid.n_lon, axis=-1)
        nxt += self._forcing(clock_out, t_out_days)
        if cfg.regime == "BLOWUP" and cfg.onset_day is not None:
            prev_days = t_out_days - step_seconds / 86400.0
            if prev_days < cfg.onset_day <= t_out_days:
                nxt += self.planted
        if cfg.regime == "SHARPEN":
            np.clip(nxt, -cfg.cap, cfg.cap, out=nxt)
        # keep blown-up fields finite in float32; diverging models saturate the
        # same way once they leave the physical range
        np.clip(nxt, -_SATURATION, _SATURATION, out=nxt)
        return nxt


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
    seasonal_band_amplitude: float | None = None  # band_large units
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


def _blowup_labels(cfg: RegimeConfig, series: RolloutSeries, steps_per_day: float):
    v = series.variables[0]
    ext = scan(series, (v,), spectra=False, extremes=True).extremes[v]
    t_days = np.arange(series.n_time) / steps_per_day
    pre = t_days < cfg.onset_day
    base_steps = min(int(round(30 * steps_per_day)), series.n_time)
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
    window = (float(cfg.onset_day), float(cfg.onset_day) + emergence_days + _BLOWUP_SLACK_DAYS)
    return window, emergence_days, nf


def generate(
    cfg: RegimeConfig,
    horizon_days: float,
    step_seconds: int = 21600,
    start_time: datetime | None = None,
) -> tuple[RolloutSeries, GroundTruthLabels]:
    """Iterate the configured regime from a seeded random initial field.

    The rollout is :func:`rollstab.perturb.run_rollout` over a
    :class:`~rollstab.perturb.SynthAdapter` that steps every variable in
    lockstep at ``step_seconds``. Returns it (initial state at index 0,
    ``attrs`` holding the regime and seed) and analytic ground-truth labels
    for the detectors. ``horizon_days`` must be at least 60, and
    ``step_seconds`` positive.
    """
    from .perturb import SynthAdapter, run_rollout  # perturb imports this module

    if horizon_days < 60:
        raise ValueError("horizon must be at least 60 days")
    if cfg.regime == "DRIFT" and cfg.tau_days >= horizon_days:
        raise ValueError("DRIFT requires tau_days < horizon")
    if cfg.regime == "BLOWUP" and cfg.onset_day >= horizon_days:
        raise ValueError("BLOWUP onset must fall inside the horizon")
    adapter = SynthAdapter(cfg, step_seconds=step_seconds)
    n_steps = int(round(horizon_days * 86400 / step_seconds))
    series = run_rollout(adapter, adapter.initial_state(), start_time or cfg.epoch, n_steps)
    if "error" in series.attrs:
        raise ValueError(f"synthetic rollout stopped early: {series.attrs['error']}")
    series.attrs = {"regime": cfg.regime, "seed": cfg.seed}

    steps_per_day = 86400.0 / step_seconds
    labels = GroundTruthLabels(regime=cfg.regime, horizon_days=horizon_days)
    if cfg.regime == "BLOWUP":
        labels.blowup_window, labels.emergence_days, labels.noise_floor = _blowup_labels(
            cfg, series, steps_per_day
        )
        labels.small_scale_direction = "gt1"
    if cfg.regime in ("STABLE", "DRIFT", "BLUR", "SHARPEN"):
        labels.seasonal_band_amplitude = _band_response_amplitude(cfg)
    if cfg.regime == "DRIFT":
        labels.tau_days = cfg.tau_days
    if cfg.regime == "BLUR":
        labels.small_scale_direction = "lt1"
        # the small-band noise injected, if any (none when it holds only the Nyquist k)
        small = adapter.stepper.band_k.get("small")
        s_raw = 0.0 if small is None else float(adapter.stepper.noise_sigma[small].max())
        if s_raw > 0 and cfg.init_std > 0:
            steady = s_raw / math.sqrt(1.0 - cfg.g_small**2)
            init_coeff = cfg.init_std * math.sqrt(cfg.grid.n_lon / 2.0)
            labels.ratio_vs_self_estimate = steady / init_coeff
    if cfg.regime == "SHARPEN":
        labels.small_scale_direction = "gt1"
    return series, labels
