"""Noise generators, the model-adapter contract, perturbed-vs-clean rollout
comparisons, and ensemble spread.

Adapters advance a multi-variable state (n_var, lat, lon) one step given a
clock; the rollout loop feeds each output back as the next input. The
synthetic generator is one, :class:`SynthAdapter`; :mod:`rollstab.synth`
keeps its regimes, configs and labels.
Perturbations apply to the initial state only: additive white noise,
additive Gaussian random fields with a prescribed correlation length, or
replacement by pure noise with the reference's scalar (mu, sigma).
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .gridio import (
    GridSpec,
    RolloutFile,
    RolloutSeries,
    RolloutWriter,
    all_finite,
    cell_weights,
    check_keys,
    json_value,
    names_of,
    read_json,
    tile_rows,
    walk,
)
from .spectra import BandUnresolvedError, band_members
from .synth import RegimeConfig, initial_state

KINDS = ("WHITE", "GRF", "PURE_NOISE")
TARGETS = ("dynamic", "static", "both")
_YEAR_DAYS = 365.25
_SATURATION = 1e30


@dataclass(frozen=True)
class PerturbationSpec:
    """What to do to the initial state before rolling out."""

    kind: str
    k: float = 1.0  # amplitude in units of the variable's sigma
    correlation_length: float = 10.0  # pixels, GRF only
    target: str = "dynamic"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.k <= 0:
            raise ValueError("amplitude multiplier k must be > 0")
        if self.correlation_length < 1:
            raise ValueError("correlation length must be >= 1 pixel")
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}")


def pooled_stats(source: RolloutSeries | RolloutFile, variables) -> dict[str, tuple[float, float]]:
    """Scalar mean and std of each of ``variables``, as float64 moments
    pooled over every cell and step of ``source``, in one walk of its time
    blocks (so a file's digest is complete once it returns).

    Each step is reduced in float64, in one scratch of a
    :func:`~rollstab.gridio.tile_rows` tile, to its sum and its squared
    deviation from its own mean. These n_time pairs are merged by the pairwise
    rule of Chan, Golub & LeVeque (1983), with every sum taken exactly by
    :func:`math.fsum`, so the result does not depend on the block or tile
    size. The walk is a :func:`~rollstab.gridio.walk`, so a fill cell ends it.
    """
    idx = {v: source.index_of(v) for v in variables}
    cells = source.grid.n_lat * source.grid.n_lon
    sums = {v: np.empty(source.n_time) for v in idx}
    sq_devs = {v: np.empty(source.n_time) for v in idx}
    tile = tile_rows(cells)
    buf = np.empty((min(tile, source.n_time), cells))
    s = 0
    for block in walk(source, idx):
        for v, i in idx.items():
            fields = block[:, i].reshape(len(block), cells)
            for a in range(0, len(block), tile):
                rows = fields[a:a + tile]
                x, at = buf[: len(rows)], slice(s + a, s + a + len(rows))
                np.copyto(x, rows)
                row_sums = sums[v][at] = x.sum(axis=1)
                x -= (row_sums / cells)[:, None]
                np.square(x, out=x)
                sq_devs[v][at] = x.sum(axis=1)
        s += len(block)
    n = source.n_time * cells
    stats = {}
    for v in idx:
        mu = math.fsum(sums[v]) / n
        between = cells * math.fsum((sums[v] / cells - mu) ** 2)
        stats[v] = (mu, math.sqrt((math.fsum(sq_devs[v]) + between) / n))
    return stats


def variable_stats(source: RolloutSeries | RolloutFile, v: str) -> tuple[float, float]:
    """Scalar mean and std of one variable, by :func:`pooled_stats`."""
    return pooled_stats(source, (v,))[v]


def gaussian_random_field(shape: tuple[int, int], correlation_length: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Unit-std Gaussian random field with isotropic Gaussian correlation.

    Synthesised spectrally: white noise shaped by a Gaussian kernel in
    wavenumber space so the autocorrelation is exp(-r^2 / (2 L^2)); both
    axes are treated as periodic.
    """
    ky = 2.0 * np.pi * np.fft.fftfreq(shape[0])
    kx = 2.0 * np.pi * np.fft.fftfreq(shape[1])
    k2 = ky[:, None] ** 2 + kx[None, :] ** 2
    kernel = np.exp(-k2 * correlation_length**2 / 4.0)
    white = rng.standard_normal(shape)
    fld = np.fft.ifft2(np.fft.fft2(white) * kernel).real
    fld -= fld.mean()
    sd = fld.std()
    if sd == 0:
        raise ValueError("degenerate random field (zero variance)")
    return fld / sd


def apply_perturbation(
    state: np.ndarray,
    spec: PerturbationSpec,
    stats: dict[str, tuple[float, float]],
    variables: tuple[str, ...],
    static_variables: tuple[str, ...] = (),
) -> np.ndarray:
    """Perturb the targeted variables of one (n_var, lat, lon) state."""
    state = np.array(state, dtype=np.float64, copy=True)
    if state.ndim != 3 or state.shape[0] != len(variables):
        raise ValueError("state must be (n_var, lat, lon) matching the variable list")
    statics = set(static_variables)
    if spec.target == "dynamic":
        targeted = [v for v in variables if v not in statics]
    elif spec.target == "static":
        targeted = [v for v in variables if v in statics]
    else:
        targeted = list(variables)
    if not targeted:
        raise ValueError(f"perturbation target {spec.target!r} selects none of the "
                         f"variables {list(variables)}")
    missing = [v for v in targeted if v not in stats]
    if missing:
        raise ValueError(f"missing (mu, sigma) stats for variables: {missing}")

    rng = np.random.default_rng(spec.seed)
    shape = state.shape[1:]
    for v in targeted:
        vi = variables.index(v)
        mu, sigma = stats[v]
        if spec.kind == "WHITE":
            state[vi] += rng.normal(0.0, spec.k * sigma, shape)
        elif spec.kind == "GRF":
            fld = gaussian_random_field(shape, spec.correlation_length, rng)
            state[vi] += spec.k * sigma * fld
        elif spec.kind == "PURE_NOISE":
            state[vi] = rng.normal(mu, sigma, shape)
    return state


# ---------------------------------------------------------------------------
# adapters


class ModelAdapter:
    """Contract for anything that can advance a state by one step.

    Implementations define ``variables`` (dynamic), ``static_variables``,
    ``supports_time_shift``, and ``step(state, clock)``, and pass ``grid``
    and ``step_seconds`` (positive) to this constructor. The state covers
    dynamic then static variables along its first axis; adapters must
    return the same shape. ``step`` advances it by ``step_seconds``, the one
    step length :func:`run_rollout` uses for its clock and timestamps.
    """

    variables: tuple[str, ...] = ()
    static_variables: tuple[str, ...] = ()
    supports_time_shift: bool = False

    def __init__(self, grid: GridSpec, step_seconds: int):
        if step_seconds <= 0:
            raise ValueError(f"step length must be positive, got {step_seconds} s")
        self.grid = grid
        self.step_seconds = step_seconds

    @property
    def all_variables(self) -> tuple[str, ...]:
        return tuple(self.variables) + tuple(self.static_variables)

    def step(self, state: np.ndarray, clock: datetime) -> np.ndarray:
        raise NotImplementedError


class SynthAdapter(ModelAdapter):
    """The synthetic generator of :mod:`rollstab.synth`; all its variables are
    dynamic. Its gain, noise, forcing and planted-mode tables are built once
    and shared by every variable, which differ only in the noise they draw."""

    supports_time_shift = True

    def __init__(self, cfg: RegimeConfig, step_seconds: int = 21600):
        super().__init__(cfg.grid, step_seconds)
        self.cfg = cfg
        self.variables = tuple(cfg.variables)
        n = cfg.grid.n_lon
        self.gain = np.ones(n // 2 + 1)
        # band-limited noise: complex coefficient sigma per wavenumber, chosen
        # so the injected field has the configured std per band; k=0 and the
        # Nyquist column stay noise-free
        self.noise_sigma = np.zeros(n // 2 + 1)
        interior = np.arange(1, (n + 1) // 2)
        self.band_k: dict[str, np.ndarray] = {}
        for band, g, sigma in (("large", cfg.g_large, cfg.noise_large),
                               ("medium", cfg.g_medium, cfg.noise_medium),
                               ("small", cfg.g_small, cfg.noise_small)):
            try:
                idx = band_members(cfg.grid, band)
            except BandUnresolvedError:
                if cfg.regime == "SHARPEN" and band == "small":
                    raise
                continue
            self.band_k[band] = idx
            self.gain[idx] = g
            noisy = np.intersect1d(idx, interior)
            if sigma > 0 and noisy.size:
                self.noise_sigma[noisy] = sigma * n / (2.0 * math.sqrt(noisy.size))
        self.noisy_k = np.flatnonzero(self.noise_sigma > 0)
        # a step transforms into these buffers, draws its noise into them and
        # adds it to each run of consecutive noisy wavenumbers (first column,
        # last column + 1, first k) through views, so the one block it
        # allocates is the state it returns; an adapter steps one run at a time
        first = np.flatnonzero(np.diff(self.noisy_k, prepend=-2) != 1)
        last = np.append(first[1:], self.noisy_k.size)
        self._noisy_runs = [(int(a), int(b), int(self.noisy_k[a])) for a, b in zip(first, last)]
        self._draws = np.empty((2, cfg.grid.n_lat, self.noisy_k.size))
        self._noise = np.empty((cfg.grid.n_lat, self.noisy_k.size), complex)
        self._coeffs = np.empty((len(self.variables), cfg.grid.n_lat, n // 2 + 1), complex)

        lat_rad = np.radians(cfg.grid.lats)
        lon_rad = np.radians(cfg.grid.lons)
        self.pattern = np.cos(lat_rad)[:, None] * np.cos(lon_rad)[None, :]
        self._field = np.empty_like(self.pattern)
        self.gain_after_onset = self.gain.copy()
        if cfg.regime == "BLOWUP":
            if cfg.blowup_band not in self.band_k:
                raise BandUnresolvedError(f"blow-up band {cfg.blowup_band!r} unresolved "
                                          "on this grid")
            k_band = self.band_k[cfg.blowup_band]
            self.gain_after_onset[k_band] = 1.0 + cfg.growth_rate
            # the planted mode: the band's middle wavenumber, or its last if that is 0
            self.planted_k = k0 = int(k_band[len(k_band) // 2]) or int(k_band[-1])
            self.planted = 2.0 * cfg.seed_amplitude * (
                np.cos(lat_rad)[:, None] * np.cos(k0 * lon_rad)[None, :]
            )

    def _forcing(self, clock_out: datetime, t_out_days: float) -> np.ndarray | float:
        """The seasonal forcing at ``clock_out``: a (lat, lon) field, in a
        buffer the next call overwrites, or 0.0."""
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
        if a == 0.0:
            return 0.0
        year_start = datetime(clock_out.year, 1, 1)
        doy = (clock_out - year_start).total_seconds() / 86400.0 + 1.0
        return np.multiply(self.pattern, a * math.sin(2.0 * math.pi * doy / _YEAR_DAYS),
                           out=self._field)

    def step_index(self, clock: datetime) -> int:
        """Steps from the config's epoch to the end of a step from ``clock``,
        which key its noise; a step ending before the epoch, or beyond a
        datetime's range, raises ValueError."""
        try:
            end = clock + timedelta(seconds=self.step_seconds)
        except OverflowError:
            raise ValueError(f"a step from clock {clock.isoformat()} ends beyond a "
                             "datetime's range") from None
        out_seconds = (end - self.cfg.epoch).total_seconds()
        index = int(round(out_seconds / self.step_seconds))
        if index < 0:
            raise ValueError(f"a step from clock {clock.isoformat()} ends before the "
                             f"config's epoch {self.cfg.epoch.isoformat()}")
        return index

    def step(self, state: np.ndarray, clock: datetime) -> np.ndarray:
        cfg = self.cfg
        index = self.step_index(clock)
        clock_out = clock + timedelta(seconds=self.step_seconds)
        t_out_days = (clock_out - cfg.epoch).total_seconds() / 86400.0

        coeffs = np.fft.rfft(np.asarray(state, dtype=np.float64), axis=-1, out=self._coeffs)
        if cfg.regime == "BLOWUP" and t_out_days >= cfg.onset_day:
            coeffs *= self.gain_after_onset
        else:
            coeffs *= self.gain
        if self.noisy_k.size:
            sig, noise = self.noise_sigma[self.noisy_k], self._noise
            for vi, c in enumerate(coeffs):  # in variable order, each from its own key
                rng = np.random.default_rng([cfg.seed, vi, index])
                for draw in self._draws:  # the real parts, then the imaginary
                    rng.standard_normal(out=draw)
                np.multiply(self._draws[0], sig, out=noise.real)
                np.multiply(self._draws[1], sig, out=noise.imag)
                for a, b, k in self._noisy_runs:
                    c[:, k:k + b - a] += noise[:, a:b]
        nxt = np.fft.irfft(coeffs, n=cfg.grid.n_lon, axis=-1)
        nxt += self._forcing(clock_out, t_out_days)
        if cfg.regime == "BLOWUP":  # planted by the step that crosses the onset
            if t_out_days - self.step_seconds / 86400.0 < cfg.onset_day <= t_out_days:
                nxt += self.planted
        if cfg.regime == "SHARPEN":
            np.clip(nxt, -cfg.cap, cfg.cap, out=nxt)
        # keep blown-up fields finite in float32; diverging models saturate the
        # same way once they leave the physical range
        np.clip(nxt, -_SATURATION, _SATURATION, out=nxt)
        return nxt

    def initial_state(self) -> np.ndarray:
        return np.stack([initial_state(self.cfg, vi) for vi in range(len(self.variables))])


class ExternalProcessAdapter(ModelAdapter):
    """Drives an external model via files in a work directory.

    Per step the harness writes ``state_in.rgf`` (a one-step rollout holding
    all variables) and ``clock.json``, invokes the configured command, and
    reads ``state_out.rgf`` back, which must hold one step of every variable,
    in order, on the run's grid. The manifest (a dict or a JSON file) has keys
    ``command`` (string or argv list), ``workdir``, ``variables``, and optionally
    ``static_variables`` and ``supports_time_shift`` (a bool), and no others.
    """

    def __init__(self, manifest, grid: GridSpec, step_seconds: int = 21600):
        super().__init__(grid, step_seconds)
        if isinstance(manifest, (str, Path)):
            read_json(manifest, self._configure)
        else:
            self._configure(manifest)

    def _configure(self, m) -> None:
        check_keys(m, ("command", "workdir", "variables"), "manifest",
                   optional=("static_variables", "supports_time_shift"))
        cmd = m["command"]
        self.command = shlex.split(cmd) if isinstance(cmd, str) else [
            json_value(a, "str", "command") for a in json_value(cmd, "list", "command")]
        self.workdir = Path(json_value(m["workdir"], "str", "workdir"))
        self.variables = names_of(m["variables"], "variables")
        self.static_variables = names_of(m.get("static_variables", []), "static_variables")
        names_of(self.all_variables, "manifest")  # no name in both lists
        self.supports_time_shift = json_value(m.get("supports_time_shift", False), "bool",
                                              "supports_time_shift")

    def step(self, state: np.ndarray, clock: datetime) -> np.ndarray:
        self.workdir.mkdir(parents=True, exist_ok=True)
        with RolloutWriter(self.workdir / "state_in.rgf", self.grid, self.all_variables, clock,
                           1, self.step_seconds) as snap:
            snap.write(state)
        with open(self.workdir / "clock.json", "w") as f:
            json.dump({"time": clock.isoformat(), "step_seconds": self.step_seconds},
                      f, sort_keys=True)
        subprocess.run(self.command, cwd=self.workdir, check=True)
        with RolloutFile(self.workdir / "state_out.rgf") as out:
            grid = "" if out.grid.same_geometry(self.grid) else " on another grid"
            if (out.n_time, out.variables, grid) != (1, self.all_variables, ""):
                raise ValueError(f"state_out.rgf holds {out.n_time} step(s) of "
                                 f"{list(out.variables)}{grid}, not one of "
                                 f"{list(self.all_variables)} on the run's grid")
            (block,) = walk(out, ())
        return block[0].astype(np.float64)


# ---------------------------------------------------------------------------
# rollout loop and comparisons


class _Frames:
    """:func:`run_rollout`'s in-memory frame sink: one float32 (n_time,
    variable, lat, lon) array, filled from the front."""

    def __init__(self, n_time: int, frame: tuple[int, int, int]):
        self.data = np.empty((n_time, *frame), dtype=np.float32)
        self.attrs: dict = {}
        self.n_written = 0

    def write(self, frame: np.ndarray) -> None:
        self.data[self.n_written] = frame
        self.n_written += 1


def shifted_clock(adapter: ModelAdapter, start: datetime,
                  time_shift_days: float | None) -> datetime:
    """The clock :func:`run_rollout` hands ``adapter`` at its first step:
    ``start``, or ``start`` shifted by ``time_shift_days`` for an adapter that
    supports time shifting. The shift must be finite, within a timedelta's
    range, and keep the clock within a datetime's."""
    if time_shift_days is None:
        return start
    if not adapter.supports_time_shift:
        raise ValueError("adapter does not support time shifting")
    if not abs(time_shift_days) <= timedelta.max.days:  # NaN fails too
        raise ValueError(f"time_shift_days must be finite and at most {timedelta.max.days} "
                         f"in magnitude, got {time_shift_days}")
    try:
        return start + timedelta(days=time_shift_days)
    except OverflowError:
        raise ValueError(f"time_shift_days {time_shift_days} moves the start time "
                         f"{start.isoformat()} beyond a datetime's range") from None


def run_rollout(
    adapter: ModelAdapter,
    init_state: np.ndarray,
    start_time: datetime,
    n_steps: int,
    spec: PerturbationSpec | None = None,
    stats: dict[str, tuple[float, float]] | None = None,
    time_shift_days: float | None = None,
    sink: RolloutWriter | None = None,
) -> RolloutSeries | None:
    """Feed the adapter its own output for ``n_steps`` steps of
    ``adapter.step_seconds``, handing each float32 frame, the initial state
    first, to ``sink`` as soon as it is stepped. This is the one
    time-stepping loop; :func:`rollstab.synth.generate` runs it too.

    ``sink`` is a :class:`~rollstab.gridio.RolloutWriter` declared for this
    run: the adapter's variables, ``start_time``, the adapter's step and
    ``n_steps + 1`` frames. The run adds its ``perturbation`` to the
    writer's ``attrs`` before the first frame, and any ``error`` after the
    last, and returns None. Without a sink the frames fill one float32
    (n_steps + 1, variable, lat, lon) array, returned as a
    :class:`RolloutSeries` with those ``attrs``.

    The perturbation (if any) applies to the initial state only. With
    ``time_shift_days`` set, the clock handed to the adapter is offset by it
    while output timestamps stay physical; an adapter that does not support
    shifting is rejected. If the adapter fails, or returns a state of another
    shape or a non-finite one, the run stops after the completed prefix with
    an ``error`` annotation in ``attrs``. The state handed to ``step`` is a
    float64 array of the run's own, overwritten once the step returns, so an
    adapter must keep no reference to it.
    """
    if n_steps < 0:
        raise ValueError(f"step count must be >= 0, got {n_steps}")
    state = np.array(init_state, dtype=np.float64)  # the run's own, overwritten each step
    frame = (len(adapter.all_variables), adapter.grid.n_lat, adapter.grid.n_lon)
    if state.shape != frame:
        raise ValueError("initial state does not match adapter variables and grid")
    if sink is not None and (sink.variables, sink.start_time, sink.step_seconds,
                             sink.n_time) != (adapter.all_variables, start_time,
                                              adapter.step_seconds, n_steps + 1):
        raise ValueError("the sink's header does not match the run")
    first = shifted_clock(adapter, start_time, time_shift_days)
    out = _Frames(n_steps + 1, frame) if sink is None else sink
    if spec is not None:
        if stats is None:
            raise ValueError("perturbation requires per-variable (mu, sigma) stats")
        state = apply_perturbation(state, spec, stats, adapter.all_variables,
                                   adapter.static_variables)
        out.attrs["perturbation"] = {
            "kind": spec.kind, "k": spec.k, "target": spec.target, "seed": spec.seed,
            "time_shift_days": time_shift_days,
        }

    # each step's result is copied into ``state`` and dropped, and cast into
    # one float32 frame that the sink copies or writes out. So a step frees
    # one state-sized block before the next is allocated; with two alive at
    # once, glibc trimmed and re-faulted the top of its heap on every step
    stored = state.astype(np.float32)
    out.write(stored)
    step = timedelta(seconds=adapter.step_seconds)
    for t in range(n_steps):
        try:
            nxt = adapter.step(state, first + t * step)
            if np.shape(nxt) != frame:
                raise ValueError(f"returned a state of shape {np.shape(nxt)}, not {frame}")
        except Exception as e:  # the completed prefix, annotated
            out.attrs["error"] = f"adapter failed at step {t}: {e}"
            break
        np.copyto(state, nxt, casting="unsafe")
        del nxt
        with np.errstate(over="ignore"):  # beyond float32's range is caught below
            np.copyto(stored, state, casting="unsafe")
        if not all_finite(stored):  # the stored frame, as float32
            out.attrs["error"] = f"adapter produced non-finite fields at step {t}"
            break
        out.write(stored)
    if sink is not None:
        return None
    return RolloutSeries(
        grid=adapter.grid,
        variables=adapter.all_variables,
        start_time=start_time,
        data=out.data[: out.n_written],
        step_seconds=adapter.step_seconds,
        attrs=out.attrs,
    )


def error_trajectory(clean: RolloutSeries, perturbed: RolloutSeries, v: str) -> np.ndarray:
    """Latitude-weighted RMSE between two rollouts per timestep."""
    if not clean.grid.same_geometry(perturbed.grid):
        raise ValueError("rollouts live on different grids")
    if clean.n_time != perturbed.n_time:
        raise ValueError("rollouts have different lengths")
    a = clean.values(v).astype(np.float64)
    b = perturbed.values(v).astype(np.float64)
    w = cell_weights(clean.grid)
    return np.sqrt(((a - b) ** 2 * w).sum(axis=(1, 2)))


def ensemble_spread(rollouts: list[RolloutSeries], v: str) -> tuple[np.ndarray, np.ndarray]:
    """Pixelwise sample std across members: (lat-weighted mean, max) series."""
    if len(rollouts) < 2:
        raise ValueError("ensemble spread requires at least two members")
    first = rollouts[0]
    stack = []
    for r in rollouts:
        if not r.grid.same_geometry(first.grid) or r.n_time != first.n_time:
            raise ValueError("ensemble members must share grid and length")
        stack.append(r.values(v).astype(np.float64))
    std = np.stack(stack).std(axis=0, ddof=1)  # (time, lat, lon)
    w = cell_weights(first.grid)
    return (std * w).sum(axis=(1, 2)), std.max(axis=(1, 2))
