"""Grid geometry, latitude weighting, region masks, and the RGF rollout container.

The RGF1 container is self-describing binary: 4-byte magic ``RGF1``, an
8-byte little-endian header length, a UTF-8 JSON header (dims, variable
names, lat/lon arrays, start time, step length, optional fill value), then
the payload as little-endian IEEE-754 float32 in (time, variable, lat, lon)
row-major order.

:meth:`RolloutFile.blocks` reads the payload into one reused buffer and
hashes each block on one helper thread while the caller works on it: a
block is read-only until the next one is taken, which refills the buffer.
A walk hashes only while the file's digest is unknown, so a file is hashed
once. Every analysis reads through :func:`walk`, which sizes its blocks and
ends it at a fill cell, and a pass that averages over time (by step, UTC
day or calendar month) sums its rows into :class:`Buckets` as it walks.
:class:`RolloutWriter` writes a file frame by frame, header first.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, fields
from datetime import datetime
from typing import Iterator, NamedTuple

import numpy as np

EARTH_RADIUS_KM = 6371.0

_MAGIC = b"RGF1"
_F32_MAX = float(np.finfo(np.float32).max)
# bytes of one block of a walk and a float64 copy of one of its variables, so
# the working set of a pass grows with neither the horizon nor the variables
BLOCK_BYTES = 32 << 20
# float64 bytes a per-block reduction works on at once, so they stay in cache
TILE_BYTES = 1 << 20


class RGFError(Exception):
    """Base error for the RGF container format."""


class FormatError(RGFError):
    """Not an RGF file: bad magic bytes or unparseable header."""


class HeaderMismatchError(RGFError):
    """Header fields disagree with each other or with the payload size."""


class TruncatedPayloadError(RGFError):
    """Payload ends before the header-declared array is complete."""


class UnknownVariableError(ValueError):
    """Requested variable is not present in the series."""


class EmptyRegionError(ValueError):
    """Region selects no grid cells on this grid."""


class PreconditionError(ValueError):
    """A detector precondition is not met (distinct from bad input files)."""


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class GridSpec:
    """Regular lat/lon grid. Longitudes are uniform in [0, 360)."""

    lats: np.ndarray
    lons: np.ndarray
    earth_radius_km: float = EARTH_RADIUS_KM

    def __post_init__(self):
        lats = np.asarray(self.lats, dtype=np.float64)
        lons = np.asarray(self.lons, dtype=np.float64)
        object.__setattr__(self, "lats", lats)
        object.__setattr__(self, "lons", lons)
        if lats.ndim != 1 or lats.size < 1:
            raise ValueError("lats must be a non-empty 1-D array")
        if lons.ndim != 1 or lons.size < 1:
            raise ValueError("lons must be a non-empty 1-D array")
        if not np.all(np.abs(lats) <= 90.0):  # NaN fails too
            raise ValueError("latitudes must lie within [-90, 90] degrees")
        if lats.size > 1:
            d = np.diff(lats)
            if not (np.all(d > 0) or np.all(d < 0)):
                raise ValueError("latitudes must be strictly monotone")
        spacing = 360.0 / lons.size
        if not np.allclose(np.diff(lons), spacing, rtol=0, atol=1e-8):
            raise ValueError("longitudes must be uniformly spaced with spacing*n_lon = 360")
        if not np.all((lons >= 0.0) & (lons < 360.0)):
            raise ValueError("longitudes must lie within [0, 360)")
        if not 0 < self.earth_radius_km < np.inf:
            raise ValueError("earth_radius_km must be positive and finite")

    @property
    def n_lat(self) -> int:
        return self.lats.size

    @property
    def n_lon(self) -> int:
        return self.lons.size

    @classmethod
    def regular(cls, n_lat: int, n_lon: int, earth_radius_km: float = EARTH_RADIUS_KM) -> "GridSpec":
        """Equiangular grid including both poles, longitudes starting at 0."""
        lats = np.linspace(90.0, -90.0, n_lat)
        lons = np.arange(n_lon) * (360.0 / n_lon)
        return cls(lats=lats, lons=lons, earth_radius_km=earth_radius_km)

    @classmethod
    def from_resolution(cls, degrees: float) -> "GridSpec":
        """Grid at the given spacing, e.g. 0.25 -> 721 x 1440, 1.5 -> 121 x 240."""
        n_lat = int(round(180.0 / degrees)) + 1
        n_lon = int(round(360.0 / degrees))
        return cls.regular(n_lat, n_lon)

    def to_dict(self) -> dict:
        return {"lats": self.lats.tolist(), "lons": self.lons.tolist(),
                "earth_radius_km": float(self.earth_radius_km)}

    def same_geometry(self, other: "GridSpec") -> bool:
        return (
            self.n_lat == other.n_lat
            and self.n_lon == other.n_lon
            and np.allclose(self.lats, other.lats)
            and np.allclose(self.lons, other.lons)
        )


def latitude_weights(grid: GridSpec) -> np.ndarray:
    """Per-latitude-row area weights: cos(lat) clipped at zero, summing to 1."""
    w = np.cos(np.radians(grid.lats))
    w[np.abs(grid.lats) >= 90.0] = 0.0  # exact zero at the poles
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0:
        raise ValueError("grid has no positive-area latitude rows")
    return w / total


def cell_weights(grid: GridSpec) -> np.ndarray:
    """(n_lat, n_lon) cell weights summing to 1 over the whole grid."""
    w = latitude_weights(grid) / grid.n_lon
    return np.repeat(w[:, None], grid.n_lon, axis=1)


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class RegionSpec:
    """Lat/lon box. Longitudes may be given in -180..360 and may wrap across 0."""

    name: str
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not self.lat_min < self.lat_max:
            raise ValueError(f"region {self.name!r}: lat_min must be < lat_max")
        if not self.lon_max > self.lon_min:
            raise ValueError(f"region {self.name!r}: lon_max must be > lon_min")


def _norm_lon(lon: float) -> float:
    return float(np.mod(lon, 360.0))


def region_mask(grid: GridSpec, region: RegionSpec) -> tuple[np.ndarray, int]:
    """Boolean (n_lat, n_lon) mask of cells inside the region, plus pixel count.

    Cells are included when lat is in [lat_min, lat_max] and lon falls in the
    region's longitude interval, with wraparound across 0 degrees.
    """
    lat_ok = (grid.lats >= region.lat_min) & (grid.lats <= region.lat_max)
    span = region.lon_max - region.lon_min
    if span >= 360.0:
        lon_ok = np.ones(grid.n_lon, dtype=bool)
    else:
        lo, hi = _norm_lon(region.lon_min), _norm_lon(region.lon_max)
        if lo <= hi:
            lon_ok = (grid.lons >= lo) & (grid.lons <= hi)
        else:
            lon_ok = (grid.lons >= lo) | (grid.lons <= hi)
    mask = lat_ok[:, None] & lon_ok[None, :]
    count = int(mask.sum())
    if count == 0:
        raise EmptyRegionError(f"region {region.name!r} selects no cells on this grid")
    return mask, count


def builtin_regions() -> dict[str, RegionSpec]:
    """Five literature temperature-extreme regions plus the polar caps."""
    regs = [
        RegionSpec("central_europe", 45.0, 55.0, 5.0, 20.0),
        RegionSpec("western_us", 30.0, 50.0, -125.0, -105.0),
        RegionSpec("east_asia", 25.0, 45.0, 110.0, 135.0),
        RegionSpec("se_australia", -40.0, -25.0, 140.0, 155.0),
        RegionSpec("amazon", -15.0, 5.0, -70.0, -45.0),
        RegionSpec("arctic", 66.5, 90.0, 0.0, 360.0),
        RegionSpec("antarctic", -90.0, -66.5, 0.0, 360.0),
    ]
    return {r.name: r for r in regs}


GLOBE = RegionSpec("globe", -90.0, 90.0, 0.0, 360.0)  # the whole grid


def load_regions(path) -> dict[str, RegionSpec]:
    """Load region specs from a JSON file: a non-empty list of objects with
    exactly the RegionSpec field names and numeric bounds, no name given twice. Names
    become output file names, so each must be a plain file-name stem."""
    return read_json(path, _regions)


def _regions(raw) -> dict[str, RegionSpec]:
    if not (isinstance(raw, list) and all(isinstance(entry, dict) for entry in raw)):
        raise ValueError("regions must be a JSON list of objects")
    if not raw:
        raise ValueError("regions must name at least one region")
    names = [f.name for f in fields(RegionSpec)]
    regs = {}
    for entry in raw:
        where = f"region {entry.get('name')!r}"
        check_keys(entry, names, where)
        check_fields(entry, RegionSpec, where)
        r = RegionSpec(entry["name"], *(float(entry[n]) for n in names[1:]))
        if r.name in ("", ".", "..") or "/" in r.name or "\\" in r.name:
            raise ValueError(f"{where}: name must be a plain file-name stem, with no "
                             "'/' or '\\' and not '.' or '..'")
        if r.name in regs:
            raise ValueError(f"region {r.name!r} is given twice")
        regs[r.name] = r
    return regs


def read_json(path, parse=lambda doc: doc):
    """The JSON document in ``path``, passed through ``parse``. A ValueError
    from either, such as a missing key, names the file."""
    with open(path) as f:
        try:
            return parse(json.load(f))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def check_keys(d, names, where: str, optional=()) -> None:
    """Raise ValueError unless ``d`` is an object with the keys ``names``,
    plus any of ``optional``: the strict read of a result JSON."""
    if not isinstance(d, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(d).__name__}")
    for problem, keys in (("missing", [k for k in names if k not in d]),
                          ("unknown", [k for k in d if k not in names and k not in optional])):
        if keys:
            raise ValueError(f"{where}: {problem} key {keys[0]!r}")


_JSON_TYPES = {"float": (int, float), "int": int, "str": str, "bool": bool, "list": list}


def json_value(value, kind: str, where: str):
    """``value`` if JSON gave it as a ``kind`` (a key of ``_JSON_TYPES``; true
    and false are bools only), else ValueError naming ``where``."""
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"{where}: expected {kind}, got {value!r}")
    return value


def names_of(value, where: str) -> tuple[str, ...]:
    """``value`` as a tuple of names; ValueError unless it is a list or tuple
    of strings, none of them empty and none given twice."""
    if not (isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{where} must be a list of names")
    if "" in value:
        raise ValueError(f"{where}: a name is empty")
    repeated = [v for i, v in enumerate(value) if v in value[:i]]
    if repeated:
        raise ValueError(f"{where}: variable {repeated[0]!r} is named more than once")
    return tuple(value)


def check_fields(d: dict, cls, where: str = "") -> None:
    """ValueError naming the key unless each key of ``d`` that is a field of
    dataclass ``cls`` typed ``float``, ``int``, ``str`` or ``bool`` (or ``| None``) holds one."""
    for f in fields(cls):  # annotations are strings: "float | None", ...
        kind, _, optional = f.type.partition(" | ")
        if f.name in d and kind in ("float", "int", "str", "bool") and not (
                optional and d[f.name] is None):
            json_value(d[f.name], kind, f"{where}: {f.name}" if where else f.name)


def numbers_of(value, where: str) -> np.ndarray:
    """``value`` as a float64 array; ValueError unless it is a JSON list of numbers."""
    return np.array([json_value(x, "float", where) for x in json_value(value, "list", where)],
                    dtype=np.float64)


def check_utc(t: datetime, where: str) -> datetime:
    """``t`` unless it carries a UTC offset (every rollstab time is UTC), else ValueError."""
    if t.tzinfo is not None:
        raise ValueError(f"{where}: {t.isoformat()} carries a UTC offset; "
                         "give the UTC time without one")
    return t


def utc_time(value, where: str) -> datetime:
    """``value`` as a datetime if it is an ISO-8601 string with no UTC offset,
    else ValueError naming ``where``."""
    try:
        t = datetime.fromisoformat(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: expected an ISO-8601 string, got {value!r}") from None
    return check_utc(t, where)


# ---------------------------------------------------------------------------
# rollout series


class _Rollout:
    """The time axis and variable lookup shared by an in-memory series and an
    open RGF file; both provide ``n_time``, ``start_time``, ``step_seconds``
    and ``variables``."""

    @property
    def horizon_days(self) -> float:
        """Days elapsed from the first to the last timestamp."""
        return (self.n_time - 1) * self.step_seconds / 86400.0

    @property
    def timestamps(self) -> np.ndarray:
        """datetime64[s] timestamps, start_time + i * step."""
        t0 = np.datetime64(self.start_time, "s")
        return t0 + np.arange(self.n_time) * np.timedelta64(self.step_seconds, "s")

    def index_of(self, v: str) -> int:
        try:
            return self.variables.index(v)
        except ValueError:
            raise UnknownVariableError(
                f"unknown variable {v!r}; available: {', '.join(self.variables)}"
            ) from None


def _check_layout(shape, grid, variables, start_time, step_seconds, fill_value,
                  attrs) -> None:
    """The rules a series' header obeys, whatever its values."""
    check_utc(start_time, "start_time")
    if len(shape) != 4:
        raise ValueError("data must be 4-D (time, variable, lat, lon)")
    if shape[0] < 1:
        raise ValueError("series must contain at least one timestep")
    if shape[1] != len(variables):
        raise ValueError("data variable axis does not match variable names")
    names_of(variables, "variables")
    if tuple(shape[2:]) != (grid.n_lat, grid.n_lon):
        raise ValueError("spatial slices do not match grid dimensions")
    if step_seconds <= 0:
        raise ValueError("step_seconds must be positive")
    if fill_value is not None and not abs(fill_value) <= _F32_MAX:
        raise ValueError(f"fill_value {fill_value} is not a finite float32")
    if not isinstance(attrs, dict):
        raise ValueError("attrs must be a dict (a JSON object in RGF headers)")


def all_finite(x: np.ndarray) -> bool:
    """Whether every value of ``x`` is finite. NaN propagates through min and
    max and an infinity lands at one end, so this allocates no boolean copy."""
    return x.size == 0 or (math.isfinite(x.min()) and math.isfinite(x.max()))


def _check_values(data: np.ndarray, fill_value) -> None:
    if fill_value is None and not all_finite(data):
        raise ValueError("non-finite values present but no fill value declared")


@dataclass
class RolloutSeries(_Rollout):
    """A (time, variable, lat, lon) gridded field sequence.

    ``data`` is float32. NaN is only allowed when ``fill_value`` is set; cells
    equal to the fill value are read back as NaN and rejected by detectors.
    ``sha256`` is the digest of the RGF file the series was read from (None
    for a series made in memory); its reader checked the values block by
    block, so they are not scanned again here.
    """

    grid: GridSpec
    variables: tuple[str, ...]
    start_time: datetime
    data: np.ndarray
    step_seconds: int = 21600
    fill_value: float | None = None
    attrs: dict = field(default_factory=dict)
    sha256: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.variables = tuple(self.variables)
        self.data = np.asarray(self.data, dtype=np.float32)
        _check_layout(self.data.shape, self.grid, self.variables, self.start_time,
                      self.step_seconds, self.fill_value, self.attrs)
        if self.sha256 is None:
            _check_values(self.data, self.fill_value)

    @property
    def n_time(self) -> int:
        return self.data.shape[0]

    def values(self, v: str) -> np.ndarray:
        """(time, lat, lon) float32 view of one variable."""
        return self.data[:, self.index_of(v)]

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """(time, variable, lat, lon) views of at most ``rows`` steps each,
        the same walk :meth:`RolloutFile.blocks` makes over a file."""
        for start in range(0, self.n_time, rows):
            yield self.data[start : start + rows]


class IncompleteFieldError(ValueError):
    """A variable holds fill/NaN cells where detectors need complete fields."""


def block_rows(source: RolloutSeries | RolloutFile) -> int:
    """Time steps per block of a walk over ``source``'s whole frames: the
    float32 block and room for a float64 copy of one of its variables (which
    no reduction makes: they work in :func:`tile_rows` tiles) fit in
    BLOCK_BYTES together, whatever the number of variables."""
    cells = source.grid.n_lat * source.grid.n_lon
    return max(1, BLOCK_BYTES // (cells * (4 * len(source.variables) + 8)))


def tile_rows(values: int) -> int:
    """Rows of ``values`` float64 each in a tile: those in TILE_BYTES, or one."""
    return max(1, TILE_BYTES // (values * 8))


def named(source: RolloutSeries | RolloutFile, message: str) -> str:
    """``message`` prefixed with ``source``'s path if it is a file."""
    return f"{source.path}: {message}" if isinstance(source, RolloutFile) else message


def walk(source: RolloutSeries | RolloutFile, variables) -> Iterator[np.ndarray]:
    """``source.blocks(block_rows(source))``, as every analysis reads its input.
    It stops with :class:`IncompleteFieldError` naming the file and the first of
    ``variables`` with a fill cell, at the first block holding one; without a
    fill value the reader has checked every cell. However it ends, so does ``source``'s."""
    idx = [(v, source.index_of(v)) for v in variables]
    with closing(source.blocks(block_rows(source))) as blocks:
        for block in blocks:
            if source.fill_value is not None:
                for v, i in idx:
                    if not all_finite(block[:, i]):
                        raise IncompleteFieldError(named(
                            source, f"variable {v!r} contains fill/NaN values; "
                                    "detectors require complete fields"))
            yield block


class Extremes(NamedTuple):
    """Per-timestep spatial minimum and maximum series."""

    min: np.ndarray
    max: np.ndarray


# ---------------------------------------------------------------------------
# time buckets and daily series


@dataclass(frozen=True)
class DailySeries:
    """A statistic at daily resolution: one value, or one row, per date."""

    dates: np.ndarray  # datetime64[D]
    values: np.ndarray  # (n_days,) or (n_days, ...)

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype="datetime64[D]")
        values = np.asarray(self.values, dtype=np.float64)
        if dates.ndim != 1 or values.shape[:1] != dates.shape:
            raise ValueError("dates must be 1-D and match the first axis of values")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.dates.size


class Buckets:
    """Float64 sums of rows of ``shape``, one per distinct key, and their means.

    ``keys`` gives the key of each row (a step, a UTC day, a calendar month)
    in the order the rows come to :meth:`add`, which adds each row into its
    key's sum on its own, in that order: the order of ``np.add.at`` and of a
    whole-array ``mean(axis=0)`` over a key's rows, so the means have their
    bits. ``self.keys`` holds the distinct keys, sorted, one per sum.
    """

    def __init__(self, keys, shape):
        self.keys, self._at = np.unique(keys, return_inverse=True)
        self.sums = np.zeros((self.keys.size, *shape))
        self._n = 0

    def add(self, rows: np.ndarray) -> None:
        """Add each of the next ``len(rows)`` rows into its key's sum."""
        for k, row in zip(self._at[self._n:self._n + len(rows)], rows):
            self.sums[k] += row
        self._n += len(rows)

    def means(self) -> np.ndarray:
        """The sums, divided in place by the number of rows each key has."""
        self.sums /= np.bincount(self._at).reshape(-1, *(1,) * (self.sums.ndim - 1))
        return self.sums


def folded_doy(dates: np.ndarray) -> np.ndarray:
    """Day of year in 1..365; Feb 29 folds into the Feb 28 bucket."""
    d = np.asarray(dates, dtype="datetime64[D]")
    doy = (d - d.astype("datetime64[Y]")).astype(int) + 1
    years = d.astype("datetime64[Y]").astype(int) + 1970
    leap = ((years % 4 == 0) & (years % 100 != 0)) | (years % 400 == 0)
    return doy - (leap & (doy >= 60)).astype(int)


# ---------------------------------------------------------------------------
# RGF container


class RolloutWriter:
    """An RGF1 file written frame by frame: the one writer of every RGF file
    rollstab makes.

    The header declares ``n_time`` frames and holds ``attrs`` as they stand
    when the first frame comes, so a caller may still add to them until then.
    The file is opened, and the header written, with that first frame; each
    :meth:`write` then appends float32 frames, cells that are not finite
    replaced by ``fill_value`` (without one they are an error, raised before
    anything is written). :meth:`close` checks the header against what was
    written: if fewer frames came than declared, or ``attrs`` changed since,
    the file is rewritten once through a temporary sibling with the header
    as it stands. More frames than declared is an error. Used as a context
    manager it closes on success and removes the file on an exception, so a
    run that fails leaves no file.
    """

    def __init__(self, path, grid: GridSpec, variables, start_time: datetime, n_time: int,
                 step_seconds: int = 21600, fill_value: float | None = None,
                 attrs: dict | None = None):
        self.path, self.grid, self.variables = path, grid, tuple(variables)
        self.start_time, self.n_time, self.step_seconds = start_time, n_time, step_seconds
        self.fill_value = fill_value
        self.attrs = {} if attrs is None else attrs
        self.n_written = 0
        self._f = None

    def _head(self, n_time: int) -> bytes:
        """Magic, length and JSON header of a file holding ``n_time`` frames."""
        shape = (n_time, len(self.variables), self.grid.n_lat, self.grid.n_lon)
        _check_layout(shape, self.grid, self.variables, self.start_time, self.step_seconds,
                      self.fill_value, self.attrs)
        header = {
            "n_time": int(n_time),
            "n_var": len(self.variables),
            "n_lat": int(self.grid.n_lat),
            "n_lon": int(self.grid.n_lon),
            "variables": list(self.variables),
            **self.grid.to_dict(),
            "start_time": self.start_time.isoformat(),
            "step_seconds": int(self.step_seconds),
            "fill_value": None if self.fill_value is None else float(self.fill_value),
            "attrs": self.attrs,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        return _MAGIC + struct.pack("<Q", len(blob)) + blob

    def write(self, frames: np.ndarray) -> None:
        """Append one (variable, lat, lon) frame or a (time, variable, lat, lon)
        block. The block is written a frame at a time, so a fill substitution
        or a contiguous copy never spans more than one frame."""
        frame = (len(self.variables), self.grid.n_lat, self.grid.n_lon)
        frames = np.asarray(frames, dtype=np.float32)
        if frames.shape == frame:
            frames = frames[None]
        if frames.shape[1:] != frame:
            raise ValueError(f"{self.path}: frames of shape {frames.shape[1:]} do not match "
                             f"the header's {frame}")
        if self.n_written + frames.shape[0] > self.n_time:
            raise ValueError(f"{self.path}: more than the {self.n_time} frames declared")
        if self.fill_value is None:
            _check_values(frames, None)
        if self._f is None:
            self._written_head = self._head(self.n_time)
            self._f = open(self.path, "wb")
            self._f.write(self._written_head)
        for step in frames:
            if self.fill_value is not None:
                step = np.where(np.isfinite(step), step, np.float32(self.fill_value))
            self._f.write(np.ascontiguousarray(step, dtype="<f4"))
        self.n_written += frames.shape[0]

    def close(self) -> None:
        """Finish the file, rewriting it if its header no longer holds."""
        if self._f is None:
            raise ValueError(f"{self.path}: no frame was written")
        self._f.close()
        head = self._head(self.n_written)
        if head != self._written_head:
            tmp = f"{self.path}.tmp"
            with open(self.path, "rb") as src, open(tmp, "wb") as dst:
                src.seek(len(self._written_head))
                dst.write(head)
                shutil.copyfileobj(src, dst, 1 << 20)
            os.replace(tmp, self.path)

    def __enter__(self) -> "RolloutWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        elif self._f is not None:  # a failed run leaves no file
            self._f.close()
            os.remove(self.path)


def write_rollout(r: RolloutSeries, path) -> None:
    """Write the series as an RGF1 file through :class:`RolloutWriter`, which
    never copies the payload whole. Round-trip is bit-exact."""
    with RolloutWriter(path, r.grid, r.variables, r.start_time, r.n_time, r.step_seconds,
                       r.fill_value, r.attrs) as w:
        w.write(r.data)


class RolloutFile(_Rollout):
    """An RGF1 file opened for reading in time blocks.

    Opening parses and validates the header and checks the declared payload
    size against the file size before anything is allocated; the payload is
    read only as :meth:`blocks` is walked. Every malformed file raises an
    :class:`RGFError` naming the path. Use it as a context manager.
    """

    def __init__(self, path):
        self.path = path
        self._sha256 = None
        self._f = open(path, "rb")
        try:
            self._open()
        except BaseException:
            self._f.close()
            raise

    def _open(self) -> None:
        path, f = self.path, self._f
        size = os.fstat(f.fileno()).st_size
        prefix = f.read(12)
        if prefix[:4] != _MAGIC:
            raise FormatError(f"{path}: bad magic bytes, not an RGF1 file")
        if len(prefix) < 12:
            raise FormatError(f"{path}: file too short for an RGF1 header")
        (hlen,) = struct.unpack("<Q", prefix[4:12])
        if size < 12 + hlen:
            raise FormatError(f"{path}: declared header extends past end of file")
        blob = f.read(hlen)
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as e:  # bad UTF-8 or JSON, or an integer too long to parse
            raise FormatError(f"{path}: header is not valid UTF-8 JSON: {e}") from None
        try:
            sizes = ("n_time", "n_var", "n_lat", "n_lon", "step_seconds")
            check_keys(header, (*sizes, "variables", "lats", "lons", "start_time"), "header",
                       optional=("earth_radius_km", "fill_value", "attrs"))
            n_time, n_var, n_lat, n_lon, step_seconds = (json_value(header[k], "int", k)
                                                         for k in sizes)
            variables = names_of(header["variables"], "variables")
            lats, lons = (numbers_of(header[k], k) for k in ("lats", "lons"))
            earth_radius_km = float(json_value(header.get("earth_radius_km", EARTH_RADIUS_KM),
                                               "float", "earth_radius_km"))
            start_time = utc_time(header["start_time"], "start_time")
            fill_value = header.get("fill_value")
            if fill_value is not None:
                fill_value = float(json_value(fill_value, "float", "fill_value"))
        except (ValueError, OverflowError) as e:
            raise FormatError(f"{path}: missing or malformed header field: {e}") from None
        if len(variables) != n_var or lats.size != n_lat or lons.size != n_lon:
            raise HeaderMismatchError(f"{path}: header dims disagree with name/axis arrays")
        self._expected = n_time * n_var * n_lat * n_lon * 4
        held = size - 12 - hlen
        if held < self._expected:
            raise TruncatedPayloadError(
                f"{path}: payload holds {held} bytes, header declares {self._expected}"
            )
        if held > self._expected:
            raise HeaderMismatchError(
                f"{path}: payload holds {held} bytes, header declares only {self._expected}"
            )
        attrs = header.get("attrs", {})
        try:
            grid = GridSpec(lats=lats, lons=lons, earth_radius_km=earth_radius_km)
            _check_layout((n_time, n_var, n_lat, n_lon), grid, variables, start_time,
                          step_seconds, fill_value, attrs)
        except ValueError as e:
            raise FormatError(f"{path}: invalid header or payload: {e}") from None
        self.grid, self.variables, self.start_time = grid, variables, start_time
        self.n_time, self.step_seconds = n_time, step_seconds
        self.fill_value, self.attrs = fill_value, attrs
        self._head = hashlib.sha256(prefix + blob)
        self._payload = 12 + hlen

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """Yield the payload as float32 (time, variable, lat, lon) blocks of at
        most ``rows`` steps, each read with one ``readinto`` into the same
        buffer, so a block is valid only until the next one is taken.

        Cells equal to the fill value come back as NaN; without a fill value
        a non-finite cell is an error. While :attr:`sha256` is unknown, the
        raw bytes also feed a SHA-256 of the whole file, header included,
        which a complete walk leaves there; a later walk starts no thread.
        Each block is hashed on the walk's one helper thread while it is
        checked and used, so it is read-only until the next one is taken; the
        walk waits for the hash before it writes NaN into the block and before
        it reads on. A walk left part way holds its thread until closed or
        collected, and leaves the digest unknown.
        """
        hashed = self._sha256 is None
        frame = (len(self.variables), self.grid.n_lat, self.grid.n_lon)
        buf = np.empty((min(rows, self.n_time), *frame), dtype="<f4")
        digest = self._head.copy()
        self._f.seek(self._payload)
        with ThreadPoolExecutor(max_workers=1) as hasher:  # its thread starts at a submit
            for start in range(0, self.n_time, buf.shape[0]):
                block = buf[: self.n_time - start]
                held = self._f.readinto(block)  # buffered: loops until full or end of file
                if held != block.nbytes:
                    held += start * buf[0].nbytes
                    raise TruncatedPayloadError(
                        f"{self.path}: payload holds {held} bytes, header declares "
                        f"{self._expected}"
                    )
                # hashlib releases the GIL
                wait = hasher.submit(digest.update, block).result if hashed else lambda: None
                if self.fill_value is None:
                    try:
                        _check_values(block, None)
                    except ValueError as e:
                        raise FormatError(
                            f"{self.path}: invalid header or payload: {e}") from None
                else:
                    holes = block == np.float32(self.fill_value)
                    wait()
                    block[holes] = np.nan
                yield block
                wait()  # the buffer is free again
        if hashed:
            self._sha256 = digest.hexdigest()

    @property
    def sha256(self) -> str:
        """SHA-256 of the file, known once :meth:`blocks` has been walked to the end."""
        if self._sha256 is None:
            raise RuntimeError(f"{self.path}: digest is known only after a full pass")
        return self._sha256

    def close(self) -> None:
        self._f.close()

    def __enter__(self) -> "RolloutFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_rollout(path) -> RolloutSeries:
    """Read an RGF1 file written by :func:`write_rollout`.

    This is :class:`RolloutFile` walked in one block that spans the file:
    the payload is read straight into the array that becomes ``data``, so
    the reader holds one copy of it, and the file's digest is kept in
    ``sha256``.
    """
    with RolloutFile(path) as f:
        (data,) = f.blocks(f.n_time)
        return RolloutSeries(grid=f.grid, variables=f.variables, start_time=f.start_time,
                             data=data, step_seconds=f.step_seconds,
                             fill_value=f.fill_value, attrs=f.attrs, sha256=f.sha256)


# ---------------------------------------------------------------------------
# 1-D series CSV

_NUMBER = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def read_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a series CSV as :func:`write_series_csv` writes it: lines starting
    with '#' and blank lines are skipped, the first other line is the header
    ``timestamp,value``, and every row after it holds exactly a UTC
    ISO-8601 time with no offset and a finite decimal number. Anything else
    raises ValueError naming the file and the line."""
    times, values = [], []
    header = False
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if not header:
                    if line != "timestamp,value":
                        raise ValueError(f"expected the header 'timestamp,value', got {line!r}")
                    header = True
                    continue
                cells = line.split(",")
                if len(cells) != 2:
                    raise ValueError(f"expected 2 cells (timestamp,value), got {len(cells)}")
                t = utc_time(cells[0], "timestamp")
                v = float(cells[1]) if _NUMBER.fullmatch(cells[1]) else math.inf
                if not math.isfinite(v):
                    raise ValueError(f"value: expected a finite number, got {cells[1]!r}")
            except ValueError as e:
                raise ValueError(f"{path}, line {n}: {e}") from None
            times.append(np.datetime64(t, "s"))
            values.append(v)
    if not times:
        raise ValueError(f"{path}: no data rows")
    return np.array(times, dtype="datetime64[s]"), np.array(values, dtype=np.float64)


def write_series_csv(path, timestamps, values, comments: list[str] | None = None) -> None:
    with open(path, "w") as f:
        for c in comments or []:
            f.write(f"# {c}\n")
        f.write("timestamp,value\n")
        for t, v in zip(np.asarray(timestamps, dtype="datetime64[s]"), values):
            f.write(f"{t},{float(v)!r}\n")
