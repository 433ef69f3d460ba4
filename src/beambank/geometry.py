"""Microphone-array geometries, subsets, and steering vectors.

Conventions (device frame): x forward, y left, z up; azimuth measured from
+x counter-clockwise, elevation from the horizontal plane. A steering
vector entry is the channel response from the source to one microphone,
``exp(-j*omega*tau_m)`` with ``tau_m`` the propagation delay relative to
the array reference point (far field) or the absolute delay scaled by the
nearest-mic distance (near field). A microphone closer to the source
therefore carries a phase lead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _container
from .constants import BUILTIN_GEOMETRY_NAMES, MAX_DIRECTIONS, SOUND_SPEED
from .errors import (
    DataError,
    DegenerateSourceError,
    GridMismatchError,
    InvalidSubsetError,
    raise_first,
)

MIN_MIC_SEPARATION = 1e-6
# A bank's design and verify form (K+1, F, M, M) complex128 products of
# covariances or eigenvectors with the weights, 8193 * 64**2 * 16 B = 537 MB
# per bank direction at 64 mics and MAX_N_FFT (16384); checked before any
# (M, M) array is built.
MAX_MICS = 64
MIN_SOURCE_DISTANCE = 0.01

ATF_MAGIC = "beambank-atf-v1"


@dataclass(frozen=True)
class ArrayGeometry:
    """An ordered set of microphone positions in the device frame (meters)."""

    id: str
    mics: np.ndarray

    def __post_init__(self):
        mics = np.asarray(self.mics, dtype=float)
        if mics.ndim != 2 or mics.shape[1] != 3 or mics.shape[0] < 1:
            raise DataError(f"geometry '{self.id}': mics must be an (M, 3) array")
        if mics.shape[0] > MAX_MICS:
            raise DataError(f"geometry '{self.id}': {mics.shape[0]} mics, at most {MAX_MICS}")
        if not np.all(np.isfinite(mics)):
            raise DataError(f"geometry '{self.id}': non-finite mic position")
        diffs = mics[:, None, :] - mics[None, :, :]
        dist = np.linalg.norm(diffs, axis=-1)
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= MIN_MIC_SEPARATION:
            raise DataError(f"geometry '{self.id}': two microphones coincide")
        mics.setflags(write=False)
        object.__setattr__(self, "mics", mics)

    @property
    def num_mics(self) -> int:
        return self.mics.shape[0]


@dataclass(frozen=True)
class DirectionSpec:
    """A steering direction: far field when ``range_m`` is None, else a point
    at that distance along the direction."""

    azimuth: float
    elevation: float = 0.0
    range_m: float | None = None

    def __post_init__(self):
        az = float(self.azimuth)
        if not math.isfinite(az):
            raise DataError(f"azimuth {az} must be finite")
        # wrap into (-pi, pi]
        az = az - 2.0 * math.pi * math.floor((az + math.pi) / (2.0 * math.pi))
        if az <= -math.pi:
            az += 2.0 * math.pi
        object.__setattr__(self, "azimuth", az)
        el = float(self.elevation)
        if not -math.pi / 2 <= el <= math.pi / 2:
            raise DataError(f"elevation {el} outside [-pi/2, pi/2]")
        if self.range_m is not None and not MIN_SOURCE_DISTANCE < self.range_m < math.inf:
            raise DataError(f"range {self.range_m} m must be finite and > {MIN_SOURCE_DISTANCE} m")

    @property
    def is_near_field(self) -> bool:
        return self.range_m is not None

    def unit_vector(self) -> np.ndarray:
        """Unit vector pointing from the array origin toward the source."""
        ce = math.cos(self.elevation)
        return np.array(
            [ce * math.cos(self.azimuth), ce * math.sin(self.azimuth), math.sin(self.elevation)]
        )

    def point(self) -> np.ndarray:
        if self.range_m is None:
            raise DataError("far-field direction has no source point")
        return self.range_m * self.unit_vector()

    def label(self) -> str:
        if self.is_near_field:
            return "mouth"
        return f"az{round(math.degrees(self.azimuth)) % 360}"


@dataclass(frozen=True)
class SteeringVector:
    """Per-microphone complex channel response at one frequency."""

    frequency: float
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 1 or entries.shape[0] < 1:
            raise DataError("steering vector must be a 1-D complex array")
        if not np.any(entries):
            raise DataError("steering vector is identically zero")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def num_mics(self) -> int:
        return self.entries.shape[0]


def select_subset(geometry: ArrayGeometry, indices) -> ArrayGeometry:
    """Derive a sub-array by keeping the given channels, in the given order."""
    idx = list(indices)
    if len(idx) != len(set(idx)):
        raise InvalidSubsetError(f"duplicate channel index in {idx}")
    for i in idx:
        if not 0 <= i < geometry.num_mics:
            raise InvalidSubsetError(
                f"channel index {i} out of range for {geometry.num_mics}-mic geometry"
            )
    suffix = "_sub" + "-".join(str(i) for i in idx)
    return ArrayGeometry(id=geometry.id + suffix, mics=geometry.mics[idx].copy())


def far_field_atf(
    geometry: ArrayGeometry,
    direction: DirectionSpec,
    frequency: float,
    sound_speed: float = SOUND_SPEED,
) -> SteeringVector:
    """Free-field plane-wave steering vector; all entries have magnitude 1."""
    if direction.is_near_field:
        raise DataError("far_field_atf requires a direction without a range")
    return steering_vector(geometry, direction, frequency, sound_speed)


def steering_vector(
    geometry: ArrayGeometry,
    direction: DirectionSpec,
    frequency: float,
    sound_speed: float = SOUND_SPEED,
) -> SteeringVector:
    """Far- or near-field steering vector depending on the direction spec."""
    entries = steering_matrix(geometry, direction, [frequency], sound_speed)[0]
    return SteeringVector(frequency=float(frequency), entries=entries)


def steering_matrix(
    geometry: ArrayGeometry,
    direction: DirectionSpec,
    frequencies,
    sound_speed: float = SOUND_SPEED,
) -> np.ndarray:
    """The (F, M) steering entries of one direction on a frequency grid; row
    i equals steering_vector(..., frequencies[i], ...).entries bit for bit."""
    if direction.is_near_field:
        return _steering_rows(geometry, frequencies, sound_speed, point=direction.point())
    return _steering_rows(geometry, frequencies, sound_speed, unit=direction.unit_vector())


def _steering_rows(geometry, frequencies, sound_speed, unit=None, point=None) -> np.ndarray:
    """exp(-j omega tau) per frequency and mic: plane-wave delays toward
    ``unit``, or absolute delays and 1/r amplitudes from a source ``point``.
    ``unit`` may be one (3,) vector, giving (F, M) rows, or an (..., 3)
    stack of them, giving (F, ..., M); a row of a stack equals the row of
    its vector alone bit for bit. Every entry is an element-wise function
    of its own inputs only."""
    freqs = np.asarray(frequencies, dtype=float).reshape(-1, 1)
    if np.any(freqs < 0):
        raise DataError("frequency must be non-negative")
    if point is None:
        # arrival delay relative to the origin; mics closer to the source lead
        lead = np.matmul(geometry.mics, unit[..., None])[..., 0]
        freqs = freqs.reshape((-1,) + (1,) * lead.ndim)
        return np.exp(-2j * np.pi * freqs * (-lead / sound_speed))
    p = np.asarray(point, dtype=float)
    d = np.linalg.norm(geometry.mics - p[None, :], axis=1)
    if d.min() <= MIN_SOURCE_DISTANCE:
        raise DegenerateSourceError(
            f"source point {p.tolist()} is within {MIN_SOURCE_DISTANCE} m of a microphone"
        )
    return (d.min() / d) * np.exp(-2j * np.pi * freqs * d / sound_speed)


@dataclass
class AtfSet:
    """Steering vectors for a geometry sampled on a (direction, frequency) grid.

    ``vectors`` has shape (directions, frequencies, M), every entry finite.
    """

    geometry_id: str
    directions: list[DirectionSpec]
    frequencies: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.vectors = np.asarray(self.vectors, dtype=complex)
        freqs = self.frequencies
        if freqs.ndim != 1 or not np.isfinite(freqs).all() or np.any(np.diff(freqs) <= 0):
            raise DataError("ATF frequency grid must be finite and strictly increasing")
        expect = (len(self.directions), freqs.shape[0])
        if self.vectors.ndim != 3 or self.vectors.shape[:2] != expect:
            raise DataError(
                f"ATF array shape {self.vectors.shape} does not match "
                f"{expect[0]} directions x {expect[1]} frequencies"
            )

        def at(i):  # the first bad (direction, bin), direction-major
            di, fi = divmod(i, freqs.shape[0])
            return (f"non-finite steering entry at {self.directions[di].label()}, "
                    f"bin {fi} ({freqs[fi]:g} Hz)")

        raise_first(np.isfinite(self.vectors).all(axis=2).ravel(), DataError, at)

    @property
    def num_mics(self) -> int:
        return self.vectors.shape[2]

    def frequency_index(self, frequency: float) -> int:
        return int(self.frequency_indices([frequency])[0])

    def frequency_indices(self, frequencies) -> np.ndarray:
        """Grid index of each frequency (first grid point within 1e-6 Hz)."""
        freqs = np.asarray(frequencies, dtype=float)
        hits = np.abs(self.frequencies[None, :] - freqs[:, None]) <= 1e-6
        raise_first(hits.any(axis=1), GridMismatchError, lambda i: (
            f"frequency {freqs[i]} Hz not on the ATF grid; interpolation unsupported"
        ))
        return hits.argmax(axis=1)

    def index_of(self, direction: DirectionSpec) -> int:
        for i, d in enumerate(self.directions):
            if (
                abs(d.azimuth - direction.azimuth) <= 1e-9
                and abs(d.elevation - direction.elevation) <= 1e-9
                and (d.range_m is None) == (direction.range_m is None)
            ):
                return i
        raise GridMismatchError(f"direction {direction.label()} not in the ATF set")

    def steering(self, direction_index: int, frequency: float) -> SteeringVector:
        fi = self.frequency_index(frequency)
        return SteeringVector(frequency=frequency, entries=self.vectors[direction_index, fi].copy())


def freefield_atfs(
    geometry: ArrayGeometry,
    directions: list[DirectionSpec],
    frequencies,
    sound_speed: float = SOUND_SPEED,
) -> AtfSet:
    """Build an AtfSet from the analytic free-field model."""
    freqs = np.asarray(frequencies, dtype=float)
    vecs = np.array(
        [steering_matrix(geometry, d, freqs, sound_speed) for d in directions], dtype=complex
    ).reshape(len(directions), freqs.shape[0], geometry.num_mics)
    return AtfSet(
        geometry_id=geometry.id, directions=list(directions), frequencies=freqs, vectors=vecs
    )


def _direction_to_dict(d: DirectionSpec) -> dict:
    out = {"azimuth": d.azimuth, "elevation": d.elevation}
    if d.range_m is not None:
        out["range_m"] = d.range_m
    return out


def _direction_from_dict(d: dict) -> DirectionSpec:
    return DirectionSpec(
        azimuth=float(d["azimuth"]),
        elevation=float(d.get("elevation", 0.0)),
        range_m=None if d.get("range_m") is None else float(d["range_m"]),
    )


def _directions_from_header(items) -> list[DirectionSpec]:
    """The directions listed in a bank or ATF header, counted against
    MAX_DIRECTIONS before any is built."""
    if len(items) > MAX_DIRECTIONS:
        raise ValueError(f"{len(items)} directions, at most {MAX_DIRECTIONS}")
    return [_direction_from_dict(d) for d in items]


def export_atfs(atfs: AtfSet, path) -> None:
    """Write an AtfSet: one JSON header line, then little-endian complex128
    payload (direction-major, then frequency, then channel; re/im interleaved)."""
    header = {
        "magic": ATF_MAGIC,
        "id": atfs.geometry_id,
        "num_mics": atfs.num_mics,
        "frequencies": atfs.frequencies.tolist(),
        "directions": [_direction_to_dict(d) for d in atfs.directions],
    }
    _container.write(path, header, atfs.vectors, "<c16")


def import_atfs(path) -> AtfSet:
    """Read an AtfSet written by :func:`export_atfs`; bit-exact round trip.
    A malformed file, or one whose grid or entries :class:`AtfSet` refuses
    (a non-finite one among them), raises ParseError."""
    with _container.reading(path, ATF_MAGIC, "ATF file") as (header, payload):
        directions = _directions_from_header(header["directions"])
        freqs = np.asarray(header["frequencies"], dtype=float)
        shape = (len(directions), len(freqs), int(header["num_mics"]))
        return AtfSet(geometry_id=str(header["id"]), directions=directions,
                      frequencies=freqs, vectors=payload("<c16", shape))


def save_geometry(geometry: ArrayGeometry, path) -> None:
    """Write a geometry file (YAML: {id, mics}) through a temporary file and
    a rename."""
    import yaml

    doc = {"id": geometry.id, "mics": [[float(v) for v in row] for row in geometry.mics]}
    _container.replace(path, [yaml.safe_dump(doc, sort_keys=False).encode("utf-8")])


def load_geometry(path) -> ArrayGeometry:
    """Read a geometry file written by :func:`save_geometry` (YAML or JSON)."""
    import yaml

    with open(path, "r", encoding="utf-8") as fh, _container.parsing(path, "geometry file"):
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(str(exc)) from exc
        if not isinstance(doc, dict) or "id" not in doc or "mics" not in doc:
            raise ValueError("needs 'id' and 'mics' fields")
        return ArrayGeometry(id=str(doc["id"]), mics=np.asarray(doc["mics"], dtype=float))


def reference_glasses() -> ArrayGeometry:
    """A 7-microphone glasses-like reference layout.

    Illustrative only: a nose-bridge mic (0), two front-frame mics (1, 2),
    and two mics on each temple arm (3-6). Not measured from any real
    device.
    """
    mics = np.array(
        [
            [0.020, 0.000, -0.010],   # 0 nose bridge
            [0.030, 0.070, 0.010],    # 1 front left
            [0.030, -0.070, 0.010],   # 2 front right
            [-0.040, 0.075, 0.000],   # 3 temple left mid
            [-0.040, -0.075, 0.000],  # 4 temple right mid
            [-0.100, 0.078, 0.005],   # 5 temple left rear
            [-0.100, -0.078, 0.005],  # 6 temple right rear
        ]
    )
    return ArrayGeometry(id="glasses7", mics=mics)


def reference_glasses_5() -> ArrayGeometry:
    """The default 5-channel subset of the reference glasses (channels 2-6)."""
    return select_subset(reference_glasses(), [2, 3, 4, 5, 6])


BUILTIN_GEOMETRIES = dict(zip(BUILTIN_GEOMETRY_NAMES, (reference_glasses, reference_glasses_5)))
