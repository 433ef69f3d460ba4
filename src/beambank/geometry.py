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

import json
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import (
    DataError,
    DegenerateSourceError,
    GridMismatchError,
    InvalidSubsetError,
    ParseError,
    raise_first,
)

MIN_MIC_SEPARATION = 1e-6
MIN_SOURCE_DISTANCE = 0.01
SOUND_SPEED = 343.0

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
        # wrap into (-pi, pi]
        az = az - 2.0 * math.pi * math.floor((az + math.pi) / (2.0 * math.pi))
        if az <= -math.pi:
            az += 2.0 * math.pi
        object.__setattr__(self, "azimuth", az)
        el = float(self.elevation)
        if not -math.pi / 2 <= el <= math.pi / 2:
            raise DataError(f"elevation {el} outside [-pi/2, pi/2]")
        if self.range_m is not None and not self.range_m > MIN_SOURCE_DISTANCE:
            raise DataError(f"range {self.range_m} m must exceed {MIN_SOURCE_DISTANCE} m")

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


def near_field_atf(
    geometry: ArrayGeometry,
    point,
    frequency: float,
    sound_speed: float = SOUND_SPEED,
) -> SteeringVector:
    """Point-source steering vector with 1/r amplitude, normalized so the
    closest microphone has magnitude 1."""
    entries = _steering_rows(geometry, [frequency], sound_speed, point=point)[0]
    return SteeringVector(frequency=float(frequency), entries=entries)


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
    Every entry is an element-wise function of its own inputs only."""
    freqs = np.asarray(frequencies, dtype=float).reshape(-1, 1)
    if np.any(freqs < 0):
        raise DataError("frequency must be non-negative")
    if point is None:
        # arrival delay relative to the origin; mics closer to the source lead
        return np.exp(-2j * np.pi * freqs * (-(geometry.mics @ unit) / sound_speed))
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

    ``vectors`` has shape (directions, frequencies, M).
    """

    geometry_id: str
    directions: list[DirectionSpec]
    frequencies: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.vectors = np.asarray(self.vectors, dtype=complex)
        if self.frequencies.ndim != 1 or np.any(np.diff(self.frequencies) <= 0):
            raise DataError("ATF frequency grid must be strictly increasing")
        expect = (len(self.directions), self.frequencies.shape[0])
        if self.vectors.ndim != 3 or self.vectors.shape[:2] != expect:
            raise DataError(
                f"ATF array shape {self.vectors.shape} does not match "
                f"{expect[0]} directions x {expect[1]} frequencies"
            )

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

    def index_of(self, direction: DirectionSpec, tol: float = 1e-9) -> int:
        for i, d in enumerate(self.directions):
            if (
                abs(d.azimuth - direction.azimuth) <= tol
                and abs(d.elevation - direction.elevation) <= tol
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
    payload = np.ascontiguousarray(atfs.vectors, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload.tobytes())


def import_atfs(path) -> AtfSet:
    """Read an AtfSet written by :func:`export_atfs`; bit-exact round trip."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: bad ATF header: {exc}") from exc
    if header.get("magic") != ATF_MAGIC:
        raise ParseError(f"{path}: not an ATF file (missing magic)")
    try:
        m = int(header["num_mics"])
        freqs = np.asarray(header["frequencies"], dtype=float)
        directions = [_direction_from_dict(d) for d in header["directions"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad ATF header field: {exc}") from exc
    expected = len(directions) * freqs.shape[0] * m
    data = np.frombuffer(blob, dtype="<c16")
    if data.shape[0] != expected:
        raise ParseError(
            f"{path}: payload holds {data.shape[0]} values, header implies {expected} "
            f"({len(directions)} directions x {freqs.shape[0]} frequencies x {m} channels)"
        )
    vectors = data.reshape(len(directions), freqs.shape[0], m).copy()
    return AtfSet(
        geometry_id=str(header["id"]), directions=directions, frequencies=freqs, vectors=vectors
    )


def save_geometry(geometry: ArrayGeometry, path) -> None:
    """Write a geometry file (YAML: {id, mics})."""
    doc = {"id": geometry.id, "mics": [[float(v) for v in row] for row in geometry.mics]}
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def load_geometry(path) -> ArrayGeometry:
    """Read a geometry file written by :func:`save_geometry` (YAML or JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or "id" not in doc or "mics" not in doc:
        raise ParseError(f"{path}: geometry file needs 'id' and 'mics' fields")
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


BUILTIN_GEOMETRIES = {
    "reference_glasses_7": reference_glasses,
    "reference_glasses_5": reference_glasses_5,
}
