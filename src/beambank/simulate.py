"""Shoebox room simulation and conversation-scene composition.

Rooms are simulated with the image-source method: mirror images of the
source up to a reflection-order cap, each contributing an attenuated,
fractionally delayed 81-tap windowed-sinc pulse. Scenes place a wearer
(self), a conversation partner in the frontal sector, and optionally an
out-of-sector bystander, then mix noise at an integer-dB SNR measured
against the self+other mixture only.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import _container
from .constants import DEFAULT_MAX_ORDER, MAX_ORDER, MAX_SCENES, MOUTH_OFFSET, SOUND_SPEED
from .errors import BeambankError, DataError
from .geometry import ArrayGeometry
from .manifest import MANIFEST_SCHEMA, SceneManifest, Segment

ROOM_DIMS_LOW = np.array([5.0, 5.0, 2.0])
ROOM_DIMS_HIGH = np.array([10.0, 10.0, 6.0])
ABSORPTION_RANGE = (0.2, 0.6)
# Longest room response, set by the farthest image over the sound speed and
# checked before the taps are allocated. Sampled rooms (at most 10 x 10 x 6 m,
# order 6) stay under 0.2 s, and order 30 in such a room under 0.9 s.
MAX_RIR_SECONDS = 4.0

WALL_MARGIN = 0.5
PARTNER_SECTOR = math.radians(60.0)
PARTNER_DISTANCE_RANGE = (1.2, 1.8)
BYSTANDER_DISTANCE_RANGE = (1.2, 2.5)
SNR_GRID = range(-5, 31)
OVERLAP_CHOICES = (None, 0.0, 0.5)
SELF_OTHER_OVERLAP = 0.1
BYSTANDER_GAP_S = 0.2

ACTIVITY_FLOOR = 1e-8
MAX_DECORRELATION_DELAY_S = 2e-3

# taps on each side of a pulse center; the pulse is 2 * _HALF_TAPS + 1 long
_HALF_TAPS = 40
_NUM_TAPS = 2 * _HALF_TAPS + 1
_TAP_OFFSETS = np.arange(-_HALF_TAPS, _HALF_TAPS + 1, dtype=float)
# With b = 2 pi frac / 81, the tap at offset k of a pulse with fractional
# part frac, times pi (k - frac) / (amp sin(pi frac)), is
# -(-1)^k (1 + cos(2 pi k / 81) cos b + sin(2 pi k / 81) sin b) / 2:
# a combination of these three fixed rows with weights (1, cos b, sin b).
_PULSE_TABLE = np.where(_TAP_OFFSETS % 2 == 0, -0.5, 0.5) * np.stack(
    [
        np.ones(_NUM_TAPS),
        np.cos(2.0 * np.pi * _TAP_OFFSETS / _NUM_TAPS),
        np.sin(2.0 * np.pi * _TAP_OFFSETS / _NUM_TAPS),
    ]
)


@dataclass(frozen=True)
class RoomSpec:
    """A shoebox room: dimensions, wall reflection losses, image order cap.

    ``absorption`` is a scalar or six per-wall values ordered
    (x=0, y=0, z=0, x=Lx, y=Ly, z=Lz); walls reflect with coefficient
    sqrt(1 - absorption).
    """

    dimensions: np.ndarray
    absorption: float | tuple = 0.4
    max_order: int = DEFAULT_MAX_ORDER

    def __post_init__(self):
        dims = np.asarray(self.dimensions, dtype=float)
        if dims.shape != (3,) or not np.all(np.isfinite(dims) & (dims > 0)):
            raise DataError("room dimensions must be 3 finite positive lengths")
        dims.setflags(write=False)
        object.__setattr__(self, "dimensions", dims)
        alpha = np.asarray(self.absorption, dtype=float)
        if alpha.ndim == 0:
            alpha = np.full(6, float(alpha))
        if alpha.shape != (6,) or not np.all((alpha > 0) & (alpha <= 1)):
            raise DataError("absorption must be a scalar or 6 per-wall values in (0, 1]")
        alpha.setflags(write=False)
        object.__setattr__(self, "absorption", alpha)
        _check_order(self.max_order)

    def reflection_coefficients(self) -> np.ndarray:
        """(2, 3) wall reflection coefficients: row 0 the walls through the
        origin, row 1 the opposite walls; columns are the x/y/z axes."""
        return np.sqrt(1.0 - np.asarray(self.absorption).reshape(2, 3))


@dataclass(frozen=True)
class RIR:
    """Multi-microphone impulse responses from one source."""

    source_id: str
    taps: np.ndarray
    fs: int

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=float)
        if taps.ndim != 2:
            raise DataError("RIR taps must be (mics, samples)")
        if not np.all(np.isfinite(taps)):
            raise DataError(f"RIR '{self.source_id}' has non-finite taps")
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)


def _check_order(order) -> None:
    if not 0 <= order <= MAX_ORDER:
        raise DataError(f"max_order {order} must be in [0, {MAX_ORDER}]")


@functools.lru_cache(maxsize=MAX_ORDER + 1)
def _image_lattice(max_order: int):
    """The source-independent image lattice up to ``max_order``: per-image
    mirror signs (1-2p), offsets 2r, and the hit counts |r+p| and |r| on
    the walls through the origin and the opposite walls. Read-only, since
    every call with the same order shares it."""
    half = max_order // 2 + 1
    r_axis = np.arange(-half, half + 1)
    r = np.array(list(itertools.product(r_axis, r_axis, r_axis)))
    signs, offsets, near_hits, far_hits = [], [], [], []
    for p in itertools.product((0, 1), repeat=3):
        p = np.array(p)
        order = np.sum(np.abs(r + p) + np.abs(r), axis=1)
        keep = r[order <= max_order]
        signs.append(np.broadcast_to(1 - 2 * p, keep.shape))
        offsets.append(2.0 * keep)
        near_hits.append(np.abs(keep + p))
        far_hits.append(np.abs(keep))
    lattice = tuple(np.concatenate(a) for a in (signs, offsets, near_hits, far_hits))
    for a in lattice:
        a.setflags(write=False)
    return lattice


def _image_sources(room: RoomSpec, source: np.ndarray, max_order: int):
    """All image positions and amplitudes up to the reflection-order cap.

    Images are (1-2p) * (source + 2 r L) over p in {0,1}^3 and integer
    r; the order of an image is sum(|r+p| + |r|), its amplitude the
    product of per-wall reflection coefficients raised to the hit counts
    (Allen & Berkley, JASA 1979).
    """
    signs, offsets, near_hits, far_hits = _image_lattice(max_order)
    beta = room.reflection_coefficients()
    positions = signs * (source + offsets * room.dimensions)
    amplitudes = np.prod(beta[0] ** near_hits * beta[1] ** far_hits, axis=1)
    return positions, amplitudes


def _add_pulses(out: np.ndarray, delays: np.ndarray, amps: np.ndarray) -> None:
    """Scatter-add windowed-sinc pulses into ``out`` (in place).

    Each pulse is ``amps[e] * sinc(n - delays[e]) * hann(n - delays[e])``
    over the 81 integer taps nearest the (fractional) delay: Peterson's
    fractional delay (JASA 1986). Taps falling outside the buffer are
    dropped.

    With the center c = rint(delay), frac = delay - c in [-1/2, 1/2] and
    k = n - c, the identities sin(pi (k - frac)) = -(-1)^k sin(pi frac)
    and cos(a - b) = cos a cos b + sin a sin b leave three trig calls per
    pulse, on frac, against the fixed ``_PULSE_TABLE``. The center tap is
    amps * sinc(frac) * hann(frac), so an exact integer delay writes one
    tap of ``amps`` and leaves every other tap exactly 0.
    """
    centers = np.rint(delays)
    frac = delays - centers
    sin_frac = np.sin(np.pi * frac)
    angle = 2.0 * np.pi * frac / _NUM_TAPS
    cos_angle = np.cos(angle)
    gain = amps * sin_frac / np.pi
    vals = np.stack([gain, gain * cos_angle, gain * np.sin(angle)], axis=1) @ _PULSE_TABLE
    denom = _TAP_OFFSETS - frac[:, None]
    # the center column is the only one that can be 0; it is set below
    denom[:, _HALF_TAPS] = 1.0
    vals /= denom
    sinc_center = np.divide(sin_frac, np.pi * frac, out=np.ones_like(frac), where=frac != 0)
    vals[:, _HALF_TAPS] = amps * sinc_center * 0.5 * (1.0 + cos_angle)

    length = out.shape[0]
    first = centers.astype(np.int64) - _HALF_TAPS
    shift = max(0, -int(first.min()))
    index = (first + shift)[:, None] + np.arange(_NUM_TAPS)
    sums = np.bincount(index.ravel(), vals.ravel(), minlength=length + shift)
    out += sums[shift : shift + length]


def _check_inside(room: RoomSpec, point: np.ndarray, label: str):
    # written so that a NaN coordinate fails too
    if not (np.all(point > 0) and np.all(point < room.dimensions)):
        raise DataError(f"{label} at {point.tolist()} is outside the room {room.dimensions.tolist()}")


def generate_rir_ism(
    room: RoomSpec,
    source,
    mics,
    fs: int,
    sound_speed: float = SOUND_SPEED,
    max_order: int | None = None,
    source_id: str = "source",
) -> RIR:
    """Image-source room impulse responses from one source to each mic.

    The direct path contributes amplitude 1/(4 pi d); each pulse is an
    81-tap windowed sinc centered on the fractional arrival time, so an
    integer-delay direct path is a single exact impulse.
    """
    source = np.asarray(source, dtype=float)
    mics = np.atleast_2d(np.asarray(mics, dtype=float))
    _check_inside(room, source, "source")
    for i, mic in enumerate(mics):
        _check_inside(room, mic, f"microphone {i}")
    order = room.max_order if max_order is None else max_order
    _check_order(order)
    images, gains = _image_sources(room, source, order)

    dists = np.linalg.norm(images[None, :, :] - mics[:, None, :], axis=2)
    seconds = float(dists.max()) / sound_speed
    # written so that a NaN or infinite length fails too
    if not seconds <= MAX_RIR_SECONDS:
        raise DataError(
            f"the farthest image is {seconds:.3g} s away at {sound_speed:g} m/s; "
            f"room responses are capped at {MAX_RIR_SECONDS:g} s"
        )
    length = int(math.ceil(seconds * fs)) + _HALF_TAPS + 2
    taps = np.zeros((mics.shape[0], length))
    for m, dist in enumerate(dists):
        _add_pulses(taps[m], dist / sound_speed * fs, gains / (4.0 * math.pi * dist))
    return RIR(source_id=source_id, taps=taps, fs=int(fs))


def sample_room(rng: np.random.Generator) -> RoomSpec:
    """Uniform room draw: dimensions in [5,5,2]..[10,10,6] m, scalar
    absorption in [0.2, 0.6], order cap 6."""
    dims = rng.uniform(ROOM_DIMS_LOW, ROOM_DIMS_HIGH)
    alpha = float(rng.uniform(*ABSORPTION_RANGE))
    return RoomSpec(dimensions=dims, absorption=alpha, max_order=DEFAULT_MAX_ORDER)


@dataclass(frozen=True)
class SceneSpec:
    """Placement, overlap, and SNR recipe for one conversation scene."""

    room: RoomSpec
    geometry_id: str
    wearer_position: np.ndarray
    wearer_yaw: float
    partner_azimuth: float
    partner_distance: float
    bystander_azimuth: float | None
    bystander_distance: float | None
    overlap_ratio: float | None
    snr_db: int
    seed: int

    def __post_init__(self):
        pos = np.asarray(self.wearer_position, dtype=float)
        pos.setflags(write=False)
        object.__setattr__(self, "wearer_position", pos)
        if abs(self.partner_azimuth) > PARTNER_SECTOR + 1e-12:
            raise DataError(
                f"partner azimuth {math.degrees(self.partner_azimuth):.1f} deg outside the "
                f"+-{math.degrees(PARTNER_SECTOR):.0f} deg sector"
            )
        has_bystander = self.bystander_azimuth is not None
        if has_bystander != (self.overlap_ratio is not None) or has_bystander != (
            self.bystander_distance is not None
        ):
            raise DataError("bystander azimuth, distance, and overlap must be set together")
        if has_bystander:
            if abs(self.bystander_azimuth) <= PARTNER_SECTOR:
                raise DataError(
                    f"bystander azimuth {math.degrees(self.bystander_azimuth):.1f} deg is "
                    "inside the partner sector"
                )
            if self.overlap_ratio not in (0.0, 0.5):
                raise DataError(f"overlap ratio {self.overlap_ratio} not in {{0.0, 0.5}}")
        if not -5 <= int(self.snr_db) <= 30 or int(self.snr_db) != self.snr_db:
            raise DataError(f"snr {self.snr_db} must be an integer in [-5, 30]")

    @property
    def has_bystander(self) -> bool:
        return self.bystander_azimuth is not None


def _yaw_matrix(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _source_position(spec: SceneSpec, azimuth: float, distance: float) -> np.ndarray:
    offset = distance * np.array([math.cos(azimuth), math.sin(azimuth), 0.0])
    return spec.wearer_position + _yaw_matrix(spec.wearer_yaw) @ offset


def scene_positions(spec: SceneSpec, geometry: ArrayGeometry) -> dict:
    """Room-frame positions: mics, mouth, partner, optional bystander."""
    rot = _yaw_matrix(spec.wearer_yaw)
    out = {
        "mics": spec.wearer_position + geometry.mics @ rot.T,
        "mouth": spec.wearer_position + rot @ MOUTH_OFFSET,
        "partner": _source_position(spec, spec.partner_azimuth, spec.partner_distance),
    }
    if spec.has_bystander:
        out["bystander"] = _source_position(
            spec, spec.bystander_azimuth, spec.bystander_distance
        )
    return out


def sample_scene(rng: np.random.Generator, geometry_catalog) -> SceneSpec:
    """Draw a scene honoring the placement rules by rejection sampling.

    ``geometry_catalog`` is a sequence of ArrayGeometry or of
    (ArrayGeometry, proportion) pairs. Partner azimuth is uniform in the
    +-60 deg sector at 1.2-1.8 m; the bystander, when present, is uniform
    outside the sector; every source ends up >= 0.5 m from all walls.
    """
    geometries, weights = _normalize_catalog(geometry_catalog)
    room = sample_room(rng)
    geometry = geometries[rng.choice(len(geometries), p=weights)]
    for _ in range(1000):
        margin = WALL_MARGIN + 0.6
        low = np.array([margin, margin, 1.0])
        high = np.array(
            [room.dimensions[0] - margin, room.dimensions[1] - margin,
             min(1.5, room.dimensions[2] - 0.6)]
        )
        if np.any(high <= low):
            room = sample_room(rng)
            continue
        wearer = rng.uniform(low, high)
        yaw = float(rng.uniform(-math.pi, math.pi))
        partner_az = float(rng.uniform(-PARTNER_SECTOR, PARTNER_SECTOR))
        partner_dist = float(rng.uniform(*PARTNER_DISTANCE_RANGE))
        overlap = OVERLAP_CHOICES[rng.integers(len(OVERLAP_CHOICES))]
        if overlap is None:
            bystander_az = None
            bystander_dist = None
        else:
            raw = rng.uniform(math.degrees(PARTNER_SECTOR), 360.0 - math.degrees(PARTNER_SECTOR))
            deg = raw if raw <= 180.0 else raw - 360.0
            bystander_az = math.radians(deg)
            bystander_dist = float(rng.uniform(*BYSTANDER_DISTANCE_RANGE))
        snr = int(rng.integers(SNR_GRID.start, SNR_GRID.stop))
        seed = int(rng.integers(0, 2**31 - 1))
        spec = SceneSpec(
            room=room,
            geometry_id=geometry.id,
            wearer_position=wearer,
            wearer_yaw=yaw,
            partner_azimuth=partner_az,
            partner_distance=partner_dist,
            bystander_azimuth=bystander_az,
            bystander_distance=bystander_dist,
            overlap_ratio=overlap,
            snr_db=snr,
            seed=seed,
        )
        if _placement_ok(spec, geometry):
            return spec
    raise DataError("could not place a valid scene in 1000 attempts")


def _normalize_catalog(geometry_catalog):
    entries = list(geometry_catalog)
    if not entries:
        raise DataError("geometry catalog is empty")
    if isinstance(entries[0], tuple):
        geometries = [g for g, _ in entries]
        weights = np.array([w for _, w in entries], dtype=float)
        if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-9):
            raise DataError(f"catalog proportions must be >= 0 and sum to 1, got {weights.tolist()}")
    else:
        geometries = entries
        weights = np.full(len(entries), 1.0 / len(entries))
    ids = [g.id for g in geometries]
    if len(set(ids)) != len(ids):
        raise DataError(f"catalog geometry ids must be distinct, got {ids}")
    return geometries, weights


def _placement_ok(spec: SceneSpec, geometry: ArrayGeometry) -> bool:
    pos = scene_positions(spec, geometry)
    points = [pos["mouth"], pos["partner"]]
    if spec.has_bystander:
        points.append(pos["bystander"])
    points.extend(pos["mics"])
    dims = spec.room.dimensions
    for p in points:
        if np.any(p < WALL_MARGIN) or np.any(p > dims - WALL_MARGIN):
            return False
    return True


@dataclass(frozen=True)
class Clip:
    """A mono utterance with its transcript."""

    samples: np.ndarray
    transcript: str

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise DataError("clip audio must be mono (1-D)")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if not self.transcript.strip():
            raise DataError("clip transcript is empty")


def scene_to_dict(spec: SceneSpec) -> dict:
    doc = asdict(spec)
    doc["room"] = {key: np.asarray(value).tolist() for key, value in doc["room"].items()}
    doc["wearer_position"] = spec.wearer_position.tolist()
    return doc


@dataclass
class ComposedScene:
    """Rendered scene audio plus the noise-scaling reference mixture.

    Without a bystander the two are equal, and ``audio`` is ``main_mix``
    itself, not a copy, so an in-place write to one shows in the other.
    """

    audio: np.ndarray
    main_mix: np.ndarray
    manifest: SceneManifest


# _convolve_place's block size, from a sweep over clips of 1-8 s and 5-7
# mic RIRs of 450-2900 taps on a 2-core x86-64 host: 16384 was at or near
# the fastest of the 5-smooth sizes 6144-20000, and within noise of one
# zero-padded transform (0.64-1.11x its time) on outputs of up to 32768.
_BLOCK_SIZE = 16384


def _convolve_place(total: np.ndarray, clip: np.ndarray, rir: RIR, onset: int):
    """Add ``clip`` convolved with each RIR channel into ``total`` from
    ``onset`` on, cut at the end of ``total``, by overlap-add (Stockham,
    AFIPS SJCC 1966).

    The clip is cut into blocks of ``step`` samples, and blocks that would
    start at or past the end of ``total`` are not transformed. The size is
    ``_BLOCK_SIZE``, or for a RIR longer than half of that the power of two
    at least twice its length, and ``step = size - taps + 1``. The taps go
    through one real FFT of ``size`` points per call. Each block goes
    through its own, is multiplied by the taps' spectrum and goes back
    through one inverse over the RIR channels, and its ``step + taps - 1``
    output samples are added at its own offset.

    The blocks are computed by ``dsp._in_run_order`` on min(usable cores,
    blocks // 2) threads, at least 1, so a clip of fewer than four blocks
    stays on the calling thread. A block's transforms give the same bits on
    any thread, and the calling thread adds the blocks into ``total``
    strictly in block order, so the bytes are the same at any thread count.
    """
    from . import dsp

    n_clip, n_taps = clip.shape[0], rir.taps.shape[1]
    size = max(_BLOCK_SIZE, 1 << (2 * n_taps - 1).bit_length())
    step = size - n_taps + 1
    stop = min(onset + n_clip + n_taps - 1, total.shape[1])
    blocks = min(-(-n_clip // step), len(range(onset, stop, step)))
    if blocks == 0:
        return
    taps_spectrum = np.fft.rfft(rir.taps, size, axis=1)

    def wet(i):
        block = clip[i * step : (i + 1) * step]
        return np.fft.irfft(np.fft.rfft(block, size) * taps_spectrum, size, axis=1)

    def place(i, block):
        start = onset + i * step
        end = min(start + step + n_taps - 1, stop)
        total[:, start:end] += block[:, : end - start]

    dsp._in_run_order(wet, place, blocks, max(1, min(dsp._usable_cores(), blocks // 2)))


def compose_scene(
    spec: SceneSpec,
    geometry: ArrayGeometry,
    self_clip: Clip,
    other_clip: Clip,
    bystander_clip: Clip | None,
    fs: int,
    sound_speed: float = SOUND_SPEED,
) -> ComposedScene:
    """Render a conversation: self through the near-field mouth path
    (direct + first-order reflections), partner and bystander through the
    room's full-order paths.

    The partner starts so self and other overlap by ``SELF_OTHER_OVERLAP``
    of the shorter clip. The bystander onset realizes the spec's overlap
    ratio against the contiguous self+other span: a 0.5 ratio bystander
    straddles the span's end, a 0.0 ratio bystander starts after a short
    gap; over-long bystander clips are tail-trimmed to keep the ratio
    realizable.
    """
    if spec.has_bystander != (bystander_clip is not None):
        raise DataError("bystander clip presence must match the scene spec")
    for name, clip in (("self", self_clip), ("other", other_clip), ("bystander", bystander_clip)):
        if clip is not None and clip.samples.shape[0] < fs:
            raise DataError(f"{name} clip shorter than 1 s")

    pos = scene_positions(spec, geometry)
    if not _placement_ok(spec, geometry):
        raise DataError("scene placement violates wall margins")

    rir_self = generate_rir_ism(
        spec.room, pos["mouth"], pos["mics"], fs, sound_speed, max_order=1, source_id="self"
    )
    rir_other = generate_rir_ism(
        spec.room, pos["partner"], pos["mics"], fs, sound_speed, source_id="other"
    )

    n_self = self_clip.samples.shape[0]
    n_other = other_clip.samples.shape[0]
    onset_other = max(0, n_self - int(round(SELF_OTHER_OVERLAP * min(n_self, n_other))))
    main_end = onset_other + n_other

    segments = [
        Segment(0, n_self, "self", self_clip.transcript.strip()),
        Segment(onset_other, main_end, "other", other_clip.transcript.strip()),
    ]

    bystander_samples = None
    onset_bystander = 0
    if spec.has_bystander:
        bystander_samples = bystander_clip.samples
        if bystander_samples.shape[0] > main_end:
            bystander_samples = bystander_samples[:main_end]
        n_by = bystander_samples.shape[0]
        if spec.overlap_ratio == 0.0:
            onset_bystander = main_end + int(round(BYSTANDER_GAP_S * fs))
        else:
            onset_bystander = main_end - int(round(spec.overlap_ratio * n_by))
        segments.append(
            Segment(
                onset_bystander,
                onset_bystander + n_by,
                "bystander",
                bystander_clip.transcript.strip(),
            )
        )

    tail = rir_other.taps.shape[1]
    if spec.has_bystander:
        rir_by = generate_rir_ism(
            spec.room, pos["bystander"], pos["mics"], fs, sound_speed, source_id="bystander"
        )
        tail = max(tail, rir_by.taps.shape[1])
    total_len = max(s.end for s in segments) + tail
    m = geometry.num_mics

    main_mix = np.zeros((m, total_len))
    _convolve_place(main_mix, self_clip.samples, rir_self, 0)
    _convolve_place(main_mix, other_clip.samples, rir_other, onset_other)
    audio = main_mix
    if spec.has_bystander:
        audio = main_mix.copy()
        _convolve_place(audio, bystander_samples, rir_by, onset_bystander)

    ordered = sorted(segments, key=lambda s: s.start)
    reference = " ".join(
        f"<{seg.speaker}> {seg.transcript}" for seg in ordered if seg.speaker != "bystander"
    )
    manifest = SceneManifest(
        schema=MANIFEST_SCHEMA,
        fs=fs,
        num_samples=total_len,
        geometry_id=spec.geometry_id,
        segments=ordered,
        reference=reference,
        scene=scene_to_dict(spec),
    )
    manifest.validate()
    return ComposedScene(audio=audio, main_mix=main_mix, manifest=manifest)


# mix_noise's tile width in samples: a 7-channel float64 tile is 448 kB, so
# each pass reads the scene once while its scratch stays in cache. Of 4096
# to 32768, 8192 was at or near the fastest for both passes on a 7 x 250000
# scene (2-core x86-64 host, 2 MB L2 per core).
_TILE = 8192


def _span_power(reference: np.ndarray) -> tuple[slice, float]:
    """The active span of (channels, samples) ``reference`` and its mean
    square over that span, from one pass in tiles.

    The span runs from the first to the last sample whose largest magnitude
    over the channels exceeds ACTIVITY_FLOOR times the peak. The pass keeps
    each sample's largest magnitude and its sum of squares over the
    channels, so the span's power is a sum over the second.
    """
    m, n = reference.shape
    envelope, power = np.empty(n), np.empty(n)
    scratch = np.empty((m, _TILE))
    for start in range(0, n, _TILE):
        tile = reference[:, start : start + _TILE]
        work = scratch[:, : tile.shape[1]]
        np.abs(tile, out=work)
        work.max(axis=0, out=envelope[start : start + _TILE])
        np.square(tile, out=work)
        work.sum(axis=0, out=power[start : start + _TILE])
    peak = envelope.max(initial=0.0)
    if peak <= 0:
        raise DataError("silent reference mixture")
    active = envelope > ACTIVITY_FLOOR * peak
    span = slice(int(active.argmax()), n - int(active[::-1].argmax()))
    return span, float(power[span].sum()) / (m * (span.stop - span.start))


def mix_noise(
    scene_audio: np.ndarray,
    noise: np.ndarray,
    snr_db: float,
    reference: np.ndarray,
    rng: np.random.Generator,
    fs: int,
) -> np.ndarray:
    """Add noise scaled for the requested SNR against ``reference`` (the
    self+other mixture at the same mics, so of the scene's shape), measured
    over the reference's active span.

    Mono noise is replicated across channels with per-channel random
    integer delays up to 2 ms to break perfect coherence. Short noise is
    looped.

    The scene is read in two passes of ``_TILE``-sample tiles. The first
    takes the active span and the reference power from the reference. The
    noise power is one sum of squares per channel over the span; for mono
    noise each channel is a delayed view of the one recording, so no
    delayed copy is built. The second pass adds ``scale * noise`` to the
    scene tile by tile and stores the sum as interleaved (samples,
    channels) frames. The result is the float64 (channels, samples)
    transpose of those frames, so ``write_wav`` casts it to float32 without
    reordering. No input is written.
    """
    scene_audio = np.atleast_2d(np.asarray(scene_audio, dtype=float))
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    noise = np.atleast_2d(np.asarray(noise, dtype=float))
    m, n_samples = scene_audio.shape
    if reference.shape != scene_audio.shape:
        raise DataError(
            f"reference shape {reference.shape} differs from the scene's {scene_audio.shape}"
        )
    if noise.shape[1] == 0:
        raise DataError("noise recording has no samples")

    max_delay = int(round(MAX_DECORRELATION_DELAY_S * fs))
    mono_noise = noise.shape[0] == 1
    if mono_noise:
        delays = rng.integers(0, max_delay + 1, size=m)
        needed = n_samples + int(delays.max())
        mono = noise[0]
        if mono.shape[0] < needed:
            reps = int(math.ceil(needed / mono.shape[0]))
            mono = np.tile(mono, reps)
        channels = [mono[d : d + n_samples] for d in delays]
    else:
        if noise.shape[0] != m:
            raise DataError(f"noise has {noise.shape[0]} channels, scene has {m}")
        if noise.shape[1] < n_samples:
            reps = int(math.ceil(n_samples / noise.shape[1]))
            noise = np.tile(noise, (1, reps))
        channels = noise[:, :n_samples]

    span, p_ref = _span_power(reference)
    # einsum sums without BLAS: OpenBLAS splits a long dot product among its
    # threads, so np.dot's last bits, and every sample, would follow their count
    energy = sum(float(np.einsum("i,i->", row[span], row[span])) for row in channels)
    p_noise = energy / (m * (span.stop - span.start))
    if p_noise <= 0:
        raise DataError("noise is silent over the scene's active span")
    scale = math.sqrt(p_ref / (p_noise * 10.0 ** (snr_db / 10.0)))

    frames = np.empty((n_samples, m))
    scratch = np.empty((m, _TILE))
    for start in range(0, n_samples, _TILE):
        stop = min(start + _TILE, n_samples)
        work = scratch[:, : stop - start]
        for row, channel in zip(work, channels):
            np.multiply(channel[start:stop], scale, out=row)
        work += scene_audio[:, start:stop]
        frames[start:stop] = work.T
    return frames.T


@dataclass(frozen=True)
class ClipSource:
    """A directory of (wav, txt) utterance pairs, ordered by file name."""

    wavs: tuple
    texts: tuple

    @classmethod
    def from_directory(cls, path) -> "ClipSource":
        root = Path(path)
        wavs = sorted(root.glob("*.wav"))
        pairs = [(w, w.with_suffix(".txt")) for w in wavs]
        pairs = [(w, t) for w, t in pairs if t.exists()]
        if not pairs:
            raise DataError(f"no (wav, txt) pairs under {root}")
        return cls(
            wavs=tuple(str(w) for w, _ in pairs), texts=tuple(str(t) for _, t in pairs)
        )

    def __len__(self) -> int:
        return len(self.wavs)

    def load(self, index: int, fs: int) -> Clip:
        from .dsp import read_wav

        audio, _ = read_wav(self.wavs[index], expected_fs=fs)
        with _container.parsing(self.texts[index], "transcript"):
            transcript = Path(self.texts[index]).read_text(encoding="utf-8").strip()
        return Clip(samples=audio[0], transcript=transcript)


@dataclass(frozen=True)
class NoiseSource:
    """A directory of noise wav files, ordered by file name."""

    wavs: tuple

    @classmethod
    def from_directory(cls, path) -> "NoiseSource":
        root = Path(path)
        wavs = sorted(root.glob("*.wav"))
        if not wavs:
            raise DataError(f"no wav files under {root}")
        return cls(wavs=tuple(str(w) for w in wavs))

    def __len__(self) -> int:
        return len(self.wavs)

    def load(self, index: int, fs: int) -> np.ndarray:
        from .dsp import read_wav

        audio, _ = read_wav(self.wavs[index], expected_fs=fs)
        return audio


def render_scene(
    spec: SceneSpec,
    geometry: ArrayGeometry,
    clips: ClipSource,
    noise: NoiseSource | None,
    fs: int,
    sound_speed: float = SOUND_SPEED,
) -> ComposedScene:
    """Pick clips and noise deterministically from the spec's seed, compose,
    and mix. The returned manifest still lacks an audio path."""
    rng = np.random.default_rng(spec.seed)
    picks = rng.choice(len(clips), size=min(3, len(clips)), replace=len(clips) < 3)
    self_clip = clips.load(int(picks[0]), fs)
    other_clip = clips.load(int(picks[1 % len(picks)]), fs)
    bystander_clip = None
    if spec.has_bystander:
        bystander_clip = clips.load(int(picks[2 % len(picks)]), fs)
    composed = compose_scene(
        spec, geometry, self_clip, other_clip, bystander_clip, fs, sound_speed
    )
    if noise is not None and len(noise) > 0:
        noise_audio = noise.load(int(rng.integers(len(noise))), fs)
        composed.audio = mix_noise(
            composed.audio, noise_audio, spec.snr_db, composed.main_mix, rng, fs
        )
    return composed


def _render_one(
    index: int,
    spec: SceneSpec,
    geometry: ArrayGeometry,
    clips: ClipSource,
    noise: NoiseSource | None,
    fs: int,
    out_dir: Path,
) -> dict:
    """Render and write one scene. A failure keeps its error class (and so
    its exit code) and names the scene index and seed."""
    from .dsp import write_wav

    audio_name = f"scene_{index:05d}.wav"
    try:
        composed = render_scene(spec, geometry, clips, noise, fs)
        write_wav(out_dir / audio_name, composed.audio, fs)
    except (BeambankError, OSError) as exc:
        raise type(exc)(f"scene {index:05d} (seed {spec.seed}): {exc}") from exc
    composed.manifest.audio_path = audio_name
    row = composed.manifest.to_dict()
    row["index"] = index
    return row


def build_dataset(
    catalog,
    clips: ClipSource,
    noise: NoiseSource | None,
    count: int,
    out_dir,
    seed: int = 0,
    fs: int = 16000,
    workers: int = 1,
) -> Path:
    """Render ``count`` scenes and write audio plus a JSON-lines manifest.

    Geometries are assigned by the catalog proportions; every scene is a
    pure function of (config, seed, index), so the manifest is
    reproducible for any worker count. Returns the manifest path.
    """
    geometries, weights = _normalize_catalog(catalog)
    if not 1 <= count <= MAX_SCENES:
        raise DataError(f"dataset count {count} must be 1 to {MAX_SCENES}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    specs, scene_geometries = [], []
    for child in np.random.SeedSequence(seed).spawn(count):
        rng = np.random.default_rng(child)
        geometry = geometries[int(rng.choice(len(geometries), p=weights))]
        specs.append(sample_scene(rng, [geometry]))
        scene_geometries.append(geometry)

    render = functools.partial(_render_one, clips=clips, noise=noise, fs=fs, out_dir=out_dir)
    workers = min(workers, count)
    if workers > 1:
        from concurrent.futures import process

        from . import dsp

        try:
            # each child convolves on its share of the cores
            with process.ProcessPoolExecutor(max_workers=workers, initializer=dsp._share_cores,
                                             initargs=(workers,)) as pool:
                rows = list(pool.map(render, range(count), specs, scene_geometries))
        except process.BrokenProcessPool as exc:  # a worker was killed, e.g. out of memory
            raise BeambankError(f"a scene worker process died: {exc}") from exc
    else:
        rows = list(map(render, range(count), specs, scene_geometries))

    manifest_path = out_dir / "manifest.jsonl"
    _container.replace(
        manifest_path, [(json.dumps(row, sort_keys=True) + "\n").encode("utf-8") for row in rows]
    )
    return manifest_path
