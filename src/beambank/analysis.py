"""Beam patterns and scalar beamformer metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _container
from .beamformer import _weights_of
from .constants import MIN_RESOLUTION_DEG, SOUND_SPEED
from .errors import DataError
from .geometry import ArrayGeometry, DirectionSpec, _steering_rows, steering_vector
from .noise_model import NoiseCovariance

EXPORT_DB_FLOOR = -80.0
# numerical guard: 20*log10 of an exact null would be -inf
_MAG_FLOOR = 1e-300


@dataclass(frozen=True)
class BeamPattern:
    """Horizontal-plane response in dB relative to the look direction."""

    frequency: float
    azimuths: np.ndarray
    response_db: np.ndarray

    def __post_init__(self):
        az = np.asarray(self.azimuths, dtype=float)
        db = np.asarray(self.response_db, dtype=float)
        if az.shape != db.shape or az.ndim != 1:
            raise DataError("pattern grids must be matching 1-D arrays")
        object.__setattr__(self, "azimuths", az)
        object.__setattr__(self, "response_db", db)


def pattern_steps(resolution_deg: float, error: type = DataError) -> int:
    """Azimuth count of a beam-pattern sweep. Raise ``error`` unless the
    step lies in [MIN_RESOLUTION_DEG, 360] degrees and divides 360."""
    if not MIN_RESOLUTION_DEG <= resolution_deg <= 360.0:
        raise error(
            f"resolution {resolution_deg} deg must be >= {MIN_RESOLUTION_DEG} and <= 360"
        )
    steps = 360.0 / resolution_deg
    if abs(steps - round(steps)) > 1e-9:
        raise error(f"resolution {resolution_deg} deg does not divide 360")
    return int(round(steps))


def beam_pattern(
    h,
    geometry: ArrayGeometry,
    frequency: float,
    resolution_deg: float = 1.0,
    look: DirectionSpec | None = None,
    sound_speed: float = SOUND_SPEED,
) -> BeamPattern:
    """Far-field horizontal response 20*log10 |h^H g(az)|, normalized to the
    look-direction response (0 dB there).

    ``h`` is a weight array or BeamformerWeights. Without a look direction
    the maximum response is the 0 dB reference. resolution_deg must pass
    :func:`pattern_steps`; the grid is k * resolution_deg for the steps
    integers k with -180 < k * resolution_deg <= 180 degrees. Responses
    equal ``np.vdot(h, far_field_atf(...).entries)`` per azimuth bit for bit.
    """
    w = _weights_of(h)
    steps = pattern_steps(resolution_deg)
    azimuths = np.deg2rad((np.arange(steps) - (steps - 1) // 2) * resolution_deg)
    units = np.stack([np.cos(azimuths), np.sin(azimuths), np.zeros(steps)], axis=-1)
    g = _steering_rows(geometry, [frequency], sound_speed, unit=units)[0]
    responses = np.matmul(w.conj()[None, None, :], g[:, :, None])[:, 0, 0]
    raw_db = 20.0 * np.log10(np.maximum(np.abs(responses), _MAG_FLOOR))

    if look is None:
        ref_db = float(raw_db.max())
    else:
        on_grid = None
        if not look.is_near_field:
            hits = np.flatnonzero(np.abs(azimuths - look.azimuth) <= 1e-9)
            if hits.size and abs(look.elevation) <= 1e-12:
                on_grid = int(hits[0])
        if on_grid is not None:
            ref_db = float(raw_db[on_grid])
        else:
            g_look = steering_vector(geometry, look, frequency, sound_speed)
            ref = abs(np.vdot(w, g_look.entries))
            ref_db = 20.0 * float(np.log10(max(ref, _MAG_FLOOR)))
    return BeamPattern(
        frequency=float(frequency), azimuths=azimuths, response_db=raw_db - ref_db
    )


def white_noise_gain(h, g) -> float:
    """10*log10(|h^H g|^2 / ||h||^2): array gain against uncorrelated
    sensor noise, in dB."""
    w = _weights_of(h)
    e = g.entries
    power = float(np.vdot(w, w).real)
    if power <= 0.0:
        raise DataError("zero beamformer weights")
    num = abs(np.vdot(w, e)) ** 2
    return 10.0 * float(np.log10(max(num, _MAG_FLOOR) / power))


def directivity_index(h, g, phi_dd: NoiseCovariance) -> float:
    """10*log10(|h^H g|^2 / h^H Phi_dd h): look-direction gain over the
    diffuse-field gain, in dB."""
    w = _weights_of(h)
    e = g.entries
    num = abs(np.vdot(w, e)) ** 2
    den = float(np.vdot(w, phi_dd.matrix @ w).real)
    if den <= 0.0:
        raise DataError("non-positive diffuse output power")
    return 10.0 * float(np.log10(max(num, _MAG_FLOOR) / den))


def export_pattern(pattern: BeamPattern, path, format: str = "csv") -> None:
    """Write (azimuth_deg, response_db) rows, ascending azimuth, 6 decimals,
    responses floored at -80 dB, through a temporary file and a rename."""
    az_deg = np.rad2deg(pattern.azimuths)
    db = np.maximum(pattern.response_db, EXPORT_DB_FLOOR)
    rows = [(round(float(a), 6), round(float(r), 6)) for a, r in zip(az_deg, db)]
    if format == "csv":
        lines = ["azimuth_deg,response_db"] + [f"{a:.6f},{r:.6f}" for a, r in rows]
        text = "\r\n".join(lines) + "\r\n"
    elif format == "json":
        doc = {
            "frequency_hz": pattern.frequency,
            "azimuth_deg": [a for a, _ in rows],
            "response_db": [r for _, r in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        raise DataError(f"unknown pattern format '{format}'")
    _container.replace(path, [text.encode("utf-8")])
