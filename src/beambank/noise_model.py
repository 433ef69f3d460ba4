"""Per-frequency noise covariance models.

The design covariance is a diffuse-field term plus weighted outer products
of steering vectors toward unwanted point sources. Point weights trade
null depth against the rest of the objective; they are soft preferences,
not hard constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SOUND_SPEED
from .errors import DataError, raise_first
from .geometry import ArrayGeometry, DirectionSpec, steering_matrix

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-9
REGULARIZATION_SCALE = 1e-6


@dataclass(frozen=True)
class PointNoiseSpec:
    """A directional noise source: steering direction, weight, and a PSD
    constant over frequency."""

    direction: DirectionSpec
    weight: float = 10.0
    psd: float = 1.0

    def __post_init__(self):
        if not 0 <= self.weight < np.inf:
            raise DataError(f"point-noise weight {self.weight} must be finite and >= 0")
        if not 0 < self.psd < np.inf:
            raise DataError(f"point-noise psd {self.psd} must be finite and > 0")


@dataclass(frozen=True)
class NoiseCovariance:
    """Hermitian PSD covariance matrix at one frequency."""

    frequency: float
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DataError("covariance must be a square matrix")
        check_covariances(m[None], [self.frequency])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def num_mics(self) -> int:
        return self.matrix.shape[0]


def check_covariances(matrices: np.ndarray, frequencies, vectors: bool = False):
    """Raise DataError unless every matrix of an (F, M, M) stack is Hermitian
    and positive semi-definite, both within a tolerance relative to its trace.

    Returns the eigenvalues the PSD test took, (F, M) ascending; with
    ``vectors``, np.linalg.eigh's (eigenvalues, eigenvectors), so that a
    caller decomposes each stack once.
    """
    scale = np.maximum(1.0, np.abs(np.trace(matrices, axis1=-2, axis2=-1)))
    herm_err = np.abs(matrices - matrices.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    raise_first(herm_err <= HERMITIAN_TOL * scale, DataError, lambda i: (
        f"covariance at {frequencies[i]:g} Hz not Hermitian (max asymmetry {herm_err[i]:.3e})"
    ))
    spectrum = np.linalg.eigh(matrices) if vectors else np.linalg.eigvalsh(matrices)
    min_eig = (spectrum[0] if vectors else spectrum)[:, 0]
    raise_first(min_eig >= -PSD_TOL * scale, DataError, lambda i: (
        f"covariance at {frequencies[i]:g} Hz not PSD (min eigenvalue {min_eig[i]:.3e})"
    ))
    return spectrum


def diffuse_covariances(
    geometry: ArrayGeometry, frequencies, sound_speed: float = SOUND_SPEED
) -> np.ndarray:
    """Spherically isotropic diffuse field on a frequency grid, shape (F, M, M):
    coherence sinc(omega*d/c) between microphones at distance d, unit diagonal."""
    freqs = np.asarray(frequencies, dtype=float)
    if np.any(freqs < 0):
        raise DataError("frequency must be non-negative")
    diffs = geometry.mics[:, None, :] - geometry.mics[None, :, :]
    dist = np.linalg.norm(diffs, axis=-1)
    # np.sinc(t) = sin(pi t)/(pi t); we need sin(x)/x with x = omega d / c
    return np.sinc(2.0 * freqs[:, None, None] * dist / sound_speed).astype(complex)


def add_point_noises(
    matrices: np.ndarray,
    points: list[PointNoiseSpec],
    geometry: ArrayGeometry,
    frequencies,
    sound_speed: float = SOUND_SPEED,
) -> np.ndarray:
    """A copy of an (F, M, M) covariance stack plus psd*weight*g g^H for each
    point noise. Point steering vectors use the analytic free-field/point model."""
    out = np.array(matrices, dtype=complex)
    for spec in points:
        g = steering_matrix(geometry, spec.direction, frequencies, sound_speed)
        out += (spec.weight * spec.psd) * (g[:, :, None] * g.conj()[:, None, :])
    return out


def diffuse_covariance_sinc(
    geometry: ArrayGeometry, frequency: float, sound_speed: float = SOUND_SPEED
) -> NoiseCovariance:
    """Spherically isotropic diffuse field at one frequency (see
    :func:`diffuse_covariances`)."""
    matrix = diffuse_covariances(geometry, [frequency], sound_speed)[0]
    return NoiseCovariance(frequency=float(frequency), matrix=matrix)


def composite_covariance(
    diffuse: NoiseCovariance,
    points: list[PointNoiseSpec],
    geometry: ArrayGeometry,
    sound_speed: float = SOUND_SPEED,
) -> NoiseCovariance:
    """Diffuse covariance plus sum of psd*weight*g g^H over point noises
    (see :func:`add_point_noises`)."""
    if diffuse.num_mics != geometry.num_mics:
        raise DataError(
            f"covariance is {diffuse.num_mics}-channel, geometry has {geometry.num_mics}"
        )
    f = diffuse.frequency
    matrix = add_point_noises(diffuse.matrix[None], points, geometry, [f], sound_speed)[0]
    return NoiseCovariance(frequency=f, matrix=matrix)


def _lift(matrices: np.ndarray, min_eig: np.ndarray):
    """:func:`regularize`'s rule on an (F, M, M) stack whose smallest
    eigenvalues are ``min_eig``: the regularized stack and the lifted bins."""
    m = matrices.shape[-1]
    delta = REGULARIZATION_SCALE * np.trace(matrices, axis1=-2, axis2=-1).real / m
    lift = min_eig < 0.5 * delta
    lifted = np.where(lift[:, None, None], matrices + delta[:, None, None] * np.eye(m), matrices)
    return lifted, lift


def regularized_eigh(matrices: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
    """:func:`regularize` of each matrix of an (F, M, M) stack, with its
    eigendecomposition, from the stack's own. Bins the rule leaves unchanged
    keep their decomposition as is; only lifted bins are decomposed again.
    Returns (regularized stack, eigenvalues, eigenvectors)."""
    matrices_reg, lift = _lift(matrices, eigenvalues[:, 0])
    if lift.any():
        eigenvalues, eigenvectors = eigenvalues.copy(), eigenvectors.copy()
        eigenvalues[lift], eigenvectors[lift] = np.linalg.eigh(matrices_reg[lift])
    return matrices_reg, eigenvalues, eigenvectors


def regularize(cov: NoiseCovariance) -> NoiseCovariance:
    """Add the loading floor to near-singular covariances.

    Loading is skipped when the smallest eigenvalue already clears half
    the floor, which makes the operation idempotent: once loaded, a
    second call returns the input unchanged.
    """
    matrix = cov.matrix[None]
    lifted, _ = _lift(matrix, np.linalg.eigvalsh(matrix)[:, 0])
    return NoiseCovariance(frequency=cov.frequency, matrix=lifted[0])
