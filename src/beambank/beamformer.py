"""Fixed beamformer design: classical baselines and the null-steering,
WNG-constrained minimum-variance design, plus the multi-direction bank.

The constrained design minimizes h^H Phi h subject to h^H g = 1 and a
white-noise-gain floor written as the quadratic constraint
c = h^H Psi h <= 0 with Psi = I - g g^H * M / ||g||^2. On the
distortionless manifold the constraint set is a ball, so the KKT system
reduces exactly to diagonal loading: h(eps) = (Phi + eps I)^{-1} g,
normalized (Cox, Zeskind & Owen, IEEE TASSP 1987). ||h(eps)||^2 is
non-increasing in eps, which makes c(eps) monotone and its root a bracketed
search; the result is certifiable after the fact through verify_kkt. One
batched kernel diagonalizes each covariance once and finds the loading by
loading steps (bracketing and Newton) on the secular equation in its
eigenbasis (Li, Stoica & Wang, IEEE TSP 2003; Lorenz & Boyd, IEEE TSP
2005); it works row by row, so a single design (a batch of one) does not
depend on its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _container
from .constants import (
    MAX_DIRECTIONS,
    MAX_FS,
    MAX_N_FFT,
    METHODS,
    SOUND_SPEED,
    SOUND_SPEED_RANGE,
    WNG_TOLERANCE,
)
from .errors import (
    DataError,
    DegenerateSteeringError,
    IllConditionedError,
    SolverError,
    raise_first,
)
from .geometry import (
    ArrayGeometry,
    AtfSet,
    DirectionSpec,
    SteeringVector,
    _direction_from_dict,
    _direction_to_dict,
    _directions_from_header,
    steering_matrix,
)
from .noise_model import (
    NoiseCovariance,
    PointNoiseSpec,
    add_point_noises,
    check_covariances,
    diffuse_covariances,
    regularized_eigh,
)

MAX_LOADING_STEPS = 60
LOADING_CAP_SCALE = 1e6
DISTORTIONLESS_TOL = 1e-6
SLACKNESS_BOUND = 1e-8

BANK_MAGIC = "beambank-bank-v1"

# per-design solver diagnostics a bank carries, (K+1, F) each, and their dtypes
_DIAGNOSTICS = {"loading": float, "constraint": float, "iterations": int, "objective": float}
# verify's invariants, in the order a failure is reported within one design
INVARIANTS = ("distortionless", "wng-feasibility", "kkt-stationarity", "kkt-slackness")


@dataclass(frozen=True)
class BeamformerWeights:
    """Designed weights at one frequency, with solver diagnostics.

    ``objective`` is h^H Phi h against the design covariance,
    ``loading`` the diagonal loading level used to enforce the WNG
    constraint (0 when inactive), ``constraint`` the constraint value c,
    ``iterations`` the number of loading steps (bracketing and Newton).
    """

    frequency: float
    weights: np.ndarray
    objective: float = 0.0
    loading: float = 0.0
    constraint: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=complex)
        if w.ndim != 1 or w.shape[0] < 1:
            raise DataError("weights must be a 1-D complex array")
        if not np.isfinite(w).all():
            raise SolverError(f"non-finite weights at {self.frequency} Hz")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def num_mics(self) -> int:
        return self.weights.shape[0]


def check_solver_settings(
    wng_tolerance: float = WNG_TOLERANCE,
    wng_margin: float = 1.0,
    sound_speed: float = SOUND_SPEED,
    fs: int = 16000,
    n_fft: int = 512,
    method: str = "nlcmv",
    num_mics: int | None = None,
    error: type = DataError,
) -> None:
    """Raise ``error`` unless ``method`` is one of METHODS, wng_margin is
    finite and > 0, wng_tolerance is finite and >= 0, the sound speed is
    within SOUND_SPEED_RANGE, 0 < fs <= MAX_FS and 0 < n_fft <= MAX_N_FFT
    and even.

    Given the mic count M, an nlcmv design also needs a reachable WNG
    floor. By Cauchy-Schwarz no distortionless h has a white noise gain
    above ||g||^2, so the floor margin * ||g||^2 / M needs margin < M; a
    single mic's one distortionless design meets it up to margin 1.
    """
    if method not in METHODS:
        raise error(f"unknown method '{method}', expected one of {METHODS}")
    if not (math.isfinite(wng_margin) and wng_margin > 0):
        raise error(f"wng_margin {wng_margin} must be finite and > 0")
    reachable = num_mics is None or wng_margin < num_mics or wng_margin <= 1
    if method == "nlcmv" and not reachable:
        raise error(f"wng_margin {wng_margin} must be < the mic count {num_mics}")
    if not (math.isfinite(wng_tolerance) and wng_tolerance >= 0):
        raise error(f"wng_tolerance {wng_tolerance} must be finite and >= 0")
    low, high = SOUND_SPEED_RANGE
    if not low <= sound_speed <= high:
        raise error(f"sound_speed {sound_speed} must be in [{low:g}, {high:g}] m/s")
    if not 0 < fs <= MAX_FS:
        raise error(f"fs {fs} must be > 0 and <= {MAX_FS} Hz")
    if not (0 < n_fft <= MAX_N_FFT and n_fft % 2 == 0):
        raise error(f"n_fft {n_fft} must be positive, even and <= {MAX_N_FFT}")


def wng_constraint_value(h: np.ndarray, g: SteeringVector, margin: float = 1.0) -> float:
    """Constraint value c = h^H Psi h; c <= 0 keeps white noise gain at or
    above margin * ||g||^2 / M (for distortionless h)."""
    return float(_wng(np.asarray(h, dtype=complex), g.entries, _norm_sq(g.entries), margin))


def _weights_of(h) -> np.ndarray:
    if isinstance(h, BeamformerWeights):
        return h.weights
    return np.asarray(h, dtype=complex)


def _norm_sq(x: np.ndarray) -> np.ndarray:
    return (x.real**2 + x.imag**2).sum(axis=-1)


def _wng(h, g, g_norm_sq, margin) -> np.ndarray:
    """c = ||h||^2 - M |g^H h|^2 / (margin ||g||^2) = h^H Psi h, per design."""
    gh = (g.conj() * h).sum(axis=-1)
    return _norm_sq(h) - g.shape[-1] * (gh.real**2 + gh.imag**2) / (margin * g_norm_sq)


def _loaded_designs(matrices, lam_f, u_f, g, g_norm_sq, where, wng_tolerance=None,
                    wng_margin=1.0):
    """h(eps) = (A + eps I)^{-1} g / (g^H (A + eps I)^{-1} g) for (..., F) designs.

    ``matrices`` is an (F, M, M) stack of regularized covariances A, with
    eigenvalues ``lam_f`` and eigenvectors ``u_f``; ``g`` holds the
    (..., F, M) steering vectors, each design solving against its bin.
    Without a tolerance eps stays 0 (MVDR). With one, every design whose
    c(0) > 0 takes loading steps (bracketing and Newton): Newton steps on
    c(eps) = S2 / S1^2 - M / (margin ||g||^2), guarded by tenfold steps
    until the root is bracketed and by the midpoint after, until
    |c| <= tol and eps |c| <= tol, within a shared step budget; the
    feasible side of the bracket is kept. Returns h, eps and the step
    counts, (..., F, ...) each.
    """
    shape, m = g.shape[:-1], g.shape[-1]
    # a positive definite A keeps the normalization g^H (A + eps I)^{-1} g
    # finite and positive for every eps >= 0
    ok = np.isfinite(lam_f).all(axis=1) & (lam_f[:, 0] > 0)
    raise_first(np.broadcast_to(ok, shape), IllConditionedError, lambda i: (
        f"{where(i)}: degenerate normalization g^H P^-1 g: covariance eigenvalues "
        f"span [{lam_f[i % shape[-1], 0]:.3e}, {lam_f[i % shape[-1], -1]:.3e}] "
        "after regularization"
    ))
    b = (u_f.conj() * g[..., None]).sum(axis=-2)
    p = b.real**2 + b.imag**2
    # the loading steps work on the N designs as the rows of (N, M) arrays
    n = math.prod(shape)
    eps = np.zeros(n)
    steps = np.zeros(n, dtype=int)

    if wng_tolerance is not None:
        lam, p_n = np.broadcast_to(lam_f, g.shape).reshape(n, m), p.reshape(n, m)
        target = (m / (wng_margin * g_norm_sq)).ravel()

        def c_at(idx, e):
            """c and dc/deps, from Sk = sum_i p_i / (lam_i + eps)^k."""
            w = p_n[idx] / (lam[idx] + e[:, None])
            s1 = w.sum(axis=1)
            w = w / (lam[idx] + e[:, None])
            s2 = w.sum(axis=1)
            s3 = (w / (lam[idx] + e[:, None])).sum(axis=1)
            return s2 / s1**2 - target[idx], -2.0 * s3 / s1**2 + 2.0 * s2**2 / s1**3

        trace = np.broadcast_to(np.trace(matrices, axis1=-2, axis2=-1).real, shape).ravel()
        cap = LOADING_CAP_SCALE * trace / m
        lo, hi = np.zeros(n), trace / m * 1e-6
        c, dc_lo = c_at(np.arange(n), eps)
        c_lo = c.copy()  # c and dc/deps at lo; c itself follows hi once bracketed
        # c(eps) is monotone non-increasing and the delay-and-sum limit
        # (eps -> inf) is strictly feasible, so a sign change must appear
        # below the cap. Each step takes a Newton step from lo. It aims
        # halfway into the band the stop tests accept, so that on a convex c
        # it stays in (lo, root of c + band / 2] and its iterates cross onto
        # the feasible side. A bracketed design falls back to the midpoint
        # when the step leaves the bracket. An unbracketed one tries hi
        # instead, unless Newton passes it, and grows hi tenfold.
        bracketed = np.zeros(n, dtype=bool)
        run = np.flatnonzero(c > 0.0)
        while run.size:
            steps[run] += 1
            was = bracketed[run]
            aim = -0.5 * wng_tolerance / np.maximum(1.0, hi[run])
            # dc = 0 makes no step: an inf or nan trial fails both tests below
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = lo[run] - (c_lo[run] - aim) / dc_lo[run]
            inside = (lo[run] < newton) & (newton < hi[run])
            trial = np.where(
                was,
                np.where(inside, newton, 0.5 * (lo[run] + hi[run])),
                np.where(newton > hi[run], np.minimum(newton, cap[run]), hi[run]),
            )
            c_trial, dc_trial = c_at(run, trial)
            ok, grow = c_trial <= 0.0, (c_trial > 0.0) & ~was
            hi[run[ok]], c[run[ok]], bracketed[run[ok]] = trial[ok], c_trial[ok], True
            low = run[~ok]
            lo[low], c_lo[low], dc_lo[low] = trial[~ok], c_trial[~ok], dc_trial[~ok]
            hi[run[grow]] = 10.0 * trial[grow]
            cr = np.abs(c[run])
            done = bracketed[run] & (cr <= wng_tolerance) & (hi[run] * cr <= wng_tolerance)
            run = run[~done & (steps[run] < MAX_LOADING_STEPS) & ~(hi[run] > cap[run])]
        # an unbracketed design's last trial is its lo
        raise_first(bracketed | (steps == 0), SolverError, lambda i: (
            f"{where(i)}: internal solver failure: no feasible loading below cap "
            f"{cap[i]:.3e} within {steps[i]} steps (c = {c_lo[i]:.3e})"
        ))
        raise_first(c <= wng_tolerance, SolverError, lambda i: (
            f"{where(i)}: internal solver failure: returned infeasible c = {c[i]:.3e}"
        ))
        eps = np.where(bracketed, hi, 0.0)

    eps, steps = eps.reshape(shape), steps.reshape(shape)
    x = b / (lam_f + eps[..., None])
    denom = (p / (lam_f + eps[..., None])).sum(axis=-1)
    h = (u_f * x[..., None, :]).sum(axis=-1) / denom[..., None]
    return h, eps, steps


def _design_batch(method, phi, g, where, wng_tolerance=WNG_TOLERANCE, wng_margin=1.0,
                  eig=None):
    """Designs of one method: (..., F, M) steering vectors ``g``, bin f
    against matrix f of an (F, M, M) stack ``phi`` (the diffuse one for
    superdirective), whose np.linalg.eigh is ``eig`` when the caller has
    it; ``where(i)`` names design i in C order. Returns (weights, objective,
    loading, constraint, iterations); the constraint uses ``wng_margin``
    for nlcmv and 1 otherwise."""
    g_norm_sq = _norm_sq(g)
    raise_first(g_norm_sq > 0.0, DegenerateSteeringError,
                lambda i: f"{where(i)}: steering vector has zero norm")
    loading, iterations = np.zeros(g.shape[:-1]), np.zeros(g.shape[:-1], dtype=int)
    margin = wng_margin if method == "nlcmv" else 1.0
    if g.shape[-1] == 1:
        # distortionless with M = 1 forces conj(h) G = 1, i.e. the applied filter is 1/G
        h = 1.0 / np.conj(g)
    elif method == "delay_and_sum":
        h = g / g_norm_sq[..., None]
    else:
        h, loading, iterations = _loaded_designs(
            *regularized_eigh(phi, *(np.linalg.eigh(phi) if eig is None else eig)), g,
            g_norm_sq, where, wng_tolerance if method == "nlcmv" else None, wng_margin,
        )
    err = np.abs((h.conj() * g).sum(axis=-1) - 1.0)
    raise_first(err <= DISTORTIONLESS_TOL, SolverError,
                lambda i: f"{where(i)}: {method}: distortionless violated by {err.flat[i]:.3e}")
    objective = (h.conj() * (phi * h[..., None, :]).sum(axis=-1)).sum(axis=-1).real
    return h, objective, loading, _wng(h, g, g_norm_sq, margin), iterations


def _single_design(method, phi, g: SteeringVector, **settings) -> BeamformerWeights:
    """One design as a batch of one, (1, M) against a (1, M, M) stack. With
    no missing axis to broadcast, even a one-element product (M = 1) takes
    numpy's contiguous loop and its rounding, as a bank's products do.
    ``phi`` None means the identity."""
    m = g.num_mics
    matrix = np.eye(m, dtype=complex) if phi is None else phi.matrix
    if matrix.shape[0] != m:
        raise DataError(f"{m}-channel steering vs {matrix.shape[0]}-channel covariance")
    h, objective, loading, constraint, iterations = _design_batch(
        method, matrix[None], g.entries[None], lambda i: f"{g.frequency:g} Hz", **settings,
    )
    return BeamformerWeights(g.frequency, h[0], float(objective[0]), float(loading[0]),
                             float(constraint[0]), int(iterations[0]))


def design_delay_and_sum(g: SteeringVector, phi: NoiseCovariance | None = None) -> BeamformerWeights:
    """Matched-filter weights h = g / ||g||^2; maximal white noise gain.
    The objective is taken against ``phi``, or is ||h||^2 without one."""
    return _single_design("delay_and_sum", phi, g)


def design_mvdr(phi: NoiseCovariance, g: SteeringVector) -> BeamformerWeights:
    """Minimum variance distortionless weights h = Phi^{-1} g / (g^H Phi^{-1} g).

    Near-singular covariances are diagonally loaded first (idempotent, see
    noise_model.regularize). No white-noise-gain constraint is applied;
    the diagnostics still record the constraint value.
    """
    return _single_design("mvdr", phi, g)


def design_superdirective(phi_dd: NoiseCovariance, g: SteeringVector) -> BeamformerWeights:
    """MVDR against the diffuse-field covariance."""
    return design_mvdr(phi_dd, g)


def design_nlcmv(
    phi_total: NoiseCovariance,
    g: SteeringVector,
    wng_tolerance: float = WNG_TOLERANCE,
    wng_margin: float = 1.0,
) -> BeamformerWeights:
    """Minimize h^H Phi h subject to h^H g = 1 and the WNG constraint c <= 0.

    Returns the unconstrained MVDR solution when it is already feasible;
    otherwise takes loading steps (bracketing and Newton) on the diagonal
    loading level until the constraint boundary is hit. The stop rule
    demands both |c| <= wng_tolerance and loading * |c| <= wng_tolerance so
    complementary slackness certifies, within a fixed step budget; the
    feasible bracket side is returned.
    """
    check_solver_settings(wng_tolerance, wng_margin, num_mics=g.num_mics)
    return _single_design(
        "nlcmv", phi_total, g, wng_tolerance=wng_tolerance, wng_margin=wng_margin
    )


@dataclass(frozen=True)
class KktReport:
    """Post-hoc optimality certificate for one constrained design, or, with
    array fields, for every design of a bank (see :func:`verify_bank`)."""

    stationarity_residual: float
    stationarity_bound: float
    distortionless_error: float
    constraint_value: float
    slackness: float
    slackness_bound: float

    @property
    def stationarity_ok(self):
        return self.stationarity_residual <= self.stationarity_bound

    @property
    def feasible(self):
        return (self.distortionless_error <= DISTORTIONLESS_TOL) & (
            self.constraint_value <= DISTORTIONLESS_TOL
        )

    @property
    def slackness_ok(self):
        return self.slackness <= self.slackness_bound

    @property
    def passed(self):
        return self.stationarity_ok & self.feasible & self.slackness_ok


def _kkt(h, loading, phi, eigenvalues, g, wng_margin, slackness_bound) -> KktReport:
    """KKT certificates of designs with (..., F, M) weights ``h`` and
    steering vectors ``g`` against an (F, M, M) stack with (F, M)
    ``eigenvalues``; ||Phi||_2 is the largest |eigenvalue|."""
    a_h = (phi * h[..., None, :]).sum(axis=-1) + loading[..., None] * h
    g_norm_sq = _norm_sq(g)
    lam = (g.conj() * a_h).sum(axis=-1) / g_norm_sq
    phi_norm = np.abs(eigenvalues).max(axis=-1)
    c = _wng(h, g, g_norm_sq, wng_margin)
    return KktReport(
        stationarity_residual=np.sqrt(_norm_sq(a_h - lam[..., None] * g)),
        stationarity_bound=1e-6 * np.sqrt(_norm_sq(h)) * phi_norm,
        distortionless_error=np.abs((h.conj() * g).sum(axis=-1) - 1.0),
        constraint_value=c,
        slackness=np.abs(loading * c),
        slackness_bound=slackness_bound,
    )


def verify_kkt(
    result: BeamformerWeights,
    phi_total: NoiseCovariance,
    g: SteeringVector,
    wng_margin: float = 1.0,
    slackness_bound: float = SLACKNESS_BOUND,
) -> KktReport:
    """Check stationarity, feasibility, and complementary slackness of a
    constrained design against the supplied covariance.

    The equality multiplier is recovered by least squares,
    lambda = g^H (Phi + eps I) h / ||g||^2. Any diagonal loading the
    solver added for conditioning shifts the residual by at most
    delta * ||h|| with delta <= 1e-6 * ||Phi||, inside the bound.
    """
    phi = phi_total.matrix[None]
    report = _kkt(
        result.weights[None], np.array([result.loading]), phi, np.linalg.eigvalsh(phi),
        g.entries[None], wng_margin, slackness_bound,
    )
    return KktReport(**{k: float(np.ravel(v)[0]) for k, v in vars(report).items()})


@dataclass
class BeamformerBank:
    """Per-direction, per-frequency weights for the K+1 steering directions.

    ``weights`` has shape (K+1, F, M). Exactly one direction is the
    near-field mouth entry; the rest are far-field horizontal looks.
    """

    geometry: ArrayGeometry
    directions: list[DirectionSpec]
    frequencies: np.ndarray
    weights: np.ndarray
    fs: int
    n_fft: int
    method: str
    nulls: tuple = ()
    sound_speed: float = SOUND_SPEED
    wng_tolerance: float = WNG_TOLERANCE
    wng_margin: float = 1.0
    atf_source: str = "freefield"
    loading: np.ndarray | None = None
    constraint: np.ndarray | None = None
    iterations: np.ndarray | None = None
    objective: np.ndarray | None = None

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.weights = np.asarray(self.weights, dtype=complex)
        self.nulls = tuple(self.nulls)
        near = sum(1 for d in self.directions if d.is_near_field)
        if near != 1:
            raise DataError(f"bank needs exactly one near-field (mouth) entry, found {near}")
        if len(self.directions) < 2:
            raise DataError("bank needs at least one horizontal direction plus the mouth")
        expect = (len(self.directions), self.frequencies.shape[0], self.geometry.num_mics)
        if self.weights.shape != expect:
            raise DataError(f"bank weights shape {self.weights.shape}, expected {expect}")
        for key in _DIAGNOSTICS:
            value = getattr(self, key)
            if value is not None and np.shape(value) != expect[:2]:
                raise DataError(f"bank {key} shape {np.shape(value)}, expected {expect[:2]}")

    @property
    def num_directions(self) -> int:
        return len(self.directions)

    @property
    def num_mics(self) -> int:
        return self.geometry.num_mics

    def entry(self, direction_index: int, frequency_index: int) -> BeamformerWeights:
        def pick(arr, default):
            return default if arr is None else arr[direction_index, frequency_index]

        return BeamformerWeights(
            frequency=float(self.frequencies[frequency_index]),
            weights=self.weights[direction_index, frequency_index].copy(),
            objective=float(pick(self.objective, 0.0)),
            loading=float(pick(self.loading, 0.0)),
            constraint=float(pick(self.constraint, 0.0)),
            iterations=int(pick(self.iterations, 0)),
        )

    def direction_labels(self) -> list[str]:
        return [d.label() for d in self.directions]


def _bank_problem(geometry, directions, frequencies, nulls, sound_speed, atfs, decompose=None):
    """A bank's inputs: the diffuse and design covariances, (F, M, M) each,
    checked Hermitian and PSD; the look steering vectors, (K+1, F, M), from
    ``atfs`` when given (nulls always use the analytic model); and the
    eigenvalues of the design covariances. ``decompose`` "diffuse" or
    "total" returns the eigenvalues and eigenvectors of that stack instead,
    the one the designs solve against; each stack is decomposed once."""
    m = geometry.num_mics
    if atfs is None:
        g = np.stack([steering_matrix(geometry, d, frequencies, sound_speed) for d in directions])
    else:
        if atfs.num_mics != m:
            raise DataError(f"ATF set is {atfs.num_mics}-channel, geometry has {m}")
        rows = [atfs.index_of(d) for d in directions]
        g = atfs.vectors[rows][:, atfs.frequency_indices(frequencies)]
        if not g.any(axis=-1).all():
            raise DataError("ATF set holds an identically zero steering vector")
    phi_dd = diffuse_covariances(geometry, frequencies, sound_speed)
    phi_total = add_point_noises(phi_dd, list(nulls), geometry, frequencies, sound_speed)
    spectrum_dd = check_covariances(phi_dd, frequencies, decompose == "diffuse")
    spectrum = check_covariances(phi_total, frequencies, decompose == "total")
    return phi_dd, phi_total, g, spectrum_dd if decompose == "diffuse" else spectrum


def design_bank(
    geometry: ArrayGeometry,
    directions: list[DirectionSpec],
    method: str = "nlcmv",
    nulls: tuple = (),
    fs: int = 16000,
    n_fft: int = 512,
    sound_speed: float = SOUND_SPEED,
    wng_tolerance: float = WNG_TOLERANCE,
    wng_margin: float = 1.0,
    atfs: AtfSet | None = None,
) -> BeamformerBank:
    """Design one beamformer per direction per FFT bin, all in one batch.

    Frequencies are the rfft bin centers for (fs, n_fft). Look steering
    vectors come from ``atfs`` when given (all directions and frequencies
    must be on its grid), else from the analytic model. Null steering always uses
    the analytic model. Every design equals, bit for bit, the single-design
    function of its method applied to that bin's covariance and steering
    vector. Deterministic given identical inputs. An error names the first
    failing design in direction-major order, the order in which
    :func:`load_bank` reports a non-finite weight.
    """
    if len(directions) > MAX_DIRECTIONS:
        raise DataError(f"{len(directions)} directions, at most {MAX_DIRECTIONS}")
    check_solver_settings(
        wng_tolerance, wng_margin, sound_speed, fs, n_fft, method, geometry.num_mics
    )
    near = [d for d in directions if d.is_near_field]
    if len(near) != 1 or len(directions) < 2:
        raise DataError("directions must be K >= 1 horizontal looks plus one mouth point")
    freqs = np.fft.rfftfreq(n_fft, 1.0 / fs)
    diffuse = method == "superdirective"
    phi_dd, phi_total, g, eig = _bank_problem(
        geometry, directions, freqs, nulls, sound_speed, atfs, "diffuse" if diffuse else "total"
    )
    h, objective, loading, constraint, iterations = _design_batch(
        method,
        phi_dd if diffuse else phi_total,
        g,
        lambda i: f"{directions[i // len(freqs)].label()} at {freqs[i % len(freqs)]:.1f} Hz",
        wng_tolerance,
        wng_margin,
        eig,
    )
    return BeamformerBank(
        geometry=geometry,
        directions=list(directions),
        frequencies=freqs,
        weights=h,
        fs=int(fs),
        n_fft=int(n_fft),
        method=method,
        nulls=tuple(nulls),
        sound_speed=float(sound_speed),
        wng_tolerance=float(wng_tolerance),
        wng_margin=float(wng_margin),
        atf_source="freefield" if atfs is None else "file",
        loading=loading,
        constraint=constraint,
        iterations=iterations,
        objective=objective,
    )


@dataclass(frozen=True)
class BankReport:
    """:func:`verify_bank`'s findings: the KKT certificate of every design,
    with (K+1, F) arrays as fields. Every bank must be distortionless; only
    nlcmv banks are held to the WNG and KKT invariants."""

    bank: BeamformerBank
    kkt: KktReport

    def first_failure(self) -> tuple | None:
        """The first failed invariant as (name, direction, frequency in Hz,
        value), scanning frequencies, then directions, then INVARIANTS; or
        None."""
        k = self.kkt
        checks = [(k.distortionless_error, DISTORTIONLESS_TOL)]
        if self.bank.method == "nlcmv":
            checks += [(k.constraint_value, DISTORTIONLESS_TOL),
                       (k.stationarity_residual, k.stationarity_bound),
                       (k.slackness, k.slackness_bound)]
        hits = np.argwhere(np.stack([~(v <= b) for v, b in checks]).transpose(2, 1, 0))
        if not hits.size:
            return None
        fi, di, which = hits[0]
        return (INVARIANTS[which], self.bank.directions[di],
                float(self.bank.frequencies[fi]), float(checks[which][0][di, fi]))


def verify_bank(bank: BeamformerBank, atfs: AtfSet | None = None) -> BankReport:
    """Recompute every design's invariants (see :func:`verify_kkt`) from the
    bank's own settings. ``atfs`` is the steering set a bank with
    atf_source 'file' was designed from."""
    check_solver_settings(bank.wng_tolerance, bank.wng_margin, bank.sound_speed,
                          bank.fs, bank.n_fft, bank.method, bank.num_mics)
    _, phi_total, g, eigenvalues = _bank_problem(
        bank.geometry, bank.directions, bank.frequencies, bank.nulls, bank.sound_speed, atfs
    )
    loading = np.zeros(bank.weights.shape[:2]) if bank.loading is None else bank.loading
    return BankReport(bank, _kkt(bank.weights, loading, phi_total, eigenvalues, g,
                                 bank.wng_margin, SLACKNESS_BOUND))


def save_bank(bank: BeamformerBank, path) -> None:
    """Write a bank: one JSON header line, then the (K+1, F, M) weights as
    little-endian complex128 (interleaved re/im float64); bit-exact."""
    header = {
        "magic": BANK_MAGIC,
        "geometry": {
            "id": bank.geometry.id,
            "mics": [[float(v) for v in row] for row in bank.geometry.mics],
        },
        "directions": [_direction_to_dict(d) for d in bank.directions],
        "fs": bank.fs,
        "n_fft": bank.n_fft,
        "method": bank.method,
        "nulls": [
            {"direction": _direction_to_dict(spec.direction), "weight": spec.weight,
             "psd": spec.psd}
            for spec in bank.nulls
        ],
        "sound_speed": bank.sound_speed,
        "wng_tolerance": bank.wng_tolerance,
        "wng_margin": bank.wng_margin,
        "atf_source": bank.atf_source,
        "diagnostics": {
            key: None if getattr(bank, key) is None else getattr(bank, key).tolist()
            for key in _DIAGNOSTICS
        },
    }
    _container.write(path, header, bank.weights, "<c16")


def load_bank(path) -> BeamformerBank:
    """Read a bank written by :func:`save_bank`; a malformed file, one whose
    settings fail :func:`check_solver_settings`, or one with a non-finite
    weight raises ParseError."""
    with _container.reading(path, BANK_MAGIC, "bank") as (header, payload):
        directions = _directions_from_header(header["directions"])
        geometry = ArrayGeometry(
            id=str(header["geometry"]["id"]),
            mics=np.asarray(header["geometry"]["mics"], dtype=float),
        )
        fs, n_fft, method = int(header["fs"]), int(header["n_fft"]), str(header["method"])
        settings = {
            "sound_speed": float(header.get("sound_speed", SOUND_SPEED)),
            "wng_tolerance": float(header.get("wng_tolerance", WNG_TOLERANCE)),
            "wng_margin": float(header.get("wng_margin", 1.0)),
        }
        check_solver_settings(**settings, fs=fs, n_fft=n_fft, method=method,
                              num_mics=geometry.num_mics)
        weights = payload("<c16", (len(directions), n_fft // 2 + 1, geometry.num_mics))
        frequencies = np.fft.rfftfreq(n_fft, 1.0 / fs)

        def at(i):  # the first bad (direction, bin), direction-major
            di, fi = divmod(i, frequencies.shape[0])
            return (f"non-finite weight at {directions[di].label()}, "
                    f"bin {fi} ({frequencies[fi]:g} Hz)")

        raise_first(np.isfinite(weights).all(axis=2).ravel(), ValueError, at)
        diag = header.get("diagnostics") or {}
        return BeamformerBank(
            geometry=geometry,
            directions=directions,
            frequencies=frequencies,
            weights=weights,
            fs=fs,
            n_fft=n_fft,
            method=method,
            nulls=tuple(
                PointNoiseSpec(
                    direction=_direction_from_dict(item["direction"]),
                    weight=float(item["weight"]),
                    psd=float(item["psd"]),
                )
                for item in header.get("nulls", [])
            ),
            atf_source=str(header.get("atf_source", "freefield")),
            **settings,
            **{key: None if diag.get(key) is None else np.asarray(diag[key], dtype=dtype)
               for key, dtype in _DIAGNOSTICS.items()},
        )
