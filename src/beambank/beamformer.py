"""Fixed beamformer design: classical baselines and the null-steering,
WNG-constrained minimum-variance design, plus the multi-direction bank.

The constrained design minimizes h^H Phi h subject to h^H g = 1 and a
white-noise-gain floor written as the quadratic constraint
c = h^H Psi h <= 0 with Psi = I - g g^H * M / ||g||^2. On the
distortionless manifold the constraint set is a ball, so the KKT system
reduces exactly to diagonal loading: h(eps) = (Phi + eps I)^{-1} g,
normalized (Cox, Zeskind & Owen, IEEE TASSP 1987). ||h(eps)||^2 is
non-increasing in eps, which makes c(eps) monotone and a bisection on eps
exact; the result is certifiable after the fact through verify_kkt. One
batched kernel diagonalizes each covariance once and bisects the loading
in its eigenbasis (Li, Stoica & Wang, IEEE TSP 2003); it works row by row,
so a single design (a batch of one) does not depend on its batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DegenerateSteeringError,
    IllConditionedError,
    ParseError,
    SolverError,
    raise_first,
)
from .geometry import (
    SOUND_SPEED,
    ArrayGeometry,
    AtfSet,
    DirectionSpec,
    SteeringVector,
    _direction_from_dict,
    _direction_to_dict,
    steering_matrix,
)
from .noise_model import (
    NoiseCovariance,
    PointNoiseSpec,
    add_point_noises,
    check_covariances,
    diffuse_covariances,
    regularize_stack,
)

WNG_TOLERANCE = 1e-8
MAX_BISECTION_STEPS = 60
LOADING_CAP_SCALE = 1e6
DISTORTIONLESS_TOL = 1e-6
SLACKNESS_BOUND = 1e-8

BANK_MAGIC = "beambank-bank-v1"

METHODS = ("delay_and_sum", "superdirective", "mvdr", "nlcmv")
# verify's invariants, in the order a failure is reported within one design
INVARIANTS = ("distortionless", "wng-feasibility", "kkt-stationarity", "kkt-slackness")


@dataclass(frozen=True)
class BeamformerWeights:
    """Designed weights at one frequency, with solver diagnostics.

    ``objective`` is h^H Phi h against the design covariance,
    ``loading`` the diagonal loading level used to enforce the WNG
    constraint (0 when inactive), ``constraint`` the constraint value c,
    ``iterations`` the bisection step count.
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
    error: type = DataError,
) -> None:
    """Raise ``error`` unless wng_margin > 0, wng_tolerance >= 0 and the
    sound speed is finite and > 0."""
    if not wng_margin > 0:
        raise error(f"wng_margin {wng_margin} must be > 0")
    if not wng_tolerance >= 0:
        raise error(f"wng_tolerance {wng_tolerance} must be >= 0")
    if not (math.isfinite(sound_speed) and sound_speed > 0):
        raise error(f"sound_speed {sound_speed} must be finite and > 0")


def wng_constraint_value(h: np.ndarray, g: SteeringVector, margin: float = 1.0) -> float:
    """Constraint value c = h^H Psi h; c <= 0 keeps white noise gain at or
    above margin * ||g||^2 / M (for distortionless h)."""
    h = np.asarray(h, dtype=complex)[None]
    return float(_wng(h, g.entries[None], _norm_sq(g.entries[None]), margin)[0])


def _weights_of(h) -> np.ndarray:
    if isinstance(h, BeamformerWeights):
        return h.weights
    return np.asarray(h, dtype=complex)


def _norm_sq(x: np.ndarray) -> np.ndarray:
    return (x.real**2 + x.imag**2).sum(axis=-1)


def _wng(h, g, g_norm_sq, margin) -> np.ndarray:
    """c = ||h||^2 - M |g^H h|^2 / (margin ||g||^2) = h^H Psi h, row by row."""
    gh = (g.conj() * h).sum(axis=1)
    return _norm_sq(h) - g.shape[1] * (gh.real**2 + gh.imag**2) / (margin * g_norm_sq)


def _loaded_designs(matrices, bins, g, g_norm_sq, where, wng_tolerance=None, wng_margin=1.0):
    """h(eps) = (A + eps I)^{-1} g / (g^H (A + eps I)^{-1} g) for N designs.

    ``matrices`` is an (F, M, M) stack of regularized covariances, ``g`` the
    (N, M) steering vectors and ``bins`` the covariance of each design.
    Without a tolerance eps stays 0 (MVDR). With one, every design whose
    c(0) > 0 gets its loading bracketed by tenfold steps and then bisected
    until |c| <= tol and eps |c| <= tol, within a shared step budget; the
    feasible side of the bracket is kept. Returns h, eps and the step counts.
    """
    n, m = g.shape
    lam_f, u_f = np.linalg.eigh(matrices)
    lam, u = lam_f[bins], u_f[bins]
    # a positive definite A keeps the normalization g^H (A + eps I)^{-1} g
    # finite and positive for every eps >= 0
    raise_first(np.isfinite(lam).all(axis=1) & (lam[:, 0] > 0), IllConditionedError, lambda i: (
        f"{where(i)}: degenerate normalization g^H P^-1 g: covariance eigenvalues "
        f"span [{lam[i, 0]:.3e}, {lam[i, -1]:.3e}] after regularization"
    ))
    b = (u.conj() * g[:, :, None]).sum(axis=1)
    p = b.real**2 + b.imag**2
    eps = np.zeros(n)
    steps = np.zeros(n, dtype=int)

    if wng_tolerance is not None:
        target = m / (wng_margin * g_norm_sq)

        def c_at(idx, e):
            w = p[idx] / (lam[idx] + e[:, None])
            s1 = w.sum(axis=1)
            return (w / (lam[idx] + e[:, None])).sum(axis=1) / s1**2 - target[idx]

        trace = np.trace(matrices, axis1=-2, axis2=-1).real[bins]
        cap = LOADING_CAP_SCALE * trace / m
        lo, hi = np.zeros(n), trace / m * 1e-6
        c = c_at(np.arange(n), eps)
        # Unbracketed designs try hi and grow it tenfold; bracketed ones try
        # the midpoint. c(eps) is monotone non-increasing and the
        # delay-and-sum limit (eps -> inf) is strictly feasible, so a sign
        # change must appear below the cap.
        bracketed = np.zeros(n, dtype=bool)
        run = np.flatnonzero(c > 0.0)
        while run.size:
            steps[run] += 1
            was = bracketed[run]
            trial = np.where(was, 0.5 * (lo[run] + hi[run]), hi[run])
            c_trial = c_at(run, trial)
            ok, grow = c_trial <= 0.0, (c_trial > 0.0) & ~was
            hi[run[ok]], c[run[ok]], bracketed[run[ok]] = trial[ok], c_trial[ok], True
            lo[run[~ok]] = trial[~ok]
            c[run[grow]] = c_trial[grow]  # an unbracketed design reports its last trial
            hi[run[grow]] *= 10.0
            cr = np.abs(c[run])
            done = bracketed[run] & (cr <= wng_tolerance) & (hi[run] * cr <= wng_tolerance)
            run = run[~done & (steps[run] < MAX_BISECTION_STEPS) & ~(hi[run] > cap[run])]
        raise_first(bracketed | (steps == 0), SolverError, lambda i: (
            f"{where(i)}: internal solver failure: no feasible loading below cap "
            f"{cap[i]:.3e} within {steps[i]} steps (c = {c[i]:.3e})"
        ))
        raise_first(c <= wng_tolerance, SolverError, lambda i: (
            f"{where(i)}: internal solver failure: returned infeasible c = {c[i]:.3e}"
        ))
        eps = np.where(bracketed, hi, 0.0)

    x = b / (lam + eps[:, None])
    denom = (p / (lam + eps[:, None])).sum(axis=1)
    h = (u * x[:, None, :]).sum(axis=2) / denom[:, None]
    return h, eps, steps


def _design_batch(method, phi, bins, g, where, wng_tolerance=WNG_TOLERANCE, wng_margin=1.0):
    """N designs of one method sharing an (F, M, M) covariance stack ``phi``
    (the diffuse one for superdirective). Returns (weights, objective,
    loading, constraint, iterations); the constraint uses ``wng_margin``
    for nlcmv and 1 otherwise."""
    n, m = g.shape
    g_norm_sq = _norm_sq(g)
    raise_first(g_norm_sq > 0.0, DegenerateSteeringError,
                lambda i: f"{where(i)}: steering vector has zero norm")
    loading, iterations = np.zeros(n), np.zeros(n, dtype=int)
    margin = wng_margin if method == "nlcmv" else 1.0
    if m == 1:
        # distortionless with M = 1 forces conj(h) G = 1, i.e. the applied filter is 1/G
        h = 1.0 / np.conj(g)
    elif method == "delay_and_sum":
        h = g / g_norm_sq[:, None]
    else:
        h, loading, iterations = _loaded_designs(
            regularize_stack(phi), bins, g, g_norm_sq, where,
            wng_tolerance if method == "nlcmv" else None, wng_margin,
        )
    err = np.abs((h.conj() * g).sum(axis=1) - 1.0)
    raise_first(err <= DISTORTIONLESS_TOL, SolverError,
                lambda i: f"{where(i)}: {method}: distortionless violated by {err[i]:.3e}")
    objective = (h.conj() * (phi[bins] * h[:, None, :]).sum(axis=2)).sum(axis=1).real
    return h, objective, loading, _wng(h, g, g_norm_sq, margin), iterations


def _single_design(method, phi, g: SteeringVector, **settings) -> BeamformerWeights:
    """One design as a batch of one; ``phi`` None means the identity."""
    m = g.num_mics
    matrix = np.eye(m, dtype=complex) if phi is None else phi.matrix
    if matrix.shape[0] != m:
        raise DataError(f"{m}-channel steering vs {matrix.shape[0]}-channel covariance")
    h, objective, loading, constraint, iterations = _design_batch(
        method, matrix[None], np.zeros(1, dtype=int), g.entries[None],
        lambda i: f"{g.frequency:g} Hz", **settings,
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
    otherwise bisects the diagonal loading level until the constraint
    boundary is hit. The stop rule demands both |c| <= wng_tolerance and
    loading * |c| <= wng_tolerance so complementary slackness certifies,
    within a fixed step budget; the feasible bracket side is returned.
    """
    check_solver_settings(wng_tolerance, wng_margin)
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


def _kkt(h, loading, phi, bins, g, wng_margin, slackness_bound) -> KktReport:
    """KKT certificates of N designs against an (F, M, M) covariance stack."""
    a_h = (phi[bins] * h[:, None, :]).sum(axis=2) + loading[:, None] * h
    g_norm_sq = _norm_sq(g)
    lam = (g.conj() * a_h).sum(axis=1) / g_norm_sq
    phi_norm = np.linalg.norm(phi, 2, axis=(-2, -1))[bins]
    c = _wng(h, g, g_norm_sq, wng_margin)
    return KktReport(
        stationarity_residual=np.sqrt(_norm_sq(a_h - lam[:, None] * g)),
        stationarity_bound=1e-6 * np.sqrt(_norm_sq(h)) * phi_norm,
        distortionless_error=np.abs((h.conj() * g).sum(axis=1) - 1.0),
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
    report = _kkt(
        result.weights[None], np.array([result.loading]), phi_total.matrix[None],
        np.zeros(1, dtype=int), g.entries[None], wng_margin, slackness_bound,
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


def _bank_problem(geometry, directions, frequencies, nulls, sound_speed, atfs):
    """A bank's inputs: the diffuse and design covariances, (F, M, M) each,
    checked Hermitian and PSD; the look steering vectors, (F * (K+1), M)
    bin-major, from ``atfs`` when given (nulls always use the analytic
    model); and the bin of each design."""
    m = geometry.num_mics
    if atfs is None:
        g = np.stack(
            [steering_matrix(geometry, d, frequencies, sound_speed) for d in directions], axis=1
        )
    else:
        if atfs.num_mics != m:
            raise DataError(f"ATF set is {atfs.num_mics}-channel, geometry has {m}")
        rows = [atfs.index_of(d) for d in directions]
        g = atfs.vectors[rows][:, atfs.frequency_indices(frequencies)].swapaxes(0, 1)
        if not g.any(axis=-1).all():
            raise DataError("ATF set holds an identically zero steering vector")
    phi_dd = diffuse_covariances(geometry, frequencies, sound_speed)
    phi_total = add_point_noises(phi_dd, list(nulls), geometry, frequencies, sound_speed)
    check_covariances(phi_dd, frequencies)
    check_covariances(phi_total, frequencies)
    bins = np.repeat(np.arange(len(frequencies)), len(directions))
    return phi_dd, phi_total, np.ascontiguousarray(g).reshape(-1, m), bins


def _by_direction(x: np.ndarray, k1: int) -> np.ndarray:
    """Per-design values in bin-major order, (F * (K+1), ...), as (K+1, F, ...)."""
    return np.ascontiguousarray(np.reshape(x, (-1, k1) + x.shape[1:]).swapaxes(0, 1))


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
    vectors come from ``atfs`` when given (all directions and bins must be
    on its grid), else from the analytic model. Null steering always uses
    the analytic model. Every design equals, bit for bit, the single-design
    function of its method applied to that bin's covariance and steering
    vector. Deterministic given identical inputs.
    """
    if method not in METHODS:
        raise DataError(f"unknown method '{method}', expected one of {METHODS}")
    check_solver_settings(wng_tolerance, wng_margin, sound_speed)
    near = [d for d in directions if d.is_near_field]
    if len(near) != 1 or len(directions) < 2:
        raise DataError("directions must be K >= 1 horizontal looks plus one mouth point")
    freqs = np.fft.rfftfreq(n_fft, 1.0 / fs)
    phi_dd, phi_total, g, bins = _bank_problem(
        geometry, directions, freqs, nulls, sound_speed, atfs
    )
    k1 = len(directions)
    h, objective, loading, constraint, iterations = (_by_direction(x, k1) for x in _design_batch(
        method,
        phi_dd if method == "superdirective" else phi_total,
        bins,
        g,
        lambda i: f"{directions[i % k1].label()} at {freqs[i // k1]:.1f} Hz",
        wng_tolerance,
        wng_margin,
    ))
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
        value), scanning bins, then directions, then INVARIANTS; or None."""
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
    check_solver_settings(bank.wng_tolerance, bank.wng_margin, bank.sound_speed)
    _, phi_total, g, bins = _bank_problem(
        bank.geometry, bank.directions, bank.frequencies, bank.nulls, bank.sound_speed, atfs
    )
    k1, f_count, m = bank.weights.shape
    loading = np.zeros((k1, f_count)) if bank.loading is None else bank.loading
    flat = _kkt(
        bank.weights.swapaxes(0, 1).reshape(-1, m), loading.T.reshape(-1), phi_total,
        bins, g, bank.wng_margin, SLACKNESS_BOUND,
    )
    return BankReport(bank, KktReport(**{
        k: _by_direction(v, k1) if np.ndim(v) else v for k, v in vars(flat).items()
    }))


def save_bank(bank: BeamformerBank, path) -> None:
    """Write a bank: one JSON header line, then the (K+1, F, M) weights as
    little-endian complex128 (interleaved re/im float64); bit-exact."""
    nulls = []
    for spec in bank.nulls:
        if callable(spec.psd):
            raise DataError("cannot serialize a bank whose null psd is a callable")
        nulls.append(
            {
                "direction": _direction_to_dict(spec.direction),
                "weight": spec.weight,
                "psd": spec.psd,
            }
        )
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
        "nulls": nulls,
        "sound_speed": bank.sound_speed,
        "wng_tolerance": bank.wng_tolerance,
        "wng_margin": bank.wng_margin,
        "atf_source": bank.atf_source,
        "diagnostics": {
            "loading": None if bank.loading is None else bank.loading.tolist(),
            "constraint": None if bank.constraint is None else bank.constraint.tolist(),
            "iterations": None if bank.iterations is None else bank.iterations.tolist(),
            "objective": None if bank.objective is None else bank.objective.tolist(),
        },
    }
    payload = np.ascontiguousarray(bank.weights, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload.tobytes())


def load_bank(path) -> BeamformerBank:
    """Read a bank written by :func:`save_bank`."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: bad bank header: {exc}") from exc
    if header.get("magic") != BANK_MAGIC:
        raise ParseError(f"{path}: not a bank file (missing magic)")
    try:
        geometry = ArrayGeometry(
            id=str(header["geometry"]["id"]),
            mics=np.asarray(header["geometry"]["mics"], dtype=float),
        )
        directions = [_direction_from_dict(d) for d in header["directions"]]
        fs = int(header["fs"])
        n_fft = int(header["n_fft"])
        method = str(header["method"])
        if method not in METHODS:
            raise ValueError(f"unknown method '{method}', expected one of {METHODS}")
        nulls = tuple(
            PointNoiseSpec(
                direction=_direction_from_dict(item["direction"]),
                weight=float(item["weight"]),
                psd=float(item["psd"]),
            )
            for item in header.get("nulls", [])
        )
        sound_speed = float(header.get("sound_speed", SOUND_SPEED))
        wng_tolerance = float(header.get("wng_tolerance", WNG_TOLERANCE))
        wng_margin = float(header.get("wng_margin", 1.0))
        atf_source = str(header.get("atf_source", "freefield"))
        diag = header.get("diagnostics") or {}
        check_solver_settings(wng_tolerance, wng_margin, sound_speed)
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise ParseError(f"{path}: bad bank header field: {exc}") from exc
    freqs = np.fft.rfftfreq(n_fft, 1.0 / fs)
    expected = len(directions) * freqs.shape[0] * geometry.num_mics
    data = np.frombuffer(blob, dtype="<c16")
    if data.shape[0] != expected:
        raise ParseError(
            f"{path}: payload holds {data.shape[0]} values, header implies {expected}"
        )
    weights = data.reshape(len(directions), freqs.shape[0], geometry.num_mics).copy()

    def pick(key, dtype):
        value = diag.get(key)
        return None if value is None else np.asarray(value, dtype=dtype)

    return BeamformerBank(
        geometry=geometry,
        directions=directions,
        frequencies=freqs,
        weights=weights,
        fs=fs,
        n_fft=n_fft,
        method=method,
        nulls=nulls,
        sound_speed=sound_speed,
        wng_tolerance=wng_tolerance,
        wng_margin=wng_margin,
        atf_source=atf_source,
        loading=pick("loading", float),
        constraint=pick("constraint", float),
        iterations=pick("iterations", int),
        objective=pick("objective", float),
    )
