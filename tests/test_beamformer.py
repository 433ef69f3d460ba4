"""Beamformer designs: closed forms, constrained solver, KKT checks, bank IO."""

import math
import tracemalloc

import numpy as np
import pytest

from beambank.config import design_settings, load_config
from beambank.constants import MAX_DIRECTIONS, METHODS
from beambank import beamformer
from beambank.errors import DataError, IllConditionedError, SolverError
from beambank.beamformer import (
    BeamformerWeights,
    design_bank,
    design_delay_and_sum,
    design_mvdr,
    design_nlcmv,
    design_superdirective,
    load_bank,
    save_bank,
    verify_bank,
    verify_kkt,
    wng_constraint_value,
)
from beambank.geometry import (
    ArrayGeometry,
    AtfSet,
    DirectionSpec,
    SteeringVector,
    freefield_atfs,
    select_subset,
    steering_vector,
)
from beambank.noise_model import (
    REGULARIZATION_SCALE,
    NoiseCovariance,
    PointNoiseSpec,
    composite_covariance,
    diffuse_covariance_sinc,
    regularize,
)

PAIR = ArrayGeometry(id="pair", mics=np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]))
MOUTH = DirectionSpec(azimuth=0.0, elevation=-0.6435011087932844, range_m=0.1)


def _random_instance(rng, m, with_point=True):
    x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    phi = x @ x.conj().T + 0.05 * np.eye(m)
    if with_point:
        u = rng.normal(size=m) + 1j * rng.normal(size=m)
        phi = phi + 10.0 * np.outer(u, u.conj())
    phi = 0.5 * (phi + phi.conj().T)
    gv = rng.normal(size=m) + 1j * rng.normal(size=m)
    return (
        NoiseCovariance(frequency=1000.0, matrix=phi),
        SteeringVector(frequency=1000.0, entries=gv),
    )


class TestDelayAndSum:
    def test_matched_filter_form(self, rng):
        g = SteeringVector(
            frequency=1000.0, entries=rng.normal(size=4) + 1j * rng.normal(size=4)
        )
        h = design_delay_and_sum(g).weights
        np.testing.assert_allclose(h, g.entries / np.vdot(g.entries, g.entries).real, atol=1e-15)
        assert abs(np.vdot(h, g.entries) - 1.0) < 1e-14

    def test_wng_constraint_never_positive(self, rng, glasses5):
        """Delay-and-sum sits exactly on the WNG optimum, so its constraint
        value can only be zero or negative."""
        for _ in range(50):
            az = rng.uniform(-math.pi, math.pi)
            el = rng.uniform(-math.pi / 2, math.pi / 2)
            f = rng.uniform(0.0, 8000.0)
            g = steering_vector(glasses5, DirectionSpec(azimuth=az, elevation=el), f)
            h = design_delay_and_sum(g).weights
            assert wng_constraint_value(h, g) <= 1e-15

    def test_zero_steering_rejected(self):
        # an all-zero vector never gets past construction
        with pytest.raises(DataError):
            SteeringVector(frequency=100.0, entries=np.zeros(3, dtype=complex))


class TestMvdr:
    def test_identity_covariance_reduces_to_delay_and_sum(self, rng):
        for m in (2, 4, 7):
            g = SteeringVector(
                frequency=500.0, entries=rng.normal(size=m) + 1j * rng.normal(size=m)
            )
            phi = NoiseCovariance(frequency=500.0, matrix=np.eye(m, dtype=complex))
            h_mvdr = design_mvdr(phi, g).weights
            h_ds = design_delay_and_sum(g).weights
            np.testing.assert_allclose(h_mvdr, h_ds, atol=1e-9)

    def test_distortionless(self, rng):
        phi, g = _random_instance(rng, 5)
        h = design_mvdr(phi, g).weights
        assert abs(np.vdot(h, g.entries) - 1.0) < 1e-10

    def test_optimal_among_random_feasible_points(self, rng):
        """MVDR must beat any random distortionless competitor."""
        phi, g = _random_instance(rng, 4)
        res = design_mvdr(phi, g)
        for _ in range(200):
            h = rng.normal(size=4) + 1j * rng.normal(size=4)
            h = h / np.vdot(h, g.entries)  # force distortionless
            obj = float(np.vdot(h, phi.matrix @ h).real)
            assert obj >= res.objective - 1e-9


class TestSuperdirective:
    def test_is_mvdr_on_diffuse_field(self, glasses5):
        f = 2000.0
        phi_dd = diffuse_covariance_sinc(glasses5, f)
        g = steering_vector(glasses5, DirectionSpec(azimuth=0.0, elevation=0.0), f)
        np.testing.assert_array_equal(
            design_superdirective(phi_dd, g).weights, design_mvdr(phi_dd, g).weights
        )


class TestNlcmv:
    def test_single_channel_inverts_the_response(self):
        g = SteeringVector(frequency=1000.0, entries=np.array([0.5 - 0.5j]))
        phi = NoiseCovariance(frequency=1000.0, matrix=np.array([[2.0 + 0j]]))
        h = design_nlcmv(phi, g).weights
        np.testing.assert_array_equal(h, np.array([1.0 / np.conj(g.entries[0])]))
        # applied filter conj(h) times channel response is exactly one
        assert np.conj(h[0]) * g.entries[0] == pytest.approx(1.0, abs=0.0)

    def test_reduces_to_superdirective_when_unconstrained(self, glasses5):
        """No nulls and an already-feasible constraint leave the diffuse MVDR
        solution untouched."""
        f = 1000.0
        phi_dd = diffuse_covariance_sinc(glasses5, f)
        g = steering_vector(glasses5, DirectionSpec(azimuth=0.0, elevation=0.0), f)
        h_sd = design_superdirective(phi_dd, g)
        h_nl = design_nlcmv(phi_dd, g)
        if h_nl.loading == 0.0:
            np.testing.assert_allclose(h_nl.weights, h_sd.weights, atol=1e-12)

    def test_constraints_hold_on_random_instances(self, rng):
        for i in range(40):
            m = int(rng.integers(2, 6))
            phi, g = _random_instance(rng, m)
            res = design_nlcmv(phi, g)
            assert abs(np.vdot(res.weights, g.entries) - 1.0) <= 1e-6
            assert wng_constraint_value(res.weights, g) <= 1e-6

    def test_kkt_certificate(self, rng):
        for i in range(25):
            m = int(rng.integers(2, 6))
            phi, g = _random_instance(rng, m)
            res = design_nlcmv(phi, g)
            report = verify_kkt(res, phi, g)
            assert report.passed, report

    def test_norm_non_increasing_in_loading(self, glasses5):
        """The loaded-inverse path only shrinks: ||h(eps)||^2 is
        non-increasing in eps."""
        f = 1000.0
        phi_dd = diffuse_covariance_sinc(glasses5, f)
        null = PointNoiseSpec(
            direction=DirectionSpec(azimuth=math.pi, elevation=0.0), weight=100.0
        )
        phi = composite_covariance(phi_dd, [null], glasses5)
        g = steering_vector(glasses5, DirectionSpec(azimuth=0.0, elevation=0.0), f)
        gv = g.entries
        levels = np.logspace(-8, 4, 20)
        norms = []
        for eps in levels:
            h = np.linalg.solve(phi.matrix + eps * np.eye(5), gv)
            h = h / np.vdot(gv, h)
            norms.append(float(np.vdot(h, h).real))
        diffs = np.diff(norms)
        assert np.all(diffs <= 1e-12)

    def test_null_depth_increases_with_weight(self, glasses5):
        """Raising a null's weight can only deepen (or hold) the response
        toward it."""
        f = 1000.0
        look = steering_vector(glasses5, DirectionSpec(azimuth=0.0, elevation=0.0), f)
        null_dir = DirectionSpec(azimuth=math.pi, elevation=0.0)
        g_null = steering_vector(glasses5, null_dir, f).entries
        phi_dd = diffuse_covariance_sinc(glasses5, f)
        responses = []
        for alpha in (0.0, 1.0, 10.0, 100.0, 1000.0):
            nulls = [PointNoiseSpec(direction=null_dir, weight=alpha)] if alpha else []
            phi = composite_covariance(phi_dd, nulls, glasses5)
            h = design_nlcmv(phi, look).weights
            responses.append(abs(np.vdot(h, g_null)))
        diffs = np.diff(responses)
        assert np.all(diffs <= 1e-9), responses

    def test_objective_never_below_loaded_path_optimum(self, rng):
        """The returned point must lie on the loaded-inverse path: recomputing
        h from the recorded loading reproduces the weights."""
        for _ in range(10):
            phi, g = _random_instance(rng, 4)
            res = design_nlcmv(phi, g)
            if res.loading == 0.0:
                continue
            mat = regularize(phi).matrix + res.loading * np.eye(4)
            h = np.linalg.solve(mat, g.entries)
            h = h / np.vdot(g.entries, h)
            np.testing.assert_allclose(res.weights, h, atol=1e-10)

    def test_mismatched_sizes_rejected(self, rng):
        phi, _ = _random_instance(rng, 3)
        g = SteeringVector(frequency=1000.0, entries=np.ones(4, dtype=complex))
        with pytest.raises(DataError):
            design_nlcmv(phi, g)

    @pytest.mark.parametrize(
        "settings",
        [{"wng_margin": 0.0}, {"wng_margin": -1.0}, {"wng_tolerance": -1.0},
         {"wng_margin": 3.0}, {"wng_tolerance": math.inf}],
    )
    def test_out_of_range_settings_rejected(self, rng, settings):
        phi, g = _random_instance(rng, 3)
        with pytest.raises(DataError):
            design_nlcmv(phi, g, **settings)

    @pytest.mark.parametrize("design", [design_nlcmv, design_mvdr])
    def test_zero_covariance_is_ill_conditioned(self, design):
        """A zero covariance has no normalization; the solver says so
        instead of returning nan weights (numpy warnings fail the suite)."""
        phi = NoiseCovariance(frequency=1000.0, matrix=np.zeros((3, 3)))
        g = SteeringVector(frequency=1000.0, entries=np.ones(3, dtype=complex))
        with pytest.raises(IllConditionedError):
            design(phi, g)


def _secular(phi, g, margin, eps):
    """c(eps) = S2 / S1^2 - M / (margin ||g||^2) and dc/deps, with
    Sk = sum_i p_i / (lam_i + eps)^k in the eigenbasis of regularize(phi)."""
    lam, u = np.linalg.eigh(regularize(phi).matrix)
    p = np.abs(u.conj().T @ g.entries) ** 2
    s1, s2, s3 = ((p / (lam + eps) ** k).sum() for k in (1, 2, 3))
    target = g.num_mics / (margin * np.vdot(g.entries, g.entries).real)
    return s2 / s1**2 - target, -2.0 * s3 / s1**2 + 2.0 * s2**2 / s1**3


class TestLoadingSolver:
    """The loading steps (bracketing and Newton) of the nlcmv solver."""

    def test_newton_matches_dense_bisection(self, rng):
        """On seeded random positive definite covariances the returned
        loading is feasible, passes both stop tests, and lies within 1e-4
        relative of the root of c found by 200 bisection steps. The stop
        band |c| <= tol bounds the gap by about tol / |dc/deps|, at most
        7.8e-6 relative on these instances."""
        tol, active = 1e-8, 0
        for _ in range(120):
            m = int(rng.integers(2, 8))
            phi, g = _random_instance(rng, m)
            margin = float(rng.uniform(0.5, min(m - 0.1, 3.0)))
            res = design_nlcmv(phi, g, tol, margin)
            if res.loading == 0.0:
                assert res.iterations == 0 and _secular(phi, g, margin, 0.0)[0] <= 0.0
                continue
            active += 1
            lo, hi = 0.0, 1.0
            while _secular(phi, g, margin, hi)[0] > 0.0:
                lo, hi = hi, 2.0 * hi
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _secular(phi, g, margin, mid)[0] > 0.0 else (lo, mid)
            eps = res.loading
            c, dc = _secular(phi, g, margin, eps)
            assert c <= 0.0 and abs(c) <= tol and eps * abs(c) <= tol, (c, eps)
            assert abs(eps - hi) <= 1e-4 * hi, (eps, hi)
            assert dc < 0.0
            assert res.iterations <= 20
        assert active >= 30

    def test_lifted_bin_bank_equals_batch_of_one(self, glasses5):
        """At 0 Hz the diffuse covariance is singular, so the bank lifts that
        bin and decomposes it again; every design there, as every other,
        equals the single design bit for bit."""
        s = _small_settings(glasses5, "nlcmv")
        bank = design_bank(**s)
        m = glasses5.num_mics
        for fi, f in enumerate(bank.frequencies[:3]):
            phi = composite_covariance(diffuse_covariance_sinc(glasses5, f), list(s["nulls"]),
                                       glasses5)
            delta = REGULARIZATION_SCALE * np.trace(phi.matrix).real / m
            assert (np.linalg.eigvalsh(phi.matrix)[0] < 0.5 * delta) == (fi == 0)
            for di, d in enumerate(s["directions"]):
                w = design_nlcmv(phi, steering_vector(glasses5, d, f))
                assert w.weights.tobytes() == bank.weights[di, fi].tobytes(), (di, fi)
                assert (w.loading, w.iterations) == (
                    bank.loading[di, fi], bank.iterations[di, fi]
                )
        assert (bank.loading[:, 0] > 0).any()

    def test_exhausted_step_budget_raises(self, rng, monkeypatch):
        monkeypatch.setattr(beamformer, "MAX_LOADING_STEPS", 1)
        phi, g = _random_instance(rng, 4)
        with pytest.raises(SolverError, match=r"no feasible loading below cap .* within 1 steps"):
            design_nlcmv(phi, g, wng_margin=2.0)

    def test_loading_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(beamformer, "LOADING_CAP_SCALE", 1e-3)
        phi, g = _random_instance(rng, 4)
        cap = 1e-3 * np.trace(regularize(phi).matrix).real / 4
        with pytest.raises(SolverError, match=rf"no feasible loading below cap {cap:.3e} within"):
            design_nlcmv(phi, g, wng_margin=2.0)


class TestDecompositionCount:
    """Each covariance stack is decomposed once: a repeated eigh, eigvalsh
    or SVD of the same stack would show here."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        made = []
        for name in ("eigh", "eigvalsh", "svd"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                made.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            # np.linalg.norm reaches svd through the private module
            monkeypatch.setattr(np.linalg, name, counted)
            monkeypatch.setattr(np.linalg._linalg, name, counted)
        return made

    def test_design_bank_decomposes_each_stack_once(self, glasses5, calls):
        bank = design_bank(**_small_settings(glasses5, "nlcmv"))
        f, m = bank.frequencies.shape[0], glasses5.num_mics
        # phi_dd for its PSD check, the design stack, and the lifted 0 Hz bin
        assert calls == [("eigvalsh", (f, m, m)), ("eigh", (f, m, m)), ("eigh", (1, m, m))]

    def test_verify_bank_takes_no_svd(self, glasses5, calls):
        bank = design_bank(**_small_settings(glasses5, "nlcmv"))
        calls.clear()
        assert verify_bank(bank).kkt.passed.all()
        f, m = bank.frequencies.shape[0], glasses5.num_mics
        assert calls == [("eigvalsh", (f, m, m)), ("eigvalsh", (f, m, m))]


def _small_bank(glasses5, method="nlcmv", nulls=(), n_fft=64):
    directions = [
        DirectionSpec(azimuth=0.0, elevation=0.0),
        DirectionSpec(azimuth=math.pi, elevation=0.0),
        MOUTH,
    ]
    return design_bank(
        glasses5, directions, method=method, nulls=nulls, fs=16000, n_fft=n_fft
    )


class TestBank:
    def test_shapes_and_labels(self, glasses5):
        bank = _small_bank(glasses5)
        assert bank.weights.shape == (3, 33, 5)
        assert bank.direction_labels() == ["az0", "az180", "mouth"]
        np.testing.assert_allclose(bank.frequencies, np.arange(33) * 250.0)

    def test_distortionless_across_bank(self, glasses5):
        bank = _small_bank(glasses5)
        for di, d in enumerate(bank.directions):
            for fi, f in enumerate(bank.frequencies):
                g = steering_vector(glasses5, d, f, bank.sound_speed)
                err = abs(np.vdot(bank.weights[di, fi], g.entries) - 1.0)
                assert err <= 1e-6, (d.label(), f, err)

    def test_requires_mouth_direction(self, glasses5):
        with pytest.raises(DataError):
            design_bank(glasses5, [DirectionSpec(azimuth=0.0, elevation=0.0)], fs=16000, n_fft=64)

    def test_direction_count_above_cap_rejected_before_allocating(self, glasses5, monkeypatch):
        """MAX_DIRECTIONS looks plus the mouth is one direction too many;
        the cap acts before the frequency grid or any array is built."""
        looks = [DirectionSpec(azimuth=math.radians(i)) for i in range(MAX_DIRECTIONS)]
        for name in ("empty", "zeros"):
            monkeypatch.setattr(np, name, lambda *a, **k: pytest.fail(f"np.{name}{a} called"))
        monkeypatch.setattr(np.fft, "rfftfreq", lambda *a: pytest.fail("grid built"))
        with pytest.raises(DataError, match=f"{MAX_DIRECTIONS + 1} directions, at most "
                                            f"{MAX_DIRECTIONS}"):
            design_bank(glasses5, looks + [MOUTH], fs=16000, n_fft=64)

    def test_unreachable_wng_margin_rejected_for_nlcmv(self, glasses5):
        """No distortionless design of 5 mics reaches a WNG floor at margin 5;
        the margin does not constrain other methods."""
        directions = [DirectionSpec(azimuth=0.0, elevation=0.0), MOUTH]
        with pytest.raises(DataError, match="wng_margin"):
            design_bank(glasses5, directions, fs=16000, n_fft=64, wng_margin=5.0)
        design_bank(glasses5, directions, method="mvdr", fs=16000, n_fft=64, wng_margin=5.0)

    def test_save_load_roundtrip_bit_exact(self, glasses5, tmp_path):
        nulls = (
            PointNoiseSpec(
                direction=DirectionSpec(azimuth=math.radians(135.0), elevation=0.0),
                weight=10.0,
            ),
        )
        bank = _small_bank(glasses5, nulls=nulls)
        path = tmp_path / "bank.bbk"
        save_bank(bank, path)
        back = load_bank(path)
        np.testing.assert_array_equal(back.weights, bank.weights)
        np.testing.assert_array_equal(back.frequencies, bank.frequencies)
        np.testing.assert_array_equal(back.loading, bank.loading)
        assert back.method == bank.method
        assert back.fs == bank.fs and back.n_fft == bank.n_fft
        assert back.geometry.id == bank.geometry.id
        np.testing.assert_array_equal(back.geometry.mics, bank.geometry.mics)
        assert back.direction_labels() == bank.direction_labels()
        assert len(back.nulls) == 1
        assert back.nulls[0].weight == 10.0
        assert back.nulls[0].direction.azimuth == pytest.approx(math.radians(135.0))
        assert back.sound_speed == bank.sound_speed
        assert back.wng_margin == bank.wng_margin

    def test_load_rejects_truncated_payload(self, glasses5, tmp_path):
        bank = _small_bank(glasses5)
        path = tmp_path / "bank.bbk"
        save_bank(bank, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(DataError):
            load_bank(path)


def _perturbed_atfs(geometry, directions, freqs, seed=5):
    """Free-field steering times fixed per-mic gain and phase errors."""
    ideal = freefield_atfs(geometry, directions, freqs)
    r = np.random.default_rng(seed)
    m = geometry.num_mics
    error = np.exp(r.normal(0.0, 0.1, size=m) + 1j * r.normal(0.0, 0.05, size=m))
    return AtfSet(
        geometry_id=geometry.id, directions=list(directions), frequencies=ideal.frequencies,
        vectors=ideal.vectors * error,
    )


def _nulled_config():
    s = design_settings(load_config("configs/nulled_design.yaml"))
    s.pop("atf_file")
    return s


def _small_settings(geometry, method):
    directions = [
        DirectionSpec(azimuth=0.0, elevation=0.0),
        DirectionSpec(azimuth=math.pi / 2, elevation=0.0),
        MOUTH,
    ]
    nulls = (PointNoiseSpec(direction=DirectionSpec(azimuth=math.pi), weight=30.0),)
    return dict(
        geometry=geometry, directions=directions, method=method, nulls=nulls,
        fs=16000, n_fft=64,
    )


class TestBatchEquivalence:
    """design_bank solves all designs in one batch; each must equal, bit for
    bit, the single-design function on that bin's own inputs."""

    @pytest.mark.parametrize("case", [
        "nulled_config", "atf_file", "mvdr", "superdirective", "delay_and_sum",
        *(f"{m}-mic-{method}" for m in (1, 2, 7) for method in METHODS),
    ])
    def test_bank_equals_single_designs(self, glasses5, glasses7, case):
        """Also checks verify_bank against verify_kkt on every design."""
        if case == "nulled_config":
            s = _nulled_config()
        elif "-mic-" in case:
            m, method = case.split("-mic-")
            geometry = glasses7 if m == "7" else select_subset(glasses5, range(int(m)))
            s = _small_settings(geometry, method)
        else:
            s = _small_settings(glasses5, "nlcmv" if case == "atf_file" else case)
        freqs = np.fft.rfftfreq(s["n_fft"], 1.0 / s["fs"])
        atfs = (
            _perturbed_atfs(s["geometry"], s["directions"], freqs)
            if case == "atf_file" else None
        )
        bank = design_bank(atfs=atfs, **s)
        kkt = verify_bank(bank, atfs).kkt
        geometry, c = s["geometry"], s.get("sound_speed", 343.0)
        for fi, f in enumerate(freqs):
            phi_dd = diffuse_covariance_sinc(geometry, f, c)
            phi = composite_covariance(phi_dd, list(s["nulls"]), geometry, c)
            for di, d in enumerate(s["directions"]):
                g = (steering_vector(geometry, d, f, c) if atfs is None
                     else atfs.steering(atfs.index_of(d), f))
                if s["method"] == "mvdr":
                    w = design_mvdr(phi, g)
                elif s["method"] == "superdirective":
                    w = design_superdirective(phi_dd, g)
                elif s["method"] == "delay_and_sum":
                    w = design_delay_and_sum(g, phi)
                else:
                    w = design_nlcmv(phi, g, s.get("wng_tolerance", 1e-8),
                                     s.get("wng_margin", 1.0))
                assert w.weights.tobytes() == bank.weights[di, fi].tobytes(), (di, fi)
                assert (w.objective, w.loading, w.constraint, w.iterations) == (
                    bank.objective[di, fi], bank.loading[di, fi],
                    bank.constraint[di, fi], bank.iterations[di, fi],
                ), (di, fi)
                one = verify_kkt(bank.entry(di, fi), phi, g, bank.wng_margin)
                for name, value in vars(one).items():
                    batch = getattr(kkt, name)
                    assert (batch if np.ndim(batch) == 0 else batch[di, fi]) == value, name

    def test_reference_bisection_counts(self):
        s = design_settings(load_config("configs/reference_design.yaml"))
        s.pop("atf_file")
        bank = design_bank(**s)
        assert int(bank.iterations.sum()) == 1473
        assert int((bank.loading > 0).sum()) == 181

    @pytest.mark.parametrize("num_mics", [5, 1])
    def test_verify_bank_matches_verify_kkt(self, glasses5, num_mics):
        geometry = select_subset(glasses5, range(num_mics))
        s = _small_settings(geometry, "nlcmv")
        bank = design_bank(**s)
        bank.weights[1, 5, 0] += 1e-3 * (1.0 + 1.0j)  # one failing design
        report = verify_bank(bank)
        kkt = report.kkt
        for fi, f in enumerate(bank.frequencies):
            phi = composite_covariance(
                diffuse_covariance_sinc(geometry, f), list(s["nulls"]), geometry
            )
            for di, d in enumerate(s["directions"]):
                one = verify_kkt(bank.entry(di, fi), phi, steering_vector(geometry, d, f))
                for name, value in vars(one).items():
                    batch = getattr(kkt, name)
                    assert (batch if np.ndim(batch) == 0 else batch[di, fi]) == value, name
                assert bool(kkt.passed[di, fi]) == one.passed == ((di, fi) != (1, 5))
        name, direction, frequency, _ = report.first_failure()
        assert (name, direction, frequency) == ("distortionless", s["directions"][1], 1250.0)

    @pytest.mark.parametrize("method", METHODS)
    def test_peak_memory_holds_one_product_per_bank(self, glasses7, method):
        """Covariances, eigenvectors and weights meet in (K+1, F, M, M)
        products; each bin's (F, M, M) stack is broadcast over the
        directions, never copied per design."""
        looks = [DirectionSpec(azimuth=2 * math.pi * i / 24) for i in range(24)]
        s = dict(geometry=glasses7, directions=looks + [MOUTH], method=method,
                 nulls=(PointNoiseSpec(direction=DirectionSpec(azimuth=-math.pi / 2)),),
                 fs=16000, n_fft=1024)
        bank = design_bank(**s)
        peaks = []
        for run in (lambda: design_bank(**s), lambda: verify_bank(bank)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # In units of one (K+1, F, M, M) complex128 product: a (K+1, F, M)
        # complex array is 1/M, a (K+1, F) float64 one 1/(2 M^2) and an
        # (F, M, M) covariance stack 1/(K+1).
        k1, f, m = bank.weights.shape
        unit = k1 * f * m * m * 16
        vector, scalar, stack = 1 / m, 1 / (2 * m * m), 1 / k1
        # design_bank holds one product at a time. Beside it: its sum, the
        # steering vectors, the eigenbasis coefficients b and x, and the real
        # p = |b|^2 and the Newton loop's eigenvalue rows (half a vector
        # each); under 20 per-design scalars (bracket, step counts, norms,
        # diagnostics); the diffuse, design and regularized stacks with their
        # eigenvectors and a relifted copy, and room for three temporaries.
        assert peaks[0] < (1 + 5 * vector + 20 * scalar + 8 * stack) * unit
        # verify_bank: one product, its sum and the steering vectors, with
        # one more vector while the stationarity residual is formed; the
        # diffuse and design stacks and their check's two temporaries.
        assert peaks[1] < (1 + 3 * vector + 20 * scalar + 4 * stack) * unit
