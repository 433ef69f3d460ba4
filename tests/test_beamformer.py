"""Beamformer designs: closed forms, constrained solver, KKT checks, bank IO."""

import math

import numpy as np
import pytest

from beambank.config import design_settings, load_config
from beambank.errors import DataError, IllConditionedError
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
    steering_vector,
)
from beambank.noise_model import (
    NoiseCovariance,
    PointNoiseSpec,
    composite_covariance,
    diffuse_covariance_sinc,
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
            from beambank.noise_model import regularize

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
        "settings", [{"wng_margin": 0.0}, {"wng_margin": -1.0}, {"wng_tolerance": -1.0}]
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

    def test_callable_psd_not_serializable(self, glasses5, tmp_path):
        nulls = (
            PointNoiseSpec(
                direction=DirectionSpec(azimuth=1.0, elevation=0.0),
                weight=1.0,
                psd=lambda f: 1.0,
            ),
        )
        bank = _small_bank(glasses5, nulls=nulls)
        with pytest.raises(DataError):
            save_bank(bank, tmp_path / "bad.bbk")

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


def _small_settings(glasses5, method):
    directions = [
        DirectionSpec(azimuth=0.0, elevation=0.0),
        DirectionSpec(azimuth=math.pi / 2, elevation=0.0),
        MOUTH,
    ]
    nulls = (PointNoiseSpec(direction=DirectionSpec(azimuth=math.pi), weight=30.0),)
    return dict(
        geometry=glasses5, directions=directions, method=method, nulls=nulls,
        fs=16000, n_fft=64,
    )


class TestBatchEquivalence:
    """design_bank solves all designs in one batch; each must equal, bit for
    bit, the single-design function on that bin's own inputs."""

    @pytest.mark.parametrize("case", ["nulled_config", "atf_file", "mvdr"])
    def test_bank_equals_single_designs(self, glasses5, case):
        if case == "nulled_config":
            s = _nulled_config()
        else:
            s = _small_settings(glasses5, "mvdr" if case == "mvdr" else "nlcmv")
        freqs = np.fft.rfftfreq(s["n_fft"], 1.0 / s["fs"])
        atfs = (
            _perturbed_atfs(s["geometry"], s["directions"], freqs)
            if case == "atf_file" else None
        )
        bank = design_bank(atfs=atfs, **s)
        geometry, c = s["geometry"], s.get("sound_speed", 343.0)
        for fi, f in enumerate(freqs):
            phi = composite_covariance(
                diffuse_covariance_sinc(geometry, f, c), list(s["nulls"]), geometry, c
            )
            for di, d in enumerate(s["directions"]):
                g = (steering_vector(geometry, d, f, c) if atfs is None
                     else atfs.steering(atfs.index_of(d), f))
                if s["method"] == "mvdr":
                    w = design_mvdr(phi, g)
                else:
                    w = design_nlcmv(phi, g, s.get("wng_tolerance", 1e-8),
                                     s.get("wng_margin", 1.0))
                assert w.weights.tobytes() == bank.weights[di, fi].tobytes(), (di, fi)
                assert (w.objective, w.loading, w.constraint, w.iterations) == (
                    bank.objective[di, fi], bank.loading[di, fi],
                    bank.constraint[di, fi], bank.iterations[di, fi],
                ), (di, fi)

    def test_reference_bisection_counts(self):
        s = design_settings(load_config("configs/reference_design.yaml"))
        s.pop("atf_file")
        bank = design_bank(**s)
        assert int(bank.iterations.sum()) == 5959
        assert int((bank.loading > 0).sum()) == 181

    def test_verify_bank_matches_verify_kkt(self, glasses5):
        s = _small_settings(glasses5, "nlcmv")
        bank = design_bank(**s)
        bank.weights[1, 5, 0] += 1e-3 * (1.0 + 1.0j)  # one failing design
        report = verify_bank(bank)
        kkt = report.kkt
        for fi, f in enumerate(bank.frequencies):
            phi = composite_covariance(
                diffuse_covariance_sinc(glasses5, f), list(s["nulls"]), glasses5
            )
            for di, d in enumerate(s["directions"]):
                one = verify_kkt(bank.entry(di, fi), phi, steering_vector(glasses5, d, f))
                for name, value in vars(one).items():
                    batch = getattr(kkt, name)
                    assert (batch if np.ndim(batch) == 0 else batch[di, fi]) == value, name
                assert bool(kkt.passed[di, fi]) == one.passed == ((di, fi) != (1, 5))
        name, direction, frequency, _ = report.first_failure()
        assert (name, direction, frequency) == ("distortionless", s["directions"][1], 1250.0)
