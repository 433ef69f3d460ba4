"""Noise covariance models and regularization."""

import math

import numpy as np
import pytest

from beambank.errors import DataError
from beambank.geometry import ArrayGeometry, DirectionSpec, freefield_atfs
from beambank.noise_model import (
    NoiseCovariance,
    PointNoiseSpec,
    composite_covariance,
    diffuse_covariance_sinc,
    diffuse_covariances,
    regularize,
)

PAIR = ArrayGeometry(id="pair", mics=np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]))


class TestDiffuseSinc:
    def test_two_mic_value(self):
        # off-diagonal is sinc(2 f d / c) in the normalized convention:
        # sin(pi x)/(pi x) at x = 2*1000*0.1/343 = 0.58309...
        cov = diffuse_covariance_sinc(PAIR, 1000.0, 343.0)
        assert cov.matrix[0, 0] == pytest.approx(1.0)
        assert cov.matrix[0, 1].real == pytest.approx(0.5274080014684586, abs=1e-12)
        assert cov.matrix[0, 1].imag == 0.0

    def test_large_spacing_near_zero_coherence(self):
        geom = ArrayGeometry(id="wide", mics=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        cov = diffuse_covariance_sinc(geom, 1000.0, 343.0)
        assert cov.matrix[0, 1].real == pytest.approx(-0.02765511809258442, abs=1e-12)

    def test_coherence_zero_at_half_wavelength_multiple(self):
        # sinc(2 f d / c) = 0 when 2 f d / c = 1, i.e. d = c/(2f) = 0.1715 m
        geom = ArrayGeometry(id="tuned", mics=np.array([[0.0, 0.0, 0.0], [0.1715, 0.0, 0.0]]))
        cov = diffuse_covariance_sinc(geom, 1000.0, 343.0)
        assert cov.matrix[0, 1].real == pytest.approx(0.0, abs=1e-15)

    def test_zero_frequency_all_ones(self, glasses5):
        cov = diffuse_covariance_sinc(glasses5, 0.0, 343.0)
        np.testing.assert_allclose(cov.matrix.real, 1.0, atol=1e-15)


class TestDiffuseFromAtfs:
    def test_matches_analytic_model_on_dense_sphere(self):
        """Oracle: the average of plane-wave outer products g g^H over a
        dense near-uniform sphere grid reproduces diffuse_covariances on
        every bin of a frequency grid."""
        n_el, n_az = 60, 120
        els = np.arcsin(np.linspace(-1.0, 1.0, n_el + 1)[:-1] + 1.0 / (n_el))
        dirs = [
            DirectionSpec(azimuth=2 * math.pi * a / n_az, elevation=float(el))
            for el in els
            for a in range(n_az)
        ]
        freqs = np.array([0.0, 500.0, 1000.0])
        vecs = freefield_atfs(PAIR, dirs, freqs, 343.0).vectors  # (D, F, M)
        sphere = np.einsum("dfm,dfn->fmn", vecs, vecs.conj()) / len(dirs)
        model = diffuse_covariances(PAIR, freqs, 343.0)
        assert model.shape == sphere.shape
        np.testing.assert_allclose(model, sphere, atol=2e-3)


class TestComposite:
    def test_point_term_scales_with_weight_and_psd(self):
        d = DirectionSpec(azimuth=math.pi, elevation=0.0)
        base = diffuse_covariance_sinc(PAIR, 1000.0, 343.0)
        one = composite_covariance(
            base, [PointNoiseSpec(direction=d, weight=10.0, psd=1.0)], PAIR, 343.0
        )
        four = composite_covariance(
            base, [PointNoiseSpec(direction=d, weight=20.0, psd=2.0)], PAIR, 343.0
        )
        delta_one = one.matrix - base.matrix
        delta_four = four.matrix - base.matrix
        np.testing.assert_allclose(delta_four, 4.0 * delta_one, atol=1e-12)
        # the point term is the weighted steering outer product: rank one,
        # diagonal weight*psd for unit-magnitude far-field entries
        assert delta_one[0, 0].real == pytest.approx(10.0)
        assert np.linalg.matrix_rank(delta_one, tol=1e-9) == 1

    def test_hermitian_guard(self):
        with pytest.raises(DataError):
            NoiseCovariance(frequency=100.0, matrix=np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestRegularize:
    def test_level_is_relative_trace(self):
        """A singular covariance is lifted by 1e-6 * trace / M on the diagonal
        alone: 1e-6 * 8 / 4 here."""
        m = 2.0 * np.ones((4, 4))  # rank one, trace 8
        lift = regularize(NoiseCovariance(frequency=0.0, matrix=m)).matrix - m
        np.testing.assert_allclose(lift, 2e-6 * np.eye(4), rtol=1e-9, atol=0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        cov = NoiseCovariance(frequency=0.0, matrix=x @ x.conj().T)
        once = regularize(cov)
        twice = regularize(once)
        np.testing.assert_array_equal(once.matrix, twice.matrix)

    def test_skips_well_conditioned(self):
        cov = NoiseCovariance(frequency=0.0, matrix=np.eye(3))
        np.testing.assert_array_equal(regularize(cov).matrix, cov.matrix)

    def test_lifts_singular(self):
        m = np.ones((3, 3))  # rank one
        cov = NoiseCovariance(frequency=0.0, matrix=m)
        reg = regularize(cov)
        assert np.linalg.eigvalsh(reg.matrix).min() > 0
