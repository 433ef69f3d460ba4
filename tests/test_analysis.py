"""Beam patterns, white noise gain, directivity."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from beambank.analysis import (
    EXPORT_DB_FLOOR,
    beam_pattern,
    directivity_index,
    export_pattern,
    pattern_steps,
    white_noise_gain,
)
from beambank.beamformer import design_bank, design_delay_and_sum
from beambank.config import design_settings, load_config
from beambank.errors import DataError
from beambank.geometry import ArrayGeometry, DirectionSpec, far_field_atf, steering_vector
from beambank.noise_model import diffuse_covariance_sinc

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# half-wavelength pair at 1000 Hz: endfire delay-and-sum nulls broadside
HALF_WAVE_PAIR = ArrayGeometry(
    id="halfwave", mics=np.array([[0.0, 0.0, 0.0], [0.1715, 0.0, 0.0]])
)


def _endfire_ds(frequency=1000.0):
    look = DirectionSpec(azimuth=0.0, elevation=0.0)
    g = steering_vector(HALF_WAVE_PAIR, look, frequency)
    return design_delay_and_sum(g), look, g


class TestBeamPattern:
    def test_look_direction_is_zero_db(self):
        res, look, _ = _endfire_ds()
        pattern = beam_pattern(res, HALF_WAVE_PAIR, 1000.0, look=look)
        at_zero = pattern.response_db[np.argmin(np.abs(pattern.azimuths))]
        assert at_zero == pytest.approx(0.0, abs=1e-12)

    def test_broadside_null(self):
        res, look, _ = _endfire_ds()
        pattern = beam_pattern(res, HALF_WAVE_PAIR, 1000.0, look=look)
        for target in (math.pi / 2, -math.pi / 2):
            idx = int(np.argmin(np.abs(pattern.azimuths - target)))
            assert pattern.response_db[idx] < -200.0

    def test_grid_covers_half_open_circle(self):
        res, look, _ = _endfire_ds()
        pattern = beam_pattern(res, HALF_WAVE_PAIR, 1000.0, resolution_deg=2.0, look=look)
        assert pattern.azimuths.shape == (180,)
        assert pattern.azimuths.min() == pytest.approx(math.radians(-178.0))
        assert pattern.azimuths.max() == pytest.approx(math.radians(180.0))

    def test_bad_resolution_rejected(self):
        res, _, _ = _endfire_ds()
        with pytest.raises(DataError):
            beam_pattern(res, HALF_WAVE_PAIR, 1000.0, resolution_deg=7.0)

    def test_default_reference_is_peak(self):
        res, _, _ = _endfire_ds()
        pattern = beam_pattern(res, HALF_WAVE_PAIR, 1000.0)
        assert pattern.response_db.max() == pytest.approx(0.0, abs=1e-12)


    @pytest.mark.parametrize("resolution", [360.0, 120.0, 72.0, 40.0, 24.0, 8.0, 1.6, 0.01])
    def test_grid_is_multiples_of_step_inside_half_open_circle(self, resolution):
        """Odd step counts too: the grid is k * step for the centred run of
        integers k, so it never leaves (-180, 180] degrees."""
        res, _, _ = _endfire_ds()
        steps = pattern_steps(resolution)
        deg = np.rad2deg(beam_pattern(res, HALF_WAVE_PAIR, 1000.0, resolution).azimuths)
        k = np.arange(steps) - (steps - 1) // 2
        np.testing.assert_allclose(deg, k * resolution, rtol=1e-12, atol=1e-9)
        assert deg.min() > -180.0 and deg.max() <= 180.0 + 1e-9
        assert np.all(np.diff(deg) > 0)


def _pattern_oracle(w, geometry, frequency, resolution, look):
    """beam_pattern's definition, one azimuth at a time: a far_field_atf and
    an np.vdot per grid point; the look's grid response is the reference when
    the look lies on the grid, else |h^H g(look)| from steering_vector, and
    the peak without a look."""
    steps = pattern_steps(resolution)
    azimuths = [np.deg2rad((k - (steps - 1) // 2) * resolution) for k in range(steps)]
    responses = np.array([
        np.vdot(w, far_field_atf(geometry, DirectionSpec(azimuth=az), frequency).entries)
        for az in azimuths
    ])
    raw = 20.0 * np.log10(np.maximum(np.abs(responses), 1e-300))
    if look is None:
        return np.array(azimuths), raw - raw.max()
    hits = [i for i, az in enumerate(azimuths) if abs(az - look.azimuth) <= 1e-9]
    if hits and not look.is_near_field and abs(look.elevation) <= 1e-12:
        return np.array(azimuths), raw - raw[hits[0]]
    ref = abs(np.vdot(w, steering_vector(geometry, look, frequency).entries))
    return np.array(azimuths), raw - 20.0 * float(np.log10(max(ref, 1e-300)))


@pytest.fixture(scope="module")
def config_banks():
    return {
        name: design_bank(**{
            k: v for k, v in design_settings(load_config(CONFIGS / f"{name}.yaml")).items()
            if k != "atf_file"
        })
        for name in ("reference_design", "nulled_design")
    }


class TestPatternSweep:
    @pytest.mark.parametrize("resolution", [1.0, 0.25, 7.5, 120.0, 1.6, 360.0])
    @pytest.mark.parametrize("frequency", [0.0, 1000.0, 8000.0])
    @pytest.mark.parametrize("name", ["reference_design", "nulled_design"])
    def test_equals_per_azimuth_oracle(self, config_banks, name, frequency, resolution):
        """Every look of the bank (the near-field mouth's is an off-grid
        reference), and no look, at even and odd step counts: azimuths and
        responses equal the per-azimuth definition bit for bit."""
        bank = config_banks[name]
        fi = int(np.flatnonzero(bank.frequencies == frequency)[0])
        looks = list(zip(bank.weights[:, fi], bank.directions)) + [(bank.weights[0, fi], None)]
        for w, look in looks:
            got = beam_pattern(w, bank.geometry, frequency, resolution, look=look)
            azimuths, expected = _pattern_oracle(w, bank.geometry, frequency, resolution, look)
            np.testing.assert_array_equal(got.azimuths, azimuths)
            np.testing.assert_array_equal(got.response_db, expected)


class TestMetrics:
    def test_delay_and_sum_wng_is_m(self, glasses5, rng):
        """Matched weights reach the WNG ceiling 10*log10(M) for
        unit-magnitude steering entries."""
        for _ in range(10):
            az = rng.uniform(-math.pi, math.pi)
            g = steering_vector(glasses5, DirectionSpec(azimuth=az), 3000.0)
            res = design_delay_and_sum(g)
            assert white_noise_gain(res, g) == pytest.approx(
                10.0 * math.log10(5.0), abs=1e-9
            )
        # 10*log10(5) = 6.9897000433...
        assert 10.0 * math.log10(5.0) == pytest.approx(6.989700043360188, abs=1e-12)

    def test_wng_invariant_to_weight_scale(self, glasses5):
        g = steering_vector(glasses5, DirectionSpec(azimuth=1.0), 2000.0)
        h = design_delay_and_sum(g).weights
        assert white_noise_gain(h, g) == pytest.approx(white_noise_gain(3.7 * h, g))

    def test_directivity_of_single_mic_is_zero(self):
        geom = ArrayGeometry(id="mono", mics=np.zeros((1, 3)))
        g = steering_vector(geom, DirectionSpec(azimuth=0.0), 1000.0)
        h = np.array([1.0 + 0j])
        phi = diffuse_covariance_sinc(geom, 1000.0)
        assert directivity_index(h, g, phi) == pytest.approx(0.0, abs=1e-12)

    def test_directivity_positive_for_endfire_pair(self):
        res, _, g = _endfire_ds()
        phi = diffuse_covariance_sinc(HALF_WAVE_PAIR, 1000.0)
        assert directivity_index(res, g, phi) > 2.0


class TestExport:
    def test_csv_format_and_floor(self, tmp_path):
        res, look, _ = _endfire_ds()
        pattern = beam_pattern(res, HALF_WAVE_PAIR, 1000.0, look=look)
        path = tmp_path / "pattern.csv"
        export_pattern(pattern, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["azimuth_deg", "response_db"]
        assert len(rows) == 361
        values = np.array([[float(a), float(r)] for a, r in rows[1:]])
        assert values[:, 1].min() >= EXPORT_DB_FLOOR
        # ascending azimuth, (-180, 180] in degrees
        assert np.all(np.diff(values[:, 0]) > 0)
        assert values[0, 0] == -179.0 and values[-1, 0] == 180.0

    def test_json_matches_csv(self, tmp_path):
        res, look, _ = _endfire_ds()
        pattern = beam_pattern(res, HALF_WAVE_PAIR, 1000.0, look=look)
        export_pattern(pattern, tmp_path / "p.csv")
        export_pattern(pattern, tmp_path / "p.json", format="json")
        with open(tmp_path / "p.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        doc = json.loads((tmp_path / "p.json").read_text())
        assert doc["azimuth_deg"] == [float(a) for a, _ in rows]
        assert doc["response_db"] == [float(r) for _, r in rows]

    def test_unknown_format_rejected(self, tmp_path):
        res, look, _ = _endfire_ds()
        pattern = beam_pattern(res, HALF_WAVE_PAIR, 1000.0, look=look)
        with pytest.raises(DataError):
            export_pattern(pattern, tmp_path / "p.xml", format="xml")
