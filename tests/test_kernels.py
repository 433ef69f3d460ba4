"""The two hot numeric kernels: the image-source pulse scatter and the
WOLA overlap-add."""

import numpy as np
import pytest

from beambank.dsp import _overlap_add
from beambank.simulate import _add_pulses


def add_pulses_direct(out, delays, amps):
    """Reference scatter: ``np.sinc`` times the Hann taper evaluated at
    every tap, accumulated with ``np.add.at``."""
    centers = np.rint(delays).astype(np.int64)
    offsets = np.arange(-40, 41)
    n = centers[:, None] + offsets[None, :]
    t = n - delays[:, None]
    vals = amps[:, None] * np.sinc(t) * 0.5 * (1.0 + np.cos(2.0 * np.pi * t / 81))
    mask = (n >= 0) & (n < out.shape[0])
    np.add.at(out, n[mask], vals[mask])


class TestAddPulses:
    def test_integer_delay_single_tap(self):
        out = np.zeros(100)
        _add_pulses(out, np.array([40.0]), np.array([2.5]))
        assert out[40] == 2.5
        # sin(pi * frac) is exactly 0, so every off-center tap is exactly 0
        assert np.flatnonzero(out).tolist() == [40]

    def test_edge_clipping(self):
        # a pulse centered before the buffer only writes its visible tail
        out = np.zeros(30)
        _add_pulses(out, np.array([-10.0]), np.array([1.0]))
        assert np.all(np.isfinite(out))

    def test_right_edge_clipping(self):
        # centered 5 taps before the end: only the left 45 taps land
        out = np.zeros(60)
        _add_pulses(out, np.array([54.3]), np.array([1.0]))
        expected = np.zeros(60)
        add_pulses_direct(expected, np.array([54.3]), np.array([1.0]))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
        assert np.flatnonzero(out).min() == 54 - 40

    def test_fractional_delay_interpolates(self):
        out = np.zeros(200)
        _add_pulses(out, np.array([100.5]), np.array([1.0]))
        # symmetric around the half-sample center
        np.testing.assert_allclose(out[100], out[101], atol=1e-15)
        assert 0.5 < out[100] < 0.7

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_formula(self, seed):
        """Random delays, a quarter exact integers and a quarter exact
        half-samples, with centers before the buffer and past its end."""
        rng = np.random.default_rng(seed)
        length, count = 500, 200
        delays = rng.uniform(-60.0, length + 60.0, count)
        delays[: count // 4] = np.round(delays[: count // 4])
        delays[count // 4 : count // 2] = np.floor(delays[count // 4 : count // 2]) + 0.5
        amps = rng.normal(size=count)
        out = np.zeros(length)
        _add_pulses(out, delays, amps)
        expected = np.zeros(length)
        add_pulses_direct(expected, delays, amps)
        assert np.max(np.abs(out - expected)) <= 1e-15 * np.max(np.abs(amps))


class TestOverlapAdd:
    def test_single_frame_copies(self, rng):
        frame = rng.normal(size=(1, 1, 64))
        out = np.zeros((1, 64))
        _overlap_add(frame, out)
        np.testing.assert_array_equal(out, frame[0])

    @pytest.mark.parametrize("channels", [1, 5])
    @pytest.mark.parametrize("n_frames", [1, 2, 7])
    def test_equals_per_frame_loop_in_a_column_slice(self, rng, channels, n_frames):
        """Bit for bit the frame-by-frame overlap-add at hop n_fft/2, into
        zeros in a column slice of a wider array whose other columns stay
        untouched. Every sample gets at most two terms, so the order of the
        adds does not change a bit."""
        n_fft, hop, left = 64, 32, 5
        frames = rng.normal(size=(channels, n_frames, n_fft))
        wide = rng.normal(size=(channels, left + (n_frames + 1) * hop + 3))
        columns = slice(left, left + (n_frames + 1) * hop)
        wide[:, columns] = 0.0
        expected = wide.copy()
        for t in range(n_frames):
            expected[:, columns][:, t * hop : t * hop + n_fft] += frames[:, t]
        _overlap_add(frames, wide[:, columns])
        assert wide.tobytes() == expected.tobytes()
