"""The two hot numeric kernels: the image-source pulse scatter and the
WOLA overlap-add."""

import numpy as np

from beambank.dsp import _overlap_add
from beambank.simulate import _add_pulses


class TestAddPulses:
    def test_integer_delay_single_tap(self):
        out = np.zeros(100)
        _add_pulses(out, np.array([40.0]), np.array([2.5]))
        assert out[40] == 2.5
        # off-center taps carry only sin(pi*k) round-off, ~1e-18
        assert np.flatnonzero(np.abs(out) > 1e-15).tolist() == [40]

    def test_edge_clipping(self):
        # a pulse centered before the buffer only writes its visible tail
        out = np.zeros(30)
        _add_pulses(out, np.array([-10.0]), np.array([1.0]))
        assert np.all(np.isfinite(out))

    def test_fractional_delay_interpolates(self):
        out = np.zeros(200)
        _add_pulses(out, np.array([100.5]), np.array([1.0]))
        # symmetric around the half-sample center
        np.testing.assert_allclose(out[100], out[101], atol=1e-15)
        assert 0.5 < out[100] < 0.7


class TestOverlapAdd:
    def test_single_frame_copies(self, rng):
        frame = rng.normal(size=(1, 64))
        out = np.zeros(64)
        _overlap_add(frame, 32, out)
        np.testing.assert_array_equal(out, frame[0])
