"""Array geometry, direction handling, and acoustic transfer functions."""

import math

import numpy as np
import pytest

from beambank.errors import DataError, GridMismatchError
from beambank.geometry import (
    MAX_MICS,
    AtfSet,
    ArrayGeometry,
    DirectionSpec,
    _steering_rows,
    export_atfs,
    far_field_atf,
    freefield_atfs,
    import_atfs,
    load_geometry,
    reference_glasses,
    reference_glasses_5,
    save_geometry,
    select_subset,
    steering_matrix,
    steering_vector,
)


class TestDirectionSpec:
    def test_azimuth_wraps_into_half_open_interval(self):
        d = DirectionSpec(azimuth=math.radians(270.0), elevation=0.0)
        assert d.azimuth == pytest.approx(math.radians(-90.0))
        # +180 stays +180, -180 wraps to +180
        assert DirectionSpec(azimuth=math.pi, elevation=0.0).azimuth == pytest.approx(math.pi)
        assert DirectionSpec(azimuth=-math.pi, elevation=0.0).azimuth == pytest.approx(math.pi)

    def test_elevation_bounds(self):
        with pytest.raises(DataError):
            DirectionSpec(azimuth=0.0, elevation=math.pi)

    @pytest.mark.parametrize("azimuth", [math.nan, math.inf, -math.inf])
    def test_non_finite_azimuth_rejected(self, azimuth):
        with pytest.raises(DataError, match="azimuth"):
            DirectionSpec(azimuth=azimuth)

    def test_range_must_exceed_minimum(self):
        with pytest.raises(DataError):
            DirectionSpec(azimuth=0.0, elevation=0.0, range_m=0.001)

    def test_unit_vector(self):
        d = DirectionSpec(azimuth=math.pi / 2, elevation=0.0)
        np.testing.assert_allclose(d.unit_vector(), [0.0, 1.0, 0.0], atol=1e-15)
        up = DirectionSpec(azimuth=0.0, elevation=math.pi / 2)
        np.testing.assert_allclose(up.unit_vector(), [0.0, 0.0, 1.0], atol=1e-15)

    def test_labels(self):
        assert DirectionSpec(azimuth=math.pi, elevation=0.0).label() == "az180"
        near = DirectionSpec(azimuth=0.0, elevation=-0.64, range_m=0.1)
        assert near.label() == "mouth"
        assert near.is_near_field


class TestGeometry:
    def test_duplicate_mics_rejected(self):
        with pytest.raises(DataError):
            ArrayGeometry(id="dup", mics=np.zeros((2, 3)))

    def test_mic_count_capped_before_pairwise_distances(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.norm called")

        mics = 0.01 * np.arange(3 * (MAX_MICS + 1), dtype=float).reshape(-1, 3)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "norm", forbidden)
            with pytest.raises(DataError, match=f"{MAX_MICS + 1} mics, at most {MAX_MICS}"):
                ArrayGeometry(id="big", mics=mics)
        assert ArrayGeometry(id="cap", mics=mics[:MAX_MICS]).num_mics == MAX_MICS

    def test_reference_arrays(self, glasses7, glasses5):
        assert glasses7.num_mics == 7
        assert glasses5.num_mics == 5
        # the 5-mic variant drops the nose mic and one front mic
        np.testing.assert_allclose(glasses5.mics, glasses7.mics[2:], atol=0)

    def test_select_subset(self, glasses7):
        sub = select_subset(glasses7, [0, 3])
        assert sub.num_mics == 2
        np.testing.assert_allclose(sub.mics, glasses7.mics[[0, 3]])
        with pytest.raises(DataError):
            select_subset(glasses7, [0, 9])

    def test_save_load_roundtrip(self, glasses7, tmp_path):
        path = tmp_path / "geom.yaml"
        save_geometry(glasses7, path)
        back = load_geometry(path)
        assert back.id == glasses7.id
        np.testing.assert_allclose(back.mics, glasses7.mics)


class TestFarFieldAtf:
    def test_two_mic_endfire_phase(self):
        # two mics 0.1 m apart on x, wave from +x: relative phase is
        # 2*pi*f*d/c = 2*pi*1000*0.1/343 = 1.8318324510727657 rad
        geom = ArrayGeometry(id="pair", mics=np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]))
        d = DirectionSpec(azimuth=0.0, elevation=0.0)
        g = far_field_atf(geom, d, 1000.0, 343.0).entries
        np.testing.assert_allclose(np.abs(g), 1.0, atol=1e-15)
        phase = np.angle(g[1] * np.conj(g[0]))
        assert phase == pytest.approx(1.8318324510727657, abs=1e-12)

    def test_broadside_has_no_phase_difference(self):
        geom = ArrayGeometry(id="pair", mics=np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]))
        d = DirectionSpec(azimuth=math.pi / 2, elevation=0.0)
        g = far_field_atf(geom, d, 1000.0, 343.0).entries
        assert g[0] == pytest.approx(g[1], abs=1e-15)

    def test_zero_frequency_is_all_ones(self, glasses5):
        d = DirectionSpec(azimuth=1.0, elevation=0.2)
        g = far_field_atf(glasses5, d, 0.0, 343.0).entries
        np.testing.assert_allclose(g, 1.0, atol=0)

    def test_stack_of_unit_vectors_equals_one_direction_at_a_time(self, glasses7, rng):
        """(F, ..., M) rows of a (..., 3) stack, each equal to its direction's
        steering_matrix rows bit for bit."""
        directions = [
            DirectionSpec(azimuth=az, elevation=el)
            for az, el in zip(rng.uniform(-math.pi, math.pi, 6), rng.uniform(-1.5, 1.5, 6))
        ]
        units = np.array([d.unit_vector() for d in directions]).reshape(2, 3, 3)
        freqs = [0.0, 1000.0, 7987.5]
        rows = _steering_rows(glasses7, freqs, 343.0, unit=units)
        assert rows.shape == (3, 2, 3, 7)
        for i, d in enumerate(directions):
            np.testing.assert_array_equal(
                rows[:, i // 3, i % 3], steering_matrix(glasses7, d, freqs, 343.0)
            )


class TestNearFieldAtf:
    def test_amplitude_follows_inverse_distance(self):
        geom = ArrayGeometry(id="pair", mics=np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]))
        source = DirectionSpec(azimuth=0.0, range_m=0.2)
        g = steering_vector(geom, source, 1000.0, 343.0).entries
        # distances 0.2 and 0.1; the closest mic is normalized to magnitude 1
        assert np.abs(g[1]) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(g[0]) == pytest.approx(0.5, abs=1e-12)

    def test_phase_matches_absolute_distance(self):
        geom = ArrayGeometry(id="one", mics=np.array([[0.0, 0.0, 0.0]]))
        source = DirectionSpec(azimuth=0.0, range_m=0.343)
        g = steering_vector(geom, source, 500.0, 343.0).entries
        # travel time 1 ms at 500 Hz: half a cycle, phase pi
        assert abs(np.angle(g[0])) == pytest.approx(math.pi, abs=1e-9)

    def test_dispatch_by_range(self, glasses5):
        far = DirectionSpec(azimuth=0.3, elevation=0.0)
        near = DirectionSpec(azimuth=0.3, elevation=0.0, range_m=0.5)
        gf = steering_vector(glasses5, far, 2000.0, 343.0)
        gn = steering_vector(glasses5, near, 2000.0, 343.0)
        assert gf.frequency == 2000.0
        assert not np.allclose(gf.entries, gn.entries)

    def test_near_field_converges_to_far_field(self, glasses5):
        """Dual route: at large range the normalized near-field response must
        approach the plane-wave model."""
        d_far = DirectionSpec(azimuth=0.7, elevation=0.1)
        d_near = DirectionSpec(azimuth=0.7, elevation=0.1, range_m=500.0)
        gf = far_field_atf(glasses5, d_far, 1500.0, 343.0).entries
        gn = steering_vector(glasses5, d_near, 1500.0, 343.0).entries
        # strip the common phase on mic 0 before comparing
        gf = gf / gf[0]
        gn = gn / gn[0]
        np.testing.assert_allclose(gn, gf, atol=2e-3)


class TestAtfSet:
    def _grid(self, glasses5):
        dirs = [
            DirectionSpec(azimuth=math.radians(a), elevation=0.0) for a in (0, 90, 180, 270)
        ]
        freqs = np.linspace(0.0, 8000.0, 257)
        return freefield_atfs(glasses5, dirs, freqs, 343.0), dirs, freqs

    def test_shape_and_lookup(self, glasses5):
        atfs, dirs, freqs = self._grid(glasses5)
        assert atfs.vectors.shape == (4, 257, 5)
        assert atfs.frequency_index(1000.0) == 32
        with pytest.raises(GridMismatchError):
            atfs.frequency_index(1001.0)
        assert atfs.index_of(dirs[2]) == 2
        missing = DirectionSpec(azimuth=0.5, elevation=0.0)
        with pytest.raises(GridMismatchError):
            atfs.index_of(missing)

    def test_steering_agrees_with_direct_computation(self, glasses5):
        atfs, dirs, _ = self._grid(glasses5)
        g_set = atfs.steering(1, 1000.0)
        g_direct = steering_vector(glasses5, dirs[1], 1000.0, 343.0)
        np.testing.assert_allclose(g_set.entries, g_direct.entries, atol=1e-15)

    def test_export_import_roundtrip(self, glasses5, tmp_path):
        atfs, _, _ = self._grid(glasses5)
        path = tmp_path / "atfs.bba"
        export_atfs(atfs, path)
        back = import_atfs(path)
        assert back.geometry_id == atfs.geometry_id
        np.testing.assert_array_equal(back.vectors, atfs.vectors)
        np.testing.assert_array_equal(back.frequencies, atfs.frequencies)
        assert [d.label() for d in back.directions] == [d.label() for d in atfs.directions]

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_entry_names_first_direction_and_bin(self, glasses5, value):
        atfs, dirs, freqs = self._grid(glasses5)
        vectors = atfs.vectors.copy()
        vectors[3, 40, 1] = vectors[2, 64, 4] = value
        expect = r"^non-finite steering entry at az180, bin 64 \(2000 Hz\)$"
        with pytest.raises(DataError, match=expect):
            AtfSet(geometry_id="g", directions=dirs, frequencies=freqs, vectors=vectors)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_frequency_is_refused(self, glasses5, value):
        atfs, dirs, freqs = self._grid(glasses5)
        for grid in (np.where(np.arange(257) == 256, value, freqs), np.array([value])):
            with pytest.raises(DataError, match="finite and strictly increasing"):
                AtfSet(geometry_id="g", directions=dirs, frequencies=grid,
                       vectors=np.ones((4, grid.shape[0], 5), dtype=complex))

    def test_import_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bba"
        path.write_bytes(b"not an atf file at all")
        with pytest.raises(DataError):
            import_atfs(path)
