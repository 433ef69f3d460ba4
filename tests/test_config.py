"""Config parsing: strict keys, unit conversion, precedence, path anchoring."""

import math

import numpy as np
import pytest

from beambank.config import (
    dataset_settings,
    default_mouth_direction,
    design_settings,
    directions_from_config,
    geometry_from_config,
    load_config,
    nulls_from_config,
    resolve_int_setting,
    resolve_setting,
    rir_settings,
    room_from_config,
)
from beambank.errors import ConfigError


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_bad_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("geometry: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_non_mapping(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_valid(self, tmp_path):
        p = tmp_path / "ok.yaml"
        p.write_text("geometry: reference_glasses_5\nmethod: nlcmv\n")
        cfg = load_config(p)
        assert cfg["geometry"] == "reference_glasses_5"


class TestGeometry:
    def test_builtin_by_name(self):
        geom = geometry_from_config({"geometry": "reference_glasses_5"})
        assert geom.num_mics == 5

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError):
            geometry_from_config({"geometry": "no_such_array"})

    def test_inline_mapping(self):
        geom = geometry_from_config(
            {"geometry": {"id": "tri", "mics": [[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]]}}
        )
        assert geom.id == "tri" and geom.num_mics == 3

    def test_geometry_file_resolves_against_base_dir(self, tmp_path):
        (tmp_path / "geom.yaml").write_text(
            "id: pair\nmics:\n- [0, 0, 0]\n- [0.1, 0, 0]\n"
        )
        geom = geometry_from_config({"geometry_file": "geom.yaml"}, base_dir=tmp_path)
        assert geom.id == "pair"

    def test_exactly_one_source_required(self, tmp_path):
        with pytest.raises(ConfigError):
            geometry_from_config({})
        with pytest.raises(ConfigError):
            geometry_from_config(
                {"geometry": "reference_glasses_5", "geometry_file": "x.yaml"}
            )

    def test_subset(self):
        geom = geometry_from_config({"geometry": "reference_glasses_7", "subset": [0, 1, 2]})
        assert geom.num_mics == 3


class TestDirections:
    def test_defaults(self):
        dirs = directions_from_config({})
        labels = [d.label() for d in dirs]
        assert labels == ["az0", "az90", "az180", "az270", "mouth"]
        mouth = dirs[-1]
        assert mouth.range_m == pytest.approx(0.1)
        assert mouth.azimuth == 0.0
        assert mouth.elevation == pytest.approx(-0.6435011087932844)

    def test_degrees_converted_at_the_boundary(self):
        dirs = directions_from_config({"directions": {"horizontal": [45.0, -45.0]}})
        assert dirs[0].azimuth == pytest.approx(math.radians(45.0))
        assert dirs[1].azimuth == pytest.approx(math.radians(-45.0))

    def test_mouth_override_needs_range(self):
        with pytest.raises(ConfigError):
            directions_from_config(
                {"directions": {"mouth": {"azimuth": 0.0, "elevation": -30.0}}}
            )
        dirs = directions_from_config(
            {"directions": {"mouth": {"azimuth": 0.0, "elevation": -30.0, "range": 0.12}}}
        )
        assert dirs[-1].range_m == pytest.approx(0.12)
        assert dirs[-1].elevation == pytest.approx(math.radians(-30.0))

    def test_unknown_direction_key(self):
        with pytest.raises(ConfigError):
            directions_from_config({"directions": {"vertical": [0]}})

    def test_default_mouth_matches_wearer_anatomy(self):
        d = default_mouth_direction()
        # 8 cm forward, 6 cm down: range 10 cm, elevation asin(-0.6)
        assert d.range_m == pytest.approx(0.1)
        assert d.elevation == pytest.approx(math.asin(-0.6))


class TestNulls:
    def test_defaults_applied(self):
        nulls = nulls_from_config({"nulls": [{"azimuth": 135.0}]})
        assert len(nulls) == 1
        assert nulls[0].weight == 10.0
        assert nulls[0].psd == 1.0
        assert nulls[0].direction.azimuth == pytest.approx(math.radians(135.0))

    def test_alpha_and_psd(self):
        nulls = nulls_from_config(
            {"nulls": [{"azimuth": 90.0, "elevation": 10.0, "alpha": 50.0, "psd": 2.0}]}
        )
        assert nulls[0].weight == 50.0
        assert nulls[0].psd == 2.0
        assert nulls[0].direction.elevation == pytest.approx(math.radians(10.0))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            nulls_from_config({"nulls": [{"azimuth": 0.0, "weight": 3.0}]})


class TestDesignSettings:
    def _minimal(self):
        return {"geometry": "reference_glasses_5"}

    def test_defaults(self):
        s = design_settings(self._minimal())
        assert s["method"] == "nlcmv"
        assert s["fs"] == 16000 and s["n_fft"] == 512
        assert s["atf_file"] is None
        assert s["wng_margin"] == 1.0

    def test_unknown_top_level_key(self):
        cfg = self._minimal()
        cfg["look_directions"] = [0]
        with pytest.raises(ConfigError) as err:
            design_settings(cfg)
        assert "look_directions" in str(err.value)

    def test_bad_method(self):
        cfg = self._minimal()
        cfg["method"] = "superduper"
        with pytest.raises(ConfigError):
            design_settings(cfg)

    def test_odd_n_fft(self):
        cfg = self._minimal()
        cfg["n_fft"] = 511
        with pytest.raises(ConfigError):
            design_settings(cfg)

    def test_atf_file_requires_matching_source(self):
        cfg = self._minimal()
        cfg["atf_file"] = "x.bba"
        with pytest.raises(ConfigError):
            design_settings(cfg)


class TestRoom:
    def test_scalar_and_per_wall(self):
        room = room_from_config({"dimensions": [6, 5, 3], "absorption": 0.4})
        assert room.absorption[0] == pytest.approx(0.4)
        room = room_from_config(
            {"dimensions": [6, 5, 3], "absorption": [0.2, 0.3, 0.4, 0.5, 0.3, 0.2]}
        )
        assert room.absorption[3] == pytest.approx(0.5)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            room_from_config({"dimensions": [6, 5, 3], "rt60": 0.4})

    @pytest.mark.parametrize("speed", [0.0, -343.0, float("inf")])
    def test_rir_sound_speed_must_be_finite_positive(self, speed):
        cfg = {"room": {"dimensions": [6, 5, 3]}, "source": [1, 1, 1],
               "mics": [[2, 2, 1]], "sound_speed": speed}
        with pytest.raises(ConfigError):
            rir_settings(cfg)


class TestDatasetSettings:
    def test_seed_stays_none_when_unset(self, tmp_path):
        cfg = {
            "geometries": [{"geometry": "reference_glasses_5"}],
            "count": 2,
            "clips_dir": "clips",
        }
        s = dataset_settings(cfg, base_dir=tmp_path)
        assert s["seed"] is None

    def test_seed_zero_is_preserved(self, tmp_path):
        cfg = {
            "geometries": [{"geometry": "reference_glasses_5"}],
            "count": 2,
            "clips_dir": "clips",
            "seed": 0,
        }
        s = dataset_settings(cfg, base_dir=tmp_path)
        assert s["seed"] == 0


class TestPrecedence:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("BEAMBANK_SEED", "5")
        assert resolve_setting(9, "SEED", 3, 1) == 9

    def test_env_beats_config(self, monkeypatch):
        monkeypatch.setenv("BEAMBANK_SEED", "5")
        assert resolve_int_setting(None, "SEED", 3, 1) == 5

    def test_config_beats_default(self, monkeypatch):
        monkeypatch.delenv("BEAMBANK_SEED", raising=False)
        assert resolve_int_setting(None, "SEED", 3, 1) == 3

    def test_default_last(self, monkeypatch):
        monkeypatch.delenv("BEAMBANK_SEED", raising=False)
        assert resolve_int_setting(None, "SEED", None, 1) == 1

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("BEAMBANK_SEED", "not-a-number")
        with pytest.raises(ConfigError):
            resolve_int_setting(None, "SEED", None, 1)
