"""Config parsing: strict keys, unit conversion, precedence, path anchoring."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from beambank import config
from beambank.config import (
    dataset_settings,
    default_mouth_direction,
    design_settings,
    load_config,
    log_level,
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

    @pytest.mark.parametrize(
        "text", ["fs: " + "1" * 5000, "geometry: " + "[" * 1000 + "]" * 1000],
        ids=["int-too-long", "nested-too-deep"],
    )
    def test_unparseable_value(self, tmp_path, text):
        p = tmp_path / "bad.yaml"
        p.write_text(text + "\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(p)

    def test_valid(self, tmp_path):
        p = tmp_path / "ok.yaml"
        p.write_text("geometry: reference_glasses_5\nmethod: nlcmv\n")
        cfg = load_config(p)
        assert cfg["geometry"] == "reference_glasses_5"


class TestGeometry:
    def test_builtin_by_name(self):
        geom = design_settings({"geometry": "reference_glasses_5"})["geometry"]
        assert geom.num_mics == 5

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError):
            design_settings({"geometry": "no_such_array"})

    def test_inline_mapping(self):
        geom = design_settings(
            {"geometry": {"id": "tri", "mics": [[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]]}}
        )["geometry"]
        assert geom.id == "tri" and geom.num_mics == 3

    def test_geometry_file_resolves_against_base_dir(self, tmp_path):
        (tmp_path / "geom.yaml").write_text(
            "id: pair\nmics:\n- [0, 0, 0]\n- [0.1, 0, 0]\n"
        )
        geom = design_settings({"geometry_file": "geom.yaml"}, base_dir=tmp_path)["geometry"]
        assert geom.id == "pair"

    def test_exactly_one_source_required(self, tmp_path):
        with pytest.raises(ConfigError):
            design_settings({})
        with pytest.raises(ConfigError):
            design_settings(
                {"geometry": "reference_glasses_5", "geometry_file": "x.yaml"}
            )

    def test_subset(self):
        geom = design_settings(
            {"geometry": "reference_glasses_7", "subset": [0, 1, 2]}
        )["geometry"]
        assert geom.num_mics == 3


class TestDirections:
    def test_defaults(self):
        dirs = design_settings({"geometry": "reference_glasses_5"})["directions"]
        labels = [d.label() for d in dirs]
        assert labels == ["az0", "az90", "az180", "az270", "mouth"]
        mouth = dirs[-1]
        assert mouth.range_m == pytest.approx(0.1)
        assert mouth.azimuth == 0.0
        assert mouth.elevation == pytest.approx(-0.6435011087932844)

    def test_degrees_converted_at_the_boundary(self):
        dirs = design_settings(
            {"geometry": "reference_glasses_5", "directions": {"horizontal": [45.0, -45.0]}}
        )["directions"]
        assert dirs[0].azimuth == pytest.approx(math.radians(45.0))
        assert dirs[1].azimuth == pytest.approx(math.radians(-45.0))

    def test_mouth_override_needs_range(self):
        with pytest.raises(ConfigError):
            design_settings({
                "geometry": "reference_glasses_5",
                "directions": {"mouth": {"azimuth": 0.0, "elevation": -30.0}},
            })
        dirs = design_settings({
            "geometry": "reference_glasses_5",
            "directions": {"mouth": {"azimuth": 0.0, "elevation": -30.0, "range": 0.12}},
        })["directions"]
        assert dirs[-1].range_m == pytest.approx(0.12)
        assert dirs[-1].elevation == pytest.approx(math.radians(-30.0))

    def test_unknown_direction_key(self):
        with pytest.raises(ConfigError):
            design_settings({"geometry": "reference_glasses_5", "directions": {"vertical": [0]}})

    def test_default_mouth_matches_wearer_anatomy(self):
        d = default_mouth_direction()
        # 8 cm forward, 6 cm down: range 10 cm, elevation asin(-0.6)
        assert d.range_m == pytest.approx(0.1)
        assert d.elevation == pytest.approx(math.asin(-0.6))


class TestNulls:
    def test_defaults_applied(self):
        nulls = design_settings(
            {"geometry": "reference_glasses_5", "nulls": [{"azimuth": 135.0}]}
        )["nulls"]
        assert len(nulls) == 1
        assert nulls[0].weight == 10.0
        assert nulls[0].psd == 1.0
        assert nulls[0].direction.azimuth == pytest.approx(math.radians(135.0))

    def test_alpha_and_psd(self):
        nulls = design_settings({
            "geometry": "reference_glasses_5",
            "nulls": [{"azimuth": 90.0, "elevation": 10.0, "alpha": 50.0, "psd": 2.0}],
        })["nulls"]
        assert nulls[0].weight == 50.0
        assert nulls[0].psd == 2.0
        assert nulls[0].direction.elevation == pytest.approx(math.radians(10.0))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            design_settings(
                {"geometry": "reference_glasses_5", "nulls": [{"azimuth": 0.0, "weight": 3.0}]}
            )


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
    def test_seed_stays_none_when_unset(self, tmp_path, monkeypatch):
        """The name predates the default seed: an unset seed no longer stays
        None for a later lookup but resolves at once to the row's default 0,
        the same fixed seed on every run."""
        monkeypatch.delenv("BEAMBANK_SEED", raising=False)
        cfg = {
            "geometries": [{"geometry": "reference_glasses_5"}],
            "count": 2,
            "clips_dir": "clips",
        }
        s = dataset_settings(cfg, base_dir=tmp_path)
        assert s["seed"] == 0

    def test_seed_zero_is_preserved(self, tmp_path):
        cfg = {
            "geometries": [{"geometry": "reference_glasses_5"}],
            "count": 2,
            "clips_dir": "clips",
            "seed": 0,
        }
        s = dataset_settings(cfg, base_dir=tmp_path)
        assert s["seed"] == 0


class TestSettingsTable:
    """What every section shares through its rows."""

    BASE = {"geometry": "reference_glasses_5"}

    def test_every_row_is_documented(self):
        """docs/formats.md names every key of every section in its config
        part, so a new row cannot go undocumented."""
        doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
        part = doc.split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
        rows = [
            (command, section, row.name)
            for command, sections in config._SECTIONS.items()
            for section, table in sections
            for row in table
        ]
        assert len(rows) > 40
        assert [row for row in rows if f"`{row[2]}`" not in part] == []

    @pytest.mark.parametrize("key", ["fs", "n_fft", "sound_speed", "wng_margin"])
    def test_bool_is_not_a_number(self, key):
        with pytest.raises(ConfigError, match=key):
            design_settings({**self.BASE, key: True})

    def test_null_counts_as_unset(self):
        s = design_settings({**self.BASE, "fs": None, "nulls": None, "directions": None})
        assert s["fs"] == 16000 and s["nulls"] == () and len(s["directions"]) == 5

    def test_nested_key_is_named(self):
        with pytest.raises(ConfigError, match=r"^nulls\[1\]\.alpha: expected a finite number"):
            design_settings(
                {**self.BASE, "nulls": [{"azimuth": 0.0}, {"azimuth": 90.0, "alpha": "x"}]}
            )

    def test_non_string_unknown_key(self):
        with pytest.raises(ConfigError, match=r"unknown keys \[1, 'foo'\]"):
            design_settings({**self.BASE, 1: 2, "foo": 3})

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda: room_from_config({"dimensions": [6, 5, 3], "max_order": 31}),
             "room: max_order 31"),
            (lambda: room_from_config({"dimensions": [6, 5, 3], "absorption": 0}), "room: absorption"),
            (lambda: design_settings({"geometry": "reference_glasses_5", "subset": [0, 0]}),
             "subset: duplicate"),
            (lambda: design_settings({"geometry": "reference_glasses_5",
                                      "directions": {"mouth": {"range": 0.001}}}),
             "directions.mouth: range"),
        ],
        ids=["max-order", "absorption", "subset", "mouth-range"],
    )
    def test_library_range_is_a_config_error_naming_the_key(self, build, named):
        with pytest.raises(ConfigError, match=named):
            build()

    def test_rir_mics_exclude_a_placed_geometry(self):
        cfg = {"room": {"dimensions": [6, 5, 3]}, "source": [1, 1, 1],
               "mics": [[2, 2, 1]], "position": [1, 1, 1]}
        with pytest.raises(ConfigError, match="position"):
            rir_settings(cfg)


class TestPrecedence:
    """The seed and worker count in effect: flag, then BEAMBANK_* variable,
    then config key, then default."""

    CFG = {"geometries": [{"geometry": "reference_glasses_5"}], "clips_dir": "clips"}

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        for name in ("SEED", "WORKERS", "LOG_LEVEL"):
            monkeypatch.delenv(f"BEAMBANK_{name}", raising=False)
        self.monkeypatch = monkeypatch

    def effect(self, config=(), flags=None, **env):
        for name, text in env.items():
            self.monkeypatch.setenv(f"BEAMBANK_{name}", text)
        s = dataset_settings({**self.CFG, **dict(config)}, flags=flags)
        return s["seed"], s["workers"]

    def test_flag_wins(self):
        config = {"seed": 3, "workers": 3}
        assert self.effect(config, {"seed": 9, "workers": 9}, SEED="5", WORKERS="5") == (9, 9)

    def test_env_beats_config(self):
        assert self.effect({"seed": 3, "workers": 3}, SEED="5", WORKERS="5") == (5, 5)

    def test_config_beats_default(self):
        assert self.effect({"seed": 3, "workers": 3}) == (3, 3)

    def test_default_last(self):
        assert self.effect() == (0, min(os.cpu_count() or 1, config.MAX_WORKERS))

    def test_bad_env_value(self):
        with pytest.raises(ConfigError, match=r"^seed \(BEAMBANK_SEED\): expected an integer"):
            self.effect(SEED="not-a-number")

    def test_empty_variable_counts_as_unset(self):
        assert self.effect({"seed": 3, "workers": 3}, SEED="", WORKERS="") == (3, 3)

    @pytest.mark.parametrize("text, value", [("7", 7), (" 7\n", 7), ("+7", 7), ("0_7", 7)])
    def test_variable_is_an_integer_where_int_reads_it(self, text, value):
        assert self.effect(SEED=text, WORKERS=text) == (value, value)

    @pytest.mark.parametrize("name, text", [("SEED", "abc"), ("SEED", "-1"), ("WORKERS", "1.5"),
                                            ("WORKERS", "0"), ("WORKERS", "65")])
    def test_bad_variable_is_named(self, name, text):
        with pytest.raises(ConfigError, match=rf"^{name.lower()} \(BEAMBANK_{name}\)"):
            self.effect(**{name: text})

    def test_flag_hides_a_bad_variable(self):
        """A variable is checked only when no flag overrides it."""
        assert self.effect(flags={"seed": 1, "workers": 1}, SEED="abc", WORKERS="0") == (1, 1)

    @pytest.mark.parametrize("key, bad", [("seed", -5), ("seed", "5"), ("workers", 0),
                                          ("workers", config.MAX_WORKERS + 1)])
    def test_config_is_checked_under_a_flag(self, key, bad):
        with pytest.raises(ConfigError, match=rf"^{key}"):
            self.effect({key: bad}, {key: 1})

    def test_count_and_out_dir_flags(self, tmp_path):
        cfg = {**self.CFG, "count": 5, "out_dir": "out"}
        s = dataset_settings(cfg, base_dir=tmp_path)
        assert (s["count"], s["out_dir"]) == (5, os.path.join(tmp_path, "out"))
        s = dataset_settings(cfg, base_dir=tmp_path, flags={"count": 1, "out_dir": "here"})
        assert (s["count"], s["out_dir"]) == (1, "here")

    @pytest.mark.parametrize("flag, env, level", [
        (None, None, 30), ("debug", "error", 10), ("Warn", None, 30), (None, "CRITICAL", 50),
        (None, "", 30), ("fatal", "bogus", 50),
    ])
    def test_log_level(self, flag, env, level):
        if env is not None:
            self.monkeypatch.setenv("BEAMBANK_LOG_LEVEL", env)
        assert log_level(flag) == level

    @pytest.mark.parametrize("flag, env", [("bogus", None), (None, "bogus"), ("", None),
                                           (None, "10")])
    def test_unknown_log_level(self, flag, env):
        if env is not None:
            self.monkeypatch.setenv("BEAMBANK_LOG_LEVEL", env)
        with pytest.raises(ConfigError, match="log_level"):
            log_level(flag)
