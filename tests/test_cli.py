"""Command line behavior: exit codes, JSON summaries, file outputs."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import process as futures_process
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import beambank
from beambank import beamformer, cli, config, dsp, simulate
from beambank.beamformer import MAX_FS, MAX_N_FFT, load_bank, save_bank
from beambank.constants import MAX_DIRECTIONS
from beambank.cli import main
from beambank.dsp import _run_frames, apply_bank, istft, read_wav, stft, write_wav
from beambank.errors import DataError
from beambank.features import (
    accumulate_stats,
    export_features,
    featurize_bank_output,
    import_features,
    save_stats,
)
from beambank.geometry import MAX_MICS, export_atfs, freefield_atfs
from beambank.manifest import MANIFEST_SCHEMA, MAX_LINE_CHARS, SceneManifest
from beambank.simulate import MAX_ORDER, MAX_RIR_SECONDS


def _forbidden(name):
    """A stand-in for ``name`` that fails the test when called."""

    def call(*args, **kwargs):
        raise AssertionError(f"{name}{args} called")

    return call


@contextlib.contextmanager
def _no_allocation(monkeypatch):
    """Make np.zeros and np.fft.rfftfreq fail the test if anything calls
    them inside the block: a size cap must act before any buffer is built."""
    with monkeypatch.context() as patch:
        patch.setattr(np, "zeros", _forbidden("np.zeros"))
        patch.setattr(np.fft, "rfftfreq", _forbidden("np.fft.rfftfreq"))
        yield


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    summary = json.loads(captured.out) if captured.out.strip() else None
    return code, summary, captured.err


@pytest.fixture(scope="module")
def design_cfg(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "design.yaml"
    cfg.write_text(
        "geometry: reference_glasses_5\n"
        "method: nlcmv\n"
        "directions:\n"
        "  horizontal: [0.0, 90.0, 180.0, 270.0]\n"
        "nulls:\n"
        "- azimuth: 180.0\n"
        "  alpha: 10.0\n"
        "fs: 16000\n"
        "n_fft: 64\n"
    )
    return cfg


@pytest.fixture(scope="module")
def bank_file(design_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("bank") / "ref.bbk"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["design", "--config", str(design_cfg), "--out", str(out)])
    assert code == 0
    return out


def _atf_file(bank_file, path, flaw=None):
    """The free-field steering set of a bank's directions and bins as an ATF
    file; ``flaw`` "nan" or "inf" sets that entry at az90, bin 3, mic 2,
    "nan-frequency" the grid's bin 3."""
    bank = load_bank(bank_file)
    export_atfs(freefield_atfs(bank.geometry, bank.directions, bank.frequencies), path)
    line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    vectors = np.frombuffer(payload, "<c16").reshape(bank.weights.shape).copy()
    if flaw == "nan-frequency":
        header["frequencies"][3] = math.nan
    elif flaw is not None:
        vectors[1, 3, 2] = float(flaw)
    path.write_bytes(json.dumps(header).encode() + b"\n" + vectors.tobytes())
    return path


# the one stderr line that refuses each flawed ATF file, after "{path}: bad ATF file: "
ATF_FLAWS = {
    "nan": "non-finite steering entry at az90, bin 3 (750 Hz)",
    "inf": "non-finite steering entry at az90, bin 3 (750 Hz)",
    "nan-frequency": "ATF frequency grid must be finite and strictly increasing",
}


@pytest.fixture()
def input_wav(tmp_path, rng):
    path = tmp_path / "in.wav"
    write_wav(path, 0.1 * rng.standard_normal((5, 8000)), 16000)
    return path


class TestDesign:
    def test_summary_and_reproducibility(self, design_cfg, tmp_path, capsys):
        out1 = tmp_path / "a.bbk"
        code, summary, _ = run(capsys, "design", "--config", str(design_cfg), "--out", str(out1))
        assert code == 0
        assert summary["method"] == "nlcmv"
        assert summary["directions"] == 5
        assert summary["bins"] == 33
        assert summary["mics"] == 5
        out2 = tmp_path / "b.bbk"
        code, _, _ = run(capsys, "design", "--config", str(design_cfg), "--out", str(out2))
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("geometry: reference_glasses_5\nwindow_type: hann\n")
        code, summary, err = run(
            capsys, "design", "--config", str(cfg), "--out", str(tmp_path / "x.bbk")
        )
        assert code == 1
        assert summary is None
        assert "window_type" in err

    def test_missing_config_exits_1(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "design", "--config", str(tmp_path / "none.yaml"),
            "--out", str(tmp_path / "x.bbk"),
        )
        assert code == 1
        assert err.strip()

    @pytest.mark.parametrize(
        "key, value",
        [("wng_margin", 0), ("wng_margin", -1), ("wng_tolerance", -1),
         ("sound_speed", 0), ("sound_speed", -343), ("wng_margin", 5), ("wng_margin", 6),
         ("wng_tolerance", ".inf"), ("wng_margin", ".inf"), ("wng_tolerance", ".nan")],
    )
    def test_out_of_range_solver_setting_exits_1(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(f"geometry: reference_glasses_5\nn_fft: 64\n{key}: {value}\n")
        code, summary, err = run(
            capsys, "design", "--config", str(cfg), "--out", str(tmp_path / "x.bbk")
        )
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert key in err

    @pytest.mark.parametrize(
        "mics",
        ["[[0, 0, 0], [0.1, 0]]", '"abc"', "[[0, 0, 0], [.nan, 0.1, 0]]"],
        ids=["ragged", "string", "nan"],
    )
    def test_bad_inline_mics_exit_1_with_one_line(self, tmp_path, capsys, mics):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(f"geometry: {{id: g, mics: {mics}}}\nn_fft: 64\n")
        out = tmp_path / "x.bbk"
        code, summary, err = run(capsys, "design", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert "geometry.mics" in err
        assert not out.exists()

    # (config line, the key the error names); the last four are ranges the
    # library checks, reported as config errors
    @pytest.mark.parametrize(
        "line, key",
        [
            ("directions: {horizontal: [.nan]}", "directions.horizontal[0]"),
            ("directions: {horizontal: [.inf]}", "directions.horizontal[0]"),
            ("nulls: [{azimuth: .nan}]", "nulls[0].azimuth"),
            ("nulls: [{azimuth: 90, alpha: 10}, {azimuth: 0, alpha: true}]", "nulls[1].alpha"),
            ("nulls: [{azimuth: 90, alpha: -1}]", "nulls[0]"),
            ("directions: {mouth: {range: 0.1, elevation: 95}}", "directions.mouth"),
            ("subset: [0, 9]", "subset"),
            ("subset: [0, 0]", "subset"),
        ],
        ids=["look-nan", "look-inf", "null-nan", "alpha-bool", "alpha-negative",
             "mouth-elevation", "subset-range", "subset-duplicate"],
    )
    def test_bad_direction_or_subset_exits_1_with_one_line(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(f"geometry: reference_glasses_5\nn_fft: 64\n{line}\n")
        out = tmp_path / "x.bbk"
        code, summary, err = run(capsys, "design", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines", ["geometry_file: missing.yaml", "atf_source: file\natf_file: missing.bba"]
    )
    def test_missing_named_file_exits_2(self, tmp_path, capsys, lines):
        cfg = tmp_path / "design.yaml"
        geometry = "" if lines.startswith("geometry_file") else "geometry: reference_glasses_5\n"
        cfg.write_text(f"{geometry}n_fft: 64\n{lines}\n")
        code, summary, err = run(
            capsys, "design", "--config", str(cfg), "--out", str(tmp_path / "x.bbk")
        )
        assert code == 2
        assert summary is None
        assert "missing." in err

    @pytest.mark.parametrize(
        "mics",
        [b"[[a, b, c]]", b"[[0, 0, 0], [1, 2]]", b"[" * 2000 + b"]" * 2000,
         b"[[1" + b"0" * 5000 + b", 0, 0]]", b"[[0, 0, 0]]\n\xff\xfe", b"["],
        ids=["non-numeric", "ragged", "deep", "5000-digits", "not-utf8", "yaml-syntax"],
    )
    def test_malformed_geometry_file_exits_2_with_one_line(self, tmp_path, capsys, mics):
        """Each of these was a traceback, or (YAML syntax) three stderr lines."""
        geometry = tmp_path / "g.yaml"
        geometry.write_bytes(b"id: g\nmics: " + mics + b"\n")
        cfg = tmp_path / "design.yaml"
        cfg.write_text(f"geometry_file: {geometry}\nn_fft: 64\n")
        out = tmp_path / "x.bbk"
        code, summary, err = run(capsys, "design", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert summary is None
        assert len(err.splitlines()) == 1
        assert err.startswith(f"beambank design: {geometry}: bad geometry file: ")
        assert not out.exists()

    def test_config_yaml_syntax_error_exits_1_with_one_line(self, tmp_path, capsys):
        """PyYAML's message spans three lines; the CLI prints it on one."""
        cfg = tmp_path / "design.yaml"
        cfg.write_text("geometry: [\n")
        out = tmp_path / "x.bbk"
        code, summary, err = run(capsys, "design", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert summary is None
        [line] = err.splitlines()
        assert line.startswith(f"beambank design: {cfg}: invalid YAML: while parsing a flow node ")
        assert line.endswith(f'in "{cfg}", line 2, column 1')

    @pytest.mark.parametrize("n_fft", [MAX_N_FFT + 2, 2**40])
    def test_n_fft_above_cap_exits_1_before_allocating(
        self, design_cfg, tmp_path, capsys, monkeypatch, n_fft
    ):
        cfg = tmp_path / "big.yaml"
        cfg.write_text(design_cfg.read_text().replace("n_fft: 64", f"n_fft: {n_fft}"))
        out = tmp_path / "x.bbk"
        with _no_allocation(monkeypatch):
            code, summary, err = run(capsys, "design", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert f"n_fft {n_fft} must be positive, even and <= {MAX_N_FFT}" in err
        assert not out.exists()

    @pytest.mark.parametrize("speed", [0.001, 99.9, 2000.5])
    def test_sound_speed_out_of_range_exits_1_before_allocating(
        self, design_cfg, tmp_path, capsys, monkeypatch, speed
    ):
        cfg = tmp_path / "slow.yaml"
        cfg.write_text(design_cfg.read_text() + f"sound_speed: {speed}\n")
        out = tmp_path / "x.bbk"
        with _no_allocation(monkeypatch):
            code, summary, err = run(capsys, "design", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert f"sound_speed {speed} must be in [100, 2000] m/s" in err
        assert not out.exists()

    @pytest.mark.parametrize("source, expected", [("inline", 1), ("file", 2)])
    def test_mic_count_above_cap_exits_before_pairwise_distances(
        self, tmp_path, capsys, monkeypatch, source, expected
    ):
        rows = [[0.01 * i, 0.0, 0.0] for i in range(MAX_MICS + 1)]
        cfg = tmp_path / "big.yaml"
        if source == "inline":
            cfg.write_text(f"geometry: {{id: big, mics: {rows}}}\nn_fft: 64\n")
        else:
            (tmp_path / "big_geometry.yaml").write_text(yaml.safe_dump({"id": "big", "mics": rows}))
            # an explicit mouth: the default one is placed with np.linalg.norm
            cfg.write_text("geometry_file: big_geometry.yaml\nn_fft: 64\n"
                           "directions: {mouth: {range: 0.1, elevation: -37}}\n")
        out = tmp_path / "x.bbk"
        monkeypatch.setattr(np.linalg, "norm", _forbidden("np.linalg.norm"))
        code, summary, err = run(capsys, "design", "--config", str(cfg), "--out", str(out))
        assert code == expected
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert f"{MAX_MICS + 1} mics, at most {MAX_MICS}" in err
        assert not out.exists()

    @pytest.mark.parametrize("looks", [MAX_DIRECTIONS, 10**5])
    def test_direction_count_above_cap_exits_1_before_allocating(
        self, design_cfg, tmp_path, capsys, monkeypatch, looks
    ):
        """More looks than MAX_DIRECTIONS leaves beside the mouth are refused
        on the settings row, before anything is allocated."""
        cfg = tmp_path / "many.yaml"
        cfg.write_text(design_cfg.read_text().replace(
            "[0.0, 90.0, 180.0, 270.0]", str([0.5 * i for i in range(looks)])))
        out = tmp_path / "x.bbk"
        monkeypatch.setattr(np, "empty", _forbidden("np.empty"))
        with _no_allocation(monkeypatch):
            code, summary, err = run(capsys, "design", "--config", str(cfg), "--out", str(out))
        assert (code, summary) == (1, None)
        assert err.strip().splitlines() == [
            f"beambank design: directions.horizontal: {looks} entries, at most "
            f"{MAX_DIRECTIONS - 1}"
        ]
        assert not out.exists()

    def test_atf_header_of_too_many_directions_exits_2_before_allocating(
        self, design_cfg, tmp_path, capsys, monkeypatch
    ):
        """An ATF header listing more than MAX_DIRECTIONS directions, over a
        payload of the size they need, is refused before the payload array
        is allocated."""
        directions = [{"azimuth": 0.01 * i, "elevation": 0.0} for i in range(MAX_DIRECTIONS + 1)]
        header = {"magic": "beambank-atf-v1", "id": "glasses5", "num_mics": 5,
                  "frequencies": [250.0 * i for i in range(33)], "directions": directions}
        atf = tmp_path / "many.atf"
        atf.write_bytes(json.dumps(header).encode() + b"\n" + bytes(len(directions) * 33 * 5 * 16))
        cfg = tmp_path / "atf.yaml"
        cfg.write_text(design_cfg.read_text() + f"atf_source: file\natf_file: {atf.name}\n")
        out = tmp_path / "x.bbk"
        monkeypatch.setattr(np, "empty", _forbidden("np.empty"))
        code, summary, err = run(capsys, "design", "--config", str(cfg), "--out", str(out))
        assert (code, summary) == (2, None)
        assert err.strip().splitlines() == [
            f"beambank design: {atf}: bad ATF file: {MAX_DIRECTIONS + 1} directions, at most "
            f"{MAX_DIRECTIONS}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("flaw", ATF_FLAWS)
    def test_non_finite_atf_exits_2_naming_file_and_bin(
        self, design_cfg, bank_file, tmp_path, capsys, flaw
    ):
        """A NaN or infinite steering entry, or a NaN grid frequency, is a
        bad ATF file, not a zero-norm steering vector or a solver failure."""
        atf = _atf_file(bank_file, tmp_path / "flawed.atf", flaw)
        cfg = tmp_path / "atf.yaml"
        cfg.write_text(design_cfg.read_text() + f"atf_source: file\natf_file: {atf.name}\n")
        out = tmp_path / "x.bbk"
        code, summary, err = run(capsys, "design", "--config", str(cfg), "--out", str(out))
        assert (code, summary) == (2, None)
        assert err.strip().splitlines() == [
            f"beambank design: {atf}: bad ATF file: {ATF_FLAWS[flaw]}"
        ]
        assert not out.exists()

    def test_help_states_n_fft_cap(self, capsys):
        assert main(["design", "--help"]) == 0
        assert f"<= {MAX_N_FFT}" in capsys.readouterr().out

    def test_usage_error_exits_1(self, capsys):
        assert main(["design", "--no-such-flag"]) == 1
        capsys.readouterr()

    def test_unknown_command_exits_1(self, capsys):
        assert main(["transmogrify"]) == 1
        capsys.readouterr()


class TestVerify:
    def test_good_bank_passes(self, bank_file, capsys):
        code, summary, err = run(capsys, "verify", "--bank", str(bank_file))
        assert code == 0, err
        assert summary["passed"] is True
        assert summary["designs"] == 5 * 33
        assert summary["max_slackness"] <= 1e-8

    def test_missing_bank_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "--bank", str(tmp_path / "none.bbk"))
        assert code == 2

    def test_moved_weight_fails_with_one_line(self, bank_file, tmp_path, capsys):
        bank = load_bank(bank_file)
        bank.weights[2, 10, 0] += 1e-3 * (1.0 + 1.0j)
        moved = tmp_path / "moved.bbk"
        save_bank(bank, moved)
        code, summary, err = run(capsys, "verify", "--bank", str(moved))
        assert code == 3
        assert summary["passed"] is False
        assert summary["failed_invariant"] == "distortionless"
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert "'distortionless'" in lines[0]
        assert "az180 @ 2500 Hz" in lines[0]

    @pytest.mark.parametrize("flaw", ATF_FLAWS)
    def test_non_finite_atf_exits_2_naming_file_and_bin(
        self, design_cfg, bank_file, tmp_path, capsys, flaw
    ):
        atf = _atf_file(bank_file, tmp_path / "good.atf")
        cfg = tmp_path / "atf.yaml"
        cfg.write_text(design_cfg.read_text() + f"atf_source: file\natf_file: {atf.name}\n")
        bank = tmp_path / "atf.bbk"
        assert run(capsys, "design", "--config", str(cfg), "--out", str(bank))[0] == 0
        assert run(capsys, "verify", "--bank", str(bank), "--atfs", str(atf))[0] == 0
        flawed = _atf_file(bank_file, tmp_path / "flawed.atf", flaw)
        code, summary, err = run(capsys, "verify", "--bank", str(bank), "--atfs", str(flawed))
        assert (code, summary) == (2, None)
        assert err.strip().splitlines() == [
            f"beambank verify: {flawed}: bad ATF file: {ATF_FLAWS[flaw]}"
        ]

    @pytest.mark.parametrize("command", ["verify", "apply", "featurize", "stats", "pattern"])
    def test_non_finite_weight_exits_2_naming_file_and_bin(
        self, bank_file, input_wav, tmp_path, capsys, command
    ):
        """A NaN weight is a bad bank file for every command that reads one,
        not a NaN output channel, a feature error or a failed invariant."""
        bank = load_bank(bank_file)
        bank.weights[1, 3, 2] = math.nan
        broken = tmp_path / "broken.bbk"
        save_bank(bank, broken)
        out = tmp_path / "out"
        inputs = [] if command in ("verify", "pattern") else [str(input_wav)]
        outputs = [] if command == "verify" else ["--out", str(out)]
        code, summary, err = run(capsys, command, *inputs, "--bank", str(broken), *outputs)
        assert (code, summary) == (2, None)
        assert err.strip().splitlines() == [
            f"beambank {command}: {broken}: bad bank: non-finite weight at az90, bin 3 (750 Hz)"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda doc: {**doc, "method": "bogus"}, "bogus"),
            (lambda doc: [doc], "not an object"),
            (lambda doc: {**doc, "n_fft": 0}, "n_fft 0"),
            (lambda doc: {**doc, "fs": 0}, "fs 0"),
            (lambda doc: {**doc, "fs": 384001}, "fs 384001"),
            (lambda doc: {**doc, "wng_tolerance": float("inf")}, "wng_tolerance inf"),
            (lambda doc: {**doc, "sound_speed": 0.001}, "sound_speed 0.001"),
            (lambda doc: {**doc, "sound_speed": 2500.0}, "sound_speed 2500.0"),
            (lambda doc: {**doc, "diagnostics": {
                **doc["diagnostics"], "loading": doc["diagnostics"]["loading"][:2]}},
             "loading shape (2, 33)"),
            (lambda doc: {**doc, "directions": [
                *doc["directions"][:-1], {**doc["directions"][-1], "range_m": math.inf}]},
             "range inf m"),
            (lambda doc: {**doc, "nulls": [{**doc["nulls"][0], "weight": math.inf}]},
             "weight inf"),
            (lambda doc: {**doc, "nulls": [{**doc["nulls"][0], "psd": math.inf}]}, "psd inf"),
        ],
        ids=["bogus-method", "non-object", "n_fft-0", "fs-0", "fs-above-cap",
             "wng-tolerance-inf", "sound-speed-below", "sound-speed-above", "loading-2-rows",
             "mouth-range-inf", "null-weight-inf", "null-psd-inf"],
    )
    def test_unknown_method_exits_2(self, bank_file, tmp_path, capsys, mutate, named):
        """A header mutated to an unknown method, a non-object, an empty
        frequency grid, a wrongly shaped diagnostics array or a non-finite
        direction range, null weight or null psd (``Infinity`` in the JSON)
        exits 2."""
        header, payload = bank_file.read_bytes().split(b"\n", 1)
        bogus = tmp_path / "bogus.bbk"
        bogus.write_bytes(json.dumps(mutate(json.loads(header))).encode() + b"\n" + payload)
        code, summary, err = run(capsys, "verify", "--bank", str(bogus))
        assert code == 2
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert named in err

    @pytest.mark.parametrize("argv", [["verify"], ["pattern", "--out", "p"]])
    def test_n_fft_above_cap_in_header_exits_2_before_allocating(
        self, bank_file, tmp_path, capsys, monkeypatch, argv
    ):
        header, payload = bank_file.read_bytes().split(b"\n", 1)
        big = tmp_path / "big.bbk"
        big.write_bytes(json.dumps({**json.loads(header), "n_fft": 2**40}).encode()
                        + b"\n" + payload)
        monkeypatch.chdir(tmp_path)
        with _no_allocation(monkeypatch):
            code, summary, err = run(capsys, *argv, "--bank", str(big))
        assert code == 2
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert f"n_fft {2**40} must be" in err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("argv", [["verify"], ["pattern", "--out", "p"]])
    def test_mic_count_above_cap_in_header_exits_2_before_pairwise_distances(
        self, bank_file, tmp_path, capsys, monkeypatch, argv
    ):
        header, payload = bank_file.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["geometry"]["mics"] = [[0.01 * i, 0.0, 0.0] for i in range(MAX_MICS + 1)]
        big = tmp_path / "big.bbk"
        big.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(np.linalg, "norm", _forbidden("np.linalg.norm"))
        code, summary, err = run(capsys, *argv, "--bank", str(big))
        assert code == 2
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert f"{MAX_MICS + 1} mics, at most {MAX_MICS}" in err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("argv", [["verify"], ["pattern", "--out", "p"]])
    def test_direction_count_above_cap_in_header_exits_2_before_allocating(
        self, bank_file, tmp_path, capsys, monkeypatch, argv
    ):
        """A bank header listing more than MAX_DIRECTIONS directions, over a
        payload of the size they need, is refused before the payload array
        is allocated."""
        header, payload = bank_file.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        extra = MAX_DIRECTIONS + 1 - len(header["directions"])
        header["directions"][:0] = [{"azimuth": 0.01 * i, "elevation": 0.0} for i in range(extra)]
        per_direction = len(payload) // (len(header["directions"]) - extra)
        big = tmp_path / "many.bbk"
        big.write_bytes(json.dumps(header).encode() + b"\n" + payload
                        + bytes(extra * per_direction))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(np, "empty", _forbidden("np.empty"))
        code, summary, err = run(capsys, *argv, "--bank", str(big))
        assert (code, summary) == (2, None)
        assert err.strip().splitlines() == [
            f"beambank {argv[0]}: {big}: bad bank: {MAX_DIRECTIONS + 1} directions, at most "
            f"{MAX_DIRECTIONS}"
        ]
        assert not (tmp_path / "p").exists()


class TestPattern:
    def test_writes_one_csv_per_horizontal_direction(self, bank_file, tmp_path, capsys):
        code, summary, _ = run(
            capsys, "pattern", "--bank", str(bank_file), "--freq", "1000",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert len(summary["files"]) == 4  # mouth has no horizontal sweep
        for name in summary["files"]:
            path = tmp_path / name
            assert path.exists()
            header = path.read_text().splitlines()[0]
            assert header == "azimuth_deg,response_db"

    @pytest.mark.parametrize("resolution, azimuths", [
        ("120", ["-120.000000", "0.000000", "120.000000"]),
        ("0.01", [f"{0.01 * k:.6f}" for k in range(-17999, 18001)]),
    ], ids=["odd-step-count", "finest"])
    def test_grid_rows(self, bank_file, tmp_path, capsys, resolution, azimuths):
        code, summary, _ = run(
            capsys, "pattern", "--bank", str(bank_file), "--freq", "1000",
            "--resolution", resolution, "--out", str(tmp_path),
        )
        assert code == 0
        for name in summary["files"]:
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "azimuth_deg,response_db"
            assert [line.split(",")[0] for line in lines[1:]] == azimuths

    def test_off_grid_frequency_exits_2(self, bank_file, tmp_path, capsys):
        code, _, err = run(
            capsys, "pattern", "--bank", str(bank_file), "--freq", "333.3",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "333.3" in err

    @pytest.mark.parametrize("resolution", ["0", "-1", "nan", "inf", "7", "0.001"])
    def test_bad_resolution_exits_1(self, bank_file, tmp_path, capsys, resolution):
        code, summary, err = run(
            capsys, "pattern", "--bank", str(bank_file), "--resolution", resolution,
            "--out", str(tmp_path / "p"),
        )
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert "resolution" in err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("freq", ["nan", "inf", "-inf", "-500"])
    def test_malformed_freq_exits_1_before_reading_bank(self, tmp_path, capsys, freq):
        code, summary, err = run(
            capsys, "pattern", "--bank", str(tmp_path / "missing.bbk"), f"--freq={freq}",
            "--out", str(tmp_path / "p"),
        )
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert "freq" in err
        assert not (tmp_path / "p").exists()


class TestRir:
    EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example_room.yaml"

    def test_example_writes_one_channel_per_mic(self, tmp_path, capsys):
        out = tmp_path / "rir.wav"
        code, summary, _ = run(capsys, "rir", "--config", str(self.EXAMPLE), "--out", str(out))
        assert code == 0
        taps, fs = read_wav(out)
        assert fs == 16000
        assert taps.shape == (5, summary["taps"])

    @pytest.mark.parametrize("fs", [-16000, 0, 384001, 5_000_000_000])
    def test_bad_rate_exits_1_before_allocating(self, tmp_path, capsys, fs):
        cfg = tmp_path / "room.yaml"
        cfg.write_text(self.EXAMPLE.read_text().replace("fs: 16000", f"fs: {fs}"))
        out = tmp_path / "rir.wav"
        code, summary, err = run(capsys, "rir", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert "fs" in err
        assert not out.exists()

    # the cap + 1, and an order whose image lattice would not fit in memory
    @pytest.mark.parametrize("order", [MAX_ORDER + 1, 10**9, -1])
    def test_bad_max_order_exits_1_before_allocating(self, tmp_path, capsys, order):
        cfg = tmp_path / "room.yaml"
        cfg.write_text(self.EXAMPLE.read_text().replace("max_order: 6", f"max_order: {order}"))
        out = tmp_path / "rir.wav"
        code, summary, err = run(capsys, "rir", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert "max_order" in err
        assert not out.exists()

    def test_overlong_response_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch):
        """Stretched to 1000 m, this room's farthest image is 17.5 s away."""
        cfg = tmp_path / "room.yaml"
        cfg.write_text(self.EXAMPLE.read_text().replace(
            "dimensions: [6.0, 4.5, 2.8]", "dimensions: [1000.0, 4.5, 2.8]"
        ))
        out = tmp_path / "rir.wav"
        with _no_allocation(monkeypatch):
            code, summary, err = run(capsys, "rir", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert f"capped at {MAX_RIR_SECONDS:g} s" in err
        assert not out.exists()

    # below, just below, just above and far above the range, and NaN
    @pytest.mark.parametrize("speed", ["0.001", "99.9", "2000.5", "1.0e+300", ".nan"])
    def test_sound_speed_out_of_range_exits_1_before_allocating(
        self, tmp_path, capsys, monkeypatch, speed
    ):
        cfg = tmp_path / "room.yaml"
        cfg.write_text(self.EXAMPLE.read_text() + f"sound_speed: {speed}\n")
        out = tmp_path / "rir.wav"
        with _no_allocation(monkeypatch):
            code, summary, err = run(capsys, "rir", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert "sound_speed" in err
        assert not out.exists()

    # (config line replaced, its replacement, the key the error names)
    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("geometry: reference_glasses_5", "mics: [[.nan, 2.0, 1.4]]", "mics[0]"),
            ("geometry: reference_glasses_5", 'mics: [["a", 2.0, 1.4]]', "mics[0]"),
            ("geometry: reference_glasses_5", "mics: [[1.5, 2.0, 1.4], [1.6, 2.0]]", "mics[1]"),
            ("geometry: reference_glasses_5", "mics: [[1.5, 2.0, 1.4], [1.5, 2.0, 1.4]]",
             "mics: geometry 'mics': two microphones coincide"),
            ("source: [4.5, 2.0, 1.6]", "source: [.nan, 2.0, 1.6]", "source"),
            ("dimensions: [6.0, 4.5, 2.8]", "dimensions: [.inf, 4.5, 2.8]", "room.dimensions"),
            ("absorption: 0.35", "absorption: .nan", "room.absorption"),
        ],
        ids=["mic-nan", "mic-string", "mic-ragged", "mic-coincident", "source-nan", "room-inf",
             "absorption-nan"],
    )
    def test_bad_position_exits_1_with_one_line(self, tmp_path, capsys, old, new, key):
        text = self.EXAMPLE.read_text()
        if new.startswith("mics"):
            text = text.replace("position: [1.5, 2.2, 1.4]\n", "")
        cfg = tmp_path / "room.yaml"
        cfg.write_text(text.replace(old, new))
        out = tmp_path / "rir.wav"
        code, summary, err = run(capsys, "rir", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert key in err
        assert not out.exists()

    def test_mic_count_above_cap_exits_1_before_pairwise_distances(
        self, tmp_path, capsys, monkeypatch
    ):
        rows = [[1.0 + 0.01 * i, 2.0, 1.4] for i in range(MAX_MICS + 1)]
        text = self.EXAMPLE.read_text().replace("position: [1.5, 2.2, 1.4]\n", "")
        cfg = tmp_path / "room.yaml"
        cfg.write_text(text.replace("geometry: reference_glasses_5", f"mics: {rows}"))
        out = tmp_path / "rir.wav"
        monkeypatch.setattr(np.linalg, "norm", _forbidden("np.linalg.norm"))
        code, summary, err = run(capsys, "rir", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert f"mics: geometry 'mics': {MAX_MICS + 1} mics, at most {MAX_MICS}" in err
        assert not out.exists()

    def test_help_states_order_cap(self, capsys):
        assert main(["rir", "--help"]) == 0
        assert f"0 to {MAX_ORDER}," in capsys.readouterr().out


class TestApply:
    def test_steers_to_one_channel_per_direction(self, bank_file, input_wav, tmp_path, capsys):
        out = tmp_path / "steered.wav"
        code, summary, _ = run(
            capsys, "apply", str(input_wav), "--bank", str(bank_file), "--out", str(out)
        )
        assert code == 0
        audio, fs = read_wav(out)
        assert fs == 16000
        assert audio.shape == (5, 8000)  # 4 horizontal + mouth
        assert summary["channels"] == 5

    def test_channel_mismatch_exits_2(self, bank_file, tmp_path, rng, capsys):
        bad = tmp_path / "bad.wav"
        write_wav(bad, rng.standard_normal((3, 4000)), 16000)
        code, _, _ = run(
            capsys, "apply", str(bad), "--bank", str(bank_file),
            "--out", str(tmp_path / "o.wav"),
        )
        assert code == 2

    def test_wrong_rate_exits_2(self, bank_file, tmp_path, rng, capsys):
        bad = tmp_path / "slow.wav"
        write_wav(bad, rng.standard_normal((5, 4000)), 8000)
        code, _, _ = run(
            capsys, "apply", str(bad), "--bank", str(bank_file),
            "--out", str(tmp_path / "o.wav"),
        )
        assert code == 2

    def test_input_shorter_than_n_fft_exits_2_with_one_line(
        self, bank_file, tmp_path, rng, capsys
    ):
        short = tmp_path / "short.wav"
        write_wav(short, rng.standard_normal((5, 63)), 16000)  # the bank's n_fft is 64
        out = tmp_path / "o.wav"
        code, summary, err = run(capsys, "apply", str(short), "--bank", str(bank_file),
                                 "--out", str(out))
        assert code == 2
        assert summary is None
        assert err.strip().splitlines() == [
            "beambank apply: need at least n_fft = 64 samples, got 63"
        ]
        assert not out.exists()

    def test_analyses_one_run_of_frames_at_a_time(
        self, bank_file, tmp_path, rng, capsys, monkeypatch
    ):
        """No rfft sees more frames than one run, every frame is analysed
        once, and the file equals the whole-signal route's, byte for byte."""
        samples = 3 * 32 * _run_frames(5, 64) + 1000  # hop 32: three runs and a part
        audio = 0.1 * rng.standard_normal((5, samples))
        wav = tmp_path / "long.wav"
        write_wav(wav, audio, 16000)
        audio, _ = read_wav(wav)
        bank = load_bank(bank_file)
        whole = tmp_path / "whole.wav"
        write_wav(whole, istft(apply_bank(stft(audio, 16000, 64, 32), bank), samples), 16000)

        shapes, rfft = [], np.fft.rfft

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording)
        out = tmp_path / "steered.wav"
        code, summary, _ = run(capsys, "apply", str(wav), "--bank", str(bank_file),
                               "--out", str(out))
        assert code == 0
        assert summary["samples"] == samples
        assert all(shape[:1] + shape[2:] == (5, 64) for shape in shapes)
        assert max(shape[1] for shape in shapes) == _run_frames(5, 64)
        assert sum(shape[1] for shape in shapes) == samples // 32 + 1
        assert out.read_bytes() == whole.read_bytes()

    def test_output_beyond_a_riff_file_exits_2_before_steering(
        self, bank_file, tmp_path, capsys, monkeypatch
    ):
        """3.7 h of 5-mic audio through the 5-direction bank is more float32
        than a RIFF file holds. It is refused before the 4.3 GB float32
        payload is allocated (the call's traced peak stays far below it)
        and before _steer_into steers any run into it."""
        frames = 0xFFFFFFFF // (4 * 5) + 1
        audio = np.broadcast_to(np.float64(0.0), (5, frames))
        monkeypatch.setattr(dsp, "read_wav", lambda path, expected_fs=None: (audio, 16000))
        monkeypatch.setattr(dsp, "_steer_into", _forbidden("_steer_into"))
        out = tmp_path / "o.wav"
        tracemalloc.start()
        try:
            code, summary, err = run(capsys, "apply", str(tmp_path / "in.wav"),
                                     "--bank", str(bank_file), "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 26
        assert code == 2
        assert summary is None
        assert err.strip().splitlines() == [
            f"beambank apply: {out}: {20 * frames} bytes of audio exceed a RIFF file"
        ]
        assert not out.exists()

    def test_output_beyond_a_riff_file_refused_from_the_input_header(
        self, bank_file, tmp_path, capsys, monkeypatch
    ):
        """A sparse 16-bit 5-channel file whose data chunk holds 3.7 h: its
        5-direction float32 output exceeds a RIFF file, which is told from
        the chunk headers alone, before read_wav reads 2 GB of samples."""
        frames = 0xFFFFFFFF // (4 * 5) + 1
        data = 10 * frames
        fmt = struct.pack("<HHIIHH", 1, 5, 16000, 16000 * 10, 10, 16)
        head = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        head += b"data" + struct.pack("<I", data)
        wav = tmp_path / "long.wav"
        with open(wav, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 0xFFFFFFFF) + head)
            fh.truncate(8 + len(head) + data)  # a hole: no disk space is used
        monkeypatch.setattr(dsp, "read_wav", _forbidden("read_wav"))
        out = tmp_path / "o.wav"
        code, summary, err = run(capsys, "apply", str(wav), "--bank", str(bank_file),
                                 "--out", str(out))
        assert code == 2
        assert summary is None
        assert err.strip().splitlines() == [
            f"beambank apply: {out}: {20 * frames} bytes of audio exceed a RIFF file"
        ]
        assert not out.exists()

    def test_header_probe_refuses_what_read_wav_refuses(self, bank_file, input_wav, tmp_path,
                                                        capsys, monkeypatch):
        """A data chunk that claims more bytes than the file has is refused
        from the headers with read_wav's own message."""
        blob = bytearray(input_wav.read_bytes())
        at = blob.index(b"data") + 4
        struct.pack_into("<I", blob, at, struct.unpack_from("<I", blob, at)[0] + 10)
        bad = tmp_path / "long_claim.wav"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataError) as info:
            read_wav(bad)
        monkeypatch.setattr(dsp, "read_wav", _forbidden("read_wav"))
        code, summary, err = run(capsys, "apply", str(bad), "--bank", str(bank_file),
                                 "--out", str(tmp_path / "o.wav"))
        assert code == 2
        assert err.strip().splitlines() == [f"beambank apply: {info.value}"]

    def test_memory_error_in_a_run_exits_2_with_one_line(
        self, bank_file, tmp_path, rng, capsys, monkeypatch
    ):
        """A MemoryError in run 3 of a threaded steer reaches the CLI, which
        exits 2 with one line and leaves no thread and no output behind."""
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 2)
        schedule = dsp._in_run_order

        def failing(compute, consume, runs, threads):
            def compute_(i):
                if i == 3:
                    raise MemoryError
                return compute(i)

            schedule(compute_, consume, runs, threads)

        monkeypatch.setattr(dsp, "_in_run_order", failing)
        wav = tmp_path / "long.wav"
        write_wav(wav, 0.1 * rng.standard_normal((5, 5 * 32 * _run_frames(5, 64))), 16000)
        out = tmp_path / "o.wav"
        before = threading.active_count()
        code, summary, err = run(capsys, "apply", str(wav), "--bank", str(bank_file),
                                 "--out", str(out))
        assert code == 2
        assert summary is None
        assert err.strip().splitlines() == ["beambank apply: out of memory"]
        assert threading.active_count() == before
        assert not out.exists()

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "runs, frame_offset",
        [(0, 0), (3, -1), (3, 0), (3, 1)],
        ids=["one-run", "boundary-1", "boundary", "boundary+1"],
    )
    @pytest.mark.parametrize("extra", [0, 13], ids=["hop-end", "inside-last-hop"])
    def test_file_equals_steer_audio_written(
        self, bank_file, tmp_path, rng, capsys, monkeypatch, threads, runs, frame_offset, extra
    ):
        """Each finished run is stored straight into the float32 payload:
        the file is write_wav(steer_audio(...)) byte for byte at any thread
        count, with a run boundary +-1 frame, and with a length that ends at
        a hop or inside the last hop."""
        monkeypatch.setattr(dsp, "_usable_cores", lambda: threads)
        frames = max(3, runs * _run_frames(5, 64) + frame_offset)
        wav = tmp_path / "in.wav"
        write_wav(wav, 0.1 * rng.standard_normal((5, (frames - 1) * 32 + extra)), 16000)
        audio, _ = read_wav(wav)
        expected = tmp_path / "expected.wav"
        write_wav(expected, dsp.steer_audio(audio, load_bank(bank_file), audio.shape[1]), 16000)
        out = tmp_path / "steered.wav"
        code, summary, _ = run(capsys, "apply", str(wav), "--bank", str(bank_file),
                               "--out", str(out))
        assert code == 0
        assert (summary["channels"], summary["samples"]) == (5, audio.shape[1])
        assert out.read_bytes() == expected.read_bytes()

    def test_peak_memory_is_input_payload_and_a_few_runs(self, bank_file, tmp_path, capsys,
                                                         monkeypatch):
        """100 s of 5-mic audio at two threads: the traced peak of `apply`
        stays within the float64 input, the float32 payload and six runs in
        flight (the executor's four computed runs and two being computed),
        each holding up to four arrays of about _RUN_BYTES: spectra, steered
        spectra, their contiguous copy and synthesis frames. A float64
        output of every direction, 64 MB here, would exceed it."""
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 2)
        samples = 100 * 16000
        wav = tmp_path / "long.wav"
        write_wav(wav, np.full((5, samples), 0.1, dtype=np.float32), 16000)
        out = tmp_path / "steered.wav"
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "apply", str(wav), "--bank", str(bank_file),
                             "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        audio_bytes, payload_bytes = 8 * 5 * samples, 4 * 5 * samples
        assert peak < audio_bytes + payload_bytes + 6 * 4 * dsp._RUN_BYTES

    def test_bytes_do_not_depend_on_blas_threads(self, random_bank, tmp_path):
        """A 3 s 7-channel recording steered through a random bank of 9
        directions at n_fft 1024 in fresh interpreters at one and at two
        BLAS threads: the steering products call BLAS on every usable
        core's thread."""
        rng = np.random.default_rng(3)
        bank = tmp_path / "wide.bbk"
        save_bank(random_bank(rng, 7, 1024, num_looks=8), bank)
        wav = tmp_path / "rec.wav"
        write_wav(wav, 0.1 * rng.standard_normal((7, 48000)), 16000)
        files = []
        for blas_threads in ("1", "2"):
            out = tmp_path / f"blas{blas_threads}.wav"
            done = _fresh_interpreter(
                _MODULES_AFTER_MAIN, "apply", wav, "--bank", bank, "--out", out,
                env_vars=dict(OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads,
                              MKL_NUM_THREADS=blas_threads),
            )
            assert done.returncode == 0, done.stderr
            files.append(out.read_bytes())
        assert files[0] == files[1]

    @pytest.mark.parametrize("cut", [30, 44, 57])
    def test_cut_input_exits_2_with_one_line(
        self, bank_file, input_wav, tmp_path, capsys, cut
    ):
        bad = tmp_path / "cut.wav"
        bad.write_bytes(input_wav.read_bytes()[:cut])
        code, summary, err = run(
            capsys, "apply", str(bad), "--bank", str(bank_file),
            "--out", str(tmp_path / "o.wav"),
        )
        assert code == 2
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o.wav").exists()


class TestFeaturizeAndStats:
    def test_wav_to_features(self, bank_file, input_wav, tmp_path, capsys):
        out = tmp_path / "x.feat"
        code, summary, _ = run(
            capsys, "featurize", str(input_wav), "--bank", str(bank_file), "--out", str(out)
        )
        assert code == 0
        assert out.exists()
        assert summary["files"] == 1

    def test_stats_then_normalized_featurize(self, bank_file, input_wav, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        code, summary, _ = run(
            capsys, "stats", str(input_wav), "--bank", str(bank_file), "--out", str(stats)
        )
        assert code == 0
        assert stats.exists()
        out = tmp_path / "norm.feat"
        code, summary, _ = run(
            capsys, "featurize", str(input_wav), "--bank", str(bank_file),
            "--stats", str(stats), "--out", str(out),
        )
        assert code == 0
        assert summary["normalized"] is True

    def test_analyses_one_run_of_frames_at_a_time(
        self, bank_file, tmp_path, rng, capsys, monkeypatch, whole_signal_features
    ):
        """No rfft sees more frames than one run, every frame is analysed
        once, and the features match the whole-signal route's."""
        samples = 3 * 32 * _run_frames(5, 64) + 1000  # hop 32: three runs and a part
        wav = tmp_path / "long.wav"
        write_wav(wav, 0.1 * rng.standard_normal((5, samples)), 16000)
        audio, _ = read_wav(wav)
        whole = whole_signal_features(stft(audio, 16000, 64, 32), load_bank(bank_file))

        shapes, rfft = [], np.fft.rfft

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording)
        out = tmp_path / "long.feat"
        code, _, _ = run(capsys, "featurize", str(wav), "--bank", str(bank_file),
                         "--out", str(out))
        assert code == 0
        assert all(shape[:1] + shape[2:] == (5, 64) for shape in shapes)
        assert max(shape[1] for shape in shapes) == _run_frames(5, 64)
        assert sum(shape[1] for shape in shapes) == samples // 32 + 1
        got = import_features(out)
        np.testing.assert_array_max_ulp(got.data, whole, maxulp=1)

    def test_bytes_do_not_depend_on_blas_threads(self, random_bank, tmp_path):
        """A 3 s 7-channel recording featurized through a random bank of 9
        directions at n_fft 1024 in fresh interpreters at one and at two
        BLAS threads. Each run's (18 x 513) @ (513 x 80) mel products are
        large enough for OpenBLAS to split among its threads, and the runs
        are steered on every usable core beside them."""
        rng = np.random.default_rng(3)
        bank = tmp_path / "wide.bbk"
        save_bank(random_bank(rng, 7, 1024, num_looks=8), bank)
        wav = tmp_path / "rec.wav"
        write_wav(wav, 0.1 * rng.standard_normal((7, 48000)), 16000)
        files = []
        for blas_threads in ("1", "2"):
            out = tmp_path / f"blas{blas_threads}.feat"
            done = _fresh_interpreter(
                _MODULES_AFTER_MAIN, "featurize", wav, "--bank", bank, "--out", out,
                env_vars=dict(OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads,
                              MKL_NUM_THREADS=blas_threads),
            )
            assert done.returncode == 0, done.stderr
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_input_shorter_than_n_fft_exits_2_with_one_line(
        self, bank_file, tmp_path, rng, capsys
    ):
        short = tmp_path / "short.wav"
        write_wav(short, rng.standard_normal((5, 63)), 16000)  # the bank's n_fft is 64
        out = tmp_path / "short.feat"
        code, summary, err = run(capsys, "featurize", str(short), "--bank", str(bank_file),
                                 "--out", str(out))
        assert code == 2
        assert summary is None
        assert err.strip().splitlines() == [
            "beambank featurize: need at least n_fft = 64 samples, got 63"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "blob",
        [
            b"[1, 2]\n",
            b'"scene.wav"\n',
            b"\xff\xfe{}\n",
            b'{"audio_path": 5, "geometry_id": ID}\n',
        ],
        ids=["list", "string", "not-utf8", "non-string-path"],
    )
    def test_malformed_manifest_exits_2(self, bank_file, tmp_path, capsys, blob):
        manifest = tmp_path / "m.jsonl"
        geometry_id = json.dumps(load_bank(bank_file).geometry.id).encode()
        manifest.write_bytes(blob.replace(b"ID", geometry_id))
        code, summary, err = run(
            capsys, "featurize", str(manifest), "--bank", str(bank_file),
            "--out", str(tmp_path / "feats"),
        )
        assert code == 2
        assert summary is None
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "non_finite", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize("command", ["apply", "featurize", "stats"])
    def test_non_finite_recording_exits_2_with_one_line(
        self, bank_file, input_wav, tmp_path, capsys, command, non_finite
    ):
        """`apply` wrote NaN output and exited 0; `featurize` named no file."""
        audio = read_wav(input_wav)[0]
        audio[2, 4000] = non_finite
        bad = tmp_path / "bad.wav"
        write_wav(bad, audio, 16000)
        out = tmp_path / "out"
        code, summary, err = run(capsys, command, str(bad), "--bank", str(bank_file),
                                 "--out", str(out))
        assert (code, summary) == (2, None)
        assert err.splitlines() == [
            f"beambank {command}: {bad}: float samples must be finite (found NaN or inf)"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(count=1e400), "cannot convert float infinity to integer"),
            (lambda doc: doc.update(variance=doc["variance"][:1]),
             "mean (5, 80) and variance (1, 80) are not of one (directions, mel) shape"),
            (lambda doc: doc.pop("magic"), "not a beambank-stats-v1 file (magic None)"),
        ],
        ids=["count-1e400", "variance-broadcast", "no-magic"],
    )
    def test_malformed_stats_exits_2_with_one_line(
        self, bank_file, input_wav, tmp_path, capsys, edit, message
    ):
        """A count of 1e400 was a traceback; a (1, 80) variance beside a
        (5, 80) mean was broadcast, and featurize exited 0."""
        doc = {"magic": "beambank-stats-v1", "count": 7, "mean": [[0.0] * 80] * 5,
               "variance": [[1.0] * 80] * 5}
        edit(doc)
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(doc))
        out = tmp_path / "x.feat"
        code, summary, err = run(
            capsys, "featurize", str(input_wav), "--bank", str(bank_file),
            "--stats", str(stats), "--out", str(out),
        )
        assert code == 2
        assert summary is None
        assert err.splitlines() == [f"beambank featurize: {stats}: bad stats file: {message}"]
        assert not out.exists()

    def test_stats_file_not_utf8_exits_2(self, bank_file, input_wav, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_bytes(b"\xff\xfe{}")
        code, summary, err = run(
            capsys, "featurize", str(input_wav), "--bank", str(bank_file),
            "--stats", str(stats), "--out", str(tmp_path / "x.feat"),
        )
        assert code == 2
        assert summary is None
        assert len(err.strip().splitlines()) == 1


GEOMETRY_ENTRY = "- geometry: reference_glasses_5"


class TestSceneAndDataset:
    @pytest.fixture()
    def dataset_cfg(self, tmp_path, corpus_dirs):
        clips, noise = corpus_dirs
        cfg = tmp_path / "dataset.yaml"
        cfg.write_text(
            "geometries:\n"
            "- geometry: reference_glasses_5\n"
            f"clips_dir: {clips}\n"
            f"noise_dir: {noise}\n"
            "count: 2\n"
            "fs: 16000\n"
            "seed: 7\n"
        )
        return cfg

    def test_scene_writes_single_scene(self, dataset_cfg, tmp_path, capsys):
        out = tmp_path / "scene_out"
        code, summary, _ = run(
            capsys, "scene", "--config", str(dataset_cfg), "--out", str(out)
        )
        assert code == 0
        assert summary["scenes"] == 1
        manifest = out / "manifest.jsonl"
        rows = [json.loads(line) for line in open(manifest)]
        assert len(rows) == 1
        assert (out / rows[0]["audio_path"]).exists()

    def test_sound_speed_key_exits_1(self, dataset_cfg, tmp_path, capsys):
        """Scenes always render at the built-in sound speed, so a dataset
        config may not set one."""
        cfg = tmp_path / "with_speed.yaml"
        cfg.write_text(dataset_cfg.read_text() + "sound_speed: 200.0\n")
        code, summary, err = run(
            capsys, "dataset", "--config", str(cfg), "--out", str(tmp_path / "d")
        )
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert "sound_speed" in err

    @pytest.mark.parametrize(
        "edit, argv, env, named",
        [
            (("fs: 16000", "fs: -16000"), (), {}, "fs"),
            (("fs: 16000", "fs: 0"), (), {}, "fs"),
            (("fs: 16000", "fs: 384001"), (), {}, "fs"),
            (("count: 2", "count: 0"), (), {}, "count"),
            (("count: 2", "count: 2\nworkers: 0"), (), {}, "workers"),
            (None, ("--workers", "0"), {}, "workers"),
            (None, ("--workers", "-1"), {}, "workers"),
            (None, (), {"BEAMBANK_WORKERS": "0"}, "workers"),
            (None, ("--seed", "-1"), {}, "seed"),
            (("count: 2", "count: 2\nworkers: 0"), ("--workers", "1"), {}, "workers"),
            (("seed: 7", "seed: -5"), ("--seed", "3"), {}, "seed"),
            (None, (), {"BEAMBANK_SEED": "abc"}, "BEAMBANK_SEED"),
            (None, (), {"BEAMBANK_WORKERS": "1.5"}, "BEAMBANK_WORKERS"),
            ((GEOMETRY_ENTRY, "- {geometry: reference_glasses_5, proportion: .nan}\n"
              "- {geometry: reference_glasses_7, proportion: 0.5}"), (), {},
             "geometries[0].proportion"),
            ((GEOMETRY_ENTRY, "- {geometry: reference_glasses_5, proportion: 0.6}\n"
              "- {geometry: reference_glasses_7, proportion: 0.6}"), (), {}, "geometries"),
            ((GEOMETRY_ENTRY, "- {geometry: {id: g, mics: [[0, 0, 0], [0.1, 0, 0]]}}\n"
              "- {geometry: {id: g, mics: [[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]]}}"), (), {},
             "geometries"),
        ],
        ids=["fs-negative", "fs-0", "fs-above-cap", "count-0", "config-workers-0",
             "flag-workers-0", "flag-workers-negative", "env-workers-0", "seed-negative",
             "config-workers-0-overridden", "config-seed-negative-overridden",
             "env-seed-text", "env-workers-fraction", "proportion-nan", "proportions-sum", "duplicate-geometry-id"],
    )
    def test_bad_setting_exits_1(
        self, dataset_cfg, tmp_path, capsys, monkeypatch, edit, argv, env, named
    ):
        cfg = tmp_path / "bad.yaml"
        text = dataset_cfg.read_text()
        cfg.write_text(text if edit is None else text.replace(*edit))
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = tmp_path / "d"
        code, summary, err = run(
            capsys, "dataset", "--config", str(cfg), "--out", str(out), *argv
        )
        assert code == 1
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", [config.MAX_WORKERS + 1, 10**9])
    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_workers_above_cap_exits_1_before_any_pool(
        self, dataset_cfg, tmp_path, capsys, monkeypatch, source, workers
    ):
        """The cap acts on every source before a scene is sampled or a
        pool is built; no process is started."""
        pools = []
        monkeypatch.setattr(futures_process, "ProcessPoolExecutor", lambda **kw: pools.append(kw))
        monkeypatch.setattr(simulate, "sample_scene", _forbidden("sample_scene"))
        cfg, argv = tmp_path / "many.yaml", []
        text = dataset_cfg.read_text().replace("count: 2", "count: 100")
        if source == "config":
            text += f"workers: {workers}\n"
        elif source == "env":
            monkeypatch.setenv("BEAMBANK_WORKERS", str(workers))
        else:
            argv = ["--workers", str(workers)]
        cfg.write_text(text)
        out = tmp_path / "d"
        code, summary, err = run(capsys, "dataset", "--config", str(cfg), "--out", str(out), *argv)
        assert code == 1
        assert summary is None
        assert err.strip().splitlines() == [
            f"beambank dataset: workers{' (BEAMBANK_WORKERS)' if source == 'env' else ''} "
            f"{workers} must be <= {config.MAX_WORKERS}"
        ]
        assert pools == [] and not out.exists()

    @pytest.mark.parametrize("count", [simulate.MAX_SCENES + 1, 10**9])
    @pytest.mark.parametrize("command", ["scene", "dataset"])
    def test_count_above_cap_exits_1_before_any_seed(
        self, dataset_cfg, tmp_path, capsys, monkeypatch, command, count
    ):
        """Scene names keep five digits; no per-scene seed is spawned."""
        seeds = []
        monkeypatch.setattr(simulate.np.random, "SeedSequence", lambda *a: seeds.append(a))
        cfg = tmp_path / "many.yaml"
        cfg.write_text(dataset_cfg.read_text().replace("count: 2", f"count: {count}"))
        out = tmp_path / "d"
        code, summary, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert summary is None
        assert err.splitlines() == [f"beambank {command}: count {count} must be <= 100000"]
        assert seeds == [] and not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_transcript_not_utf8_exits_2_with_one_line(
        self, corpus_dirs, tmp_path, capsys, workers
    ):
        """This was a UnicodeDecodeError traceback at either worker count."""
        clips = tmp_path / "clips"
        shutil.copytree(corpus_dirs[0], clips)
        (clips / "utt0.txt").write_bytes(b"hello \xff\xfe there")
        cfg = tmp_path / "bad_text.yaml"
        cfg.write_text(
            "geometries:\n- geometry: reference_glasses_5\n"
            f"clips_dir: {clips}\nnoise_dir: {corpus_dirs[1]}\ncount: 6\nseed: 7\n"
        )
        code, summary, err = run(
            capsys, "dataset", "--config", str(cfg), "--out", str(tmp_path / "d"),
            "--workers", workers,
        )
        assert code == 2
        assert summary is None
        lines = err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(
            rf"beambank dataset: scene 0000\d \(seed \d+\): {re.escape(str(clips))}/utt0\.txt: "
            r"bad transcript: 'utf-8' codec can't decode byte 0xff in position 6: "
            r"invalid start byte", lines[0]
        )

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_non_finite_clip_exits_2_with_one_line(self, corpus_dirs, tmp_path, capsys, workers):
        """One NaN sample in a clip used to make the whole scene NaN, exit 0."""
        clips = tmp_path / "clips"
        shutil.copytree(corpus_dirs[0], clips)
        for wav in clips.glob("*.wav"):
            audio = read_wav(wav)[0]
            audio[0, 100] = math.nan
            write_wav(wav, audio, 16000)
        cfg = tmp_path / "nan_clips.yaml"
        cfg.write_text(
            "geometries:\n- geometry: reference_glasses_5\n"
            f"clips_dir: {clips}\nnoise_dir: {corpus_dirs[1]}\ncount: 2\nseed: 7\n"
        )
        code, summary, err = run(
            capsys, "dataset", "--config", str(cfg), "--out", str(tmp_path / "d"),
            "--workers", workers,
        )
        assert (code, summary) == (2, None)
        lines = err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(
            rf"beambank dataset: scene 0000\d \(seed \d+\): {re.escape(str(clips))}/utt\d\.wav: "
            r"float samples must be finite \(found NaN or inf\)", lines[0]
        )

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_empty_noise_exits_2_with_one_line(self, corpus_dirs, tmp_path, capsys, workers):
        """A 0-frame noise WAV was a ZeroDivisionError traceback, exit 1."""
        noise = tmp_path / "noise"
        noise.mkdir()
        write_wav(noise / "empty.wav", np.zeros((1, 0)), 16000)
        cfg = tmp_path / "empty_noise.yaml"
        cfg.write_text(
            "geometries:\n- geometry: reference_glasses_5\n"
            f"clips_dir: {corpus_dirs[0]}\nnoise_dir: {noise}\ncount: 2\nseed: 7\n"
        )
        code, summary, err = run(
            capsys, "dataset", "--config", str(cfg), "--out", str(tmp_path / "d"),
            "--workers", workers,
        )
        assert (code, summary) == (2, None)
        lines = err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(
            r"beambank dataset: scene 0000\d \(seed \d+\): noise recording has no samples",
            lines[0],
        )

    def test_dead_worker_exits_2_with_one_line(self, dataset_cfg, tmp_path, capsys, monkeypatch):
        """A worker process that dies (killed, out of memory) breaks the
        pool; that is one line and exit 2, not a traceback."""

        class DeadPool:
            def __init__(self, max_workers, initializer, initargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, *args):
                raise futures_process.BrokenProcessPool(
                    "a process in the pool was terminated abruptly"
                )

        monkeypatch.setattr(futures_process, "ProcessPoolExecutor", DeadPool)
        code, summary, err = run(
            capsys, "dataset", "--config", str(dataset_cfg), "--out", str(tmp_path / "d"),
            "--workers", "2",
        )
        assert code == 2
        assert summary is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "scene worker process died" in lines[0]
        assert not (tmp_path / "d" / "manifest.jsonl").exists()

    def test_seed_from_any_source_gives_the_same_dataset(
        self, dataset_cfg, tmp_path, capsys, monkeypatch
    ):
        """Seed 7 by flag, by BEAMBANK_SEED or by the config key writes the
        same bytes, and the summary reports the seed in effect."""
        unseeded = tmp_path / "unseeded.yaml"
        unseeded.write_text(dataset_cfg.read_text().replace("seed: 7\n", ""))
        runs = {
            "config": (dataset_cfg, [], None),
            "flag": (unseeded, ["--seed", "7"], None),
            "env": (unseeded, [], "7"),
            "default": (unseeded, [], None),
        }
        files = {}
        for name, (cfg, argv, env) in runs.items():
            with monkeypatch.context() as patch:
                if env is not None:
                    patch.setenv("BEAMBANK_SEED", env)
                out = tmp_path / name
                code, summary, _ = run(
                    capsys, "dataset", "--config", str(cfg), "--out", str(out), *argv
                )
            assert code == 0
            assert summary["seed"] == (0 if name == "default" else 7)
            files[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert files["flag"] == files["env"] == files["config"] != files["default"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_worker_failure_names_scene(self, corpus_dirs, tmp_path, capsys, workers):
        clips = tmp_path / "clips"
        shutil.copytree(corpus_dirs[0], clips)
        audio, _ = read_wav(clips / "utt0.wav")
        write_wav(clips / "utt0.wav", audio, 8000)
        cfg = tmp_path / "bad_clip.yaml"
        cfg.write_text(
            "geometries:\n- geometry: reference_glasses_5\n"
            f"clips_dir: {clips}\nnoise_dir: {corpus_dirs[1]}\ncount: 6\nseed: 7\n"
        )
        code, summary, err = run(
            capsys, "dataset", "--config", str(cfg), "--out", str(tmp_path / "d"),
            "--workers", workers,
        )
        assert code == 2
        assert summary is None
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert re.search(r"scene 0000\d \(seed \d+\): .*utt0\.wav: sample rate 8000", lines[0])
        assert "Traceback" not in err

    def test_dataset_respects_count_and_seed_flag(self, dataset_cfg, tmp_path, capsys):
        out1 = tmp_path / "d1"
        out2 = tmp_path / "d2"
        code, summary, _ = run(
            capsys, "dataset", "--config", str(dataset_cfg), "--out", str(out1)
        )
        assert code == 0
        assert summary["scenes"] == 2
        # a different seed flag beats the config seed and changes the data
        code, _, _ = run(
            capsys, "dataset", "--config", str(dataset_cfg), "--seed", "8",
            "--out", str(out2),
        )
        assert code == 0
        m1 = (out1 / "manifest.jsonl").read_text()
        m2 = (out2 / "manifest.jsonl").read_text()
        assert m1 != m2

    def test_featurize_manifest(self, dataset_cfg, bank_file, tmp_path, capsys):
        out = tmp_path / "ds"
        code, _, _ = run(capsys, "dataset", "--config", str(dataset_cfg), "--out", str(out))
        assert code == 0
        feat_dir = tmp_path / "feats"
        code, summary, _ = run(
            capsys, "featurize", str(out / "manifest.jsonl"), "--bank", str(bank_file),
            "--out", str(feat_dir),
        )
        assert code == 0
        assert summary["files"] == 2
        assert summary["skipped_other_geometry"] == 0
        assert len(list(feat_dir.glob("*.feat"))) == 2

    def test_manifest_of_another_schema_exits_2_with_one_line(
        self, dataset_cfg, bank_file, tmp_path, capsys
    ):
        """A row of any schema used to be featurized as a scene."""
        out = tmp_path / "ds"
        code, _, _ = run(capsys, "dataset", "--config", str(dataset_cfg), "--out", str(out))
        assert code == 0
        manifest = out / "manifest.jsonl"
        manifest.write_text(manifest.read_text().replace("beambank-scene-v1", "beambank-scene-v2"))
        feat_dir = tmp_path / "feats"
        code, summary, err = run(
            capsys, "featurize", str(manifest), "--bank", str(bank_file), "--out", str(feat_dir)
        )
        assert (code, summary) == (2, None)
        assert err.splitlines() == [
            f"beambank featurize: {manifest}: bad manifest: not a beambank-scene-v1 row "
            "(schema 'beambank-scene-v2')"
        ]
        assert list(feat_dir.glob("*.feat")) == []

    def test_manifest_rows_sharing_a_stem_exit_2_before_any_feature_file(
        self, dataset_cfg, bank_file, tmp_path, capsys
    ):
        """Rows a/s.wav and b/s.wav would both write s.feat: one file was
        left and the summary counted two. The manifest is refused before the
        output directory is made."""
        out = tmp_path / "ds"
        assert run(capsys, "dataset", "--config", str(dataset_cfg), "--out", str(out))[0] == 0
        manifest = out / "manifest.jsonl"
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        for row, sub in zip(rows, "ab"):
            (out / sub).mkdir()
            (out / row["audio_path"]).rename(out / sub / "s.wav")
            row["audio_path"] = f"{sub}/s.wav"
        manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
        feat_dir = tmp_path / "feats"
        code, summary, err = run(
            capsys, "featurize", str(manifest), "--bank", str(bank_file), "--out", str(feat_dir)
        )
        assert (code, summary) == (2, None)
        assert err.splitlines() == [
            f"beambank featurize: {manifest}: audio {out / 'a' / 's.wav'} and "
            f"{out / 'b' / 's.wav'} would both write s.feat"
        ]
        assert not feat_dir.exists()

    @pytest.mark.parametrize("command", ["featurize", "stats"])
    def test_manifest_line_over_the_cap_exits_2_with_one_line(
        self, dataset_cfg, bank_file, tmp_path, capsys, command
    ):
        """A row whose line, newline included, is MAX_LINE_CHARS long is
        read; one character more exits 2 with one line naming the file."""
        out = tmp_path / "ds"
        assert run(capsys, "dataset", "--config", str(dataset_cfg), "--out", str(out))[0] == 0
        manifest = out / "manifest.jsonl"
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        target = {"featurize": ["--out", str(tmp_path / "feats")],
                  "stats": ["--out", str(tmp_path / "stats.json")]}[command]
        for length, expected in ((MAX_LINE_CHARS, 0), (MAX_LINE_CHARS + 1, 2)):
            line = json.dumps(rows[0], sort_keys=True) + "\n"
            rows[0]["reference"] += " " * (length - len(line))
            manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
            code, summary, err = run(capsys, command, str(manifest), "--bank", str(bank_file),
                                     *target)
            assert code == expected, err
        assert summary is None
        assert err.splitlines() == [
            f"beambank {command}: {manifest}: bad manifest: a line longer than "
            f"{MAX_LINE_CHARS} characters"
        ]

    def test_newline_free_manifest_is_read_up_to_the_cap(self, tmp_path):
        """An 8 MiB manifest without a newline is refused after reading one
        capped line: its raw and decoded text, at most 2 x MAX_LINE_CHARS,
        where reading the whole line held more than 8 MiB."""
        manifest = tmp_path / "m.jsonl"
        manifest.write_bytes(b'{"schema": "' + b"x" * (8 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="a line longer than"):
                cli._manifest_wavs(manifest, "reference_glasses_5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * MAX_LINE_CHARS

    def test_featurize_and_stats_match_per_file_route(
        self, dataset_cfg, bank_file, tmp_path, capsys
    ):
        """`featurize` and `stats` over a manifest write what steering each
        file with apply_bank, then featurize_bank_output, gives."""
        out = tmp_path / "ds"
        code, _, _ = run(capsys, "dataset", "--config", str(dataset_cfg), "--out", str(out))
        assert code == 0
        manifest = out / "manifest.jsonl"
        feat_dir, stats_file = tmp_path / "feats", tmp_path / "stats.json"
        code, _, _ = run(
            capsys, "featurize", str(manifest), "--bank", str(bank_file), "--out", str(feat_dir)
        )
        assert code == 0
        code, summary, _ = run(
            capsys, "stats", str(manifest), "--bank", str(bank_file), "--out", str(stats_file)
        )
        assert code == 0
        bank = load_bank(bank_file)
        expected, tensors = tmp_path / "expected", []
        for row in map(json.loads, manifest.read_text().splitlines()):
            audio, fs = read_wav(out / row["audio_path"])
            spec = stft(audio, fs=fs, n_fft=bank.n_fft, hop=bank.n_fft // 2)
            tensors.append(featurize_bank_output(apply_bank(spec, bank), bank.direction_labels()))
            export_features(tensors[-1], expected)
            feat = feat_dir / (Path(row["audio_path"]).stem + ".feat")
            assert feat.read_bytes() == expected.read_bytes()
        assert summary["frames"] == sum(t.num_frames for t in tensors)
        save_stats(accumulate_stats(tensors), expected)
        assert stats_file.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("command", ["design", "rir", "dataset"])
def test_help_names_rate_cap(capsys, command):
    assert main([command, "--help"]) == 0
    assert f"<= {MAX_FS}," in capsys.readouterr().out


def test_help_lists_every_environment_variable(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    rows = [row for _, rows in sum(config._SECTIONS.values(), ()) for row in rows]
    names = {f"BEAMBANK_{row.env}" for row in rows + [config._LOG_LEVEL] if row.env}
    assert names == {"BEAMBANK_SEED", "BEAMBANK_WORKERS", "BEAMBANK_LOG_LEVEL"}
    for name in names:
        assert re.search(rf"^  {name} ", out, re.M), name


def test_log_level_help_comes_from_its_row(capsys):
    assert main(["--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    row = config._LOG_LEVEL
    assert f"--log-level LOG_LEVEL {row.help}, default {row.default} " in out


@pytest.mark.parametrize(
    "argv, env, code",
    [(["--log-level", "bogus"], None, 1), ([], "bogus", 1), (["--log-level", "DEBUG"], "bogus", 2),
     ([], "warn", 2), ([], "", 2)],
    ids=["flag-bogus", "env-bogus", "flag-hides-env", "env-warn", "env-empty"],
)
def test_log_level_sources(capsys, monkeypatch, tmp_path, argv, env, code):
    """An unknown level exits 1 with one line; a known one (or an empty
    variable) lets the command run on to its own exit 2 for a missing bank."""
    if env is not None:
        monkeypatch.setenv("BEAMBANK_LOG_LEVEL", env)
    got, summary, err = run(capsys, *argv, "verify", "--bank", str(tmp_path / "absent.bank"))
    assert (got, summary) == (code, None)
    assert len(err.strip().splitlines()) == 1
    assert ("log_level" in err and "unknown level" in err) == (code == 1)


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 8.0 TiB")])
def test_memory_error_exits_2_with_one_line(capsys, monkeypatch, tmp_path, error):
    def exhausted(path):
        raise error

    monkeypatch.setattr(beamformer, "load_bank", exhausted)
    code, summary, err = run(capsys, "verify", "--bank", str(tmp_path / "x.bank"))
    assert (code, summary) == (2, None)
    assert err.strip().splitlines() == [f"beambank verify: {str(error) or 'out of memory'}"]


@pytest.mark.parametrize("command", ["design", "rir", "dataset"])
def test_help_lists_every_config_key(capsys, command):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    for section, rows in config._SECTIONS[command]:
        assert f"{section or 'top-level'} keys:" in out
        for row in rows:
            assert re.search(rf"^  {re.escape(row.name)} ", out, re.M), row.name


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# values no numeric config key accepts (null is not here: it means unset)
WRONG_TYPE = ["16000", "", [1.0], [], {"value": 1}, True, False, math.nan, math.inf, -math.inf]
# documented ranges, by the key a value sits under; none of these is a
# valid large count, worker number or image order
OUT_OF_RANGE = {
    "fs": [0, -16000, MAX_FS + 1, 10**12],
    "n_fft": [0, -512, 511, MAX_N_FFT + 2],
    "count": [0, -1],
    "seed": [-1],
    "workers": [0, config.MAX_WORKERS + 1, 10**9],
    "max_order": [-1, MAX_ORDER + 1, 10**9],
    "absorption": [0, -0.1, 1.01],
    "dimensions": [0, -6.0],
    "proportion": [-0.8, 1.5, 0.0],
    "alpha": [-1.0],
}


def _numeric_leaves(node, path=()):
    """Paths of the int and float values in a parsed config."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in _numeric_leaves(child, path + (key,))]
    is_number = isinstance(node, (int, float)) and not isinstance(node, bool)
    return [path] if is_number else []


@pytest.mark.parametrize(
    "name, command",
    [("reference_design.yaml", "design"), ("nulled_design.yaml", "design"),
     ("example_room.yaml", "rir"), ("example_dataset.yaml", "dataset")],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_config_value_exits_1_with_one_line(name, command, data):
    """Any one number of a shipped config replaced by a wrong type, a
    non-finite value or an out-of-range value exits 1 with one stderr line
    naming its top-level key, before any output is written."""
    doc = yaml.safe_load((CONFIGS / name).read_text())
    path = data.draw(st.sampled_from(_numeric_leaves(doc)), label="path")
    key = [step for step in path if isinstance(step, str)][-1]
    bad = data.draw(st.sampled_from(WRONG_TYPE + OUT_OF_RANGE.get(key, [])), label="value")
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = bad
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / name, Path(tmp) / "out"
        cfg.write_text(yaml.safe_dump(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(cfg), "--out", str(out)])
        lines = stderr.getvalue().strip().splitlines()
        assert code == 1, stderr.getvalue()
        assert len(lines) == 1 and "Traceback" not in lines[0]
        assert path[0] in lines[0]
        assert stdout.getvalue() == ""
        assert not out.exists()


# A string no int() or float() reads as a finite number: int() refuses more
# than 4300 digits, and float() reads them as inf.
OVERLONG = "9" * 5000
_NOT_A_NUMBER = st.sampled_from(["", "abc", "1e", "0x10", "nan", "inf", "-inf", OVERLONG])
_NON_INTEGER = st.floats().map(repr)  # "1.5", "2.0", "1e+16", "nan", "-inf"
# Only invalid values for each numeric flag. A valid large --workers would
# start that many processes, so no strategy draws one.
BAD_FLAG_VALUES = {
    ("pattern", "--freq"): _NOT_A_NUMBER | st.floats(max_value=-1e-300).map(repr),
    ("pattern", "--resolution"): _NOT_A_NUMBER | st.floats(max_value=0.0).map(repr)
    | st.sampled_from(["0.001", "0.009", "7", "361", "1e300"]),
    ("scene", "--seed"): _NOT_A_NUMBER | _NON_INTEGER | st.integers(max_value=-1).map(str),
    ("dataset", "--seed"): _NOT_A_NUMBER | _NON_INTEGER | st.integers(max_value=-1).map(str),
    ("dataset", "--workers"): _NOT_A_NUMBER | _NON_INTEGER
    | st.integers(max_value=0).map(str) | st.integers(min_value=config.MAX_WORKERS + 1).map(str),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fuzzed_flag_value_exits_1_with_one_line(bank_file, data):
    """An invalid value of a numeric flag (zero where it must be positive,
    negative, NaN, non-integer, not a number, over-long) exits 1 with one
    stderr line naming the flag, before any output is written."""
    command, flag = data.draw(st.sampled_from(sorted(BAD_FLAG_VALUES)), label="flag")
    value = data.draw(BAD_FLAG_VALUES[command, flag], label="value")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        source = ["--bank", str(bank_file)] if command == "pattern" else [
            "--config", str(CONFIGS / "example_dataset.yaml")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, *source, f"{flag}={value}", "--out", str(out)])
        lines = stderr.getvalue().strip().splitlines()
        assert code == 1, stderr.getvalue()
        assert len(lines) == 1 and "Traceback" not in lines[0]
        assert flag.lstrip("-") in lines[0]
        assert stdout.getvalue() == ""
        assert not out.exists()


def _fresh_interpreter(probe: str, *argv, env_vars=None) -> subprocess.CompletedProcess:
    """Run ``python -c probe *argv`` with this checkout's src/ first on the
    path and ``env_vars`` (a dict) added to the child's environment."""
    env = dict(os.environ, **(env_vars or {}))
    src = str(Path(beambank.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", probe, *map(str, argv)], env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("module", ["scipy", "numba"])
def test_import_loads_no_scipy(module):
    """The package, every module it exports and its CLI import only numpy,
    yaml and the standard library: scipy alone used to add over a second to
    every command, and a jitted route made output bytes depend on what was
    installed."""
    probe = (
        "import sys, beambank, beambank.cli; from beambank import *; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {module!r}))"
    )
    out = _fresh_interpreter(probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# runs ``beambank argv`` and prints the modules it loaded as the last stderr line
_MODULES_AFTER_MAIN = (
    "import json, sys\n"
    "from beambank.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _loaded(modules: list, packages) -> list:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


_NO_ARRAYS = ("numpy", "yaml", "concurrent.futures", "multiprocessing")


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0)]
    + [([command, "--help"], 0) for command in
       ("design", "pattern", "rir", "scene", "dataset", "apply", "featurize", "stats", "verify")]
    + [(["verify"], 1)],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_help_and_usage_errors_run_on_the_standard_library(argv, code):
    """``--help``, every command's ``--help`` and a usage error print from
    the config rows alone: no numpy, yaml or process pool is imported."""
    out = _fresh_interpreter(_MODULES_AFTER_MAIN, *argv)
    assert out.returncode == code, out.stderr
    assert _loaded(json.loads(out.stderr.splitlines()[-1]), _NO_ARRAYS) == []


def test_import_beambank_loads_no_library_module():
    out = _fresh_interpreter("import json, sys, beambank; print(json.dumps(sorted(sys.modules)))")
    assert out.returncode == 0, out.stderr
    modules = json.loads(out.stdout)
    assert _loaded(modules, _NO_ARRAYS) == []
    assert _loaded(modules, ["beambank"]) == ["beambank"]


_RENDERER = ["beambank.simulate", "concurrent.futures", "multiprocessing"]


@pytest.mark.parametrize(
    "command, heavy",
    [
        ("verify", [*_RENDERER, "beambank.features", "beambank.analysis", "yaml"]),
        ("apply", [*_RENDERER, "beambank.features", "beambank.analysis", "yaml"]),
        ("featurize", [*_RENDERER, "beambank.analysis", "yaml"]),
        ("featurize-manifest", _RENDERER),
        ("stats-manifest", _RENDERER),
        ("rir", ["concurrent.futures", "multiprocessing"]),
    ],
    ids=["verify", "apply", "featurize", "featurize-manifest", "stats-manifest", "rir"],
)
def test_verify_and_apply_load_no_simulation_or_features(
    bank_file, input_wav, tmp_path, command, heavy
):
    """Each command loads the modules it runs and no others: steering,
    checking or featurizing with a bank needs no scene renderer, process
    pool or YAML parser; reading a scene manifest needs only its records;
    one room response starts no pool machinery."""
    manifest = tmp_path / "manifest.jsonl"
    row = SceneManifest(
        schema=MANIFEST_SCHEMA, fs=16000, num_samples=8000,
        geometry_id=load_bank(bank_file).geometry.id, segments=[], reference="", scene={},
        audio_path=input_wav.name,
    )
    manifest.write_text(json.dumps(row.to_dict()) + "\n")
    bank, feats = ["--bank", bank_file], ["--out", tmp_path / "feats"]
    argv = {
        "verify": ["verify", *bank],
        "apply": ["apply", input_wav, *bank, "--out", tmp_path / "o.wav"],
        "featurize": ["featurize", input_wav, *bank, *feats],
        "featurize-manifest": ["featurize", manifest, *bank, *feats],
        "stats-manifest": ["stats", manifest, *bank, "--out", tmp_path / "stats.json"],
        "rir": ["rir", "--config", TestRir.EXAMPLE, "--out", tmp_path / "rir.wav"],
    }[command]
    out = _fresh_interpreter(_MODULES_AFTER_MAIN, *argv)
    assert out.returncode == 0, out.stderr
    assert _loaded(json.loads(out.stderr.splitlines()[-1]), heavy) == []
