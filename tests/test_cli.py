"""Command line behavior: exit codes, JSON summaries, file outputs."""

import contextlib
import io
import json

import numpy as np
import pytest

from beambank.beamformer import load_bank, save_bank
from beambank.cli import main
from beambank.dsp import read_wav, write_wav


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
         ("sound_speed", 0), ("sound_speed", -343)],
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

    def test_unknown_method_exits_2(self, bank_file, tmp_path, capsys):
        header, payload = bank_file.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["method"] = "bogus"
        bogus = tmp_path / "bogus.bbk"
        bogus.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        code, summary, err = run(capsys, "verify", "--bank", str(bogus))
        assert code == 2
        assert summary is None
        assert len(err.strip().splitlines()) == 1
        assert "bogus" in err


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

    def test_off_grid_frequency_exits_2(self, bank_file, tmp_path, capsys):
        code, _, err = run(
            capsys, "pattern", "--bank", str(bank_file), "--freq", "333.3",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "333.3" in err


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
