"""Every stage of the benchmark's traced mode runs on each workload's
miniature warm-up inputs. The traced stages call the library through
methods and attributes (``manifest.to_dict()``, ``bank.entry``,
``atfs.steering``) that the import-name check cannot see, and the traced
mode is not otherwise part of this suite."""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from beambank import load_bank

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STREAM_PUSHES = 16


@pytest.fixture()
def bench(monkeypatch):
    """The benchmark's ``workloads`` and ``traced`` modules, unedited; no
    bytecode is written into the benchmark's directory."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("traced")


@pytest.mark.parametrize("name", ["reference", "wide"])
def test_every_traced_stage_runs_on_the_warm_up_inputs(bench, tmp_path, name):
    workloads, traced = bench
    # the warm-up design's FFT size, so that on `wide` the design config
    # also names an ATF file and the stages steer from it
    wl = dataclasses.replace(workloads.WORKLOADS[name], n_fft=64)
    inp = workloads.synthesize(wl, 1, tmp_path / "inputs")
    out, bank_path = tmp_path / "out", tmp_path / "bank.bbk"
    tr = traced.Tracer()
    tr.trace_id = "round-0"

    traced.design(tr, inp.design_cfg, bank_path)
    assert traced.verify(tr, bank_path, inp.atf)
    scenes = traced.render(tr, inp.warm_dataset_cfg, 1, out / "scenes")
    traced.rirs(tr, *scenes)
    bank = load_bank(bank_path)
    traced.covariance(tr, bank)
    traced.featurize(tr, out / "scenes" / "manifest.jsonl", bank_path, out / "feats")
    traced.apply(tr, inp.warm_recording, bank_path, out / "steered.wav")
    audio = inp.recording_audio
    blocks = [audio[:, i * wl.block:(i + 1) * wl.block] for i in range(STREAM_PUSHES)]
    traced.stream(tr, bank, blocks)

    assert bank.atf_source == ("file" if workloads.WORKLOADS[name].atf_file else "freefield")
    assert len(list((out / "feats").glob("*.feat"))) == 1
    assert (out / "steered.wav").exists()
    # every per-layer metric and counter the benchmark reports has its spans
    metrics = traced.layer_metrics(tr, ["round-0"], 1)
    assert metrics["dsp.stream_blocks"] == STREAM_PUSHES
    assert all(value > 0 for key, value in metrics.items() if key.endswith("_ms")), metrics
