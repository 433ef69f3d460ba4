"""Self-test of the benchmark's output checks.

Run from the root of a checkout (about ten seconds):

    python3 perfbench/selftest.py

It renders a miniature ``reference`` workload with the real program, shows
that every check passes on those outputs, then plants one fault per check
(a tampered bank, a verify that passes a tampered bank, a recipe or
length violation in the manifest, a byte flip between worker counts, a
shifted or missing feature file, an altered apply output, a streamed output
that depends on block size) and shows that the check fails. Exits 1 if a
clean check fails or a planted fault goes unnoticed.
"""

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import run

run._import_program()

import checks  # noqa: E402
import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MINI = replace(WORKLOADS["reference"], scenes=4, num_clips=4, recording_seconds=3.0)


def _rewrite_rows(out_dir, edit):
    rows = checks.manifest_rows(out_dir)
    edit(rows)
    with open(Path(out_dir) / "manifest.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def main() -> int:
    work = run.STATE / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run.Runner(MINI, 5, work)
    failures = []

    def expect(name, messages, should_fail):
        ok = bool(messages) == should_fail
        verdict = "detected" if should_fail else "clean"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict if ok else messages or 'not detected'}")
        if not ok:
            failures.append(name)

    try:
        runner.setup()
        for op in run.round_ops(runner):
            op()
        runner.end_of_round()
        if runner.failed:
            print(f"FAIL program operations failed: {runner.errors}")
            return 1
        for name, messages in run.run_checks(runner).items():
            expect(f"clean {name}", messages, False)

        wl, inp = MINI, runner.inputs
        scenes, scenes2 = runner.dataset_dir(1), runner.dataset_dir(2)

        tampered = work / "tampered.bbk"
        checks.tamper_bank(runner.bank, tampered)
        expect("bank: one weight perturbed", checks.bank(tampered, wl, inp.look_steering), True)
        header, h = oracle.read_bank(runner.bank)
        header["diagnostics"]["loading"] = (
            np.asarray(header["diagnostics"]["loading"]) * 2.0 + 1e-3
        ).tolist()
        oracle.write_container(work / "loading.bbk", header, h, "<c16")
        expect("bank: loading levels altered",
               checks.bank(work / "loading.bbk", wl, inp.look_steering), True)
        header, h = oracle.read_bank(runner.bank)
        header["wng_margin"] = 0.5
        oracle.write_container(work / "margin.bbk", header, h, "<c16")
        expect("bank: recorded WNG margin altered",
               checks.bank(work / "margin.bbk", wl, inp.look_steering), True)

        expect("verify: tampered bank accepted", checks.verify_exit_codes(0, 0), True)

        for label, edit in (
            ("manifest: partner outside the sector",
             lambda rows: rows[0]["scene"].update(partner_azimuth=1.2)),
            ("manifest: snr off the grid",
             lambda rows: rows[-1]["scene"].update(snr_db=31)),
            ("manifest: segment past the audio",
             lambda rows: rows[0]["segments"][-1].update(end=rows[0]["num_samples"] + 1)),
            ("manifest: row missing", lambda rows: rows.pop()),
        ):
            copy = work / "manifest_fault"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(scenes, copy)
            _rewrite_rows(copy, edit)
            expect(label, checks.manifest(copy, wl), True)

        copy = work / "workers_fault"
        shutil.copytree(scenes2, copy)
        wav = copy / "scene_00001.wav"
        data = bytearray(wav.read_bytes())
        data[-3] ^= 0x01
        wav.write_bytes(bytes(data))
        expect("workers: one byte differs", checks.identical_outputs(scenes, copy), True)

        feats = work / "feats_fault"
        shutil.copytree(runner.feats, feats)
        target = sorted(feats.glob("*.feat"))[0]
        fh, fdata = oracle.read_features(target)
        oracle.write_container(target, fh, np.roll(fdata, 1, axis=0), "<f4")
        summary = runner.featurize_summary
        expect("features: shifted by one frame",
               checks.features(feats, scenes, summary, runner.bank, wl), True)
        target.unlink()
        shutil.copy(runner.feats / target.name, target)
        sorted(feats.glob("*.feat"))[-1].unlink()
        expect("features: file missing",
               checks.features(feats, scenes, summary, runner.bank, wl), True)
        expect("features: wrong skipped count",
               checks.features(runner.feats, scenes,
                               {**summary, "skipped_other_geometry": -1}, runner.bank, wl), True)

        audio, fs = oracle.read_wav(runner.steered)
        oracle.write_wav(work / "shifted.wav", np.roll(audio, 1, axis=1), fs)
        expect("apply: output shifted by one sample",
               checks.apply_output(work / "shifted.wav", inp.recording_audio, runner.bank, wl),
               True)

        other = run.STREAM_CHECK_BLOCK
        streamed = {wl.block: audio.copy(), other: audio.copy()}
        streamed[other][:, audio.shape[1] // 2] += 1e-6
        expect("stream: output depends on block size",
               checks.stream(streamed, runner.steered, wl), True)
        expect("stream: output length depends on block size",
               checks.stream({wl.block: audio, other: audio[:, :-1]}, runner.steered, wl),
               True)
        expect("stream: interior differs from apply",
               checks.stream({wl.block: np.roll(audio, 1, axis=1)}, runner.steered, wl), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "FAILED " + ", ".join(failures) if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
