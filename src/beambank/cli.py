"""Command-line front end.

Subcommands cover the whole pipeline: design a bank, export beam patterns,
simulate room responses and conversation scenes, apply a bank to audio,
extract features, accumulate corpus statistics, and verify a designed bank
against its optimality conditions.

Every run prints exactly one JSON summary line to stdout; messages and
logging go to stderr. Outputs are deterministic given (config, seed) and
carry no timestamps. Exit codes: 0 success, 1 usage or config problem,
2 data problem, 3 numerical failure.

At module level this file imports only the standard library, ``config``,
``constants`` and ``errors``, so ``--help`` and usage errors load no numpy;
each command imports the library modules it runs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .config import (
    LOG_LEVEL_HELP,
    config_epilog,
    dataset_settings,
    design_settings,
    environment_epilog,
    load_config,
    log_level,
    rir_settings,
)
from .constants import MIN_RESOLUTION_DEG
from .errors import BeambankError, ConfigError, DataError

_LOG = logging.getLogger("beambank")

DESIGN_EPILOG, RIR_EPILOG, DATASET_EPILOG = map(config_epilog, ("design", "rir", "dataset"))


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 with one stderr line (no usage text; --help has
    # it); argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _config_base(path: str) -> str:
    return os.path.dirname(os.path.abspath(path))


def cmd_design(args) -> dict:
    from .beamformer import design_bank, save_bank
    from .geometry import import_atfs

    settings = design_settings(load_config(args.config), base_dir=_config_base(args.config))
    atf_file = settings.pop("atf_file")
    atfs = None if atf_file is None else import_atfs(atf_file)
    bank = design_bank(atfs=atfs, **settings)
    save_bank(bank, args.out)
    _LOG.info(
        "designed %d directions x %d bins (%s)",
        bank.num_directions, bank.frequencies.shape[0], bank.method,
    )
    return {
        "command": "design",
        "out": str(args.out),
        "method": bank.method,
        "directions": bank.num_directions,
        "bins": int(bank.frequencies.shape[0]),
        "mics": bank.num_mics,
        "max_loading": float(bank.loading.max()),
        "max_constraint": float(bank.constraint.max()),
    }


def cmd_pattern(args) -> dict:
    import numpy as np

    from .analysis import beam_pattern, export_pattern, pattern_steps
    from .beamformer import load_bank

    pattern_steps(args.resolution, error=ConfigError)
    if not (np.isfinite(args.freq) and args.freq >= 0):
        raise ConfigError(f"--freq {args.freq} Hz must be finite and >= 0")
    bank = load_bank(args.bank)
    hits = np.flatnonzero(np.abs(bank.frequencies - args.freq) <= 1e-6)
    if hits.size == 0:
        spacing = float(bank.frequencies[1] - bank.frequencies[0])
        raise DataError(
            f"{args.freq} Hz is not on the bank grid (bin spacing {spacing:g} Hz)"
        )
    fi = int(hits[0])
    frequency = float(bank.frequencies[fi])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for di, direction in enumerate(bank.directions):
        if direction.is_near_field:
            continue  # the horizontal sweep is a far-field view
        pattern = beam_pattern(
            bank.weights[di, fi],
            bank.geometry,
            frequency,
            resolution_deg=args.resolution,
            look=direction,
            sound_speed=bank.sound_speed,
        )
        name = f"pattern_{direction.label()}_f{frequency:g}.{args.format}"
        export_pattern(pattern, out_dir / name, format=args.format)
        files.append(name)
    return {
        "command": "pattern",
        "out_dir": str(out_dir),
        "files": files,
        "frequency_hz": frequency,
    }


def cmd_rir(args) -> dict:
    import numpy as np

    from .dsp import write_wav
    from .simulate import generate_rir_ism

    settings = rir_settings(load_config(args.config), base_dir=_config_base(args.config))
    rir = generate_rir_ism(
        settings["room"], settings["source"], settings["mics"],
        settings["fs"], settings["sound_speed"],
    )
    write_wav(args.out, rir.taps, settings["fs"])
    return {
        "command": "rir",
        "out": str(args.out),
        "channels": int(rir.taps.shape[0]),
        "taps": int(rir.taps.shape[1]),
        "peak_sample": int(np.argmax(np.abs(rir.taps[0]))),
    }


def _run_dataset(args, **flags) -> dict:
    from .simulate import ClipSource, NoiseSource, build_dataset

    s = dataset_settings(
        load_config(args.config), _config_base(args.config),
        dict(flags, seed=args.seed, out_dir=args.out),
    )
    if s["out_dir"] is None:
        raise ConfigError("no output directory: set 'out_dir' in the config or pass --out")
    clips = ClipSource.from_directory(s["clips_dir"])
    noise = None if s["noise_dir"] is None else NoiseSource.from_directory(s["noise_dir"])
    manifest = build_dataset(
        s["catalog"], clips, noise, s["count"], s["out_dir"],
        seed=s["seed"], fs=s["fs"], workers=s["workers"],
    )
    return {
        "command": args.command,
        "manifest": str(manifest),
        "scenes": s["count"],
        "out_dir": str(s["out_dir"]),
        "seed": s["seed"],
    }


def cmd_scene(args) -> dict:
    return _run_dataset(args, count=1)


def cmd_dataset(args) -> dict:
    return _run_dataset(args, workers=args.workers)


def cmd_apply(args) -> dict:
    from .beamformer import load_bank
    from .dsp import _riff_size, _wav_frames, read_wav, steer_audio, write_wav

    bank = load_bank(args.bank)
    # an output a WAV cannot hold is refused from the input's header, before
    # its samples are read, and again from what was read (a file that could
    # not be probed), before they are steered
    frames = _wav_frames(args.input)
    if frames is not None:
        _riff_size(args.out, bank.num_directions, frames)
    audio, fs = read_wav(args.input, expected_fs=bank.fs)
    _riff_size(args.out, bank.num_directions, audio.shape[1])
    steered = steer_audio(audio, bank, num_samples=audio.shape[1])
    write_wav(args.out, steered, fs)
    return {
        "command": "apply",
        "out": str(args.out),
        "channels": int(steered.shape[0]),
        "samples": int(steered.shape[1]),
    }


def _featurize_wav(wav_path, bank, stats):
    from .dsp import read_wav
    from .features import featurize_audio, normalize

    audio, _ = read_wav(wav_path, expected_fs=bank.fs)
    if audio.shape[0] != bank.num_mics:
        raise DataError(
            f"{wav_path}: {audio.shape[0]} channels vs {bank.num_mics}-mic bank"
        )
    tensor = featurize_audio(audio, bank)
    if stats is not None:
        tensor = normalize(tensor, stats)
    return tensor


def _manifest_wavs(manifest_path, geometry_id) -> tuple:
    """Audio paths from a manifest; rows for other geometries are counted,
    not processed (a bank only fits its own array). A line longer than
    ``MAX_LINE_CHARS`` is refused after reading at most that much of it."""
    from ._container import parsing
    from .manifest import MAX_LINE_CHARS, SceneManifest

    root = Path(manifest_path).parent
    wavs, skipped = [], 0
    with open(manifest_path, "r", encoding="utf-8") as fh, parsing(manifest_path, "manifest"):
        while line := fh.readline(MAX_LINE_CHARS + 1):
            if len(line) > MAX_LINE_CHARS:
                raise ValueError(f"a line longer than {MAX_LINE_CHARS} characters")
            if not line.strip():
                continue
            row = SceneManifest.from_dict(json.loads(line))
            if not row.audio_path:
                raise ValueError("row without audio_path")
            if row.geometry_id != geometry_id:
                skipped += 1
            else:
                wavs.append(root / row.audio_path)
    if not wavs:
        raise DataError(f"{manifest_path}: no scenes with geometry '{geometry_id}'")
    return wavs, skipped


def _input_wavs(path, geometry_id) -> tuple:
    path = Path(path)
    if path.suffix == ".jsonl":
        return _manifest_wavs(path, geometry_id)
    return [path], 0


def _feature_names(manifest_path, wavs) -> list:
    """The feature file name of each audio path, its stem plus ``.feat``;
    a DataError if two paths would write one file."""
    seen = {}  # name -> the audio path that writes it, in manifest order
    for wav in wavs:
        name = wav.stem + ".feat"
        if name in seen:
            raise DataError(
                f"{manifest_path}: audio {seen[name]} and {wav} would both write {name}"
            )
        seen[name] = wav
    return list(seen)


def cmd_featurize(args) -> dict:
    from .beamformer import load_bank
    from .features import export_features, load_stats

    bank = load_bank(args.bank)
    stats = None if args.stats is None else load_stats(args.stats)
    inp = Path(args.input)
    if inp.suffix == ".jsonl":
        out_dir = Path(args.out) if args.out is not None else inp.parent / "features"
        wavs, skipped = _manifest_wavs(inp, bank.geometry.id)
        names = _feature_names(inp, wavs)
        out_dir.mkdir(parents=True, exist_ok=True)
        for wav, name in zip(wavs, names):
            export_features(_featurize_wav(wav, bank, stats), out_dir / name)
        return {
            "command": "featurize",
            "out_dir": str(out_dir),
            "files": len(wavs),
            "skipped_other_geometry": skipped,
            "normalized": stats is not None,
        }
    tensor = _featurize_wav(inp, bank, stats)
    target = Path(args.out) if args.out is not None else inp.with_suffix(".feat")
    export_features(tensor, target)
    return {
        "command": "featurize",
        "out": str(target),
        "files": 1,
        "frames": int(tensor.data.shape[0]),
        "normalized": stats is not None,
    }


def cmd_stats(args) -> dict:
    from .beamformer import load_bank
    from .features import accumulate_stats, save_stats

    bank = load_bank(args.bank)
    wavs, skipped = _input_wavs(args.input, bank.geometry.id)
    stats = accumulate_stats(_featurize_wav(w, bank, None) for w in wavs)
    save_stats(stats, args.out)
    return {
        "command": "stats",
        "out": str(args.out),
        "files": len(wavs),
        "skipped_other_geometry": skipped,
        "frames": int(stats.count),
    }


def cmd_verify(args) -> dict:
    import numpy as np

    from .beamformer import load_bank, verify_bank
    from .geometry import import_atfs

    bank = load_bank(args.bank)
    atfs = None
    if bank.atf_source == "file":
        if args.atfs is None:
            raise ConfigError(
                "bank was designed from an ATF file; pass --atfs with that file"
            )
        atfs = import_atfs(args.atfs)

    report = verify_bank(bank, atfs)
    failure = report.first_failure()
    kkt = report.kkt if bank.method == "nlcmv" else None
    summary = {
        "command": "verify",
        "bank": str(args.bank),
        "method": bank.method,
        "designs": int(report.kkt.distortionless_error.size),
        "passed": failure is None,
        "failed_invariant": None if failure is None else failure[0],
        "max_distortionless_error": float(report.kkt.distortionless_error.max()),
        "max_stationarity_ratio": None if kkt is None else float(
            (kkt.stationarity_residual / np.maximum(kkt.stationarity_bound, 1e-300)).max()
        ),
        "max_constraint": None if kkt is None else float(kkt.constraint_value.max()),
        "max_slackness": None if kkt is None else float(kkt.slackness.max()),
    }
    if failure is not None:
        name, direction, frequency, value = failure
        print(
            f"beambank verify: invariant '{name}' failed at {direction.label()} @ "
            f"{frequency:g} Hz (value {value:.3e})",
            file=sys.stderr,
        )
        summary["_exit"] = 3
    return summary


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beambank",
        description=(
            "Design, analyze, and apply fixed beamformer banks for wearable "
            "arrays, and synthesize conversation scenes with feature output."
        ),
        epilog=environment_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--log-level", help=LOG_LEVEL_HELP)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text, epilog=None):
        return sub.add_parser(
            name, help=help_text, epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )

    p = add("design", "design a beamformer bank from a config", DESIGN_EPILOG)
    p.add_argument("--config", required=True, help="design config file (YAML)")
    p.add_argument("--out", required=True, help="bank file to write")
    p.set_defaults(func=cmd_design)

    p = add("pattern", "export horizontal beam patterns from a bank")
    p.add_argument("--bank", required=True, help="bank file")
    p.add_argument("--freq", type=float, default=1000.0,
                   help="frequency in Hz, finite, >= 0 and on the bank grid (default 1000)")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--resolution", type=float, default=1.0,
                   help=f"azimuth grid step in degrees, >= {MIN_RESOLUTION_DEG} and "
                        "dividing 360 (default 1)")
    p.set_defaults(func=cmd_pattern)

    p = add("rir", "simulate a shoebox room impulse response", RIR_EPILOG)
    p.add_argument("--config", required=True, help="room config file (YAML)")
    p.add_argument("--out", required=True, help="multichannel wav to write")
    p.set_defaults(func=cmd_rir)

    p = add("scene", "render a single conversation scene", DATASET_EPILOG)
    p.add_argument("--config", required=True, help="scene config file (YAML)")
    p.add_argument("--seed", type=int, help="base seed override")
    p.add_argument("--out", help="output directory override")
    p.set_defaults(func=cmd_scene)

    p = add("dataset", "render a multi-scene dataset with a manifest", DATASET_EPILOG)
    p.add_argument("--config", required=True, help="dataset config file (YAML)")
    p.add_argument("--seed", type=int, help="base seed override")
    p.add_argument("--workers", type=int, help="worker count override")
    p.add_argument("--out", help="output directory override")
    p.set_defaults(func=cmd_dataset)

    p = add("apply", "steer a multichannel wav through every bank direction")
    p.add_argument("input", help="multichannel wav recorded at the bank's rate")
    p.add_argument("--bank", required=True, help="bank file")
    p.add_argument("--out", required=True, help="steered wav to write (K+1 channels)")
    p.set_defaults(func=cmd_apply)

    p = add("featurize", "extract direction-indexed log-mel features")
    p.add_argument("input", help="multichannel wav, or a scene manifest (.jsonl)")
    p.add_argument("--bank", required=True, help="bank file")
    p.add_argument("--stats", default=None,
                   help="corpus statistics file; when given, output is normalized")
    p.add_argument("--out", default=None,
                   help="feature file (wav input) or directory (manifest input)")
    p.set_defaults(func=cmd_featurize)

    p = add("stats", "accumulate corpus feature statistics")
    p.add_argument("input", help="multichannel wav, or a scene manifest (.jsonl)")
    p.add_argument("--bank", required=True, help="bank file")
    p.add_argument("--out", required=True, help="statistics file to write")
    p.set_defaults(func=cmd_stats)

    p = add("verify", "check a bank against its design invariants")
    p.add_argument("--bank", required=True, help="bank file")
    p.add_argument("--atfs", default=None,
                   help="steering-vector file for banks designed with atf_source: file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits for usage errors and --help; keep main() returning
        return int(exc.code or 0)
    try:
        logging.basicConfig(
            level=log_level(args.log_level), stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
        summary = args.func(args)
    except (BeambankError, OSError, MemoryError) as exc:
        # one stderr line, also for messages that span several (YAML's)
        message = " ".join(str(exc).split()) or "out of memory"
        print(f"beambank {args.command}: {message}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    code = summary.pop("_exit", 0)
    print(json.dumps(summary, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
