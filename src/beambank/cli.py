"""Command-line front end.

Subcommands cover the whole pipeline: design a bank, export beam patterns,
simulate room responses and conversation scenes, apply a bank to audio,
extract features, accumulate corpus statistics, and verify a designed bank
against its optimality conditions.

Every run prints exactly one JSON summary line to stdout; messages and
logging go to stderr. Outputs are deterministic given (config, seed) and
carry no timestamps. Exit codes: 0 success, 1 usage or config problem,
2 data problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import beam_pattern, export_pattern
from .beamformer import design_bank, load_bank, save_bank, verify_bank
from .config import (
    dataset_settings,
    design_settings,
    load_config,
    resolve_int_setting,
    resolve_setting,
    rir_settings,
)
from .dsp import apply_bank, istft, read_wav, stft, write_wav
from .errors import BeambankError, ConfigError, DataError, ParseError
from .features import (
    accumulate_stats,
    export_features,
    featurize_bank_output,
    load_stats,
    normalize,
    save_stats,
)
from .geometry import BUILTIN_GEOMETRIES, import_atfs
from .simulate import ClipSource, NoiseSource, build_dataset, generate_rir_ism

_LOG = logging.getLogger("beambank")

GLOBAL_EPILOG = """\
environment:
  BEAMBANK_SEED        seed used when neither --seed nor the config sets one
  BEAMBANK_WORKERS     worker count (otherwise: config, then logical cores)
  BEAMBANK_LOG_LEVEL   log level when --log-level is absent
  BEAMBANK_PURE_NUMPY  set to 1 to force the pure-numpy kernels

precedence for seed/workers/log level: flag, then environment variable,
then config file, then built-in default.
"""

DESIGN_EPILOG = f"""\
config keys (YAML mapping; angles in degrees, distances in meters):
  geometry        builtin name ({", ".join(sorted(BUILTIN_GEOMETRIES))})
                  or inline {{id, mics: [[x, y, z], ...]}}
  geometry_file   path to a geometry YAML (alternative to 'geometry')
  subset          optional channel index list applied to the geometry
  atf_source      'freefield' (default, analytic model) or 'file'
  atf_file        steering-vector set path (required iff atf_source: file)
  directions      mapping with:
    horizontal    look azimuths in degrees, default [0, 90, 180, 270]
    mouth         {{azimuth, elevation, range}}; default is the wearer-mouth
                  point 8 cm forward of and 6 cm below the array origin
  method          delay_and_sum | superdirective | mvdr | nlcmv (default)
  nulls           list of {{azimuth, elevation, alpha, range, psd}};
                  alpha defaults to 10, psd to 1, no range = far field
  fs              sample rate in Hz, default 16000
  n_fft           FFT size, default 512 (one design per rfft bin)
  sound_speed     m/s, finite and > 0, default 343.0
  wng_tolerance   white-noise-gain constraint tolerance, >= 0, default 1e-8
  wng_margin      tightening factor on the WNG floor, > 0, default 1.0

relative paths in the config resolve against the config file's directory.
"""

RIR_EPILOG = """\
config keys (distances in meters):
  room            {dimensions: [Lx, Ly, Lz], absorption: a | [6 values],
                   max_order: cap on image order, default 6}
  source          [x, y, z] source position in the room frame
  mics            explicit [[x, y, z], ...] positions, or instead:
  geometry / geometry_file / subset, position
                  a named array placed with its origin at 'position'
  fs              sample rate in Hz, default 16000
  sound_speed     m/s, finite and > 0, default 343.0

per-wall absorption is ordered (x=0, y=0, z=0, x=Lx, y=Ly, z=Lz).
"""

DATASET_EPILOG = """\
config keys:
  geometries      list of {geometry | geometry_file, subset, proportion};
                  proportions must sum to 1 (omit all of them for equal
                  shares)
  clips_dir       directory of paired utterance files (x.wav + x.txt)
  noise_dir       optional directory of noise wav files
  count           number of scenes, default 1 ('scene' always renders 1)
  fs              sample rate in Hz, default 16000
  seed            base seed; scene i uses the i-th derived child seed
  workers         parallel scene renderers, default logical cores
  out_dir         output directory (--out overrides)

relative paths in the config resolve against the config file's directory.
"""


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _config_base(path: str) -> str:
    return os.path.dirname(os.path.abspath(path))


def cmd_design(args) -> dict:
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


def _run_dataset(args, count_override=None) -> dict:
    settings = dataset_settings(load_config(args.config), base_dir=_config_base(args.config))
    seed = resolve_int_setting(args.seed, "SEED", settings["seed"], 0)
    workers = resolve_int_setting(
        getattr(args, "workers", None), "WORKERS", settings["workers"], os.cpu_count() or 1
    )
    out_dir = args.out if args.out is not None else settings["out_dir"]
    if out_dir is None:
        raise ConfigError("no output directory: set 'out_dir' in the config or pass --out")
    clips = ClipSource.from_directory(settings["clips_dir"])
    noise = (
        None if settings["noise_dir"] is None
        else NoiseSource.from_directory(settings["noise_dir"])
    )
    count = settings["count"] if count_override is None else count_override
    manifest = build_dataset(
        settings["catalog"], clips, noise, count, out_dir,
        seed=seed, fs=settings["fs"], workers=max(1, workers),
    )
    return {
        "command": args.command,
        "manifest": str(manifest),
        "scenes": count,
        "out_dir": str(out_dir),
        "seed": seed,
    }


def cmd_scene(args) -> dict:
    return _run_dataset(args, count_override=1)


def cmd_dataset(args) -> dict:
    return _run_dataset(args)


def cmd_apply(args) -> dict:
    bank = load_bank(args.bank)
    audio, fs = read_wav(args.input, expected_fs=bank.fs)
    if audio.shape[0] != bank.num_mics:
        raise DataError(f"{audio.shape[0]}-channel input vs {bank.num_mics}-mic bank")
    spec = stft(audio, fs=fs, n_fft=bank.n_fft, hop=bank.n_fft // 2)
    steered = istft(apply_bank(spec, bank), num_samples=audio.shape[1])
    write_wav(args.out, steered, fs)
    return {
        "command": "apply",
        "out": str(args.out),
        "channels": int(steered.shape[0]),
        "samples": int(steered.shape[1]),
    }


def _featurize_wav(wav_path, bank, stats):
    audio, fs = read_wav(wav_path, expected_fs=bank.fs)
    if audio.shape[0] != bank.num_mics:
        raise DataError(
            f"{wav_path}: {audio.shape[0]} channels vs {bank.num_mics}-mic bank"
        )
    spec = stft(audio, fs=fs, n_fft=bank.n_fft, hop=bank.n_fft // 2)
    tensor = featurize_bank_output(apply_bank(spec, bank), bank.direction_labels())
    if stats is not None:
        tensor = normalize(tensor, stats)
    return tensor


def _manifest_wavs(manifest_path, geometry_id=None) -> tuple:
    """Audio paths from a manifest; rows for other geometries are counted,
    not processed (a bank only fits its own array)."""
    root = Path(manifest_path).parent
    wavs, skipped = [], 0
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{manifest_path}: bad manifest line: {exc}") from exc
            if not row.get("audio_path"):
                raise DataError(f"{manifest_path}: manifest row without audio_path")
            if geometry_id is not None and row.get("geometry_id") != geometry_id:
                skipped += 1
                continue
            wavs.append(root / row["audio_path"])
    if not wavs:
        raise DataError(
            f"{manifest_path}: no scenes"
            + (f" with geometry '{geometry_id}'" if geometry_id is not None else "")
        )
    return wavs, skipped


def _input_wavs(path, geometry_id=None) -> tuple:
    path = Path(path)
    if path.suffix == ".jsonl":
        return _manifest_wavs(path, geometry_id)
    return [path], 0


def cmd_featurize(args) -> dict:
    bank = load_bank(args.bank)
    stats = None if args.stats is None else load_stats(args.stats)
    inp = Path(args.input)
    if inp.suffix == ".jsonl":
        out_dir = Path(args.out) if args.out is not None else inp.parent / "features"
        out_dir.mkdir(parents=True, exist_ok=True)
        wavs, skipped = _manifest_wavs(inp, bank.geometry.id)
        for wav in wavs:
            export_features(_featurize_wav(wav, bank, stats), out_dir / (wav.stem + ".feat"))
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
        epilog=GLOBAL_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--log-level", default=None,
        help="debug | info | warning | error (default warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text, epilog=None):
        p = sub.add_parser(
            name, help=help_text, epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        return p

    p = add("design", "design a beamformer bank from a config", DESIGN_EPILOG)
    p.add_argument("--config", required=True, help="design config file (YAML)")
    p.add_argument("--out", required=True, help="bank file to write")
    p.set_defaults(func=cmd_design)

    p = add("pattern", "export horizontal beam patterns from a bank")
    p.add_argument("--bank", required=True, help="bank file")
    p.add_argument("--freq", type=float, default=1000.0,
                   help="frequency in Hz, must lie on the bank grid (default 1000)")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--resolution", type=float, default=1.0,
                   help="azimuth grid step in degrees (default 1)")
    p.set_defaults(func=cmd_pattern)

    p = add("rir", "simulate a shoebox room impulse response", RIR_EPILOG)
    p.add_argument("--config", required=True, help="room config file (YAML)")
    p.add_argument("--out", required=True, help="multichannel wav to write")
    p.set_defaults(func=cmd_rir)

    p = add("scene", "render a single conversation scene", DATASET_EPILOG)
    p.add_argument("--config", required=True, help="scene config file (YAML)")
    p.add_argument("--seed", type=int, default=None, help="base seed override")
    p.add_argument("--out", default=None, help="output directory override")
    p.set_defaults(func=cmd_scene)

    p = add("dataset", "render a multi-scene dataset with a manifest", DATASET_EPILOG)
    p.add_argument("--config", required=True, help="dataset config file (YAML)")
    p.add_argument("--seed", type=int, default=None, help="base seed override")
    p.add_argument("--workers", type=int, default=None, help="worker count override")
    p.add_argument("--out", default=None, help="output directory override")
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
    level = str(resolve_setting(args.log_level, "LOG_LEVEL", None, "warning"))
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        print(f"beambank: unknown log level {level!r}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=numeric, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        summary = args.func(args)
    except BeambankError as exc:
        print(f"beambank {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"beambank {args.command}: {exc}", file=sys.stderr)
        return 2
    code = summary.pop("_exit", 0)
    print(json.dumps(summary, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
