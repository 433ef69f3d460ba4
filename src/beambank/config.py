"""Config-file handling for the command-line tools.

Configs are YAML mappings. Angles in config files are degrees and are
converted to radians at this boundary; distances are meters. Unknown keys
are rejected everywhere so that a typo fails loudly instead of silently
falling back to a default, and a key set to null counts as unset.

Each section is one tuple of ``_Key`` rows (name, reader, default, help,
``BEAMBANK_*`` name), read by ``_section`` and printed as ``--help`` text by
``config_epilog`` and ``environment_epilog``. A range the library already
enforces is checked only there, and its ``DataError`` is re-raised as a
``ConfigError`` naming the key. ``_in_effect`` puts a flag, else a
``BEAMBANK_*`` variable, over the config value or default, each read by the
row's reader. Relative paths resolve against the config file's directory.

The module imports only the standard library, ``constants`` and ``errors``:
``--help`` prints these rows and the log level is read from them before any
command runs. numpy, yaml and the library are imported by the readers and
``*_settings`` functions that use them.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import sys
import textwrap
from typing import TYPE_CHECKING, Callable, NamedTuple

from .constants import (
    BUILTIN_GEOMETRY_NAMES,
    DEFAULT_MAX_ORDER,
    MAX_DIRECTIONS,
    MAX_FS,
    MAX_N_FFT,
    MAX_ORDER,
    MAX_SCENES,
    METHODS,
    MOUTH_OFFSET,
    SOUND_SPEED,
    SOUND_SPEED_RANGE,
    WNG_TOLERANCE,
)
from .errors import ConfigError, DataError

if TYPE_CHECKING:
    import numpy as np

    from .geometry import ArrayGeometry, DirectionSpec
    from .noise_model import PointNoiseSpec
    from .simulate import RoomSpec

ENV_PREFIX = "BEAMBANK_"
# scene renderers of one dataset run; threads of one dsp._in_run_order call
# (steering an apply recording, or convolving one clip of a scene)
MAX_WORKERS = 64

_REQUIRED = object()


class _Key(NamedTuple):
    """One setting: ``read(value, dotted_key)`` parses a present value and
    the default, which is called if callable (None leaves the key None)."""

    name: str
    read: Callable
    default: object
    help: str
    env: str | None = None


def load_config(path) -> dict:
    """Read a YAML config file; the top level must be a mapping."""
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # ValueError: an integer too long to convert; RecursionError: deep nesting
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping, got {type(doc).__name__}")
    return doc


def _dotted(context: str, name: str) -> str:
    return f"{context}.{name}" if context else name


def _section(mapping, rows, context: str) -> dict:
    """Read ``mapping`` through its rows into {name: value}: unknown keys and
    missing required keys are errors, an absent key takes its row's default,
    and each reader gets the dotted key (``nulls[1].alpha``) for messages."""
    where = context or "config"
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(mapping).__name__}")
    names = [row.name for row in rows]
    unknown = sorted(set(mapping) - set(names), key=str)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed keys: {sorted(names)}")
    out = {}
    for row in rows:
        value = mapping.get(row.name)
        if value is None and row.default is _REQUIRED:
            raise ConfigError(f"{where} needs '{row.name}'")
        if value is None:
            value = row.default() if callable(row.default) else row.default
        out[row.name] = None if value is None else row.read(value, _dotted(context, row.name))
    return out


def _in_effect(values: dict, rows, flags: dict) -> dict:
    """Replace a row's config value or default in ``values`` by its flag in
    ``flags`` when that is not None, else by its ``BEAMBANK_*`` variable when
    that is set and not empty. A variable's text is an integer when int()
    reads it and text otherwise; the row's reader checks either."""
    for row in rows:
        text = os.environ.get(ENV_PREFIX + row.env, "") if row.env else ""
        if flags.get(row.name) is not None:
            values[row.name] = row.read(flags[row.name], row.name)
        elif text:
            with contextlib.suppress(ValueError):
                text = int(text)
            values[row.name] = row.read(text, f"{row.name} ({ENV_PREFIX}{row.env})")
    return values


@contextlib.contextmanager
def _as_config_error(context: str):
    """Re-raise a library range check's DataError as a ConfigError naming
    the config key it came from."""
    try:
        yield
    except DataError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _number(value, context: str) -> float:
    """A finite int or float; a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        -sys.float_info.max <= value <= sys.float_info.max
    ):
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _integer(minimum=-math.inf, maximum=math.inf) -> Callable:
    def read(value, context: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{context}: expected an integer, got {value!r}")
        if not minimum <= value <= maximum:
            bound = f">= {minimum}" if value < minimum else f"<= {maximum}"
            raise ConfigError(f"{context} {value} must be {bound}")
        return value

    return read


def _text(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context}: expected a string, got {value!r}")
    return value


def _log_level(value, context: str) -> int:
    """A ``logging`` level name in any case (``debug``, ``WARN``, ...)."""
    level = getattr(logging, str(value).upper(), None)
    if not isinstance(level, int):
        raise ConfigError(f"{context}: unknown level {value!r}")
    return level


def _choice(*options) -> Callable:
    def read(value, context: str):
        if value not in options:
            raise ConfigError(f"{context}: expected one of {list(options)}, got {value!r}")
        return value

    return read


def _list(item: Callable, empty_ok: bool = False, most: float = math.inf) -> Callable:
    """A list of at most ``most`` items, read item by item as ``key[i]`` (a
    tuple is a default); its length is checked before any item is read."""

    def read(value, context: str) -> list:
        if not isinstance(value, (list, tuple)) or not (value or empty_ok):
            raise ConfigError(
                f"{context}: expected a {'' if empty_ok else 'non-empty '}list, got {value!r}"
            )
        if len(value) > most:
            raise ConfigError(f"{context}: {len(value)} entries, at most {most}")
        return [item(v, f"{context}[{i}]") for i, v in enumerate(value)]

    return read


def _vector3(value, context: str) -> np.ndarray:
    import numpy as np

    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{context}: expected [x, y, z] in meters, got {value!r}")
    return np.array([_number(v, context) for v in value])


def _positions(value, context: str) -> np.ndarray:
    """(M, 3) positions from a non-empty list of [x, y, z] rows."""
    import numpy as np

    return np.array(_list(_vector3)(value, context))


def _absorption(value, context: str):
    return _list(_number)(value, context) if isinstance(value, list) else _number(value, context)


def _array(value, context: str) -> ArrayGeometry:
    """A builtin geometry name or an inline {id, mics} mapping."""
    from .geometry import BUILTIN_GEOMETRIES, ArrayGeometry

    if isinstance(value, str):
        if value not in BUILTIN_GEOMETRIES:
            raise ConfigError(
                f"{context}: unknown geometry '{value}'; builtins: {sorted(BUILTIN_GEOMETRIES)}"
            )
        return BUILTIN_GEOMETRIES[value]()
    s = _section(value, _INLINE_GEOMETRY, context)
    with _as_config_error(context):
        return ArrayGeometry(id=s["id"], mics=s["mics"])


def default_mouth_direction() -> DirectionSpec:
    """Near-field point at the wearer's mouth offset (8 cm forward, 6 cm
    below the array origin)."""
    import numpy as np

    from .geometry import DirectionSpec

    offset = np.asarray(MOUTH_OFFSET, dtype=float)
    dist = float(np.linalg.norm(offset))
    return DirectionSpec(
        azimuth=math.atan2(offset[1], offset[0]),
        elevation=math.asin(offset[2] / dist),
        range_m=dist,
    )


def _point(s: dict, context: str) -> DirectionSpec:
    from .geometry import DirectionSpec

    with _as_config_error(context):
        return DirectionSpec(math.radians(s["azimuth"]), math.radians(s["elevation"]), s["range"])


def _directions(value, context: str) -> list[DirectionSpec]:
    """K horizontal looks followed by the near-field mouth point."""
    from .geometry import DirectionSpec

    s = _section(value, _DIRECTIONS, context)
    with _as_config_error(_dotted(context, "horizontal")):
        looks = [DirectionSpec(azimuth=math.radians(az)) for az in s["horizontal"]]
    return looks + [default_mouth_direction() if s["mouth"] is None else s["mouth"]]


def _null(value, context: str) -> PointNoiseSpec:
    from .noise_model import PointNoiseSpec

    s = _section(value, _NULL, context)
    direction = _point(s, context)
    with _as_config_error(context):
        return PointNoiseSpec(direction=direction, weight=s["alpha"], psd=s["psd"])


def room_from_config(section: dict, context: str = "room") -> RoomSpec:
    from .simulate import RoomSpec

    s = _section(section, _ROOM, context)
    with _as_config_error(context):
        return RoomSpec(s["dimensions"], s["absorption"], s["max_order"])


def _show(value) -> str:
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(map(_show, value)) + "]"
    return f"{value:g}" if isinstance(value, float) else str(value)


_FS = _Key("fs", _integer(), 16000, f"sample rate in Hz, > 0 and <= {MAX_FS}")
_SOUND_SPEED = _Key("sound_speed", _number, SOUND_SPEED,
                    "m/s, {:g} to {:g}".format(*SOUND_SPEED_RANGE))
_INLINE_GEOMETRY = (
    _Key("id", _text, _REQUIRED, "geometry name"),
    _Key("mics", _positions, _REQUIRED, "[[x, y, z], ...] mic positions in meters"),
)
_GEOMETRY = (
    _Key("geometry", _array, None,
         f"builtin name ({', '.join(sorted(BUILTIN_GEOMETRY_NAMES))}) or a mapping of "
         "the inline geometry keys below"),
    _Key("geometry_file", _text, None, "path to a geometry YAML (instead of 'geometry')"),
    _Key("subset", _list(_integer()), None, "channel indices to keep, in order"),
)
_MOUTH = (
    _Key("azimuth", _number, 0.0, "degrees"),
    _Key("elevation", _number, 0.0, "degrees, -90 to 90"),
    _Key("range", _number, _REQUIRED, "meters from the array origin (near field)"),
)
_DIRECTIONS = (
    _Key("horizontal", _list(_number, most=MAX_DIRECTIONS - 1), (0.0, 90.0, 180.0, 270.0),
         f"look azimuths in degrees, at most {MAX_DIRECTIONS - 1} (the mouth makes "
         f"{MAX_DIRECTIONS} directions)"),
    _Key("mouth", lambda value, context: _point(_section(value, _MOUTH, context), context),
         None, "mapping of the directions.mouth keys below; default: the wearer's mouth, "
         f"at {_show(tuple(MOUTH_OFFSET))} m from the array origin"),
)
_NULL = (
    _Key("azimuth", _number, _REQUIRED, "degrees"),
    _Key("elevation", _number, 0.0, "degrees, -90 to 90"),
    _Key("alpha", _number, 10.0, "null weight, >= 0"),
    _Key("range", _number, None, "meters for a near-field null; unset: far field"),
    _Key("psd", _number, 1.0, "flat noise power, > 0"),
)
_DESIGN = _GEOMETRY + (
    _Key("atf_source", _choice("freefield", "file"), "freefield",
         "'freefield' (analytic model) or 'file'"),
    _Key("atf_file", _text, None, "steering-vector set path, required iff atf_source is 'file'"),
    _Key("directions", _directions, {}, "mapping of the directions keys below"),
    _Key("method", _text, "nlcmv", " | ".join(METHODS)),
    _Key("nulls", _list(_null, empty_ok=True), (), "list of mappings of the nulls[i] keys below"),
    _FS,
    _Key("n_fft", _integer(), 512,
         f"FFT size, even, > 0 and <= {MAX_N_FFT} (one design per rfft bin)"),
    _SOUND_SPEED,
    _Key("wng_tolerance", _number, WNG_TOLERANCE, "white-noise-gain constraint tolerance, >= 0"),
    _Key("wng_margin", _number, 1.0, "tightening factor on the WNG floor, > 0 and < the mic count"),
)
_ROOM = (
    _Key("dimensions", _vector3, _REQUIRED, "[Lx, Ly, Lz] in meters"),
    _Key("absorption", _absorption, 0.4,
         "one value, or 6 per-wall values ordered (x=0, y=0, z=0, x=Lx, y=Ly, z=Lz), in (0, 1]"),
    _Key("max_order", _integer(), DEFAULT_MAX_ORDER, f"image-order cap, 0 to {MAX_ORDER}"),
)
_RIR = (
    _Key("room", room_from_config, _REQUIRED, "mapping of the room keys below"),
    _Key("source", _vector3, _REQUIRED, "[x, y, z] source position in the room frame"),
    _Key("mics", _positions, None, "[[x, y, z], ...] mic positions, instead of a geometry"),
    *_GEOMETRY,
    _Key("position", _vector3, None, "[x, y, z] of the geometry's origin in the room"),
    _FS,
    _SOUND_SPEED,
)
_CATALOG_ENTRY = _GEOMETRY + (
    _Key("proportion", _number, None,
         "share of scenes, >= 0; give it on every entry (summing to 1) or on none "
         "(equal shares)"),
)
_DATASET = (
    _Key("geometries", _list(lambda value, context: _section(value, _CATALOG_ENTRY, context)),
         _REQUIRED, "list of mappings of the geometries[i] keys below"),
    _Key("clips_dir", _text, _REQUIRED, "directory of paired utterance files (x.wav + x.txt)"),
    _Key("noise_dir", _text, None, "directory of noise wav files"),
    _Key("count", _integer(1, MAX_SCENES), 1,
         f"number of scenes, 1 to {MAX_SCENES} ('scene' renders 1)"),
    _FS,
    _Key("seed", _integer(0), 0, "base seed, >= 0; scene i uses the i-th child seed",
         env="SEED"),
    _Key("workers", _integer(1, MAX_WORKERS), lambda: min(os.cpu_count() or 1, MAX_WORKERS),
         f"parallel scene renderers, 1 to {MAX_WORKERS}, default the logical core count "
         f"(at most {MAX_WORKERS})", env="WORKERS"),
    _Key("out_dir", _text, None, "output directory (--out overrides)"),
)
_LOG_LEVEL = _Key("log_level", _log_level, "warning", "debug | info | warning | error",
                  env="LOG_LEVEL")
LOG_LEVEL_HELP = f"{_LOG_LEVEL.help}, default {_LOG_LEVEL.default}"
# per command: (section name, rows) in --help order
_SECTIONS = {
    "design": (("", _DESIGN), ("directions", _DIRECTIONS), ("directions.mouth", _MOUTH),
               ("nulls[i]", _NULL), ("inline geometry", _INLINE_GEOMETRY)),
    "rir": (("", _RIR), ("room", _ROOM), ("inline geometry", _INLINE_GEOMETRY)),
    "dataset": (("", _DATASET), ("geometries[i]", _CATALOG_ENTRY),
                ("inline geometry", _INLINE_GEOMETRY)),
}


def _help_rows(rows, name=lambda row: row.name, indent: int = 18) -> list:
    """One help entry per row: its name, then its help and default."""
    lines = []
    for row in rows:
        text = row.help
        if row.default is _REQUIRED:
            text += ", required"
        elif not (row.default is None or callable(row.default) or isinstance(row.default, dict)):
            text += f", default {_show(row.default)}"
        first, *rest = textwrap.wrap(text, 78 - indent)
        lines += [f"  {name(row):<{indent - 2}}{first}"] + [" " * indent + line for line in rest]
    return lines


def config_epilog(command: str) -> str:
    """``--help`` text for the config keys of ``command`` (design, rir or
    dataset), printed from the rows that read them."""
    lines = [
        "config file: a YAML mapping; angles in degrees, distances in meters, numbers",
        "finite; a key set to null counts as unset; relative paths resolve against",
        "the config file's directory.",
    ]
    for section, rows in _SECTIONS[command]:
        lines += ["", f"{section or 'top-level'} keys:"] + _help_rows(rows)
    return "\n".join(lines) + "\n"


def environment_epilog() -> str:
    """``beambank --help`` text for the ``BEAMBANK_*`` variables, printed
    from the rows that name them."""
    rows = [row for row in _DATASET + (_LOG_LEVEL,) if row.env]
    return "\n".join([
        "environment (a flag beats its variable, the variable beats the config key;",
        "an empty variable counts as unset):",
        *_help_rows(rows, lambda row: ENV_PREFIX + row.env, indent=22),
    ]) + "\n"


def _path(base_dir, value):
    return None if value is None else os.path.join(base_dir, value)


def _geometry(s: dict, base_dir, context: str = "") -> ArrayGeometry:
    """The array a section's geometry / geometry_file / subset keys name."""
    from .geometry import load_geometry, select_subset

    if (s["geometry"] is None) == (s["geometry_file"] is None):
        raise ConfigError(
            f"{context or 'config'} needs exactly one of 'geometry' or 'geometry_file'"
        )
    geometry = s["geometry"]
    if geometry is None:  # a file problem stays a data error (exit 2)
        geometry = load_geometry(_path(base_dir, s["geometry_file"]))
    if s["subset"] is None:
        return geometry
    with _as_config_error(_dotted(context, "subset")):
        return select_subset(geometry, s["subset"])


def design_settings(cfg: dict, base_dir=".") -> dict:
    """Validate a design config and return design_bank keyword arguments.

    The returned mapping carries an extra ``atf_file`` entry (path or None)
    that the caller pops and loads before designing.
    """
    from .beamformer import check_solver_settings

    s = _section(cfg, _DESIGN, "")
    if (s["atf_source"] == "file") != (s["atf_file"] is not None):
        raise ConfigError("'atf_file' is required with atf_source 'file', and only then")
    geometry = _geometry(s, base_dir)
    solver = {
        key: s[key]
        for key in ("sound_speed", "wng_tolerance", "wng_margin", "fs", "n_fft", "method")
    }
    check_solver_settings(**solver, num_mics=geometry.num_mics, error=ConfigError)
    return {
        "geometry": geometry,
        "directions": s["directions"],
        "nulls": tuple(s["nulls"]),
        **solver,
        "atf_file": _path(base_dir, s["atf_file"]),
    }


def rir_settings(cfg: dict, base_dir=".") -> dict:
    """Validate a room-response config: a room, a source point, and mic
    positions (explicit list, or a geometry placed at 'position')."""
    from .beamformer import check_solver_settings
    from .geometry import ArrayGeometry

    s = _section(cfg, _RIR, "")
    if s["mics"] is not None:
        placed = [k for k in ("geometry", "geometry_file", "subset", "position") if s[k] is not None]
        if placed:
            raise ConfigError(f"give either 'mics' or a geometry at a 'position', not both ({placed})")
        with _as_config_error("mics"):
            mics = ArrayGeometry(id="mics", mics=s["mics"]).mics
    elif s["position"] is None:
        raise ConfigError("config needs 'mics', or 'position' (array origin) with a geometry")
    else:
        mics = _geometry(s, base_dir).mics + s["position"]
    check_solver_settings(sound_speed=s["sound_speed"], fs=s["fs"], error=ConfigError)
    return {
        "room": s["room"],
        "source": s["source"],
        "mics": mics,
        "fs": s["fs"],
        "sound_speed": s["sound_speed"],
    }


def _catalog(entries: list, base_dir) -> list:
    """(geometry, proportion) pairs; no proportions means equal shares."""
    from .simulate import _normalize_catalog

    geometries = [_geometry(e, base_dir, f"geometries[{i}]") for i, e in enumerate(entries)]
    proportions = [e["proportion"] for e in entries]
    if None in proportions:
        if proportions.count(None) != len(proportions):
            raise ConfigError("geometries: give 'proportion' on every entry or on none")
        proportions = [1.0 / len(entries)] * len(entries)
    catalog = list(zip(geometries, proportions))
    with _as_config_error("geometries"):
        _normalize_catalog(catalog)
    return catalog


def dataset_settings(cfg: dict, base_dir=".", flags: dict | None = None) -> dict:
    """Validate a scene/dataset config and return build_dataset-style
    keyword arguments (paths resolved, sources not yet opened), the
    ``flags`` ({key: value or None}) and ``BEAMBANK_*`` variables in effect."""
    from .beamformer import check_solver_settings

    s = _section(cfg, _DATASET, "")
    check_solver_settings(fs=s["fs"], error=ConfigError)
    for key in ("clips_dir", "noise_dir", "out_dir"):
        s[key] = _path(base_dir, s[key])
    s["catalog"] = _catalog(s.pop("geometries"), base_dir)
    return _in_effect(s, _DATASET, flags or {})


def log_level(flag=None) -> int:
    """The ``logging`` level in effect (flag, BEAMBANK_LOG_LEVEL, warning)."""
    rows = (_LOG_LEVEL,)
    return _in_effect(_section({}, rows, ""), rows, {"log_level": flag})["log_level"]
