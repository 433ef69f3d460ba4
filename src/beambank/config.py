"""Config-file handling for the command-line tools.

Configs are YAML mappings. Angles in config files are degrees and are
converted to radians at this boundary; distances are meters. Unknown keys
are rejected everywhere so that a typo fails loudly instead of silently
falling back to a default.

Settings precedence, highest first: command-line flag, environment variable
(``BEAMBANK_SEED``, ``BEAMBANK_WORKERS``, ``BEAMBANK_LOG_LEVEL``), config
file, built-in default. Relative paths inside a config resolve against the
config file's own directory.
"""

from __future__ import annotations

import math
import os

import numpy as np
import yaml

from .beamformer import METHODS, WNG_TOLERANCE, check_solver_settings
from .errors import ConfigError
from .geometry import (
    BUILTIN_GEOMETRIES,
    SOUND_SPEED,
    ArrayGeometry,
    DirectionSpec,
    load_geometry,
    select_subset,
)
from .noise_model import PointNoiseSpec
from .simulate import DEFAULT_MAX_ORDER, MOUTH_OFFSET, RoomSpec

ENV_PREFIX = "BEAMBANK_"
DEFAULT_HORIZONTAL_DEG = (0.0, 90.0, 180.0, 270.0)
DEFAULT_NULL_ALPHA = 10.0
DEFAULT_NULL_PSD = 1.0

DESIGN_KEYS = frozenset(
    {
        "geometry",
        "geometry_file",
        "subset",
        "atf_source",
        "atf_file",
        "directions",
        "method",
        "nulls",
        "fs",
        "n_fft",
        "sound_speed",
        "wng_tolerance",
        "wng_margin",
    }
)
DIRECTIONS_KEYS = frozenset({"horizontal", "mouth"})
MOUTH_KEYS = frozenset({"azimuth", "elevation", "range"})
NULL_KEYS = frozenset({"azimuth", "elevation", "alpha", "range", "psd"})
ROOM_KEYS = frozenset({"dimensions", "absorption", "max_order"})
RIR_KEYS = frozenset(
    {"room", "source", "mics", "geometry", "geometry_file", "subset", "position",
     "fs", "sound_speed"}
)
GEOMETRY_ENTRY_KEYS = frozenset({"geometry", "geometry_file", "subset", "proportion"})
DATASET_KEYS = frozenset(
    {"geometries", "clips_dir", "noise_dir", "count", "fs", "seed", "workers", "out_dir"}
)


def load_config(path) -> dict:
    """Read a YAML config file; the top level must be a mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping, got {type(doc).__name__}")
    return doc


def check_keys(mapping, allowed, context: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{context}: unknown keys {unknown}; allowed keys: {sorted(allowed)}"
        )


def _as_float(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    return int(value)


def _vector3(value, context: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{context}: expected [x, y, z] in meters")
    return np.array([_as_float(v, context) for v in value])


def geometry_from_config(cfg: dict, base_dir=".") -> ArrayGeometry:
    """Resolve a geometry: builtin name, inline {id, mics}, or geometry_file,
    plus an optional channel subset."""
    has_inline = "geometry" in cfg
    has_file = "geometry_file" in cfg
    if has_inline == has_file:
        raise ConfigError("config needs exactly one of 'geometry' or 'geometry_file'")
    if has_file:
        geometry = load_geometry(os.path.join(base_dir, str(cfg["geometry_file"])))
    else:
        entry = cfg["geometry"]
        if isinstance(entry, str):
            if entry not in BUILTIN_GEOMETRIES:
                raise ConfigError(
                    f"unknown geometry '{entry}'; builtins: {sorted(BUILTIN_GEOMETRIES)}"
                )
            geometry = BUILTIN_GEOMETRIES[entry]()
        else:
            check_keys(entry, {"id", "mics"}, "geometry")
            if "id" not in entry or "mics" not in entry:
                raise ConfigError("inline geometry needs 'id' and 'mics'")
            geometry = ArrayGeometry(
                id=str(entry["id"]), mics=np.asarray(entry["mics"], dtype=float)
            )
    if "subset" in cfg:
        indices = cfg["subset"]
        if not isinstance(indices, list) or not indices:
            raise ConfigError("'subset' must be a non-empty list of channel indices")
        geometry = select_subset(geometry, [_as_int(i, "subset") for i in indices])
    return geometry


def default_mouth_direction() -> DirectionSpec:
    """Near-field point at the wearer's mouth offset (8 cm forward, 6 cm
    below the array origin)."""
    offset = np.asarray(MOUTH_OFFSET, dtype=float)
    dist = float(np.linalg.norm(offset))
    return DirectionSpec(
        azimuth=math.atan2(offset[1], offset[0]),
        elevation=math.asin(offset[2] / dist),
        range_m=dist,
    )


def directions_from_config(cfg: dict) -> list[DirectionSpec]:
    """Build the bank's look list: K horizontal azimuths (degrees) followed
    by the near-field mouth point."""
    section = cfg.get("directions") or {}
    check_keys(section, DIRECTIONS_KEYS, "directions")
    horizontal = section.get("horizontal", list(DEFAULT_HORIZONTAL_DEG))
    if not isinstance(horizontal, list) or not horizontal:
        raise ConfigError("directions.horizontal must be a non-empty list of degrees")
    looks = [
        DirectionSpec(azimuth=math.radians(_as_float(az, "directions.horizontal")))
        for az in horizontal
    ]
    mouth_cfg = section.get("mouth")
    if mouth_cfg is None:
        mouth = default_mouth_direction()
    else:
        check_keys(mouth_cfg, MOUTH_KEYS, "directions.mouth")
        if "range" not in mouth_cfg:
            raise ConfigError("directions.mouth needs 'range' (meters, near field)")
        mouth = DirectionSpec(
            azimuth=math.radians(
                _as_float(mouth_cfg.get("azimuth", 0.0), "directions.mouth.azimuth")
            ),
            elevation=math.radians(
                _as_float(mouth_cfg.get("elevation", 0.0), "directions.mouth.elevation")
            ),
            range_m=_as_float(mouth_cfg["range"], "directions.mouth.range"),
        )
    return looks + [mouth]


def nulls_from_config(cfg: dict) -> tuple:
    """Point-noise null list: azimuth/elevation in degrees, optional range
    (meters) for near-field nulls, alpha weight, flat psd."""
    entries = cfg.get("nulls") or []
    if not isinstance(entries, list):
        raise ConfigError("'nulls' must be a list")
    out = []
    for i, entry in enumerate(entries):
        context = f"nulls[{i}]"
        check_keys(entry, NULL_KEYS, context)
        if "azimuth" not in entry:
            raise ConfigError(f"{context}: 'azimuth' (degrees) is required")
        range_m = entry.get("range")
        direction = DirectionSpec(
            azimuth=math.radians(_as_float(entry["azimuth"], f"{context}.azimuth")),
            elevation=math.radians(
                _as_float(entry.get("elevation", 0.0), f"{context}.elevation")
            ),
            range_m=None if range_m is None else _as_float(range_m, f"{context}.range"),
        )
        out.append(
            PointNoiseSpec(
                direction=direction,
                weight=_as_float(entry.get("alpha", DEFAULT_NULL_ALPHA), f"{context}.alpha"),
                psd=_as_float(entry.get("psd", DEFAULT_NULL_PSD), f"{context}.psd"),
            )
        )
    return tuple(out)


def design_settings(cfg: dict, base_dir=".") -> dict:
    """Validate a design config and return design_bank keyword arguments.

    The returned mapping carries an extra ``atf_file`` entry (path or None)
    that the caller pops and loads before designing.
    """
    check_keys(cfg, DESIGN_KEYS, "design config")
    method = str(cfg.get("method", "nlcmv"))
    if method not in METHODS:
        raise ConfigError(f"method '{method}' not one of {METHODS}")
    atf_source = str(cfg.get("atf_source", "freefield"))
    if atf_source not in ("freefield", "file"):
        raise ConfigError("atf_source must be 'freefield' or 'file'")
    if atf_source == "file" and "atf_file" not in cfg:
        raise ConfigError("atf_source 'file' needs 'atf_file'")
    if atf_source == "freefield" and "atf_file" in cfg:
        raise ConfigError("'atf_file' given but atf_source is 'freefield'")
    fs = _as_int(cfg.get("fs", 16000), "fs")
    n_fft = _as_int(cfg.get("n_fft", 512), "n_fft")
    if fs <= 0 or n_fft <= 0 or n_fft % 2:
        raise ConfigError(f"fs {fs} must be positive and n_fft {n_fft} positive and even")
    solver = {
        "sound_speed": _as_float(cfg.get("sound_speed", SOUND_SPEED), "sound_speed"),
        "wng_tolerance": _as_float(cfg.get("wng_tolerance", WNG_TOLERANCE), "wng_tolerance"),
        "wng_margin": _as_float(cfg.get("wng_margin", 1.0), "wng_margin"),
    }
    check_solver_settings(**solver, error=ConfigError)
    return {
        "geometry": geometry_from_config(cfg, base_dir),
        "directions": directions_from_config(cfg),
        "method": method,
        "nulls": nulls_from_config(cfg),
        "fs": fs,
        "n_fft": n_fft,
        **solver,
        "atf_file": (
            os.path.join(base_dir, str(cfg["atf_file"])) if atf_source == "file" else None
        ),
    }


def room_from_config(section: dict) -> RoomSpec:
    check_keys(section, ROOM_KEYS, "room")
    if "dimensions" not in section:
        raise ConfigError("room needs 'dimensions' [x, y, z] in meters")
    absorption = section.get("absorption", 0.4)
    if isinstance(absorption, list):
        absorption = tuple(_as_float(a, "room.absorption") for a in absorption)
    else:
        absorption = _as_float(absorption, "room.absorption")
    return RoomSpec(
        dimensions=_vector3(section["dimensions"], "room.dimensions"),
        absorption=absorption,
        max_order=_as_int(section.get("max_order", DEFAULT_MAX_ORDER), "room.max_order"),
    )


def rir_settings(cfg: dict, base_dir=".") -> dict:
    """Validate a room-response config: a room, a source point, and mic
    positions (explicit list, or a geometry placed at 'position')."""
    check_keys(cfg, RIR_KEYS, "rir config")
    for key in ("room", "source"):
        if key not in cfg:
            raise ConfigError(f"rir config needs '{key}'")
    room = room_from_config(cfg["room"])
    source = _vector3(cfg["source"], "source")
    if "mics" in cfg:
        if "geometry" in cfg or "geometry_file" in cfg:
            raise ConfigError("give either 'mics' or a geometry, not both")
        mics = np.asarray(cfg["mics"], dtype=float)
        if mics.ndim != 2 or mics.shape[1] != 3:
            raise ConfigError("'mics' must be a list of [x, y, z] positions")
    else:
        if "position" not in cfg:
            raise ConfigError("rir config needs 'position' (array origin) with a geometry")
        geometry = geometry_from_config(cfg, base_dir)
        mics = geometry.mics + _vector3(cfg["position"], "position")
    sound_speed = _as_float(cfg.get("sound_speed", SOUND_SPEED), "sound_speed")
    check_solver_settings(sound_speed=sound_speed, error=ConfigError)
    return {
        "room": room,
        "source": source,
        "mics": mics,
        "fs": _as_int(cfg.get("fs", 16000), "fs"),
        "sound_speed": sound_speed,
    }


def catalog_from_config(cfg: dict, base_dir=".") -> list:
    """Geometry catalog for scene synthesis: list of geometry entries with
    optional proportions (all or none; omitted means equal shares)."""
    entries = cfg.get("geometries")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'geometries' must be a non-empty list")
    geometries, proportions = [], []
    for i, entry in enumerate(entries):
        context = f"geometries[{i}]"
        check_keys(entry, GEOMETRY_ENTRY_KEYS, context)
        geometries.append(
            geometry_from_config({k: v for k, v in entry.items() if k != "proportion"},
                                 base_dir)
        )
        proportions.append(
            None if "proportion" not in entry
            else _as_float(entry["proportion"], f"{context}.proportion")
        )
    given = [p for p in proportions if p is not None]
    if given and len(given) != len(proportions):
        raise ConfigError("give 'proportion' on every geometry or on none")
    if not given:
        proportions = [1.0 / len(geometries)] * len(geometries)
    return list(zip(geometries, proportions))


def dataset_settings(cfg: dict, base_dir=".") -> dict:
    """Validate a scene/dataset config and return build_dataset-style
    keyword arguments (paths resolved, sources not yet opened)."""
    check_keys(cfg, DATASET_KEYS, "dataset config")
    if "clips_dir" not in cfg:
        raise ConfigError("dataset config needs 'clips_dir'")
    workers = cfg.get("workers")
    return {
        "catalog": catalog_from_config(cfg, base_dir),
        "clips_dir": os.path.join(base_dir, str(cfg["clips_dir"])),
        "noise_dir": (
            None if cfg.get("noise_dir") is None
            else os.path.join(base_dir, str(cfg["noise_dir"]))
        ),
        "count": _as_int(cfg.get("count", 1), "count"),
        "fs": _as_int(cfg.get("fs", 16000), "fs"),
        # None (not 0) when unset so the BEAMBANK_SEED fallback can act
        "seed": None if "seed" not in cfg else _as_int(cfg["seed"], "seed"),
        "workers": None if workers is None else _as_int(workers, "workers"),
        "out_dir": None if cfg.get("out_dir") is None else
        os.path.join(base_dir, str(cfg["out_dir"])),
    }


def resolve_setting(flag_value, env_name: str, config_value, default):
    """Precedence: flag > BEAMBANK_<env_name> > config value > default."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_PREFIX + env_name)
    if env:
        return env
    if config_value is not None:
        return config_value
    return default


def resolve_int_setting(flag_value, env_name: str, config_value, default):
    value = resolve_setting(flag_value, env_name, config_value, default)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{env_name.lower()}: expected an integer, got {value!r}"
        ) from None
