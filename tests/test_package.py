"""The package's lazy exports, and every module importing on its own.

``beambank`` resolves its public names on first access (PEP 562) and the
CLI imports library modules inside its commands, so an import cycle would
surface only when some command first ran; each module is imported alone in
a fresh interpreter here instead."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beambank

PACKAGE = Path(beambank.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# the exported names before they became lazy; the list is part of the API
ALL = [
    "ArrayGeometry", "AtfSet", "BUILTIN_GEOMETRIES", "BankReport", "BeamPattern",
    "BeambankError", "BeamformerBank", "BeamformerWeights", "BlockProcessor", "ClipSource",
    "ConfigError", "CorpusStats", "DataError", "DegenerateSourceError",
    "DegenerateSteeringError", "DirectionSpec", "FeatureTensor", "GridMismatchError",
    "IllConditionedError", "InvalidSubsetError", "KktReport", "NoiseCovariance", "NoiseSource",
    "NumericalError", "ParseError", "PointNoiseSpec", "RIR", "RoomSpec", "SOUND_SPEED",
    "SceneManifest", "SceneSpec", "SolverError", "Spectrogram", "SteeringVector",
    "accumulate_stats", "analysis", "apply_bank", "beam_pattern", "beamformer",
    "build_dataset", "compose_scene", "composite_covariance", "design_bank",
    "design_delay_and_sum", "design_mvdr", "design_nlcmv", "design_superdirective",
    "diffuse_covariance_sinc", "directivity_index", "dsp", "errors", "export_atfs",
    "export_features", "export_pattern", "far_field_atf", "features", "featurize_audio",
    "featurize_bank_output", "freefield_atfs", "generate_rir_ism", "geometry", "import_atfs",
    "import_features", "istft", "load_bank", "load_geometry", "load_stats", "log_mel",
    "mel_filterbank", "mix_noise", "noise_model", "normalize", "read_wav", "reference_glasses",
    "reference_glasses_5", "regularize", "render_scene", "sample_room", "sample_scene",
    "save_bank", "save_geometry", "save_stats", "select_subset", "simulate", "sqrt_hann",
    "steer_audio", "steering_vector", "stft", "verify_bank", "verify_kkt", "white_noise_gain",
    "wng_constraint_value", "write_wav",
]


def test_module_list_is_complete():
    # a glob that found nothing would make the per-module test vacuous
    expected = {"cli", "config", "constants", "errors", "manifest", "simulate", "_container"}
    assert expected <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_alone(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", f"import beambank.{module}"], env=env, capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


def test_all_is_unchanged():
    assert beambank.__all__ == ALL


@pytest.mark.parametrize("name", ALL)
def test_each_export_is_its_modules_object(name):
    value = getattr(beambank, name)
    module = beambank._MODULE_OF.get(name)
    if module is None:  # a submodule exported under its own name
        assert value is importlib.import_module(f"beambank.{name}")
    else:
        assert value is getattr(importlib.import_module(f"beambank.{module}"), name)


def test_dir_lists_every_export():
    assert set(ALL) <= set(dir(beambank))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        beambank.no_such_name  # noqa: B018
    assert not hasattr(beambank, "no_such_name")
