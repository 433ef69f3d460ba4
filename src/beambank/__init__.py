"""Fixed beamformer banks for wearable microphone arrays.

Design distortionless spatial filters (delay-and-sum, superdirective, MVDR,
and a soft-null variant with a white-noise-gain constraint), analyze their
beam patterns, run them over multichannel audio, simulate shoebox
conversation scenes, and export direction-indexed log-mel features.
"""

from importlib import import_module as _import_module

# every public name, by the module it lives in; each module is imported on
# the first access to one of its names (PEP 562), so importing the package,
# or a command that needs a few modules, loads no others
_EXPORTS = {
    "analysis": (
        "BeamPattern", "beam_pattern", "directivity_index", "export_pattern",
        "white_noise_gain",
    ),
    "beamformer": (
        "BankReport", "BeamformerBank", "BeamformerWeights", "KktReport", "design_bank",
        "design_delay_and_sum", "design_mvdr", "design_nlcmv", "design_superdirective",
        "load_bank", "save_bank", "verify_bank", "verify_kkt", "wng_constraint_value",
    ),
    "dsp": (
        "BlockProcessor", "Spectrogram", "apply_bank", "istft", "read_wav", "sqrt_hann",
        "steer_audio", "stft", "write_wav",
    ),
    "errors": (
        "BeambankError", "ConfigError", "DataError", "DegenerateSourceError",
        "DegenerateSteeringError", "GridMismatchError", "IllConditionedError",
        "InvalidSubsetError", "NumericalError", "ParseError", "SolverError",
    ),
    "features": (
        "CorpusStats", "FeatureTensor", "accumulate_stats", "export_features",
        "featurize_audio", "featurize_bank_output", "import_features", "load_stats",
        "log_mel", "mel_filterbank", "normalize", "save_stats",
    ),
    "geometry": (
        "BUILTIN_GEOMETRIES", "SOUND_SPEED", "ArrayGeometry", "AtfSet", "DirectionSpec",
        "SteeringVector", "export_atfs", "far_field_atf", "freefield_atfs", "import_atfs",
        "load_geometry", "reference_glasses", "reference_glasses_5", "save_geometry",
        "select_subset", "steering_vector",
    ),
    "noise_model": (
        "NoiseCovariance", "PointNoiseSpec", "composite_covariance",
        "diffuse_covariance_sinc", "regularize",
    ),
    "simulate": (
        "RIR", "ClipSource", "NoiseSource", "RoomSpec", "SceneManifest", "SceneSpec",
        "build_dataset", "compose_scene", "generate_rir_ism", "mix_noise", "render_scene",
        "sample_room", "sample_scene",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

# the exported names and the modules that hold them
__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
