"""Fixed beamformer banks for wearable microphone arrays.

Design distortionless spatial filters (delay-and-sum, superdirective, MVDR,
and a soft-null variant with a white-noise-gain constraint), analyze their
beam patterns, run them over multichannel audio, simulate shoebox
conversation scenes, and export direction-indexed log-mel features.
"""

from .analysis import (
    BeamPattern,
    beam_pattern,
    directivity_index,
    export_pattern,
    white_noise_gain,
)
from .beamformer import (
    BankReport,
    BeamformerBank,
    BeamformerWeights,
    KktReport,
    design_bank,
    design_delay_and_sum,
    design_mvdr,
    design_nlcmv,
    design_superdirective,
    load_bank,
    save_bank,
    verify_bank,
    verify_kkt,
    wng_constraint_value,
)
from .dsp import (
    BlockProcessor,
    Spectrogram,
    apply_bank,
    istft,
    read_wav,
    sqrt_hann,
    stft,
    write_wav,
)
from .errors import (
    BeambankError,
    ConfigError,
    DataError,
    DegenerateSourceError,
    DegenerateSteeringError,
    GridMismatchError,
    IllConditionedError,
    InvalidSubsetError,
    NumericalError,
    ParseError,
    SolverError,
)
from .features import (
    CorpusStats,
    FeatureTensor,
    accumulate_stats,
    denormalize,
    export_features,
    featurize_bank_output,
    import_features,
    load_stats,
    log_mel,
    mel_filterbank,
    normalize,
    save_stats,
    stack_frames,
)
from .geometry import (
    BUILTIN_GEOMETRIES,
    SOUND_SPEED,
    ArrayGeometry,
    AtfSet,
    DirectionSpec,
    SteeringVector,
    export_atfs,
    far_field_atf,
    freefield_atfs,
    import_atfs,
    load_geometry,
    near_field_atf,
    reference_glasses,
    reference_glasses_5,
    save_geometry,
    select_subset,
    steering_vector,
)
from .noise_model import (
    NoiseCovariance,
    PointNoiseSpec,
    composite_covariance,
    diffuse_covariance_from_atfs,
    diffuse_covariance_sinc,
    regularization_level,
    regularize,
)
from .simulate import (
    RIR,
    ClipSource,
    NoiseSource,
    RoomSpec,
    SceneManifest,
    SceneSpec,
    build_dataset,
    compose_scene,
    generate_rir_ism,
    mix_noise,
    render_scene,
    sample_room,
    sample_scene,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
