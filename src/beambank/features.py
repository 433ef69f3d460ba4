"""Log-Mel features over steered channels, corpus statistics, and the
direction-indexed feature tensor format.

Mel scale is the HTK form 2595*log10(1 + f/700); filters are triangular
with unit peak on the power spectrum; the log is natural with a 1e-10
floor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _container
from .errors import DataError
from .dsp import Spectrogram, _analyzed_runs, _bank_frames, sqrt_hann

NUM_MEL = 80
LOG_FLOOR = 1e-10
VARIANCE_FLOOR = 1e-8

FEATURE_MAGIC = "beambank-feat-v1"
STATS_MAGIC = "beambank-stats-v1"


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


def mel_filterbank(num_filters: int, n_fft: int, fs: int) -> np.ndarray:
    """Triangular unit-peak filters, (num_filters, n_fft/2 + 1), spanning
    0 to fs/2 on the mel scale."""
    edges_mel = np.linspace(hz_to_mel(0.0), hz_to_mel(fs / 2.0), num_filters + 2)
    edges_hz = mel_to_hz(edges_mel)
    bins = np.fft.rfftfreq(n_fft, 1.0 / fs)
    bank = np.zeros((num_filters, bins.shape[0]))
    for i in range(num_filters):
        lo, center, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        rising = (bins - lo) / (center - lo)
        falling = (hi - bins) / (hi - center)
        bank[i] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    return bank


@lru_cache(maxsize=8)
def _filterbank(n_fft: int, fs: int) -> np.ndarray:
    """Read-only NUM_MEL-band :func:`mel_filterbank`, built once per process
    and grid."""
    bank = mel_filterbank(NUM_MEL, n_fft, fs)
    bank.flags.writeable = False
    return bank


def log_mel(channel: np.ndarray, fs: int) -> np.ndarray:
    """Natural-log mel energies of STFT frames, (..., frames, bins) ->
    (..., frames, NUM_MEL). The filterbank is built once per process
    for each (n_fft, fs). A strided input, such as a (K, T, F)
    view of frequency-major data, is read in place: the power keeps its
    layout and the stacked product reads each (frames, bins) block as is."""
    channel = np.asarray(channel)
    if channel.ndim < 2:
        raise DataError("log_mel expects (..., frames, bins)")
    return _power_log_mel(np.abs(channel) ** 2, fs)


def _power_log_mel(power: np.ndarray, fs: int) -> np.ndarray:
    """Natural-log mel energies of (..., frames, bins) power, by one
    product with the cached filterbank: the one call of the log-mel that
    BLAS may spread over threads of its own."""
    bank = _filterbank(2 * (power.shape[-1] - 1), fs)
    return np.log(np.maximum(power @ bank.T, LOG_FLOOR))


@dataclass
class FeatureTensor:
    """Direction-indexed features, (frames, directions, mel) float32."""

    data: np.ndarray
    frame_rate: float
    direction_labels: list[str]

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise DataError("feature tensor must be (frames, directions, mel)")
        if self.data.shape[1] != len(self.direction_labels):
            raise DataError(
                f"{self.data.shape[1]} direction slots vs "
                f"{len(self.direction_labels)} labels"
            )
        if self.data.size and not np.all(np.isfinite(self.data)):
            raise DataError("feature tensor has non-finite values")

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]

    @property
    def num_directions(self) -> int:
        return self.data.shape[1]


def featurize_bank_output(spec: Spectrogram, direction_labels) -> FeatureTensor:
    """Log-mel of every steered channel, stacked on the direction axis."""
    labels = list(direction_labels)
    if spec.num_channels != len(labels):
        raise DataError(f"{spec.num_channels} channels vs {len(labels)} direction labels")
    return FeatureTensor(
        data=np.ascontiguousarray(
            log_mel(spec.data, spec.fs).swapaxes(0, 1), dtype=np.float32
        ),
        frame_rate=spec.frame_rate,
        direction_labels=labels,
    )


def _steered_power(conj_weights: np.ndarray, data: np.ndarray) -> np.ndarray:
    """(K, T, F) power of (M, T, F) spectra steered through (F, K, M)
    conjugate bank weights, by one batched (F, K, M) @ (F, M, T) product.
    The power is a view of a contiguous (F, K, T) array, which
    :func:`_power_log_mel` reads in place, as :func:`log_mel` reads the same
    view of the steered spectra."""
    steered = np.matmul(conj_weights, data.transpose(2, 0, 1))
    return (np.abs(steered) ** 2).transpose(1, 2, 0)


def featurize_audio(audio, bank) -> FeatureTensor:
    """Log-mel of ``audio`` steered through every direction of ``bank``,
    (frames, directions, NUM_MEL) float32, one run of frames at a time.

    The frame engine's ``_analyzed_runs`` analyses each run, and steers it
    into its power by :func:`_steered_power`, on one of up to one thread per
    usable core. The calling thread alone takes the mel product, the log
    and the float32 store of each run, in run order: the mel product is the
    one call that BLAS may spread over its own threads, so it never runs
    beside itself. No whole-signal spectrogram, steered spectrogram or
    float64 log-mel is built, and the bytes are the same at any thread
    count. Rows match :func:`log_mel` of the whole-signal ``stft(audio,
    bank.fs, bank.n_fft)`` steered by one batched product up to float64
    rounding in the batched products, which float32 almost always hides.
    The audio's sample rate is the caller's to check.
    """
    x, n_frames = _bank_frames(audio, bank)
    conj_weights = bank.weights.conj().transpose(1, 0, 2)
    data = np.empty((n_frames, bank.num_directions, NUM_MEL), dtype=np.float32)

    def store(first, power):
        mel = _power_log_mel(power, bank.fs)
        data[first : first + mel.shape[1]] = mel.swapaxes(0, 1)

    _analyzed_runs(x, sqrt_hann(bank.n_fft), n_frames,
                   lambda spec: _steered_power(conj_weights, spec), store)
    return FeatureTensor(
        data=data, frame_rate=bank.fs / (bank.n_fft // 2), direction_labels=bank.direction_labels()
    )


@dataclass
class CorpusStats:
    """Streaming per-coefficient mean/variance, (directions, mel)."""

    count: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def empty(cls, num_directions: int) -> "CorpusStats":
        return cls(
            count=0,
            mean=np.zeros((num_directions, NUM_MEL)),
            m2=np.zeros((num_directions, NUM_MEL)),
        )

    def add(self, tensor: FeatureTensor) -> "CorpusStats":
        """Accumulate frames (Welford update on batch statistics)."""
        x = tensor.data.astype(np.float64)
        if x.shape[1:] != self.mean.shape:
            raise DataError(f"tensor shape {x.shape[1:]} vs stats shape {self.mean.shape}")
        n_b = x.shape[0]
        if n_b == 0:
            return self
        mean_b = x.mean(axis=0)
        m2_b = ((x - mean_b) ** 2).sum(axis=0)
        n_a = self.count
        n = n_a + n_b
        delta = mean_b - self.mean
        mean = self.mean + delta * (n_b / n)
        m2 = self.m2 + m2_b + delta**2 * (n_a * n_b / n)
        return CorpusStats(count=n, mean=mean, m2=m2)

    @property
    def variance(self) -> np.ndarray:
        if self.count < 1:
            raise DataError("no frames accumulated")
        return self.m2 / self.count


def accumulate_stats(tensors) -> CorpusStats:
    """Corpus statistics over an iterable of FeatureTensor."""
    stats = None
    for tensor in tensors:
        if stats is None:
            stats = CorpusStats.empty(tensor.num_directions)
        stats = stats.add(tensor)
    if stats is None or stats.count < 1:
        raise DataError("no frames to accumulate")
    return stats


def normalize(tensor: FeatureTensor, stats: CorpusStats) -> FeatureTensor:
    """(x - mean) / sqrt(var + 1e-8), per direction and coefficient."""
    if tensor.data.shape[1:] != stats.mean.shape:
        raise DataError(f"tensor shape {tensor.data.shape[1:]} vs stats shape {stats.mean.shape}")
    scale = np.sqrt(stats.variance + VARIANCE_FLOOR)
    data = (tensor.data.astype(np.float64) - stats.mean) / scale
    return FeatureTensor(
        data=data.astype(np.float32),
        frame_rate=tensor.frame_rate,
        direction_labels=list(tensor.direction_labels),
    )


def export_features(tensor: FeatureTensor, path) -> None:
    """Write a tensor: one JSON header line, then little-endian float32
    payload in (frame, direction, mel) order; exact round trip."""
    header = {
        "magic": FEATURE_MAGIC,
        "shape": list(tensor.data.shape),
        "frame_rate": tensor.frame_rate,
        "direction_labels": list(tensor.direction_labels),
        "mel_convention": "htk-2595log10, power spectrum, natural log, floor 1e-10",
    }
    _container.write(path, header, tensor.data, "<f4")


def import_features(path) -> FeatureTensor:
    """Read a tensor written by :func:`export_features`."""
    with _container.reading(path, FEATURE_MAGIC, "feature file") as (header, payload):
        return FeatureTensor(
            data=payload("<f4", [int(v) for v in header["shape"]]),
            frame_rate=float(header["frame_rate"]),
            direction_labels=[str(v) for v in header["direction_labels"]],
        )


def save_stats(stats: CorpusStats, path) -> None:
    """Write corpus statistics as JSON (mean/variance per direction),
    through a temporary file and a rename."""
    doc = {
        "magic": STATS_MAGIC,
        "count": stats.count,
        "mean": stats.mean.tolist(),
        "variance": stats.variance.tolist(),
    }
    _container.replace(path, [(json.dumps(doc) + "\n").encode("utf-8")])


def load_stats(path) -> CorpusStats:
    """Read statistics written by :func:`save_stats`: a count >= 1, and a
    finite (directions, mel) mean with a variance of that shape, finite and
    >= 0."""
    with open(path, "r", encoding="utf-8") as fh, _container.parsing(path, "stats file"):
        doc = _container.check_magic(json.load(fh), STATS_MAGIC)
        count = int(doc["count"])
        mean = np.asarray(doc["mean"], dtype=float)
        variance = np.asarray(doc["variance"], dtype=float)
        if mean.ndim != 2 or variance.shape != mean.shape:
            raise ValueError(f"mean {mean.shape} and variance {variance.shape} are not "
                             "of one (directions, mel) shape")
        finite = np.isfinite(mean).all() and ((variance >= 0) & (variance < np.inf)).all()
        if count < 1 or not finite:  # a NaN variance fails both comparisons
            raise ValueError(f"needs a count >= 1 (got {count}), a finite mean and a "
                             "finite variance >= 0")
        return CorpusStats(count=count, mean=mean, m2=variance * count)
