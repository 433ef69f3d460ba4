"""Shared fixtures: reference arrays, seeded RNGs, tiny speech/noise corpora,
a full disk for the atomic writers, and a guard against steering threads
left running."""

import errno
import threading

import numpy as np
import pytest

from beambank import _container, features
from beambank.beamformer import BeamformerBank
from beambank.dsp import _THREAD_PREFIX, write_wav
from beambank.geometry import ArrayGeometry, DirectionSpec, reference_glasses, reference_glasses_5


@pytest.fixture(autouse=True)
def no_steering_thread_left():
    """Fail any test that leaves one of steer_audio's threads alive."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith(_THREAD_PREFIX)]
    if left:
        pytest.fail(f"steering threads left running: {left}")


@pytest.fixture(scope="session")
def glasses7():
    return reference_glasses()


@pytest.fixture(scope="session")
def glasses5():
    return reference_glasses_5()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def _random_bank(rng, num_mics, n_fft, num_looks=2):
    bins = n_fft // 2 + 1
    shape = (num_looks + 1, bins, num_mics)
    mouth = DirectionSpec(azimuth=0.0, elevation=-0.6435011087932844, range_m=0.1)
    return BeamformerBank(
        geometry=ArrayGeometry(id="random", mics=0.05 * rng.standard_normal((num_mics, 3))),
        directions=[DirectionSpec(azimuth=0.5 * i) for i in range(num_looks)] + [mouth],
        frequencies=np.arange(bins) * 16000 / n_fft,
        weights=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        fs=16000,
        n_fft=n_fft,
        method="mvdr",
    )


@pytest.fixture(scope="session")
def random_bank():
    """Call with (rng, num_mics, n_fft[, num_looks]) for a 16 kHz bank of
    random weights: steering arithmetic needs no design."""
    return _random_bank


def _whole_signal_features(spec, bank):
    """(frames, directions, 80) float32 log-mel of a whole-signal
    spectrogram steered through ``bank`` by the same batched product
    featurize_audio applies to each run of frames."""
    conj_weights = bank.weights.conj().transpose(1, 0, 2)
    mel = features._steered_log_mel(conj_weights, spec.data, spec.fs)
    return mel.swapaxes(0, 1).astype(np.float32)


@pytest.fixture(scope="session")
def whole_signal_features():
    """Call with (spectrogram, bank): featurize_audio's whole-signal
    reference."""
    return _whole_signal_features


def _tone_burst(rng, fs, seconds, f0):
    n = int(seconds * fs)
    t = np.arange(n) / fs
    envelope = np.minimum(1.0, np.minimum(t, t[::-1]) * 20.0)
    return 0.1 * envelope * np.sin(2 * np.pi * f0 * t) + 0.01 * rng.standard_normal(n)


@pytest.fixture(scope="session")
def corpus_dirs(tmp_path_factory):
    """A clips directory of (wav, txt) pairs and a noise directory, 16 kHz."""
    root = tmp_path_factory.mktemp("corpus")
    clips = root / "clips"
    noise = root / "noise"
    clips.mkdir()
    noise.mkdir()
    fs = 16000
    rng = np.random.default_rng(99)
    texts = ["hello there", "how are you", "fine thanks", "see you soon"]
    for i, text in enumerate(texts):
        audio = _tone_burst(rng, fs, 1.2 + 0.3 * i, 300.0 + 100.0 * i)
        write_wav(clips / f"utt{i}.wav", audio, fs)
        (clips / f"utt{i}.txt").write_text(text, encoding="utf-8")
    for i in range(2):
        write_wav(noise / f"noise{i}.wav", 0.05 * rng.standard_normal(fs * 2), fs)
    return clips, noise


class _DiskFull:
    """A binary file that accepts ``limit`` bytes, then fails like a full disk."""

    def __init__(self, fh, limit: int):
        self.fh, self.left = fh, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        self.fh.write(bytes(chunk[: self.left]))
        self.left -= len(chunk)
        if self.left < 0:
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture()
def disk_full(monkeypatch):
    """Call with a byte count: every later atomic write fails like a full
    disk after that many bytes, until ``monkeypatch.undo()``."""

    def arm(limit: int):
        monkeypatch.setattr(
            _container, "open", lambda fd, mode: _DiskFull(open(fd, mode), limit),
            raising=False,
        )

    return arm
