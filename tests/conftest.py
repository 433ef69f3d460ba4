"""Shared fixtures: reference arrays, seeded RNGs, tiny speech/noise corpora,
a full disk for the atomic writers, and a guard against worker threads
left running."""

import errno
import threading

import numpy as np
import pytest

from beambank import _container, dsp, features
from beambank.beamformer import BeamformerBank
from beambank.dsp import _THREAD_PREFIX, write_wav
from beambank.geometry import ArrayGeometry, DirectionSpec, reference_glasses, reference_glasses_5


@pytest.fixture(autouse=True)
def no_worker_thread_left():
    """Fail any test that leaves a thread of dsp._in_run_order alive, one
    that steers runs of frames or one that convolves blocks of a clip."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith(_THREAD_PREFIX)]
    if left:
        pytest.fail(f"worker threads left running: {left}")


@pytest.fixture()
def run_observer(monkeypatch):
    """Call with an optional ``hook(i)`` to wrap dsp._in_run_order, the run
    scheduler of steer_audio and featurize_audio: ``hook(i)`` runs as run i
    starts, and the returned dict records the runs, threads, the executor's
    lookahead bound min(2 x threads, runs) as ``depth``, the largest
    lookahead (runs started minus runs consumed), and as ``mel`` the mel
    products taken during the call. A mel product on any thread but the one
    that called the scheduler raises AssertionError, which reaches the
    caller: featurize_audio keeps that product, the one BLAS may spread
    over threads of its own, off the worker threads."""

    def observe(hook=None):
        seen = {"started": 0, "consumed": 0, "lookahead": 0, "depth": None, "threads": None,
                "runs": None, "caller": None, "mel": 0}
        lock = threading.Lock()
        schedule, mel = dsp._in_run_order, features._power_log_mel

        def observed(compute, consume, runs, threads):
            seen.update(runs=runs, threads=threads, depth=min(2 * threads, runs),
                        caller=threading.current_thread())

            def compute_(i):
                with lock:
                    seen["started"] = max(seen["started"], i + 1)
                    seen["lookahead"] = max(seen["lookahead"], seen["started"] - seen["consumed"])
                if hook is not None:
                    hook(i)
                return compute(i)

            def consume_(i, value):
                consume(i, value)
                with lock:
                    seen["consumed"] = i + 1

            try:
                schedule(compute_, consume_, runs, threads)
            finally:
                seen["caller"] = None

        def guarded_mel(power, fs):
            caller = seen["caller"]
            if caller is not None:
                here = threading.current_thread()
                assert here is caller, f"mel product on {here.name}, not on {caller.name}"
                seen["mel"] += 1
            return mel(power, fs)

        monkeypatch.setattr(dsp, "_in_run_order", observed)
        monkeypatch.setattr(features, "_power_log_mel", guarded_mel)
        return seen

    return observe


def _bounded(call, seconds=60):
    """``call()``'s result or error, from a thread joined with a timeout, so
    a deadlock fails the test instead of hanging it."""
    outcome = []

    def target():
        try:
            outcome.append((True, call()))
        except BaseException as exc:  # handed to the test thread below
            outcome.append((False, exc))

    caller = threading.Thread(target=target, name="test-caller", daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive(), f"no return within {seconds} s"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


@pytest.fixture(scope="session")
def bounded():
    """Call with a no-argument function: its result or error, from a thread
    joined within 60 s, so a deadlock fails the test instead of hanging it."""
    return _bounded


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
    """(frames, directions, 80) float32 log_mel of a whole-signal
    spectrogram steered through ``bank`` by the batched (F, K, M) @
    (F, M, T) product featurize_audio applies to each run of frames."""
    conj_weights = bank.weights.conj().transpose(1, 0, 2)
    steered = np.matmul(conj_weights, spec.data.transpose(2, 0, 1))
    mel = features.log_mel(steered.transpose(1, 2, 0), spec.fs)
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
