"""STFT analysis/synthesis, beamformer-bank application, and WAV I/O.

Square-root Hann on both sides (WOLA) so analysis*synthesis windows sum
to one at 50% overlap; signals are center-padded by half a window so the
first frame is centered on sample 0. Banks are applied per bin:
out[k, t, f] = h_k(f)^H x(t, f).

One weighted overlap-add frame engine (Crochiere, IEEE TASSP 1980) has
three stages, ``_analyze`` (frames, window, rfft), ``_steer`` and
synthesis (irfft, window, overlap-add), and three front ends. Every front
end steps by n_fft/2, the engine's only frame step: ``_overlap_add`` adds
the two halves of every frame of every channel in two slice adds.

- whole signal: ``stft``, ``apply_bank`` and ``istft`` each run one stage
  over every frame of a signal
- chunked offline: ``_analyzed_runs`` cuts the signal into runs of
  frames, each analysed by ``_analyze`` from a view of the audio. It
  computes each run on one of up to one thread per usable core and hands
  the results to the calling thread in run order. ``steer_audio`` steers
  and synthesizes each run on those threads and overlap-adds it into one
  output array; ``features.featurize_audio`` steers each run into its
  power on them and turns it into log-mel rows. So the bytes of both are
  the same at any thread count, and both hold the audio, the output and a
  few runs of frames, never a whole-signal spectrogram
- streaming: ``BlockProcessor`` runs all three over the frames each pushed
  block completes

``_in_run_order`` is the one ordered executor of the package: it computes
numbered pieces of work on up to ``_usable_cores()`` threads and hands them
to the calling thread strictly in order. ``_analyzed_runs`` runs its runs
of frames on it, and ``simulate._convolve_place`` its overlap-add blocks.
"""

from __future__ import annotations

import os
import stat
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import _container
from .config import MAX_WORKERS
from .errors import DataError, GridMismatchError

DEFAULT_FS = 16000
DEFAULT_N_FFT = 512
# OLA gain below this fraction of the peak is treated as unrecoverable
_EDGE_THRESHOLD = 1e-8
# run length of _analyzed_runs: as many frames as fit their input spectra
# in this many bytes. In a serial sweep (one thread) of steer_audio's runs
# from 128 KB to 4 MB on a 2-core x86-64 host (20 s at 5 mics and n_fft 512,
# 30 s at 7 mics and 1024), 0.5-1 MB was fastest on both (25-51 and 9-18
# frames); 4 MB runs took 1.2x as long and one whole-signal run 1.4x.
# Featurizing the same shapes serially in runs of 16-64 frames was 1.1-1.6x
# faster than in one whole-signal run. Neither front end's threaded runs
# were swept again.
_RUN_BYTES = 1 << 20
# name prefix of the threads _in_run_order starts (_analyzed_runs' and
# simulate._convolve_place's)
_THREAD_PREFIX = "beambank-worker"
# processes that share this process's cores: a dataset's process pool sets
# it in each child through _share_cores
_core_sharers = 1


def _overlap_add(frames: np.ndarray, out: np.ndarray) -> None:
    """Overlap-add (C, T, n_fft) ``frames`` in place into (C, (T + 1) * hop)
    ``out`` at hop n_fft/2; ``out`` may be a column slice of a wider array.

    The first half of frame t goes onto hop t of a (C, T + 1, hop) view of
    ``out`` and its second half onto hop t + 1, so every sample gets at most
    two terms, whose sum is the same in either order.
    """
    channels, n_frames, n_fft = frames.shape
    hop = n_fft // 2
    hops = out.reshape(channels, n_frames + 1, hop)
    # splitting the last axis is always a view; a copy would drop the adds
    assert np.may_share_memory(hops, out)
    hops[:, :-1] += frames[:, :, :hop]
    hops[:, 1:] += frames[:, :, hop:]


def _analyze(x: np.ndarray, window: np.ndarray, first: int, count: int) -> np.ndarray:
    """(C, count, bins) rfft of frames ``first`` to ``first + count - 1`` of
    the center-padded STFT of C-contiguous (C, samples) ``x`` at hop n_fft/2.

    The frames are a strided view on ``x``, or for a run that reaches into
    either padded end on a zero-extended copy of its samples, so no padded
    copy of the whole signal is made.
    """
    n_fft = window.shape[0]
    hop = n_fft // 2
    # the center pad is one hop, so frame t covers samples (t-1)*hop to (t+1)*hop
    start, stop = (first - 1) * hop, (first + count) * hop
    if start < 0 or stop > x.shape[1]:
        lo, hi = max(start, 0), min(stop, x.shape[1])
        x, start = np.pad(x[:, lo:hi], ((0, 0), (lo - start, stop - hi))), 0
    step = x.strides[1]
    # numpy checks that the view stays inside x
    shape, strides = (x.shape[0], count, n_fft), (x.strides[0], hop * step, step)
    frames = np.ndarray(shape, x.dtype, x, start * step, strides)
    return np.fft.rfft(frames * window, axis=2)


def _steer(conj_weights: np.ndarray, data: np.ndarray) -> np.ndarray:
    """out[k, t, f] = sum_m conj_weights[k, f, m] data[m, t, f]."""
    return np.einsum("kfm,mtf->ktf", conj_weights, data)


def _synthesis_frames(data: np.ndarray, window: np.ndarray) -> np.ndarray:
    """The windowed irfft frames (C, T, n_fft) of (C, T, bins) data."""
    frames = np.fft.irfft(data, n=window.shape[0], axis=2)
    frames *= window
    return frames


def _synthesize(data: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Overlap-add of the windowed irfft frames of (C, T, bins) data into new
    zeros of C rows of (T + 1) * n_fft/2 samples, unnormalised."""
    out = np.zeros((data.shape[0], (data.shape[1] + 1) * (window.shape[0] // 2)))
    _overlap_add(_synthesis_frames(data, window), out)
    return out


def _window_sum(window: np.ndarray, n_frames: int) -> np.ndarray:
    """Per-sample WOLA gain: ``n_frames`` squared windows overlap-added."""
    wsum = np.zeros((1, (n_frames + 1) * (window.shape[0] // 2)))
    _overlap_add(np.broadcast_to(window * window, (1, n_frames, window.shape[0])), wsum)
    return wsum[0]


def _normalize(out: np.ndarray, window: np.ndarray, num_samples: int | None):
    """Divide overlap-added ``out`` in place by the window sum of its frames
    (zero where that gain is unrecoverable), drop the half window of center
    padding, and cut or zero-pad to ``num_samples`` (default: the span the
    frames imply)."""
    hop = window.shape[0] // 2
    n_frames = out.shape[1] // hop - 1
    wsum = _window_sum(window, n_frames)
    good = wsum > _EDGE_THRESHOLD * wsum.max()
    np.divide(out, wsum, out=out, where=good)
    out[:, np.flatnonzero(~good)] = 0.0

    full = out[:, hop:]
    if num_samples is None:
        num_samples = (n_frames - 1) * hop
    if num_samples > full.shape[1]:
        full = np.pad(full, ((0, 0), (0, num_samples - full.shape[1])))
    return full[:, :num_samples]


def _check_num_samples(num_samples: int | None) -> None:
    """A DataError for a negative output length, raised before any frame
    is analysed."""
    if num_samples is not None and num_samples < 0:
        raise DataError(f"num_samples must not be negative, got {num_samples}")


def sqrt_hann(n_fft: int) -> np.ndarray:
    """Square root of the periodic Hann window: sin(pi n / N)."""
    return np.sin(np.pi * np.arange(n_fft) / n_fft)


def _frame_step(n_fft: int, hop: int | None) -> int:
    """n_fft/2, the one frame step of the engine, for an even n_fft of at
    least 2; ``hop`` must be that step or None, else a DataError."""
    if n_fft < 2 or n_fft % 2:
        raise DataError(f"n_fft {n_fft} must be even and at least 2")
    if hop is not None and hop != n_fft // 2:
        raise DataError(f"hop {hop} must be n_fft/2 = {n_fft // 2}")
    return n_fft // 2


@dataclass
class Spectrogram:
    """Complex STFT data, shaped (channels, frames, bins), at hop n_fft/2."""

    data: np.ndarray
    fs: int
    n_fft: int
    hop: int | None = None  # n_fft/2, the only step; None means that

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 3:
            raise DataError("spectrogram data must be (channels, frames, bins)")
        if self.data.shape[2] != self.n_fft // 2 + 1:
            raise DataError(
                f"{self.data.shape[2]} bins inconsistent with n_fft {self.n_fft}"
            )
        self.hop = _frame_step(self.n_fft, self.hop)

    @property
    def num_channels(self) -> int:
        return self.data.shape[0]

    @property
    def num_frames(self) -> int:
        return self.data.shape[1]

    @property
    def frequencies(self) -> np.ndarray:
        return np.fft.rfftfreq(self.n_fft, 1.0 / self.fs)

    @property
    def frame_rate(self) -> float:
        return self.fs / self.hop


def _as_2d(audio, dtype=float) -> np.ndarray:
    audio = np.asarray(audio, dtype=dtype)
    if audio.ndim == 1:
        return audio[None, :]
    if audio.ndim == 2:
        return audio
    raise DataError("audio must be 1-D or (channels, samples)")


def stft(
    audio,
    fs: int = DEFAULT_FS,
    n_fft: int = DEFAULT_N_FFT,
    hop: int | None = None,
) -> Spectrogram:
    """Square-root-Hann analysis STFT of (channels, samples) audio at hop
    n_fft/2 (``hop`` may only be that), center-padded by one hop."""
    x = _as_2d(audio)
    if x.shape[1] < n_fft:
        raise DataError(f"need at least n_fft = {n_fft} samples, got {x.shape[1]}")
    hop = _frame_step(n_fft, hop)
    # the first frame reaches into the padding, so x is read from a padded copy
    data = _analyze(x, sqrt_hann(n_fft), 0, x.shape[1] // hop + 1)
    return Spectrogram(data=data, fs=int(fs), n_fft=int(n_fft), hop=hop)


def istft(spec: Spectrogram, num_samples: int | None = None) -> np.ndarray:
    """Square-root-Hann synthesis by weighted overlap-add; inverts stft.

    ``num_samples`` trims/limits the output length (default: the full
    span implied by the frame count).
    """
    _check_num_samples(num_samples)
    window = sqrt_hann(spec.n_fft)
    return _normalize(_synthesize(spec.data, window), window, num_samples)


def _check_grid(spec: Spectrogram, bank) -> None:
    """Raise GridMismatchError unless ``spec`` has the bank's channels and grid."""
    if spec.num_channels != bank.num_mics:
        raise GridMismatchError(
            f"spectrogram has {spec.num_channels} channels, bank expects {bank.num_mics}"
        )
    if spec.fs != bank.fs or spec.n_fft != bank.n_fft:
        raise GridMismatchError(
            f"spectrogram grid (fs={spec.fs}, n_fft={spec.n_fft}) does not match "
            f"bank grid (fs={bank.fs}, n_fft={bank.n_fft})"
        )


def apply_bank(spec: Spectrogram, bank) -> Spectrogram:
    """Steer a multichannel spectrogram through every bank direction:
    out[k, t, f] = h_k(f)^H x(t, f)."""
    _check_grid(spec, bank)
    data = _steer(bank.weights.conj(), spec.data)
    return Spectrogram(data=data, fs=spec.fs, n_fft=spec.n_fft, hop=spec.hop)


def _run_frames(num_mics: int, n_fft: int) -> int:
    """Frames per _analyzed_runs run: their (num_mics, frames, bins) input
    spectra fill about _RUN_BYTES."""
    return max(1, _RUN_BYTES // (num_mics * (n_fft // 2 + 1) * 16))


def _bank_frames(audio, bank) -> tuple:
    """(C-contiguous (channels, samples) audio, stft frame count at hop
    n_fft/2) after checking the audio's channels and length against ``bank``."""
    x = np.ascontiguousarray(_as_2d(audio))
    channels, samples = x.shape
    if channels != bank.num_mics:
        raise DataError(f"{channels}-channel input vs {bank.num_mics}-mic bank")
    if samples < bank.n_fft:
        raise DataError(f"need at least n_fft = {bank.n_fft} samples, got {samples}")
    return x, samples // (bank.n_fft // 2) + 1  # stft's count over the center-padded signal


def _share_cores(processes: int) -> None:
    """Process-pool initializer: this process is one of ``processes`` that
    run side by side, so ``_usable_cores`` gives it its share of the cores."""
    global _core_sharers
    _core_sharers = processes


def _usable_cores() -> int:
    """The cores this process may run on (``taskset`` narrows them), divided
    among the processes that share them (at least 1), at most MAX_WORKERS."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        cores = os.cpu_count() or 1
    return min(max(1, cores // _core_sharers), MAX_WORKERS)


def _in_run_order(compute, consume, runs: int, threads: int) -> None:
    """``consume(i, compute(i))`` for runs i = 0 .. runs - 1, consumed in
    order by the calling thread.

    With one thread the calling thread computes every run and no thread is
    started. Otherwise ``threads - 1`` more threads, named
    ``_THREAD_PREFIX``-1 and up, compute runs beside it. Runs are taken in
    increasing order, and run i only while i < consumed + 2 x ``threads``,
    so at most two runs per thread are computed and not yet consumed. The
    calling thread consumes the next run as soon as it is computed, else
    takes a run, else waits. On an error in a thread or in the caller (a
    KeyboardInterrupt too), every thread is stopped and joined before the
    first error is raised: no thread outlives the call.
    """
    if threads == 1:
        for i in range(runs):
            consume(i, compute(i))
        return
    cond = threading.Condition()
    done = {}  # run -> computed value not yet consumed
    taken = consumed = 0
    error, stop = None, False

    def take():  # under cond: the next run if it may start, else None
        nonlocal taken
        if taken == runs or taken >= consumed + 2 * threads:
            return None
        taken += 1
        return taken - 1

    def work():
        nonlocal error, stop
        while True:
            with cond:
                while not stop and (i := take()) is None and taken < runs:
                    cond.wait()
                if stop or i is None:
                    return
            try:
                value = compute(i)
            except BaseException as exc:
                with cond:
                    if error is None:
                        error = exc
                    stop = True
                    cond.notify_all()
                return
            with cond:
                done[i] = value
                cond.notify_all()

    pool = []
    try:
        for w in range(1, threads):
            thread = threading.Thread(target=work, name=f"{_THREAD_PREFIX}-{w}", daemon=True)
            thread.start()
            pool.append(thread)
        while consumed < runs:
            with cond:
                while error is None and consumed not in done and (i := take()) is None:
                    cond.wait()
                if error is not None:
                    raise error
                ready = consumed in done
                value = done.pop(consumed) if ready else None
            if ready:
                consume(consumed, value)
                with cond:
                    consumed += 1
                    cond.notify_all()
            else:
                value = compute(i)
                with cond:
                    done[i] = value
    finally:
        with cond:
            stop = True
            cond.notify_all()
        for thread in pool:
            thread.join()


def _analyzed_runs(x: np.ndarray, window: np.ndarray, n_frames: int, compute,
                   consume) -> None:
    """``consume(first, compute(spectra))`` for each run of the ``n_frames``
    frames of the center-padded stft of C-contiguous (channels, samples)
    ``x`` at hop n_fft/2, where ``spectra`` is the (channels, frames, bins)
    rfft of a run's frames and ``first`` the number of its first frame;
    together the runs' spectra are ``stft(x).data``, bit for bit.

    Runs hold about ``_RUN_BYTES`` of spectra. They are analysed and
    computed on up to one thread per usable core (``_usable_cores``, at most
    one per run), the calling thread among them, each into arrays of its
    own, and consumed by the calling thread alone, strictly in run order
    (``_in_run_order``). So ``consume`` never runs beside itself or on
    another thread, and what it builds is the same at any thread count.
    """
    run = _run_frames(x.shape[0], window.shape[0])
    runs = -(-n_frames // run)

    def analyzed(i):
        first = i * run
        return compute(_analyze(x, window, first, min(run, n_frames - first)))

    def consumed(i, value):
        consume(i * run, value)

    _in_run_order(analyzed, consumed, runs, min(_usable_cores(), runs))


def steer_audio(audio, bank, num_samples: int | None = None) -> np.ndarray:
    """Steer (channels, samples) audio through every bank direction:
    ``istft(apply_bank(stft(audio, n_fft=bank.n_fft), bank), num_samples)``,
    bit for bit, one run of frames at a time.

    Each run from ``_analyzed_runs`` is steered and synthesized on one of
    its threads, and the calling thread overlap-adds the runs into one
    output array strictly in run order, so no whole-signal spectrogram is
    built and the bytes are the same at any thread count. At hop n_fft/2
    every output sample is the sum of exactly two frame terms, which is the
    same in either order, so the run boundaries do not change a bit either.
    A negative ``num_samples`` is refused before any run is analysed. The
    audio's sample rate is the caller's to check.
    """
    _check_num_samples(num_samples)
    x, n_frames = _bank_frames(audio, bank)
    hop = bank.n_fft // 2
    window, conj_weights = sqrt_hann(bank.n_fft), bank.weights.conj()
    out = np.zeros((bank.num_directions, (n_frames + 1) * hop))

    def frames(spec):
        return _synthesis_frames(_steer(conj_weights, spec), window)

    def overlap_add(first, run_frames):
        _overlap_add(run_frames, out[:, first * hop : (first + run_frames.shape[1] + 1) * hop])

    _analyzed_runs(x, window, n_frames, frames, overlap_add)
    return _normalize(out, window, num_samples)


class BlockProcessor:
    """Streaming bank application with one-window lookahead.

    Push arbitrary sample blocks; steered samples come back once their
    full window context has arrived (latency at most n_fft samples).
    Concatenated push/flush output has exactly the pushed length. The
    first half window ramps in from silence, as in any streamed WOLA
    chain without center padding. The bank's weights are read at construction.
    Frames step by n_fft/2, where the squared windows sum to one
    (sin^2 + cos^2), so the overlap-added output is returned unnormalised.
    """

    def __init__(self, bank):
        self.bank = bank
        self.n_fft = bank.n_fft
        self.hop = bank.n_fft // 2
        self.window = sqrt_hann(self.n_fft)
        self._conj_weights = bank.weights.conj()
        self._pending = np.zeros((bank.num_mics, 2 * self.n_fft))
        self._fill = 0  # _pending[:, :_fill] holds the pushed samples not yet emitted
        self._carry = np.zeros((bank.num_directions, self.hop))

    def push(self, block) -> np.ndarray:
        """Feed (channels, samples); return finalized steered samples."""
        block = _as_2d(block)
        if block.shape[0] != self.bank.num_mics:
            raise DataError(
                f"block has {block.shape[0]} channels, bank expects {self.bank.num_mics}"
            )
        end = self._fill + block.shape[1]
        if end > self._pending.shape[1]:
            grown = np.zeros((self.bank.num_mics, max(end, 2 * self._pending.shape[1])))
            grown[:, : self._fill] = self._pending[:, : self._fill]
            self._pending = grown
        self._pending[:, self._fill : end] = block
        self._fill = end
        return self._drain()

    def flush(self) -> np.ndarray:
        """Emit the remaining samples, zero-padding the final windows."""
        owed = self._fill
        out = self.push(np.zeros((self.bank.num_mics, self.n_fft)))[:, :owed]
        self._fill = 0
        self._carry = np.zeros((self.bank.num_directions, self.hop))
        return out

    def _drain(self) -> np.ndarray:
        hop = self.hop
        n_frames = self._fill // hop - 1  # the frames that fit in the pending samples
        if n_frames <= 0:
            return np.zeros((self.bank.num_directions, 0))
        # no center pad: the first frame here is the center-padded stft's second
        spec = _analyze(self._pending, self.window, 1, n_frames)
        buf = _synthesize(_steer(self._conj_weights, spec), self.window)
        buf[:, :hop] += self._carry
        emit = n_frames * hop
        self._carry = buf[:, emit:].copy()
        self._fill -= emit
        self._pending[:, : self._fill] = self._pending[:, emit : emit + self._fill]
        return buf[:, :emit]


# WAVE format tags, and the tail every KSDATAFORMAT_SUBTYPE GUID shares
_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _wav_format(body, path) -> tuple[int, int, int, int]:
    """(tag, channels, fs, bytes per sample) of a supported ``fmt `` chunk."""
    if len(body) < 16:
        raise DataError(f"{path}: fmt chunk of {len(body)} bytes")
    tag, channels, fs, _, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if tag == _EXTENSIBLE and len(body) >= 40 and body[28:40] == _GUID_TAIL:
        tag = int.from_bytes(body[24:28], "little")
    width = block_align // channels if channels else 0
    if not (
        (tag == _PCM and width in (2, 3, 4) and 8 < bits <= 8 * width)
        or (tag == _FLOAT and width in (4, 8) and bits == 8 * width)
    ) or block_align != channels * width or fs == 0:
        raise DataError(
            f"{path}: unsupported WAV format (tag {tag:#x}, {channels} channels, "
            f"{bits} bits in {block_align}-byte frames, {fs} Hz)"
        )
    return tag, channels, fs, width


def _wav_layout(read, size: int, path) -> tuple:
    """(format, data offset, data bytes) of a little-endian RIFF WAVE file of
    ``size`` bytes from its chunk headers, where ``read(pos, n)`` gives the
    file's bytes pos to pos + n (fewer at its end). Chunks after the data
    chunk are not read."""
    head = read(0, 12)
    if head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise DataError(f"{path}: not a little-endian RIFF WAVE file")
    fmt, pos = None, 12
    while pos < size:
        header = read(pos, 8)
        if len(header) < 8:
            raise DataError(f"{path}: short chunk header at byte {pos}")
        cid, length = struct.unpack("<4sI", header)
        if pos + 8 + length > size:
            raise DataError(f"{path}: {cid!r} chunk runs past the end of the file")
        if cid == b"data":
            break
        if cid == b"fmt ":
            fmt = _wav_format(read(pos + 8, length), path)
        pos += 8 + length + length % 2
    else:
        raise DataError(f"{path}: no data chunk")
    if fmt is None:
        raise DataError(f"{path}: data chunk before the fmt chunk")
    if length % (fmt[1] * fmt[3]):
        raise DataError(f"{path}: data chunk ends inside a sample frame")
    return fmt, pos + 8, length


def _wav_frames(path) -> int | None:
    """The sample frames in a WAV file's data chunk, read from its chunk
    headers with seeks (a malformed header is read_wav's DataError), or None
    for a file that cannot be opened or is not a regular file, which only
    read_wav can then read or refuse."""
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            return None

        def read(pos, n):
            fh.seek(pos)
            return fh.read(n)

        (_, channels, _, width), _, length = _wav_layout(read, info.st_size, path)
    return length // (channels * width)


def read_wav(path, expected_fs: int | None = None) -> tuple[np.ndarray, int]:
    """Read a WAV file as (channels, samples) float64 in [-1, 1].

    PCM of 16, 24 or 32 bits is scaled by 2^-(bits-1); float32 and float64
    pass through, and a NaN or infinite one is refused. See docs/formats.md
    for the accepted subset; anything else is a DataError. A sample-rate
    mismatch with ``expected_fs`` is an error; there is no resampling.
    """
    try:
        with open(path, "rb") as fh:
            blob = memoryview(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read WAV {path}: {exc}") from exc
    fmt, offset, length = _wav_layout(lambda pos, n: blob[pos : pos + n], len(blob), path)
    body = blob[offset : offset + length]
    tag, channels, fs, width = fmt
    if expected_fs is not None and fs != expected_fs:
        raise DataError(
            f"{path}: sample rate {fs} != configured {expected_fs}; resampling unsupported"
        )
    if tag == _FLOAT:
        data, scale = np.frombuffer(body, f"<f{width}"), 1.0
        if not np.isfinite(data).all():
            raise DataError(f"{path}: float samples must be finite (found NaN or inf)")
    elif width == 3:
        # left-justify each 24-bit sample in an int32
        wide = np.zeros((len(body) // 3, 4), np.uint8)
        wide[:, 1:] = np.frombuffer(body, np.uint8).reshape(-1, 3)
        data, scale = wide.view("<i4"), 2147483648.0
    else:
        data, scale = np.frombuffer(body, f"<i{width}"), float(1 << (8 * width - 1))
    # one pass that converts while it transposes: several times faster than
    # astype() followed by a transposing copy
    audio = np.ascontiguousarray(data.reshape(-1, channels).T, dtype=np.float64)
    if scale != 1.0:
        audio /= scale
    return audio, fs


# the fmt (18-byte body), fact and data chunk headers of write_wav's files
_FLOAT_HEAD_BYTES = 26 + 12 + 8


def _riff_size(path, channels: int, frames: int) -> int:
    """The RIFF size field of a float32 WAV of ``channels`` x ``frames``
    samples; a DataError if it exceeds the field's 32 bits. Callers check
    before they build the audio."""
    data = 4 * channels * frames
    size = 4 + _FLOAT_HEAD_BYTES + data
    if size > 0xFFFFFFFF:
        raise DataError(f"{path}: {data} bytes of audio exceed a RIFF file")
    return size


def write_wav(path, audio, fs: int) -> None:
    """Write (channels, samples) audio as float32 WAV through a temporary
    file and a rename; docs/formats.md gives the exact layout. float32
    audio is written as it is, other audio is rounded once to float32.
    float32 audio whose transpose is C-contiguous, as mix_noise returns,
    is written without a copy."""
    x = _as_2d(audio, dtype=None)
    channels, frames = x.shape
    size = _riff_size(path, channels, frames)
    fs = int(fs)
    # non-PCM: an 18-byte fmt chunk with a cbSize of 0, and a fact chunk
    # with the frame count
    head = b"fmt " + struct.pack("<IHHIIHHH", 18, _FLOAT, channels, fs, fs * channels * 4,
                                 channels * 4, 32, 0)
    head += b"fact" + struct.pack("<II", 4, frames)
    head += b"data" + struct.pack("<I", 4 * channels * frames)
    payload = np.ascontiguousarray(x.T, dtype="<f4")
    riff = b"RIFF" + struct.pack("<I", size) + b"WAVE" + head
    _container.replace(path, (riff, payload.reshape(-1).view(np.uint8)))
