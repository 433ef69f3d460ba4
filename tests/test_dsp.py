"""STFT analysis/synthesis, bank filtering, streaming, and wav IO."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beambank import dsp
from beambank.beamformer import design_bank
from beambank.dsp import (
    BlockProcessor,
    Spectrogram,
    _run_frames,
    apply_bank,
    istft,
    read_wav,
    sqrt_hann,
    steer_audio,
    stft,
    write_wav,
)
from beambank.errors import DataError
from beambank.geometry import DirectionSpec, steering_vector

MOUTH = DirectionSpec(azimuth=0.0, elevation=-0.6435011087932844, range_m=0.1)


class TestWindow:
    def test_sqrt_hann_squares_to_hann(self):
        n = 512
        w = sqrt_hann(n)
        hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)
        np.testing.assert_allclose(w**2, hann, atol=1e-12)

    def test_half_overlap_adds_to_one(self):
        n = 512
        w2 = sqrt_hann(n) ** 2
        assert np.all(np.abs(w2[: n // 2] + w2[n // 2 :] - 1.0) < 1e-12)


class TestStftRoundTrip:
    @pytest.mark.parametrize("n_samples", [1000, 4096, 16000, 16001])
    def test_rms_error_below_1e6(self, rng, n_samples):
        audio = rng.standard_normal((3, n_samples))
        spec = stft(audio, fs=16000, n_fft=512)
        back = istft(spec, num_samples=n_samples)
        assert back.shape == audio.shape
        rms = math.sqrt(float(np.mean((back - audio) ** 2)))
        assert rms <= 1e-6

    def test_mono_input_accepted(self, rng):
        audio = rng.standard_normal(8000)
        spec = stft(audio, fs=16000, n_fft=512)
        back = istft(spec, num_samples=8000)
        assert back.shape == (1, 8000)
        np.testing.assert_allclose(back[0], audio, atol=1e-9)

    def test_shapes(self, rng):
        spec = stft(rng.standard_normal((2, 5000)), fs=16000, n_fft=512)
        assert spec.frequencies.shape[0] == 257
        assert spec.data.shape[0] == 2
        assert spec.data.shape[2] == 257

    @pytest.mark.parametrize(
        "n_fft, num_samples", [(512, None), (512, 5000), (512, 5300), (65536, 98304)]
    )
    def test_equals_boolean_mask_normalisation(self, rng, n_fft, num_samples):
        """istft's in-place normalisation is bit-identical to dividing a
        frame-by-frame overlap-add by its window sum through boolean masks.
        At n_fft 65536 the window sum sin^2(pi k / N) falls below the edge
        threshold at k = N - 2 and N - 1 of the last frame: with three frames
        these are output samples 98302 and 98303, the last two of the last
        half frame. They must read +0.0, never -0.0 or the undivided sum."""
        hop = n_fft // 2
        audio = rng.standard_normal((3, max(5000, n_fft + 4000)))
        spec = stft(audio, fs=16000, n_fft=n_fft)
        window = sqrt_hann(n_fft)
        frames = np.fft.irfft(spec.data, n=n_fft, axis=2) * window
        total = (spec.num_frames + 1) * hop
        out, wsum = np.zeros((3, total)), np.zeros(total)
        for t in range(spec.num_frames):
            out[:, t * hop : t * hop + n_fft] += frames[:, t]
            wsum[t * hop : t * hop + n_fft] += window * window
        good = wsum > 1e-8 * wsum.max()
        out[:, good] /= wsum[good]
        out[:, ~good] = 0.0
        if num_samples is None:
            num_samples = (spec.num_frames - 1) * hop
        full = np.pad(out[:, hop:], ((0, 0), (0, max(0, num_samples + hop - total))))
        expected = full[:, :num_samples]

        got = istft(spec, num_samples=num_samples)
        assert got.tobytes() == expected.tobytes()  # also tells -0.0 from +0.0
        edges = np.flatnonzero(~good) - hop
        edges = edges[(edges >= 0) & (edges < num_samples)]
        assert edges.tolist() == ([98302, 98303] if n_fft == 65536 else [])
        assert np.all(got[:, edges] == 0.0) and not np.any(np.signbit(got[:, edges]))

    @pytest.mark.parametrize("frames", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("num_samples", [None, 0, 45, 200])
    def test_few_frames_equal_frame_by_frame_overlap_add(self, rng, monkeypatch, frames,
                                                         num_samples):
        """istft's run-by-run sink on spectrograms of 0 to 4 frames, in runs
        of 2 frames (a carried hop, and a last run of 1 frame), equals the
        frame-by-frame overlap-add divided by its window sum: a single frame
        has no middle hop, and lengths that cut inside a hop or zero-pad."""
        monkeypatch.setattr(dsp, "_run_frames", lambda channels, n_fft: 2)
        n_fft, hop = 64, 32
        data = rng.standard_normal((2, frames, 33)) + 1j * rng.standard_normal((2, frames, 33))
        window = sqrt_hann(n_fft)
        total = (frames + 1) * hop
        out, wsum = np.zeros((2, total)), np.zeros(total)
        for t in range(frames):
            out[:, t * hop : t * hop + n_fft] += np.fft.irfft(data[:, t], n_fft) * window
            wsum[t * hop : t * hop + n_fft] += window * window
        good = wsum > 1e-8 * wsum.max() if frames else np.zeros(total, bool)
        out[:, good] /= wsum[good]
        out[:, ~good] = 0.0
        length = max(0, (frames - 1) * hop) if num_samples is None else num_samples
        expected = np.pad(out[:, hop:], ((0, 0), (0, max(0, length + hop - total))))[:, :length]
        got = istft(Spectrogram(data=data, fs=16000, n_fft=n_fft), num_samples)
        assert got.tobytes() == expected.tobytes()  # also tells -0.0 from +0.0

    @pytest.mark.parametrize("hop", [0, -256, 128, 300, 512])
    def test_hop_other_than_half_n_fft_refused(self, rng, hop):
        with pytest.raises(DataError, match="must be n_fft/2 = 256"):
            stft(rng.standard_normal(4000), fs=16000, n_fft=512, hop=hop)
        with pytest.raises(DataError, match="must be n_fft/2 = 256"):
            Spectrogram(data=np.zeros((1, 3, 257)), fs=16000, n_fft=512, hop=hop)

    @pytest.mark.parametrize("n_fft", [0, 1, 511])
    def test_odd_or_tiny_n_fft_refused(self, rng, n_fft):
        with pytest.raises(DataError, match="must be even and at least 2"):
            stft(rng.standard_normal(4000), fs=16000, n_fft=n_fft)
        with pytest.raises(DataError, match="must be even and at least 2"):
            Spectrogram(data=np.zeros((1, 3, n_fft // 2 + 1)), fs=16000, n_fft=n_fft)

    def test_hop_defaults_to_half_n_fft(self, rng):
        assert stft(rng.standard_normal(4000), fs=16000, n_fft=64).hop == 32
        assert Spectrogram(data=np.zeros((1, 3, 33)), fs=16000, n_fft=64).hop == 32

    def test_negative_num_samples_refused(self, rng):
        spec = stft(rng.standard_normal(4000), fs=16000, n_fft=512)
        with pytest.raises(DataError, match="num_samples must not be negative, got -5"):
            istft(spec, num_samples=-5)


def _plane_wave(geometry, azimuth, f0, fs, n_samples, sound_speed=343.0):
    d = DirectionSpec(azimuth=azimuth, elevation=0.0)
    u = d.unit_vector()
    tau = -(geometry.mics @ u) / sound_speed
    n = np.arange(n_samples)
    return np.stack([np.cos(2 * np.pi * f0 * (n / fs - tm)) for tm in tau])


class TestApplyBank:
    def _bank(self, glasses5):
        directions = [
            DirectionSpec(azimuth=0.0, elevation=0.0),
            DirectionSpec(azimuth=math.pi / 2, elevation=0.0),
            MOUTH,
        ]
        return design_bank(glasses5, directions, method="delay_and_sum", fs=16000, n_fft=512)

    def test_output_has_one_channel_per_direction(self, glasses5, rng):
        bank = self._bank(glasses5)
        spec = stft(rng.standard_normal((5, 6000)), fs=16000, n_fft=512)
        out = apply_bank(spec, bank)
        assert out.data.shape[0] == 3
        assert out.data.shape[1:] == spec.data.shape[1:]

    def test_distortionless_passthrough_of_look_wave(self, glasses5):
        """A 1000 Hz plane wave from the look direction comes out of the
        steered beam at the same level, within 0.1 dB."""
        bank = self._bank(glasses5)
        fs, f0 = 16000, 1000.0
        x = _plane_wave(glasses5, 0.0, f0, fs, 4 * fs)
        spec = stft(x, fs=fs, n_fft=512)
        y = istft(apply_bank(spec, bank), num_samples=x.shape[1])
        mid = slice(fs, 3 * fs)
        out_rms = np.sqrt(np.mean(y[0, mid] ** 2))
        in_rms = 1.0 / math.sqrt(2.0)  # unit-amplitude cosine
        assert abs(20 * math.log10(out_rms / in_rms)) < 0.1

    def test_off_look_wave_matches_analytic_response(self, glasses5):
        bank = self._bank(glasses5)
        fs, f0 = 16000, 1000.0
        az = math.radians(137.0)
        x = _plane_wave(glasses5, az, f0, fs, 4 * fs)
        spec = stft(x, fs=fs, n_fft=512)
        y = istft(apply_bank(spec, bank), num_samples=x.shape[1])
        fi = int(np.argmin(np.abs(bank.frequencies - f0)))
        g = steering_vector(glasses5, DirectionSpec(azimuth=az), f0).entries
        expected = abs(np.vdot(bank.weights[0, fi], g))
        mid = slice(fs, 3 * fs)
        out_rms = np.sqrt(np.mean(y[0, mid] ** 2))
        measured = out_rms * math.sqrt(2.0)
        assert abs(20 * math.log10(measured / expected)) < 0.1

    def test_channel_count_mismatch_rejected(self, glasses5, rng):
        bank = self._bank(glasses5)
        spec = stft(rng.standard_normal((3, 4000)), fs=16000, n_fft=512)
        with pytest.raises(DataError):
            apply_bank(spec, bank)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("frames", ["1", "2", "run", "3 runs"])
    def test_steers_in_the_run_grid(self, random_bank, rng, frames, offset):
        """The batched product's last bits depend on its frame count, so
        apply_bank steers the runs of frames steer_audio and featurize_audio
        steer: its bytes are _batched_steer's over each run from frame 0, on
        1, 2 and a run boundary +-1 frames, and within float64 rounding of
        the einsum definition."""
        bank = random_bank(rng, 3, 64)
        run = _run_frames(3, 64)
        count = max(1, {"1": 1, "2": 2, "run": run, "3 runs": 3 * run}[frames] + offset)
        data = rng.standard_normal((3, count, 33)) + 1j * rng.standard_normal((3, count, 33))
        got = apply_bank(Spectrogram(data=data, fs=16000, n_fft=64), bank).data
        conj_weights = dsp._steering_weights(bank)
        runs = [dsp._batched_steer(conj_weights, data[:, first : first + run])
                for first in range(0, count, run)]
        assert got.tobytes() == np.concatenate(runs, axis=1).tobytes()
        definition = np.einsum("kfm,mtf->ktf", bank.weights.conj(), data)
        np.testing.assert_allclose(got, definition, rtol=0, atol=1e-12)


class TestSteerAudio:
    @settings(max_examples=60, deadline=None)
    @given(
        channels=st.integers(1, 7),
        n_fft=st.sampled_from([64, 128, 256, 512, 1024]),
        runs=st.integers(0, 3),
        frame_offset=st.integers(-1, 1),
        extra=st.floats(0.0, 0.999),
        length_change=st.one_of(st.none(), st.integers(-64, 64)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_whole_signal_route(
        self, random_bank, channels, n_fft, runs, frame_offset, extra, length_change, seed
    ):
        """Bit for bit istft(apply_bank(stft(x))): exactly n_fft samples
        (no runs, no offset, no extra), one run or several, a run boundary
        +-1 frame, and output lengths that trim or zero-pad."""
        rng = np.random.default_rng(seed)
        bank = random_bank(rng, channels, n_fft)
        hop = n_fft // 2
        frames = max(3, runs * _run_frames(channels, n_fft) + frame_offset)
        samples = (frames - 1) * hop + int(extra * hop)
        x = rng.standard_normal((channels, samples))
        num_samples = None if length_change is None else samples + length_change

        whole = istft(apply_bank(stft(x, 16000, n_fft, hop), bank), num_samples)
        got = steer_audio(x, bank, num_samples)
        assert got.shape == whole.shape
        assert np.array_equal(got, whole)
        assert got.tobytes() == whole.tobytes()  # also tells -0.0 from +0.0

    def test_mono_and_transposed_input(self, random_bank, rng):
        bank = random_bank(rng, 1, 64)
        x = rng.standard_normal(1000)
        whole = istft(apply_bank(stft(x, 16000, 64, 32), bank), 1000)
        assert steer_audio(x, bank, 1000).tobytes() == whole.tobytes()
        bank = random_bank(rng, 3, 64)
        x = rng.standard_normal((1000, 3)).T  # not C-contiguous
        whole = istft(apply_bank(stft(x, 16000, 64, 32), bank), 1000)
        assert steer_audio(x, bank, 1000).tobytes() == whole.tobytes()

    def test_short_input_rejected(self, random_bank, rng):
        bank = random_bank(rng, 2, 64)
        with pytest.raises(DataError, match="need at least n_fft = 64 samples, got 63"):
            steer_audio(rng.standard_normal((2, 63)), bank)

    def test_channel_mismatch_rejected(self, random_bank, rng):
        bank = random_bank(rng, 2, 64)
        with pytest.raises(DataError, match="3-channel input vs 2-mic bank"):
            steer_audio(rng.standard_normal((3, 640)), bank)

    def test_negative_num_samples_refused(self, random_bank, rng, run_observer):
        """Before any run is scheduled: it was refused only after every run
        had been analysed, steered and overlap-added."""
        seen = run_observer()
        bank = random_bank(rng, 2, 64)
        with pytest.raises(DataError, match="num_samples must not be negative, got -5"):
            steer_audio(rng.standard_normal((2, 640)), bank, -5)
        assert (seen["runs"], seen["started"]) == (None, 0)


def _steer_threads():
    return [t for t in threading.enumerate() if t.name.startswith(dsp._THREAD_PREFIX)]


class TestSteerThreads:
    """steer_audio's runs on a pool of threads: the bytes never depend on
    the thread count, a slow run stalls nothing, and an error stops and
    joins every thread before it reaches the caller."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "runs, frame_offset",
        [(0, 0), (1, 1), (3, -1), (3, 0), (3, 1)],
        ids=["one-run", "two-runs", "boundary-1", "boundary", "boundary+1"],
    )
    @pytest.mark.parametrize("extra", [0, 31])
    def test_bytes_equal_whole_signal_route_at_any_thread_count(
        self, random_bank, rng, monkeypatch, run_observer, threads, runs, frame_offset, extra
    ):
        """One run (both padded ends in it), fewer runs than threads, and a
        run boundary +-1 frame, where the first and last runs reach into
        the padding at either end."""
        monkeypatch.setattr(dsp, "_usable_cores", lambda: threads)
        seen = run_observer()
        bank = random_bank(rng, 3, 64)
        frames = max(3, runs * _run_frames(3, 64) + frame_offset)
        samples = (frames - 1) * 32 + extra
        x = rng.standard_normal((3, samples))
        whole = istft(apply_bank(stft(x, 16000, 64, 32), bank), samples)
        assert steer_audio(x, bank, samples).tobytes() == whole.tobytes()
        assert seen["runs"] == max(1, runs + (frame_offset > 0))
        assert seen["threads"] == min(threads, seen["runs"])

    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_many_runs_under_fast_thread_switching(self, random_bank, rng, monkeypatch,
                                                   run_observer, threads):
        """40 runs of 5 frames, with the interpreter switching threads every
        microsecond: a run overlap-added out of order or from frames still
        being written would change the bytes, and at most 2 x threads runs
        are computed and not yet overlap-added."""
        monkeypatch.setattr(dsp, "_usable_cores", lambda: threads)
        monkeypatch.setattr(dsp, "_run_frames", lambda num_mics, n_fft: 5)
        seen = run_observer()
        bank = random_bank(rng, 2, 64)
        x = rng.standard_normal((2, 199 * 32 + 7))
        whole = istft(apply_bank(stft(x, 16000, 64, 32), bank), x.shape[1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = steer_audio(x, bank, x.shape[1])
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == whole.tobytes()
        assert (seen["runs"], seen["depth"]) == (40, 2 * threads)
        assert seen["lookahead"] <= seen["depth"]

    def test_slow_first_run_stalls_nothing(self, random_bank, rng, monkeypatch, run_observer,
                                           bounded):
        """The first run sleeps while the others race ahead: they stop at
        2 x threads runs ahead, and the call finishes with the same bytes
        (run in a joined thread, so a deadlock fails the test instead of
        hanging it)."""
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 3)
        monkeypatch.setattr(dsp, "_run_frames", lambda num_mics, n_fft: 4)
        seen = run_observer(lambda i: time.sleep(0.3) if i == 0 else None)
        bank = random_bank(rng, 2, 64)
        x = rng.standard_normal((2, 30 * 4 * 32))
        whole = istft(apply_bank(stft(x, 16000, 64, 32), bank), x.shape[1])
        assert bounded(lambda: steer_audio(x, bank, x.shape[1])).tobytes() == whole.tobytes()
        assert seen["depth"] == 6
        assert 3 < seen["lookahead"] <= seen["depth"]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_error_in_a_run_reaches_the_caller_with_every_thread_joined(
        self, random_bank, rng, monkeypatch, run_observer, bounded, threads
    ):
        monkeypatch.setattr(dsp, "_usable_cores", lambda: threads)
        monkeypatch.setattr(dsp, "_run_frames", lambda num_mics, n_fft: 4)

        def fail(i):
            if i == 3:
                raise MemoryError("run 3")

        seen = run_observer(fail)
        bank = random_bank(rng, 2, 64)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="run 3"):
            bounded(lambda: steer_audio(rng.standard_normal((2, 40 * 4 * 32)), bank))
        assert threading.active_count() == before
        assert not _steer_threads()
        assert seen["lookahead"] <= seen["depth"]

    def test_interrupt_in_the_caller_joins_every_thread(self, random_bank, rng, monkeypatch,
                                                        bounded):
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 2)
        monkeypatch.setattr(dsp, "_run_frames", lambda num_mics, n_fft: 4)
        add = dsp._overlap_add
        calls = []

        def interrupted(frames, out):
            calls.append(1)
            if len(calls) == 3:  # one call a run: during run 2
                raise KeyboardInterrupt
            add(frames, out)

        monkeypatch.setattr(dsp, "_overlap_add", interrupted)
        bank = random_bank(rng, 2, 64, num_looks=1)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            bounded(lambda: steer_audio(rng.standard_normal((2, 40 * 4 * 32)), bank))
        assert threading.active_count() == before
        assert not _steer_threads()

    def test_calling_thread_and_named_threads_share_the_runs(
        self, random_bank, rng, monkeypatch, run_observer
    ):
        """At three usable cores the calling thread and two threads named
        with the prefix compute the runs (every run sleeps, the first one
        longest, so each thread takes runs)."""
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 3)
        names = set()

        def hook(i):
            names.add(threading.current_thread().name)
            time.sleep(0.2 if i == 0 else 0.02)

        seen = run_observer(hook)
        bank = random_bank(rng, 2, 64)
        steer_audio(rng.standard_normal((2, 6 * _run_frames(2, 64) * 32)), bank)
        assert seen["threads"] == 3
        caller = threading.current_thread().name
        assert sorted(names - {caller}) == [f"{dsp._THREAD_PREFIX}-{w}" for w in (1, 2)]

    def test_one_usable_core_starts_no_thread(self, random_bank, rng, monkeypatch):
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 1)
        monkeypatch.setattr(threading.Thread, "start", _fail_start)
        bank = random_bank(rng, 2, 64)
        x = rng.standard_normal((2, 3 * _run_frames(2, 64) * 32))
        whole = istft(apply_bank(stft(x, 16000, 64, 32), bank), x.shape[1])
        assert steer_audio(x, bank, x.shape[1]).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("threads, runs", [(2, 30), (3, 30), (4, 30), (4, 3)])
    def test_executor_bounds_its_own_lookahead(self, bounded, threads, runs):
        """_in_run_order alone keeps runs started minus runs consumed within
        min(2 x threads, runs): run 0 sleeps while the other threads take
        every run they may, and the values still arrive in run order."""
        lock = threading.Lock()
        seen = {"started": 0, "consumed": 0, "lookahead": 0}
        values = []

        def compute(i):
            with lock:
                seen["started"] += 1
                seen["lookahead"] = max(seen["lookahead"], seen["started"] - seen["consumed"])
            time.sleep(0.2 if i == 0 else 0.002)
            return i * i

        def consume(i, value):
            values.append((i, value))
            with lock:
                seen["consumed"] += 1

        bounded(lambda: dsp._in_run_order(compute, consume, runs, threads))
        assert values == [(i, i * i) for i in range(runs)]
        assert seen["lookahead"] == min(2 * threads, runs)

    def test_pool_is_the_usable_cores_capped(self, monkeypatch):
        monkeypatch.setattr(dsp.os, "sched_getaffinity", lambda pid: set(range(100)),
                            raising=False)
        assert dsp._usable_cores() == dsp.MAX_WORKERS
        monkeypatch.setattr(dsp.os, "sched_getaffinity", lambda pid: {3})
        assert dsp._usable_cores() == 1


def _fail_start(self):
    raise AssertionError(f"thread {self.name} started")


@pytest.fixture(scope="module")
def nlcmv_bank(glasses5):
    directions = [DirectionSpec(azimuth=math.radians(a)) for a in (0.0, 90.0, 180.0, 270.0)]
    return design_bank(glasses5, directions + [MOUTH], method="nlcmv", fs=16000, n_fft=512)


class TestBlockProcessor:
    def _stream(self, bank, audio, rng=None):
        proc = BlockProcessor(bank)
        chunks = []
        cursor = 0
        while cursor < audio.shape[1]:
            step = audio.shape[1] if rng is None else int(rng.integers(50, 1500))
            chunks.append(proc.push(audio[:, cursor : cursor + step]))
            cursor += step
        chunks.append(proc.flush())
        return np.concatenate(chunks, axis=1)

    def test_output_independent_of_chunking(self, glasses5, rng):
        directions = [DirectionSpec(azimuth=0.0, elevation=0.0), MOUTH]
        bank = design_bank(glasses5, directions, method="delay_and_sum", fs=16000, n_fft=512)
        audio = rng.standard_normal((5, 20480))
        one_shot = self._stream(bank, audio)
        chunked = self._stream(bank, audio, rng)
        assert one_shot.shape == (2, 20480)
        np.testing.assert_allclose(chunked, one_shot, atol=1e-12)

    def test_interior_matches_offline(self, glasses5, rng):
        """Away from the ramp-in/out edges the streamed output reproduces the
        offline filter bank exactly."""
        directions = [DirectionSpec(azimuth=0.0, elevation=0.0), MOUTH]
        bank = design_bank(glasses5, directions, method="delay_and_sum", fs=16000, n_fft=512)
        audio = rng.standard_normal((5, 20480))
        offline = istft(apply_bank(stft(audio, fs=16000, n_fft=512), bank), num_samples=20480)
        streamed = self._stream(bank, audio, rng)
        core = slice(512, 20480 - 512)
        np.testing.assert_allclose(streamed[:, core], offline[:, core], atol=1e-10)

    def test_nlcmv_bank_interior_matches_offline(self, nlcmv_bank, rng):
        """All five nlcmv beams, streamed in random blocks, reproduce the
        offline chain away from the edges."""
        audio = rng.standard_normal((5, 12000))
        spec = stft(audio, fs=16000, n_fft=512)
        offline = istft(apply_bank(spec, nlcmv_bank), num_samples=audio.shape[1])
        streamed = self._stream(nlcmv_bank, audio, rng)
        assert streamed.shape == (5, 12000)
        core = slice(512, 12000 - 512)
        np.testing.assert_allclose(streamed[:, core], offline[:, core], atol=1e-10)
        again = self._stream(nlcmv_bank, audio, rng)
        np.testing.assert_allclose(again, streamed, atol=1e-12)


class TestWavIo:
    def test_float_roundtrip_bit_exact(self, rng, tmp_path):
        audio = rng.standard_normal((2, 1234)).astype(np.float32).astype(float)
        path = tmp_path / "f32.wav"
        write_wav(path, audio, 16000)
        back, fs = read_wav(path)
        assert fs == 16000
        np.testing.assert_array_equal(back, audio)

    def test_expected_fs_mismatch(self, rng, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, rng.standard_normal(100), 8000)
        with pytest.raises(DataError):
            read_wav(path, expected_fs=16000)
