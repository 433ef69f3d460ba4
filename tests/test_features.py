"""Log-mel features, corpus statistics, normalization."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beambank import dsp, features
from beambank.beamformer import design_bank
from beambank.dsp import _run_frames, apply_bank, stft
from beambank.errors import DataError, GridMismatchError, ParseError
from beambank.features import (
    CorpusStats,
    FeatureTensor,
    _filterbank,
    accumulate_stats,
    export_features,
    featurize_audio,
    featurize_bank_output,
    hz_to_mel,
    import_features,
    load_stats,
    log_mel,
    mel_filterbank,
    mel_to_hz,
    normalize,
    save_stats,
)
from beambank.geometry import DirectionSpec

MOUTH = DirectionSpec(azimuth=0.0, elevation=-0.6435011087932844, range_m=0.1)


class TestMelScale:
    def test_known_point(self):
        # the HTK mel scale is nearly fixed-point at 1 kHz
        assert hz_to_mel(1000.0) == pytest.approx(999.9855371396244, abs=1e-9)

    def test_inverse(self):
        f = np.linspace(10.0, 7990.0, 50)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)

    def test_monotonic(self):
        m = hz_to_mel(np.linspace(0, 8000, 100))
        assert np.all(np.diff(m) > 0)


def _mel_centers(num_filters, fs):
    """The triangle apexes: num_filters points equally spaced in mel
    strictly between 0 Hz and fs/2."""
    edges = np.linspace(hz_to_mel(0.0), hz_to_mel(fs / 2.0), num_filters + 2)
    return mel_to_hz(edges[1:-1])


class TestFilterbank:
    def test_shape_and_unit_peaks(self):
        fb = mel_filterbank(80, 512, 16000)
        assert fb.shape == (80, 257)
        assert np.all(fb >= 0) and np.all(fb <= 1.0)
        # apex normalization: on a dense grid every triangle's sampled peak
        # approaches 1 regardless of its bandwidth (area-normalized variants
        # would spread peaks over an order of magnitude)
        dense = mel_filterbank(80, 8192, 16000)
        assert dense.max(axis=1).min() > 0.9
        assert dense.max() <= 1.0

    def test_centers_span_the_band(self):
        centers = _mel_centers(80, 16000)
        assert centers.shape == (80,)
        assert np.all(np.diff(centers) > 0)
        assert centers[0] > 0
        assert centers[-1] < 8000
        # mel spacing between adjacent centers is constant
        mels = hz_to_mel(centers)
        np.testing.assert_allclose(np.diff(mels), np.diff(mels)[0], rtol=1e-9)

    def test_triangles_peak_at_centers(self):
        fb = mel_filterbank(80, 512, 16000)
        centers = _mel_centers(80, 16000)
        freqs = np.fft.rfftfreq(512, 1.0 / 16000)
        for i in (0, 20, 60, 79):
            peak_bin = int(np.argmax(fb[i]))
            # the discrete peak sits within one bin of the analytic center
            assert abs(freqs[peak_bin] - centers[i]) <= 16000 / 512 + 1e-9


class TestLogMel:
    def test_silence_hits_the_floor(self):
        spec = stft(np.zeros(8000), fs=16000, n_fft=512)
        feats = log_mel(spec.data[0], 16000)
        np.testing.assert_allclose(feats, math.log(1e-10), atol=1e-12)
        assert math.log(1e-10) == pytest.approx(-23.025850929940457, abs=1e-12)

    def test_amplitude_doubling_adds_log_four(self, rng):
        audio = rng.standard_normal(16000)
        a = log_mel(stft(audio, fs=16000, n_fft=512).data[0], 16000)
        b = log_mel(stft(2.0 * audio, fs=16000, n_fft=512).data[0], 16000)
        np.testing.assert_allclose(b - a, math.log(4.0), atol=1e-9)
        assert math.log(4.0) == pytest.approx(1.3862943611198906, abs=1e-15)

    def test_shapes(self, rng):
        spec = stft(rng.standard_normal((3, 8000)), fs=16000, n_fft=512)
        tensor = featurize_bank_output(spec, ["az0", "az90", "mouth"])
        assert tensor.data.shape == (spec.num_frames, 3, 80)
        assert tensor.data.dtype == np.float32
        assert tensor.direction_labels == ["az0", "az90", "mouth"]

    def test_stack_equals_per_channel_loop(self, rng):
        """One call on a (channels, frames, bins) stack equals the
        per-channel calls bit for bit, and so does featurize's tensor."""
        spec = stft(rng.standard_normal((3, 8000)), fs=16000, n_fft=512)
        per_channel = np.stack([log_mel(spec.data[k], 16000) for k in range(3)])
        np.testing.assert_array_equal(log_mel(spec.data, 16000), per_channel)
        tensor = featurize_bank_output(spec, ["az0", "az90", "mouth"])
        np.testing.assert_array_equal(
            tensor.data, per_channel.swapaxes(0, 1).astype(np.float32)
        )

    def test_label_count_must_match(self, rng):
        spec = stft(rng.standard_normal((3, 8000)), fs=16000, n_fft=512)
        with pytest.raises(DataError):
            featurize_bank_output(spec, ["az0"])


class TestFilterbankCache:
    def test_cached_filterbank_is_read_only(self):
        fb = _filterbank(512, 16000)
        assert not fb.flags.writeable
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0
        np.testing.assert_array_equal(fb, mel_filterbank(80, 512, 16000))

    def test_built_once_per_grid(self, rng):
        spec = stft(rng.standard_normal(4000), fs=16000, n_fft=256)
        log_mel(spec.data, 16000)
        before = _filterbank.cache_info()
        log_mel(spec.data, 16000)
        after = _filterbank.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_public_filterbank_is_fresh_and_writable(self, rng):
        spec = stft(rng.standard_normal(8000), fs=16000, n_fft=512)
        expected = log_mel(spec.data, 16000)
        fb = mel_filterbank(80, 512, 16000)
        assert fb.flags.writeable
        assert fb is not mel_filterbank(80, 512, 16000)
        fb[:] = 0.0
        np.testing.assert_array_equal(log_mel(spec.data, 16000), expected)


@pytest.fixture(scope="module")
def banks(glasses5, glasses7):
    """The 5-mic reference bank and a 7-mic bank of 8 looks plus the mouth."""
    looks5 = [DirectionSpec(azimuth=math.radians(a)) for a in (0.0, 90.0, 180.0, 270.0)]
    looks7 = [DirectionSpec(azimuth=math.radians(a)) for a in range(0, 360, 45)]
    return {
        "reference-5": design_bank(glasses5, looks5 + [MOUTH], fs=16000, n_fft=512),
        "glasses-7x9": design_bank(glasses7, looks7 + [MOUTH], fs=16000, n_fft=1024),
    }


class TestFeaturizeWithBank:
    @pytest.mark.parametrize("seconds", [None, 3.0], ids=["n_fft-samples", "3s"])
    @pytest.mark.parametrize("name", ["reference-5", "glasses-7x9"])
    def test_equals_apply_then_featurize(
        self, banks, rng, monkeypatch, whole_signal_features, name, seconds
    ):
        """featurize_audio's batched steering product gives what apply_bank's
        einsum and featurize_bank_output give, up to float64 rounding."""
        bank = banks[name]
        n = bank.n_fft if seconds is None else int(seconds * bank.fs)
        spec = stft(0.1 * rng.standard_normal((bank.num_mics, n)), bank.fs, bank.n_fft)
        mels = []  # the float64 log-mel each route computes

        def spy(*args, **kwargs):
            mels.append(log_mel(*args, **kwargs))
            return mels[-1]

        monkeypatch.setattr(features, "log_mel", spy)
        expected = featurize_bank_output(apply_bank(spec, bank), bank.direction_labels())
        got = whole_signal_features(spec, bank)
        np.testing.assert_allclose(mels[1], mels[0], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got, expected.data)
        assert got.shape == (spec.num_frames, bank.num_directions, 80)

    @pytest.mark.parametrize(
        "channels, fs, n_fft",
        [(4, 16000, 512), (5, 8000, 512), (5, 16000, 256)],
        ids=["channels", "fs", "n_fft"],
    )
    def test_grid_mismatch_rejected_by_both_routes(self, banks, rng, channels, fs, n_fft):
        bank = banks["reference-5"]
        spec = stft(rng.standard_normal((channels, 4000)), fs, n_fft)
        with pytest.raises(GridMismatchError):
            apply_bank(spec, bank)

    @pytest.mark.parametrize("frames", [3, 94, 300])
    def test_log_mel_reads_frequency_major_view_in_place(self, rng, frames):
        """log_mel of a (K, T, F) view of an (F, K, T) array equals log_mel of
        its contiguous copy. Below a few dozen frames a BLAS library may run
        the two layouts through different small-product kernels, which
        round differently in the last bit."""
        freq_major = rng.standard_normal((257, 5, frames)) + 1j * rng.standard_normal(
            (257, 5, frames)
        )
        view = freq_major.transpose(1, 2, 0)
        got, expected = log_mel(view, 16000), log_mel(np.ascontiguousarray(view), 16000)
        if frames < 32:
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(got, expected)


class TestFeaturizeAudio:
    @settings(max_examples=40, deadline=None)
    @given(
        channels=st.integers(1, 7),
        n_fft=st.sampled_from([64, 128, 256, 512, 1024]),
        runs=st.integers(0, 3),
        frame_offset=st.integers(-1, 1),
        extra=st.floats(0.0, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_whole_signal_route(
        self, random_bank, whole_signal_features, channels, n_fft, runs, frame_offset, extra, seed
    ):
        """The whole-signal stft(x) steered and featurized in one batch, for
        exactly n_fft samples, one run or several, and a run boundary +-1
        frame. A run's batched products may round the last float64 bit
        differently, so a float32 value may differ by one unit in the last
        place."""
        rng = np.random.default_rng(seed)
        bank = random_bank(rng, channels, n_fft)
        hop = n_fft // 2
        frames = max(3, runs * _run_frames(channels, n_fft) + frame_offset)
        x = rng.standard_normal((channels, (frames - 1) * hop + int(extra * hop)))

        spec = stft(x, 16000, n_fft, hop)
        whole = whole_signal_features(spec, bank)
        got = featurize_audio(x, bank)
        assert got.data.shape == whole.shape
        np.testing.assert_array_max_ulp(got.data, whole, maxulp=1)
        assert got.frame_rate == spec.frame_rate
        assert got.direction_labels == bank.direction_labels()

    def test_log_mel_sees_one_run_at_a_time(self, random_bank, rng, monkeypatch):
        bank = random_bank(rng, 3, 64)
        run = _run_frames(3, 64)
        x = rng.standard_normal((3, 2 * run * 32 + 100))  # two runs and a part
        frames, mel = [], features._power_log_mel

        def spy(power, fs):
            frames.append(power.shape[1])
            return mel(power, fs)

        monkeypatch.setattr(features, "_power_log_mel", spy)
        tensor = featurize_audio(x, bank)
        assert frames == [run, run, tensor.num_frames - 2 * run]
        assert tensor.data.dtype == np.float32 and tensor.data.flags.c_contiguous

    def test_short_input_and_channel_mismatch_rejected(self, random_bank, rng):
        bank = random_bank(rng, 2, 64)
        with pytest.raises(DataError, match="need at least n_fft = 64 samples, got 63"):
            featurize_audio(rng.standard_normal((2, 63)), bank)
        with pytest.raises(DataError, match="3-channel input vs 2-mic bank"):
            featurize_audio(rng.standard_normal((3, 640)), bank)


def _one_thread_bytes(monkeypatch, x, bank):
    """featurize_audio's bytes with every run on the calling thread."""
    with monkeypatch.context() as patch:
        patch.setattr(dsp, "_usable_cores", lambda: 1)
        return featurize_audio(x, bank).data.tobytes()


class TestFeaturizeThreads:
    """featurize_audio's runs on a pool of threads: the bytes never depend on
    the thread count, the mel product stays on the calling thread, a slow
    run stalls nothing, and an error stops and joins every thread before it
    reaches the caller."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "runs, frame_offset",
        [(0, 0), (1, 1), (3, -1), (3, 0), (3, 1)],
        ids=["one-run", "two-runs", "boundary-1", "boundary", "boundary+1"],
    )
    @pytest.mark.parametrize("extra", [0, 31])
    def test_bytes_equal_one_thread_result_at_any_thread_count(
        self, random_bank, rng, monkeypatch, run_observer, threads, runs, frame_offset, extra
    ):
        """One run (both padded ends in it), fewer runs than threads, and a
        run boundary +-1 frame, where the first and last runs reach into
        the padding at either end."""
        bank = random_bank(rng, 3, 64)
        frames = max(3, runs * _run_frames(3, 64) + frame_offset)
        x = rng.standard_normal((3, (frames - 1) * 32 + extra))
        expected = _one_thread_bytes(monkeypatch, x, bank)
        monkeypatch.setattr(dsp, "_usable_cores", lambda: threads)
        seen = run_observer()
        assert featurize_audio(x, bank).data.tobytes() == expected
        assert seen["runs"] == max(1, runs + (frame_offset > 0))
        assert seen["threads"] == min(threads, seen["runs"])
        assert seen["mel"] == seen["runs"]

    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_many_runs_under_fast_thread_switching(self, random_bank, rng, monkeypatch,
                                                   run_observer, threads):
        """40 runs of 5 frames, with the interpreter switching threads every
        microsecond: a run stored out of order or from power still being
        written would change the bytes, and at most 2 x threads runs are
        computed and not yet stored."""
        monkeypatch.setattr(dsp, "_run_frames", lambda num_mics, n_fft: 5)
        bank = random_bank(rng, 2, 64)
        x = rng.standard_normal((2, 199 * 32 + 7))
        expected = _one_thread_bytes(monkeypatch, x, bank)
        monkeypatch.setattr(dsp, "_usable_cores", lambda: threads)
        seen = run_observer()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = featurize_audio(x, bank)
        finally:
            sys.setswitchinterval(interval)
        assert got.data.tobytes() == expected
        assert (seen["runs"], seen["depth"], seen["mel"]) == (40, 2 * threads, 40)
        assert seen["lookahead"] <= seen["depth"]

    def test_slow_first_run_stalls_nothing(self, random_bank, rng, monkeypatch, run_observer,
                                           bounded):
        """The first run sleeps while the others race ahead: they stop at
        2 x threads runs ahead, and the call finishes with the same bytes."""
        monkeypatch.setattr(dsp, "_run_frames", lambda num_mics, n_fft: 4)
        bank = random_bank(rng, 2, 64)
        x = rng.standard_normal((2, 30 * 4 * 32))
        expected = _one_thread_bytes(monkeypatch, x, bank)
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 3)
        seen = run_observer(lambda i: time.sleep(0.3) if i == 0 else None)
        assert bounded(lambda: featurize_audio(x, bank)).data.tobytes() == expected
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
            bounded(lambda: featurize_audio(rng.standard_normal((2, 40 * 4 * 32)), bank))
        assert threading.active_count() == before
        assert seen["lookahead"] <= seen["depth"]

    def test_interrupt_in_the_caller_joins_every_thread(self, random_bank, rng, monkeypatch,
                                                        run_observer, bounded):
        """A KeyboardInterrupt in the third mel product, on the calling
        thread, while the other threads steer runs ahead."""
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 2)
        monkeypatch.setattr(dsp, "_run_frames", lambda num_mics, n_fft: 4)
        mel, calls = features._power_log_mel, []

        def interrupted(power, fs):
            calls.append(1)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return mel(power, fs)

        monkeypatch.setattr(features, "_power_log_mel", interrupted)
        seen = run_observer()
        bank = random_bank(rng, 2, 64)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            bounded(lambda: featurize_audio(rng.standard_normal((2, 40 * 4 * 32)), bank))
        assert threading.active_count() == before
        assert (seen["consumed"], len(calls)) == (2, 3)

    def test_threads_steer_runs_and_the_caller_alone_takes_the_mel_product(
        self, random_bank, rng, monkeypatch, run_observer
    ):
        """At three usable cores two threads named with the prefix steer
        runs beside the calling thread (every run sleeps, the first one
        longest, so each thread takes runs), and every mel product runs on
        the calling thread."""
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 3)
        names = set()

        def hook(i):
            names.add(threading.current_thread().name)
            time.sleep(0.2 if i == 0 else 0.02)

        seen = run_observer(hook)
        bank = random_bank(rng, 2, 64)
        featurize_audio(rng.standard_normal((2, 6 * _run_frames(2, 64) * 32)), bank)
        assert seen["threads"] == 3
        caller = threading.current_thread().name
        assert sorted(names - {caller}) == [f"{dsp._THREAD_PREFIX}-{w}" for w in (1, 2)]
        assert seen["mel"] == seen["runs"]


def _random_tensor(rng, frames):
    data = rng.normal(loc=2.0, scale=3.0, size=(frames, 2, 80)).astype(np.float32)
    return FeatureTensor(data=data, frame_rate=62.5, direction_labels=["az0", "mouth"])


class TestCorpusStats:
    def test_matches_direct_computation(self, rng):
        """Dual route: streaming moments vs a flat numpy mean/var over the
        concatenated frames."""
        tensors = [_random_tensor(rng, n) for n in (31, 57, 8)]
        stats = accumulate_stats(tensors)
        flat = np.concatenate([t.data.astype(np.float64) for t in tensors], axis=0)
        np.testing.assert_allclose(stats.mean, flat.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(stats.variance, flat.var(axis=0), atol=1e-10)
        assert stats.count == 96

    def test_normalize_centers_the_corpus(self, rng):
        tensors = [_random_tensor(rng, 64) for _ in range(3)]
        stats = accumulate_stats(tensors)
        normed = np.concatenate([normalize(t, stats).data for t in tensors], axis=0)
        assert abs(float(normed.mean())) < 1e-6
        assert float(normed.var()) == pytest.approx(1.0, abs=1e-3)

    def test_save_load_roundtrip(self, rng, tmp_path):
        stats = accumulate_stats([_random_tensor(rng, 40)])
        path = tmp_path / "stats.json"
        save_stats(stats, path)
        back = load_stats(path)
        np.testing.assert_array_equal(back.mean, stats.mean)
        # the file stores variance; m2 is reconstructed as variance * count
        np.testing.assert_allclose(back.variance, stats.variance, rtol=1e-12)
        assert back.count == stats.count

    @pytest.mark.parametrize("blob", [b"\xff\xfe{}", b"[" * 100000], ids=["not-utf8", "deep"])
    def test_undecodable_file_is_a_parse_error(self, tmp_path, blob):
        path = tmp_path / "stats.json"
        path.write_bytes(blob)
        with pytest.raises(ParseError):
            load_stats(path)


class TestFeatureIo:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        tensor = _random_tensor(rng, 33)
        path = tmp_path / "x.feat"
        export_features(tensor, path)
        back = import_features(path)
        np.testing.assert_array_equal(back.data, tensor.data)
        assert back.direction_labels == tensor.direction_labels
        assert back.frame_rate == tensor.frame_rate

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "bad.feat"
        p.write_bytes(b"\x00" * 64)
        with pytest.raises(DataError):
            import_features(p)
