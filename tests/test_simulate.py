"""Room impulse responses, scene sampling, composition, and dataset builds."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import process as futures_process
from pathlib import Path

import numpy as np
import pytest

from beambank import cli, dsp, simulate
from beambank.dsp import write_wav
from beambank.errors import DataError
from beambank.geometry import ArrayGeometry
from beambank.simulate import (
    _BLOCK_SIZE,
    ACTIVITY_FLOOR,
    MAX_ORDER,
    MAX_RIR_SECONDS,
    RIR,
    ClipSource,
    NoiseSource,
    RoomSpec,
    SceneManifest,
    SceneSpec,
    _convolve_place,
    _image_lattice,
    _image_sources,
    _span_power,
    build_dataset,
    compose_scene,
    generate_rir_ism,
    mix_noise,
    render_scene,
    sample_room,
    sample_scene,
    scene_positions,
)


def mirror_images_order1(room, source):
    """Independent first-order oracle: one mirror per wall, gain sqrt(1-alpha).

    Returns (position, gain) pairs; the direct path comes first with gain 1.
    """
    dims = room.dimensions
    alpha = np.asarray(room.absorption)
    out = [(np.asarray(source, float), 1.0)]
    for axis in range(3):
        lo = np.array(source, float)
        lo[axis] = -lo[axis]
        out.append((lo, math.sqrt(1.0 - alpha[axis])))
        hi = np.array(source, float)
        hi[axis] = 2.0 * dims[axis] - hi[axis]
        out.append((hi, math.sqrt(1.0 - alpha[axis + 3])))
    return out


def windowed_sinc_place(length, delay, amp):
    """Reference pulse builder used only by tests."""
    out = np.zeros(length)
    center = int(math.floor(delay + 0.5))
    n = np.arange(center - 40, center + 41)
    t = n - delay
    vals = amp * np.sinc(t) * 0.5 * (1.0 + np.cos(2.0 * np.pi * t / 81.0))
    ok = (n >= 0) & (n < length)
    out[n[ok]] += vals[ok]
    return out


def image_sources_direct(room, source, max_order):
    """Reference image builder: the lattice rebuilt for every call."""
    beta = room.reflection_coefficients()
    half = max_order // 2 + 1
    r_axis = np.arange(-half, half + 1)
    r = np.array(list(itertools.product(r_axis, r_axis, r_axis)))
    positions = []
    amplitudes = []
    for p in itertools.product((0, 1), repeat=3):
        p = np.array(p)
        order = np.sum(np.abs(r + p) + np.abs(r), axis=1)
        keep = r[order <= max_order]
        if keep.size == 0:
            continue
        positions.append((1 - 2 * p) * (source + 2.0 * keep * room.dimensions))
        amplitudes.append(
            np.prod(beta[0] ** np.abs(keep + p) * beta[1] ** np.abs(keep), axis=1)
        )
    return np.concatenate(positions), np.concatenate(amplitudes)


class TestRoomSpec:
    def test_scalar_absorption_broadcasts(self):
        room = RoomSpec(dimensions=[6.0, 5.0, 3.0], absorption=0.36)
        np.testing.assert_allclose(room.reflection_coefficients(), 0.8)

    def test_per_wall_absorption(self):
        room = RoomSpec(dimensions=[6, 5, 3], absorption=(0.19, 0.36, 0.51, 0.64, 0.75, 0.84))
        beta = room.reflection_coefficients()
        np.testing.assert_allclose(beta[0], [0.9, 0.8, 0.7])
        np.testing.assert_allclose(beta[1], [0.6, 0.5, 0.4])

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            RoomSpec(dimensions=[6, 5], absorption=0.3)
        with pytest.raises(DataError):
            RoomSpec(dimensions=[6, 5, 3], absorption=1.5)
        with pytest.raises(DataError):
            RoomSpec(dimensions=[6, 5, 3], absorption=0.3, max_order=-1)

    @pytest.mark.parametrize("absorption", [math.nan, (0.3, 0.3, math.nan, 0.3, 0.3, 0.3)])
    def test_nan_absorption_rejected(self, absorption):
        with pytest.raises(DataError, match="absorption"):
            RoomSpec(dimensions=[6, 5, 3], absorption=absorption)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_dimensions_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            RoomSpec(dimensions=[6.0, bad, 3.0], absorption=0.3)

    @pytest.mark.parametrize("order", [MAX_ORDER + 1, 10**9])
    def test_order_cap(self, order):
        RoomSpec(dimensions=[6, 5, 3], absorption=0.3, max_order=MAX_ORDER)
        with pytest.raises(DataError, match="order"):
            RoomSpec(dimensions=[6, 5, 3], absorption=0.3, max_order=order)
        room = RoomSpec(dimensions=[6, 5, 3], absorption=0.3)
        with pytest.raises(DataError, match="order"):
            generate_rir_ism(room, [1.0, 1.0, 1.0], [[2.0, 2.0, 1.0]], 16000, max_order=order)

    def test_sample_room_ranges(self, rng):
        for _ in range(200):
            room = sample_room(rng)
            assert np.all(room.dimensions >= [5.0, 5.0, 2.0])
            assert np.all(room.dimensions <= [10.0, 10.0, 6.0])
            assert 0.2 <= room.absorption[0] <= 0.6
            assert room.max_order == 6


class TestRirIsm:
    def test_integer_delay_is_exact_impulse(self):
        """Source 3.43 m from the mic at 16 kHz: delay exactly 160 samples,
        direct gain 1/(4 pi 3.43); no other tap is touched."""
        room = RoomSpec(dimensions=[20.0, 20.0, 20.0], absorption=0.5)
        rir = generate_rir_ism(
            room, [10.0, 10.0, 10.0], [[13.43, 10.0, 10.0]], 16000, max_order=0
        )
        taps = rir.taps[0]
        assert taps[160] == pytest.approx(0.023200429022142175, abs=1e-15)
        nonzero = np.flatnonzero(np.abs(taps) > 1e-15)
        assert nonzero.tolist() == [160]

    def test_single_reflective_wall_amplitudes(self):
        """With five perfectly absorbing walls only the direct path and the
        x=0 mirror remain; both land on integer delays at fs 3430."""
        room = RoomSpec(
            dimensions=[4.0, 4.0, 4.0], absorption=(0.19, 1, 1, 1, 1, 1), max_order=1
        )
        rir = generate_rir_ism(room, [1.0, 2.0, 2.0], [[3.0, 2.0, 2.0]], 3430)
        taps = rir.taps[0]
        # direct: 2 m -> 20 samples, 1/(8 pi); mirror (-1,2,2): 4 m -> 40
        # samples, 0.9/(16 pi)
        assert taps[20] == pytest.approx(1.0 / (8.0 * math.pi), abs=1e-15)
        assert taps[40] == pytest.approx(0.9 / (16.0 * math.pi), abs=1e-15)
        nonzero = np.flatnonzero(np.abs(taps) > 1e-15)
        assert nonzero.tolist() == [20, 40]

    def test_order1_matches_mirror_oracle(self, rng):
        """Dual route: first-order taps must reproduce, to round-off, the
        superposition built from the per-wall mirror formula."""
        for _ in range(10):
            dims = rng.uniform([5, 5, 2.5], [10, 10, 6])
            room = RoomSpec(
                dimensions=dims, absorption=tuple(rng.uniform(0.2, 0.6, size=6)), max_order=1
            )
            source = rng.uniform(1.0, dims - 1.0)
            mic = rng.uniform(1.0, dims - 1.0)
            fs = 16000
            rir = generate_rir_ism(room, source, [mic], fs)
            expected = np.zeros(rir.taps.shape[1])
            for pos, gain in mirror_images_order1(room, source):
                d = float(np.linalg.norm(pos - mic))
                expected += windowed_sinc_place(
                    expected.shape[0], d / 343.0 * fs, gain / (4 * math.pi * d)
                )
            np.testing.assert_allclose(rir.taps[0], expected, atol=1e-12)

    def test_higher_order_adds_energy(self):
        room = RoomSpec(dimensions=[6, 5, 3], absorption=0.3)
        src, mic = [2.0, 2.5, 1.5], [[4.0, 2.0, 1.6]]
        e = [
            float(np.sum(generate_rir_ism(room, src, mic, 16000, max_order=k).taps ** 2))
            for k in (0, 1, 3, 6)
        ]
        assert e[0] < e[1] < e[2] < e[3]

    def test_source_outside_room_rejected(self):
        room = RoomSpec(dimensions=[4, 4, 4], absorption=0.3)
        with pytest.raises(DataError):
            generate_rir_ism(room, [5.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], 16000)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_rejected(self, bad):
        room = RoomSpec(dimensions=[4, 4, 4], absorption=0.3)
        with pytest.raises(DataError, match="source"):
            generate_rir_ism(room, [bad, 1.0, 1.0], [[1.0, 1.0, 1.0]], 16000)
        with pytest.raises(DataError, match="microphone 1"):
            generate_rir_ism(room, [2.0, 1.0, 1.0], [[1.0, 1.0, 1.0], [1.0, bad, 1.0]], 16000)

    @pytest.mark.parametrize("order", range(9))
    def test_image_sources_equal_direct_builder(self, rng, order):
        for _ in range(3):
            dims = rng.uniform([3.0, 3.0, 2.0], [10.0, 10.0, 6.0])
            room = RoomSpec(
                dimensions=dims, absorption=tuple(rng.uniform(0.1, 0.9, size=6)),
                max_order=order,
            )
            source = rng.uniform(0.5, dims - 0.5)
            positions, amplitudes = _image_sources(room, source, order)
            expected_positions, expected_amplitudes = image_sources_direct(room, source, order)
            np.testing.assert_array_equal(positions, expected_positions)
            np.testing.assert_array_equal(amplitudes, expected_amplitudes)

    @pytest.mark.parametrize("sound_speed", [1e-3, math.nan])
    def test_overlong_response_rejected_before_allocating(self, monkeypatch, sound_speed):
        """A farthest image more than MAX_RIR_SECONDS away fails before
        the taps are allocated; at 0.001 m/s this room would need 23 GiB."""
        room = RoomSpec([6.0, 4.5, 2.8], 0.35, 6)

        def forbidden(*args, **kwargs):
            raise AssertionError(f"np.zeros{args} called")

        monkeypatch.setattr(np, "zeros", forbidden)
        with pytest.raises(DataError, match="capped at"):
            generate_rir_ism(room, [4.5, 2.0, 1.6], [[1.5, 2.2, 1.4]], 16000, sound_speed)

    def test_sampled_rooms_stay_well_under_length_cap(self):
        """The largest room sample_room draws, at order 6, with source and
        mic in opposite corners: a tenth of the cap is left over."""
        room = RoomSpec(simulate.ROOM_DIMS_HIGH, 0.2, simulate.DEFAULT_MAX_ORDER)
        source, mic = np.full(3, 0.5), simulate.ROOM_DIMS_HIGH - 0.5
        rir = generate_rir_ism(room, source, [mic], 16000)
        assert rir.taps.shape[1] < 0.1 * MAX_RIR_SECONDS * 16000

    def test_cached_lattice_is_read_only(self):
        lattice = _image_lattice(3)
        assert _image_lattice(3) is lattice
        for part in lattice:
            with pytest.raises(ValueError, match="read-only"):
                part[0, 0] = 0


class TestSceneSpec:
    def _base(self, **kw):
        args = dict(
            room=RoomSpec(dimensions=[7, 7, 3], absorption=0.4),
            geometry_id="g",
            wearer_position=np.array([3.0, 3.0, 1.2]),
            wearer_yaw=0.3,
            partner_azimuth=0.2,
            partner_distance=1.5,
            bystander_azimuth=2.5,
            bystander_distance=2.0,
            overlap_ratio=0.5,
            snr_db=10,
            seed=7,
        )
        args.update(kw)
        return SceneSpec(**args)

    def test_partner_sector_enforced(self):
        with pytest.raises(DataError):
            self._base(partner_azimuth=math.radians(61.0))
        self._base(partner_azimuth=math.radians(60.0))

    def test_bystander_must_be_outside_sector(self):
        with pytest.raises(DataError):
            self._base(bystander_azimuth=math.radians(45.0))

    def test_overlap_choices(self):
        with pytest.raises(DataError):
            self._base(overlap_ratio=0.3)
        for ratio in (0.0, 0.5):
            assert self._base(overlap_ratio=ratio).overlap_ratio == ratio

    def test_snr_grid(self):
        with pytest.raises(DataError):
            self._base(snr_db=31)
        with pytest.raises(DataError):
            self._base(snr_db=-6)

    def test_bystander_fields_all_or_none(self):
        with pytest.raises(DataError):
            self._base(bystander_azimuth=None)
        spec = self._base(bystander_azimuth=None, bystander_distance=None, overlap_ratio=None)
        assert not spec.has_bystander

    def test_positions_respect_yaw(self, glasses5):
        spec = self._base(wearer_yaw=math.pi / 2, partner_azimuth=0.0)
        pos = scene_positions(spec, glasses5)
        # partner straight ahead of a wearer facing +y
        np.testing.assert_allclose(
            pos["partner"], spec.wearer_position + [0.0, 1.5, 0.0], atol=1e-12
        )
        # mouth offset rotates with the head
        np.testing.assert_allclose(
            pos["mouth"], spec.wearer_position + [0.0, 0.08, -0.06], atol=1e-12
        )


class TestSampleScene:
    def test_draws_satisfy_recipe(self, rng, glasses5, glasses7):
        seen_overlap = set()
        for _ in range(60):
            spec = sample_scene(rng, [glasses5, glasses7])
            assert abs(spec.partner_azimuth) <= math.radians(60.0) + 1e-12
            assert 1.2 <= spec.partner_distance <= 1.8
            assert spec.snr_db in range(-5, 31)
            seen_overlap.add(spec.overlap_ratio)
            if spec.has_bystander:
                assert abs(spec.bystander_azimuth) > math.radians(60.0)
                assert 1.2 <= spec.bystander_distance <= 2.5
            # every placed point respects the wall margin
            pos = scene_positions(spec, glasses5 if spec.geometry_id == glasses5.id else glasses7)
            for key in ("mouth", "partner"):
                assert np.all(pos[key] >= 0.5) and np.all(
                    pos[key] <= spec.room.dimensions - 0.5
                )
        assert seen_overlap == {None, 0.0, 0.5}

    def test_proportions_respected(self, rng, glasses5, glasses7):
        counts = {glasses5.id: 0, glasses7.id: 0}
        for _ in range(300):
            spec = sample_scene(rng, [(glasses5, 0.8), (glasses7, 0.2)])
            counts[spec.geometry_id] += 1
        assert counts[glasses5.id] > counts[glasses7.id] * 2

    def test_bad_proportions_rejected(self, rng, glasses5, glasses7):
        with pytest.raises(DataError):
            sample_scene(rng, [(glasses5, 0.7), (glasses7, 0.7)])


def _spec_for(geometry, rng):
    return sample_scene(rng, [geometry])


class TestComposeScene:
    def test_segments_and_reference(self, rng, glasses5, corpus_dirs):
        clips_dir, _ = corpus_dirs
        clips = ClipSource.from_directory(clips_dir)
        fs = 16000
        spec = None
        while spec is None or not spec.has_bystander:
            spec = _spec_for(glasses5, rng)
        composed = compose_scene(
            spec,
            glasses5,
            clips.load(0, fs),
            clips.load(1, fs),
            clips.load(2, fs),
            fs,
        )
        man = composed.manifest
        assert man.geometry_id == glasses5.id
        assert [s.speaker for s in man.segments if s.speaker != "bystander"] == [
            "self",
            "other",
        ]
        self_seg = next(s for s in man.segments if s.speaker == "self")
        other_seg = next(s for s in man.segments if s.speaker == "other")
        # self starts the scene; the partner overlaps it by 10% of the
        # shorter clip
        assert self_seg.start == 0
        shorter = min(self_seg.end - self_seg.start, other_seg.end - other_seg.start)
        overlap = self_seg.end - other_seg.start
        assert overlap == pytest.approx(0.1 * shorter, abs=1.0)
        # the reference transcript tags speaker changes and drops the
        # bystander
        assert man.reference.startswith("<self> hello there")
        assert "<other>" in man.reference
        assert "bystander" not in man.reference
        assert composed.audio.shape[0] == 5
        assert composed.audio.shape[1] == man.num_samples

    def test_nonoverlapping_bystander_starts_after_main(self, rng, glasses5, corpus_dirs):
        clips_dir, _ = corpus_dirs
        clips = ClipSource.from_directory(clips_dir)
        fs = 16000
        spec = None
        while spec is None or spec.overlap_ratio != 0.0:
            spec = _spec_for(glasses5, rng)
        composed = compose_scene(
            spec, glasses5, clips.load(0, fs), clips.load(1, fs), clips.load(2, fs), fs
        )
        segs = {s.speaker: s for s in composed.manifest.segments}
        main_end = max(segs["self"].end, segs["other"].end)
        assert segs["bystander"].start >= main_end

    def test_half_overlap_straddles_main_end(self, rng, glasses5, corpus_dirs):
        clips_dir, _ = corpus_dirs
        clips = ClipSource.from_directory(clips_dir)
        fs = 16000
        spec = None
        while spec is None or spec.overlap_ratio != 0.5:
            spec = _spec_for(glasses5, rng)
        composed = compose_scene(
            spec, glasses5, clips.load(0, fs), clips.load(1, fs), clips.load(2, fs), fs
        )
        segs = {s.speaker: s for s in composed.manifest.segments}
        main_end = max(segs["self"].end, segs["other"].end)
        by = segs["bystander"]
        inside = min(by.end, main_end) - max(by.start, 0)
        assert inside == pytest.approx(0.5 * (by.end - by.start), abs=2.0)

    def test_bystander_clip_must_match_spec(self, rng, glasses5, corpus_dirs):
        clips_dir, _ = corpus_dirs
        clips = ClipSource.from_directory(clips_dir)
        fs = 16000
        spec = None
        while spec is None or not spec.has_bystander:
            spec = _spec_for(glasses5, rng)
        with pytest.raises(DataError):
            compose_scene(spec, glasses5, clips.load(0, fs), clips.load(1, fs), None, fs)


class TestConvolvePlace:
    @pytest.mark.parametrize("onset", [0, 600])
    def test_equals_direct_convolution_placed_at_onset(self, rng, onset):
        """The 1076 output samples land from ``onset`` on, cut at the end of
        ``total``; the FFT's zero padding adds nothing after them."""
        clip = rng.standard_normal(1000)
        taps = rng.standard_normal((3, 77))
        total = np.zeros((3, 1500))
        _convolve_place(total, clip, RIR("x", taps, 16000), onset)
        direct = np.stack([np.convolve(clip, t) for t in taps])[:, : 1500 - onset]
        end = onset + direct.shape[1]
        np.testing.assert_allclose(total[:, onset:end], direct, atol=1e-12)
        assert not total[:, :onset].any() and not total[:, end:].any()

    # (clip, taps, onset, total length, FFT size and block count the rule
    # picks): a clip of less than one block step, of exactly one, two and
    # three steps; blocks cut at the end of ``total``, or wholly past it and
    # never transformed;
    # and RIRs just below, at and just above half a block, the last of
    # which doubles the block
    @pytest.mark.parametrize(
        "n_clip, n_taps, onset, total_len, size, count",
        [
            (1000, 77, 0, 1076, _BLOCK_SIZE, 1),
            (_BLOCK_SIZE - 299, 300, 0, _BLOCK_SIZE, _BLOCK_SIZE, 1),
            (2 * (_BLOCK_SIZE - 299), 300, 0, 2 * _BLOCK_SIZE, _BLOCK_SIZE, 2),
            (3 * (_BLOCK_SIZE - 999), 1000, 0, 3 * _BLOCK_SIZE, _BLOCK_SIZE, 3),
            (60000, 500, 700, 30000, _BLOCK_SIZE, 2),
            (20000, _BLOCK_SIZE // 2 - 1, 0, 30000, _BLOCK_SIZE, 3),
            (20000, _BLOCK_SIZE // 2, 0, 30000, _BLOCK_SIZE, 3),
            (20000, _BLOCK_SIZE // 2 + 1, 0, 30000, 2 * _BLOCK_SIZE, 1),
        ],
        ids=["short-clip", "one-step", "two-steps", "three-steps", "cut-at-end",
             "below-limit", "at-limit", "above-limit"],
    )
    def test_block_rule_equals_direct_convolution(
        self, rng, monkeypatch, n_clip, n_taps, onset, total_len, size, count
    ):
        """One transform of the taps, then one per block (at one thread, so
        in block order), each of at most a step of the clip."""
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 1)
        calls, rfft = [], np.fft.rfft
        monkeypatch.setattr(
            np.fft, "rfft", lambda a, n, **kw: calls.append((a.shape, n)) or rfft(a, n, **kw)
        )
        clip = rng.standard_normal(n_clip)
        taps = 0.1 * rng.standard_normal((2, n_taps))
        total = np.zeros((2, total_len))
        _convolve_place(total, clip, RIR("x", taps, 16000), onset)
        step = size - n_taps + 1
        blocks = [((min(step, n_clip - i * step),), size) for i in range(count)]
        assert calls == [((2, n_taps), size)] + blocks
        end = min(onset + n_clip + n_taps - 1, total_len)
        direct = np.stack([np.convolve(clip, t)[: end - onset] for t in taps])
        np.testing.assert_allclose(total[:, onset:end], direct, rtol=0, atol=1e-12)
        assert not total[:, :onset].any() and not total[:, end:].any()


def _fail_start(self):
    raise AssertionError(f"thread {self.name} started")


def _block_observer(monkeypatch, fail_at=None):
    """Wrap _convolve_place's block scheduler: the returned list records
    (blocks, threads, the executor's lookahead bound min(2 x threads,
    blocks)) per call, and block ``fail_at`` raises MemoryError."""
    seen, schedule = [], dsp._in_run_order

    def observed(compute, consume, runs, threads):
        seen.append((runs, threads, min(2 * threads, runs)))

        def compute_(i):
            if i == fail_at:
                raise MemoryError(f"block {i}")
            return compute(i)

        schedule(compute_, consume, runs, threads)

    monkeypatch.setattr(dsp, "_in_run_order", observed)
    return seen


class TestConvolveThreads:
    """_convolve_place's blocks on the ordered executor: the bytes never
    depend on the thread count, short clips stay on the calling thread, and
    an error joins every thread before it reaches the caller."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "n_clip, onset, total_len, blocks",
        [(40 * 217 - 50, 300, 40 * 217 + 600, 40), (40 * 217, 0, 20 * 217 + 5, 21)],
        ids=["whole", "cut-at-end"],
    )
    def test_bytes_equal_one_thread_at_any_thread_count(
        self, rng, monkeypatch, threads, n_clip, onset, total_len, blocks
    ):
        """40 blocks of 217 samples, with the interpreter switching threads
        every microsecond; a block added out of order would change the
        bytes."""
        monkeypatch.setattr(simulate, "_BLOCK_SIZE", 256)
        clip = rng.standard_normal(n_clip)
        rir = RIR("x", 0.1 * rng.standard_normal((3, 40)), 16000)
        base = rng.standard_normal((3, total_len))

        def place(cores):
            monkeypatch.setattr(dsp, "_usable_cores", lambda: cores)
            total = base.copy()
            _convolve_place(total, clip, rir, onset)
            return total

        serial = place(1)
        seen = _block_observer(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = place(threads)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.tobytes() == serial.tobytes()
        used = min(threads, blocks // 2)
        assert seen == [(blocks, used, min(2 * used, blocks))]
        end = min(onset + n_clip + 39, total_len)
        direct = np.stack([np.convolve(clip, t)[: end - onset] for t in rir.taps])
        np.testing.assert_allclose(threaded[:, onset:end] - base[:, onset:end], direct,
                                   rtol=0, atol=1e-12)
        unchanged = np.ones(total_len, bool)
        unchanged[onset:end] = False
        assert (threaded[:, unchanged] == base[:, unchanged]).all()

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_fewer_than_four_blocks_start_no_thread(self, rng, monkeypatch, blocks):
        monkeypatch.setattr(dsp, "_usable_cores", lambda: 8)
        monkeypatch.setattr(threading.Thread, "start", _fail_start)
        clip = rng.standard_normal(blocks * (_BLOCK_SIZE - 299))
        taps = 0.1 * rng.standard_normal((2, 300))
        total = np.zeros((2, clip.shape[0] + 299))
        _convolve_place(total, clip, RIR("x", taps, 16000), 0)
        direct = np.stack([np.convolve(clip, t) for t in taps])
        np.testing.assert_allclose(total, direct, atol=1e-12)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_error_in_a_block_reaches_the_caller_with_every_thread_joined(
        self, rng, monkeypatch, threads
    ):
        monkeypatch.setattr(dsp, "_usable_cores", lambda: threads)
        monkeypatch.setattr(simulate, "_BLOCK_SIZE", 256)
        seen = _block_observer(monkeypatch, fail_at=3)
        rir = RIR("x", 0.1 * rng.standard_normal((2, 40)), 16000)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="block 3"):
            _convolve_place(np.zeros((2, 9000)), rng.standard_normal(8000), rir, 0)
        assert seen[0][1] == threads
        assert threading.active_count() == before
        assert not [t for t in threading.enumerate() if t.name.startswith(dsp._THREAD_PREFIX)]

    @pytest.mark.parametrize(
        "workers, cores, share", [(2, 8, 4), (3, 8, 2), (2, 2, 1), (4, 2, 1)]
    )
    def test_pool_initializer_shares_the_cores(
        self, glasses5, corpus_dirs, tmp_path, monkeypatch, workers, cores, share
    ):
        """build_dataset's pool runs dsp._share_cores(workers) in each
        child, which then convolves on cores // workers threads."""
        pools = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                pools.append((initializer, initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(futures_process, "ProcessPoolExecutor", RecordingPool)
        clips_dir, noise_dir = corpus_dirs
        build_dataset(
            [glasses5], ClipSource.from_directory(clips_dir), NoiseSource.from_directory(noise_dir),
            count=workers, fs=16000, seed=5, workers=workers, out_dir=tmp_path / "ds",
        )
        [(initializer, initargs)] = pools
        assert (initializer, initargs) == (dsp._share_cores, (workers,))
        monkeypatch.setattr(dsp, "_core_sharers", 1)  # restored after the test
        monkeypatch.setattr(dsp.os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        assert dsp._usable_cores() == min(cores, dsp.MAX_WORKERS)
        initializer(*initargs)
        assert dsp._usable_cores() == share

    def test_dataset_and_scene_bytes_equal_the_serial_route(
        self, corpus_dirs, tmp_path, monkeypatch
    ):
        """With blocks small enough that every clip has at least four, a
        dataset and a scene rendered at 2 threads write the bytes they
        write at 1."""
        monkeypatch.setattr(simulate, "_BLOCK_SIZE", 1024)
        clips_dir, noise_dir = corpus_dirs
        cfg = tmp_path / "dataset.yaml"
        cfg.write_text(f"geometries:\n- geometry: reference_glasses_5\nclips_dir: {clips_dir}\n"
                       f"noise_dir: {noise_dir}\ncount: 3\nseed: 7\n")
        seen = _block_observer(monkeypatch)
        written = {}
        for threads in (1, 2):
            monkeypatch.setattr(dsp, "_usable_cores", lambda: threads)
            for command in ("dataset", "scene"):
                out = tmp_path / f"{command}_{threads}"
                argv = [command, "--config", str(cfg), "--out", str(out)]
                assert cli.main(argv + (["--workers", "1"] if command == "dataset" else [])) == 0
                written[command, threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {threads for _, threads, _ in seen} == {1, 2}
        assert len(written["dataset", 1]) == 4 and len(written["scene", 1]) == 2
        for command in ("dataset", "scene"):
            assert written[command, 2] == written[command, 1]


def _abs_envelope_span(reference):
    """The active span through an explicit |x| envelope and flatnonzero."""
    envelope = np.max(np.abs(reference), axis=0)
    active = np.flatnonzero(envelope > ACTIVITY_FLOOR * envelope.max())
    return slice(int(active[0]), int(active[-1]) + 1)


class TestActiveSpan:
    @pytest.mark.parametrize("channels", [[0, 1, 2], [1]], ids=["all", "one-channel"])
    def test_equals_abs_envelope_span(self, rng, channels):
        """Signals whose peak and edge samples are negative, active in all
        channels or in one."""
        for _ in range(20):
            reference = np.zeros((3, 3000))
            start, stop = sorted(rng.integers(0, 3000, size=2))
            stop += 1
            reference[channels, start:stop] = rng.standard_normal((len(channels), stop - start))
            reference[channels[-1], [start, stop - 1]] = -1e-3
            reference[channels[0], rng.integers(start, stop)] = -50.0
            span = _span_power(reference)[0]
            assert span == _abs_envelope_span(reference) == slice(int(start), int(stop))


# prints the sha256 of a long mono-noise scene's mix_noise output
_MIX_PROBE = """
import hashlib
import numpy as np
from beambank.simulate import mix_noise
rng = np.random.default_rng(5)
reference = rng.standard_normal((7, 250000))
scene = reference + 0.1 * rng.standard_normal(reference.shape)
noise = rng.standard_normal(60000)
mixed = mix_noise(scene, noise, 5.0, reference, np.random.default_rng(1), 16000)
print(hashlib.sha256(mixed.T.tobytes()).hexdigest())
"""


class TestMixNoise:
    def test_requested_snr_is_achieved(self, rng):
        fs = 16000
        reference = 0.3 * rng.standard_normal((2, fs))
        scene = reference.copy()
        noise = rng.standard_normal(fs // 2)
        for snr in (-5.0, 0.0, 17.0, 30.0):
            mixed = mix_noise(scene, noise, snr, reference, rng, fs)
            added = mixed - scene
            measured = 10.0 * math.log10(
                float(np.mean(reference**2)) / float(np.mean(added**2))
            )
            assert measured == pytest.approx(snr, abs=1e-9)

    @staticmethod
    def _mix_keeps_inputs(rng, noise):
        """mix_noise leaves its noise, scene and reference as they were,
        with the scene as its own reference and with a separate one."""
        fs = 16000
        scene = rng.standard_normal((2, fs))
        reference = 0.5 * scene
        arrays = (noise, scene, reference)
        kept = [a.copy() for a in arrays]
        mix_noise(scene, noise, 10.0, scene, rng, fs)
        mix_noise(scene, noise, 10.0, reference, rng, fs)
        for array, copy in zip(arrays, kept):
            np.testing.assert_array_equal(array, copy)

    def test_multichannel_noise_is_not_written(self, rng):
        self._mix_keeps_inputs(rng, rng.standard_normal((2, 2 * 16000)))

    @pytest.mark.parametrize("samples", [2 * 16000, 5000], ids=["long", "looped"])
    def test_mono_noise_is_not_written(self, rng, samples):
        self._mix_keeps_inputs(rng, rng.standard_normal((1, samples)))

    @staticmethod
    def _parent_mix(scene, noise, snr_db, reference, seed, fs):
        """mix_noise by the earlier whole-array formula: the stacked delayed
        copy of mono noise, and np.mean of squares over it and over the
        reference's active span."""
        m, n = scene.shape
        if noise.shape[0] == 1:
            max_delay = round(simulate.MAX_DECORRELATION_DELAY_S * fs)
            delays = np.random.default_rng(seed).integers(0, max_delay + 1, size=m)
            mono = np.tile(noise[0], math.ceil((n + delays.max()) / noise.shape[1]))
            channels = np.stack([mono[d : d + n] for d in delays])
        else:
            channels = np.tile(noise, (1, math.ceil(n / noise.shape[1])))[:, :n]
        span = _abs_envelope_span(reference)
        p_ref = np.mean(np.square(reference[:, span]))
        p_noise = np.mean(np.square(channels[:, span]))
        scale = math.sqrt(p_ref / (p_noise * 10.0 ** (snr_db / 10.0)))
        return scene + scale * channels, scale * channels

    @pytest.mark.parametrize(
        "channels, samples",
        [(1, 30011), (1, 250000), (7, 250000), (7, 30011)],
        ids=["mono-looped", "mono-long", "multichannel", "multichannel-looped"],
    )
    def test_scale_matches_parent_formula(self, rng, channels, samples):
        """Over a scene of several tiles whose active span starts and ends
        inside it, the noise scale equals the whole-array formula's within
        1e-12 relative (the mix of a zero scene), and the mix of a nonzero
        scene is within 1e-12 of the scaled noise's peak."""
        fs, n = 16000, 4 * simulate._TILE + 1234
        reference = np.zeros((7, n))
        reference[:, 3001 : n - 2777] = 0.2 * rng.standard_normal((7, n - 5778))
        scene = reference + 0.01 * rng.standard_normal((7, n))
        noise = rng.uniform(-1.0, 1.0, (channels, samples))
        for snr in (-5.0, 12.0):
            mixed = mix_noise(np.zeros_like(scene), noise, snr, reference,
                              np.random.default_rng(7), fs)
            _, scaled = self._parent_mix(scene, noise, snr, reference, 7, fs)
            np.testing.assert_allclose(mixed, scaled, rtol=1e-12, atol=0)
            mixed = mix_noise(scene, noise, snr, reference, np.random.default_rng(7), fs)
            expected, _ = self._parent_mix(scene, noise, snr, reference, 7, fs)
            np.testing.assert_allclose(mixed, expected, rtol=0, atol=1e-12 * np.abs(scaled).max())

    @pytest.mark.parametrize("channels", [1, 3], ids=["mono", "multichannel"])
    def test_result_is_interleaved_frames_written_unchanged(self, rng, channels, tmp_path):
        """The float64 (channels, samples) result is the transpose of a
        C-contiguous frame array, and write_wav writes it as it writes a
        C-contiguous copy."""
        scene = rng.standard_normal((3, simulate._TILE + 77))
        mixed = mix_noise(scene, rng.standard_normal((channels, 9000)), 3.0, scene, rng, 16000)
        assert mixed.dtype == np.float64 and mixed.shape == scene.shape
        assert mixed.T.flags.c_contiguous
        write_wav(tmp_path / "a.wav", mixed, 16000)
        write_wav(tmp_path / "b.wav", np.ascontiguousarray(mixed), 16000)
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()

    def test_bytes_do_not_depend_on_blas_threads(self):
        """A 7 x 250000 scene mixed in fresh interpreters at one and at two
        BLAS threads: a noise power from np.dot, which OpenBLAS splits among
        its threads, changed the bytes with the thread count."""
        src = str(Path(simulate.__file__).resolve().parents[1])
        digests = []
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                       OMP_NUM_THREADS=blas_threads, MKL_NUM_THREADS=blas_threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = subprocess.run([sys.executable, "-c", _MIX_PROBE], env=env,
                                 capture_output=True, text=True)
            assert out.returncode == 0, out.stderr
            digests.append(out.stdout)
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("shape", [(1, 16000), (2, 15999)])
    def test_reference_of_another_shape_rejected(self, rng, shape):
        scene, reference = rng.standard_normal((2, 16000)), rng.standard_normal(shape)
        with pytest.raises(DataError, match="reference shape"):
            mix_noise(scene, rng.standard_normal(20000), 10.0, reference, rng, 16000)

    @pytest.mark.parametrize("shape", [(0,), (1, 0), (2, 0)], ids=["1-d", "mono", "two-channel"])
    def test_empty_noise_rejected(self, rng, shape):
        """An empty noise recording was a ZeroDivisionError while looping it."""
        scene = rng.standard_normal((2, 16000))
        with pytest.raises(DataError, match="noise recording has no samples"):
            mix_noise(scene, np.zeros(shape), 10.0, scene, rng, 16000)


class TestRenderAndDataset:
    def test_render_is_deterministic(self, rng, glasses5, corpus_dirs):
        clips_dir, noise_dir = corpus_dirs
        clips = ClipSource.from_directory(clips_dir)
        noise = NoiseSource.from_directory(noise_dir)
        spec = _spec_for(glasses5, rng)
        a = render_scene(spec, glasses5, clips, noise, 16000)
        b = render_scene(spec, glasses5, clips, noise, 16000)
        np.testing.assert_array_equal(a.audio, b.audio)
        assert a.manifest.to_dict() == b.manifest.to_dict()

    def test_build_dataset_writes_manifest_and_audio(
        self, glasses5, corpus_dirs, tmp_path
    ):
        clips_dir, noise_dir = corpus_dirs
        clips = ClipSource.from_directory(clips_dir)
        noise = NoiseSource.from_directory(noise_dir)
        out = tmp_path / "ds"
        manifest_path = build_dataset(
            [glasses5], clips, noise, count=3, fs=16000, seed=11, workers=1, out_dir=out
        )
        rows = [json.loads(line) for line in open(manifest_path)]
        assert [r["index"] for r in rows] == [0, 1, 2]
        for row in rows:
            man = SceneManifest.from_dict(row)
            assert (out / man.audio_path).exists()
            assert man.geometry_id == glasses5.id

    def test_manifest_row_keys_are_the_documented_keys(self, glasses5, corpus_dirs, tmp_path):
        """A written row's keys, its segments' and its scene recipe's are
        those docs/formats.md lists, so a new record field cannot reach the
        file undocumented."""
        doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
        part = doc.split("\n## Scene manifest (`manifest.jsonl`)\n", 1)[1].split("\n## ", 1)[0]
        table = {}
        for line in part.splitlines():
            if line.startswith("| `"):
                keys, meaning = line.split(" | ")[:2]
                table.update(dict.fromkeys(re.findall(r"`(\w+)`", keys), meaning))
        clips_dir, noise_dir = corpus_dirs
        manifest_path = build_dataset(
            [glasses5], ClipSource.from_directory(clips_dir), NoiseSource.from_directory(noise_dir),
            count=3, fs=16000, seed=11, workers=1, out_dir=tmp_path / "ds",
        )
        for row in map(json.loads, manifest_path.read_text().splitlines()):
            assert sorted(row) == sorted(table)
            fields = sorted(re.search(r"\{(.*)\}", table["segments"]).group(1).split(", "))
            assert all(sorted(seg) == fields for seg in row["segments"])
            scene_keys = set(row["scene"]) | set(row["scene"]["room"])
            assert scene_keys == set(re.findall(r"`(\w+)`", table["scene"]))

    @pytest.mark.parametrize(
        "catalog, named",
        [
            (lambda a, b: [(a, math.nan), (b, 0.5)], "proportions"),
            (lambda a, b: [(a, 0.5), (ArrayGeometry(id=a.id, mics=b.mics), 0.5)], "distinct"),
        ],
        ids=["nan-proportion", "duplicate-id"],
    )
    def test_bad_catalog_rejected_before_writing(
        self, glasses5, glasses7, tmp_path, catalog, named
    ):
        """A NaN proportion used to reach rng.choice, and two geometries with
        one id used to render every scene with the last one."""
        out = tmp_path / "ds"
        with pytest.raises(DataError, match=named):
            build_dataset(catalog(glasses5, glasses7), None, None, count=6, out_dir=out)
        assert not out.exists()

    @pytest.mark.parametrize("count", [0, simulate.MAX_SCENES + 1, 10**9])
    def test_count_outside_cap_rejected_before_any_seed(
        self, glasses5, tmp_path, monkeypatch, count
    ):
        """The cap keeps scene names at five digits and acts before the
        per-scene seeds are spawned or any spec is sampled."""
        seeds = []
        monkeypatch.setattr(simulate.np.random, "SeedSequence", lambda *a: seeds.append(a))
        monkeypatch.setattr(simulate, "sample_scene", lambda *a: pytest.fail("scene sampled"))
        out = tmp_path / "ds"
        with pytest.raises(DataError, match=f"dataset count {count} must be 1 to 100000"):
            build_dataset([glasses5], None, None, count=count, out_dir=out)
        assert seeds == [] and not out.exists()

    @pytest.mark.parametrize("count, pools", [(2, [2]), (1, [])])
    def test_starts_no_more_workers_than_scenes(
        self, glasses5, corpus_dirs, tmp_path, monkeypatch, count, pools
    ):
        started = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(futures_process, "ProcessPoolExecutor", RecordingPool)
        clips_dir, noise_dir = corpus_dirs
        build_dataset(
            [glasses5], ClipSource.from_directory(clips_dir), NoiseSource.from_directory(noise_dir),
            count=count, fs=16000, seed=5, workers=8, out_dir=tmp_path / "ds",
        )
        assert started == pools

    def test_composed_route_writes_the_dataset_bytes(self, glasses5, corpus_dirs, tmp_path):
        """compose_scene, mix_noise and write_wav, drawing from each scene's
        rng as render_scene does, write the bytes build_dataset writes, for
        scenes with a bystander and without."""
        clips_dir, noise_dir = corpus_dirs
        clips = ClipSource.from_directory(clips_dir)
        noise = NoiseSource.from_directory(noise_dir)
        build_dataset([glasses5], clips, noise, count=4, fs=16000, seed=3, workers=1,
                      out_dir=tmp_path / "ds")
        kinds = set()
        for index, child in enumerate(np.random.SeedSequence(3).spawn(4)):
            spec_rng = np.random.default_rng(child)
            spec_rng.choice(1, p=[1.0])
            spec = sample_scene(spec_rng, [glasses5])
            kinds.add(spec.has_bystander)
            rng = np.random.default_rng(spec.seed)
            picks = rng.choice(len(clips), size=3, replace=False)
            loaded = [clips.load(int(pick), 16000) for pick in picks]
            composed = compose_scene(spec, glasses5, loaded[0], loaded[1],
                                     loaded[2] if spec.has_bystander else None, 16000)
            noise_audio = noise.load(int(rng.integers(len(noise))), 16000)
            mixed = mix_noise(composed.audio, noise_audio, spec.snr_db, composed.main_mix, rng,
                              16000)
            write_wav(tmp_path / "own.wav", mixed, 16000)
            name = f"scene_{index:05d}.wav"
            assert (tmp_path / "own.wav").read_bytes() == (tmp_path / "ds" / name).read_bytes()
        assert kinds == {False, True}

    def test_build_dataset_reproducible_across_workers(
        self, glasses5, corpus_dirs, tmp_path
    ):
        clips_dir, noise_dir = corpus_dirs
        clips = ClipSource.from_directory(clips_dir)
        noise = NoiseSource.from_directory(noise_dir)
        m1 = build_dataset(
            [glasses5], clips, noise, count=4, fs=16000, seed=5, workers=1,
            out_dir=tmp_path / "w1",
        )
        m2 = build_dataset(
            [glasses5], clips, noise, count=4, fs=16000, seed=5, workers=2,
            out_dir=tmp_path / "w2",
        )
        assert open(m1).read() == open(m2).read()
        for i in range(4):
            a = (tmp_path / "w1" / f"scene_{i:05d}.wav").read_bytes()
            b = (tmp_path / "w2" / f"scene_{i:05d}.wav").read_bytes()
            assert a == b
