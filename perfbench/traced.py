"""Traced run: the workload's inputs driven through each module's public
functions, one stage at a time, with spans recorded around every layer call.

Spans live in memory as lists [id, parent, trace, name, start, end] and
are written out as objects with those keys when the run ends. The
``trace`` field names the round; the root span of each stage names the
end-to-end operation it mirrors (design, verify, render, featurize, apply,
stream) and makes the same calls in the same order. Two more stages,
``rir`` and ``covariance``, time work that the program does only inside a
larger call. Counters are recorded at the same boundaries.

Import this module only after run.py has put the checkout's ``src`` on
``sys.path``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

import beambank as bb
from beambank.config import dataset_settings, design_settings, load_config
from beambank.simulate import scene_positions


SPAN_FIELDS = ("id", "parent", "trace", "name", "start", "end")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.scales = {}  # trace -> host-speed scale of that round
        self.trace_id = None
        self._stack = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, n) -> None:
        key = (self.trace_id, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def durations(self) -> dict:
        """(trace, root span name, span name) -> durations (s) of those
        spans, scaled to the nominal host speed of their round."""
        roots, out = [], {}
        # a parent is always recorded before its children
        for _, parent, trace, name, start, end in self.spans:
            root = name if parent is None else roots[parent]
            roots.append(root)
            out.setdefault((trace, root, name), []).append(
                self.scales.get(trace, 1.0) * (end - start)
            )
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [dict(zip(SPAN_FIELDS, s)) for s in self.spans],
                    "counts": [
                        {"trace": t, "name": n, "value": v} for (t, n), v in self.counts.items()
                    ],
                    "scales": self.scales,
                },
                fh,
            )


class _Span:
    """Context manager that records one span; the clock is read last on
    entry and first on exit, so a span holds little of its own cost."""

    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.record = [len(tr.spans), parent, tr.trace_id, self.name, 0.0, None]
        tr.spans.append(self.record)
        tr._stack.append(self.record[0])
        self.record[4] = time.perf_counter()
        return self.record

    def __exit__(self, *exc) -> bool:
        self.record[5] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def _covariance(tr, geometry, nulls, f, sound_speed):
    """One bin's diffuse-plus-nulls covariance, as design_bank and `beambank
    verify` build it (design_nlcmv regularizes its own copy)."""
    with tr.span("noise_model.covariance"):
        return bb.composite_covariance(
            bb.diffuse_covariance_sinc(geometry, f, sound_speed), nulls, geometry, sound_speed
        )


def design(tr: Tracer, config, out_path) -> None:
    """`beambank design` with a span around every layer call: cmd_design and
    the nlcmv path of design_bank, in their order (bin by bin)."""
    config = Path(config)
    with tr.span("design"):
        with tr.span("config.settings"):
            s = design_settings(load_config(config), base_dir=str(config.parent))
        atf_file = s.pop("atf_file")
        geometry, directions, c = s["geometry"], s["directions"], s["sound_speed"]
        nulls = list(s["nulls"])
        atfs = None
        if atf_file is not None:
            with tr.span("geometry.steering"):
                atfs = bb.import_atfs(atf_file)
                rows = [atfs.index_of(d) for d in directions]
        freqs = np.fft.rfftfreq(s["n_fft"], 1.0 / s["fs"])
        shape = (len(directions), freqs.shape[0])
        weights = np.empty(shape + (geometry.num_mics,), dtype=complex)
        fields = {name: np.zeros(shape) for name in ("loading", "constraint", "objective")}
        iterations = np.zeros(shape, dtype=int)
        for fi, f in enumerate(freqs):
            phi = _covariance(tr, geometry, nulls, f, c)
            for di, direction in enumerate(directions):
                with tr.span("geometry.steering"):
                    g = (bb.steering_vector(geometry, direction, f, c) if atfs is None
                         else atfs.steering(rows[di], f))
                with tr.span("beamformer.solve"):
                    w = bb.design_nlcmv(phi, g, s["wng_tolerance"], s["wng_margin"])
                weights[di, fi] = w.weights
                iterations[di, fi] = w.iterations
                for name, values in fields.items():
                    values[di, fi] = getattr(w, name)
        bank = bb.BeamformerBank(
            geometry=geometry, directions=list(directions), frequencies=freqs,
            weights=weights, fs=int(s["fs"]), n_fft=int(s["n_fft"]), method=s["method"],
            nulls=tuple(nulls), sound_speed=float(c),
            wng_tolerance=float(s["wng_tolerance"]), wng_margin=float(s["wng_margin"]),
            atf_source="freefield" if atf_file is None else "file",
            iterations=iterations, **fields,
        )
        tr.count("beamformer.designs", int(bank.loading.size))
        tr.count("beamformer.bisection_steps", int(bank.iterations.sum()))
        tr.count("beamformer.active_designs", int((bank.loading > 0).sum()))
        with tr.span("beamformer.save_bank"):
            bb.save_bank(bank, out_path)


def verify(tr: Tracer, bank_path, atf_file) -> bool:
    """`beambank verify` with a span around every layer call, in
    cmd_verify's order (bin by bin, a steering lookup per design). Returns
    whether every invariant held."""
    with tr.span("verify"):
        with tr.span("beamformer.load_bank"):
            bank = bb.load_bank(bank_path)
        geometry, c = bank.geometry, bank.sound_speed
        atfs = None
        if bank.atf_source == "file":
            with tr.span("geometry.steering"):
                atfs = bb.import_atfs(atf_file)
        ok = True
        for fi, f in enumerate(bank.frequencies):
            f = float(f)
            phi = _covariance(tr, geometry, list(bank.nulls), f, c)
            for di, direction in enumerate(bank.directions):
                with tr.span("geometry.steering"):
                    g = (bb.steering_vector(geometry, direction, f, c) if atfs is None
                         else atfs.steering(atfs.index_of(direction), f))
                entry = bank.entry(di, fi)
                ok &= float(abs(np.vdot(entry.weights, g.entries) - 1.0)) <= 1e-6
                if bank.method != "nlcmv":
                    continue
                with tr.span("beamformer.kkt"):
                    report = bb.verify_kkt(entry, phi, g, bank.wng_margin)
                ok &= (report.constraint_value <= 1e-6 and report.stationarity_ok
                       and report.slackness_ok)
    return ok


def covariance(tr: Tracer, bank) -> None:
    """The design covariance of every bin of ``bank``, regularized once. A
    stage of its own, so that the design and verify stages do exactly the
    CLI's work: the CLI regularizes only inside design_nlcmv, once per
    design."""
    with tr.span("covariance"):
        with tr.span("noise_model.covariance"):
            for f in bank.frequencies:
                bb.regularize(bb.composite_covariance(
                    bb.diffuse_covariance_sinc(bank.geometry, f, bank.sound_speed),
                    list(bank.nulls), bank.geometry, bank.sound_speed,
                ))


def render(tr: Tracer, config, seed: int, out_dir):
    """`beambank dataset --workers 1`, scene by scene (build_dataset and
    render_scene unrolled)."""
    config, out_dir = Path(config), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tr.span("render"):
        with tr.span("config.settings"):
            s = dataset_settings(load_config(config), base_dir=str(config.parent))
        fs = s["fs"]
        clips = bb.ClipSource.from_directory(s["clips_dir"])
        noise = bb.NoiseSource.from_directory(s["noise_dir"])
        geometries = [g for g, _ in s["catalog"]]
        weights = np.array([w for _, w in s["catalog"]], dtype=float)
        with tr.span("simulate.sample_scene"):
            specs = []
            for child in np.random.SeedSequence(seed).spawn(s["count"]):
                rng = np.random.default_rng(child)
                gi = int(rng.choice(len(geometries), p=weights))
                specs.append(bb.sample_scene(rng, [geometries[gi]]))
        by_id = {g.id: g for g in geometries}
        rows = []
        for index, spec in enumerate(specs):
            geometry = by_id[spec.geometry_id]
            with tr.span("simulate.load_clips"):
                rng = np.random.default_rng(spec.seed)
                picks = rng.choice(len(clips), size=min(3, len(clips)), replace=len(clips) < 3)
                own = clips.load(int(picks[0]), fs)
                other = clips.load(int(picks[1 % len(picks)]), fs)
                bystander = (clips.load(int(picks[2 % len(picks)]), fs)
                             if spec.has_bystander else None)
            with tr.span("simulate.compose"):
                composed = bb.compose_scene(spec, geometry, own, other, bystander, fs)
            with tr.span("simulate.mix_noise"):
                noise_audio = noise.load(int(rng.integers(len(noise))), fs)
                composed.audio = bb.mix_noise(
                    composed.audio, noise_audio, spec.snr_db, composed.main_mix, rng, fs
                )
            name = f"scene_{index:05d}.wav"
            with tr.span("dsp.write_wav"):
                bb.write_wav(out_dir / name, composed.audio, fs)
            tr.count("simulate.rendered_audio_s", composed.manifest.num_samples / fs)
            composed.manifest.audio_path = name
            row = composed.manifest.to_dict()
            row["index"] = index
            rows.append(row)
        with tr.span("simulate.manifest"):
            with open(out_dir / "manifest.jsonl", "w", encoding="utf-8") as fh:
                for row in rows:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
    return [(spec, by_id[spec.geometry_id]) for spec in specs], fs


def rirs(tr: Tracer, scenes, fs: int) -> None:
    """The room responses of every rendered scene (mouth, partner and, when
    present, bystander), as compose_scene builds them. A stage of its own,
    so that the render stage does the same work as the CLI."""
    with tr.span("rir"):
        for spec, geometry in scenes:
            with tr.span("simulate.rir"):
                pos = scene_positions(spec, geometry)
                responses = [
                    bb.generate_rir_ism(spec.room, pos["mouth"], pos["mics"], fs, max_order=1),
                    bb.generate_rir_ism(spec.room, pos["partner"], pos["mics"], fs),
                ]
                if spec.has_bystander:
                    responses.append(
                        bb.generate_rir_ism(spec.room, pos["bystander"], pos["mics"], fs)
                    )
            tr.count("simulate.rir_taps", sum(int(r.taps.size) for r in responses))


def featurize(tr: Tracer, manifest, bank_path, out_dir) -> None:
    """`beambank featurize` over a manifest, file by file."""
    manifest, out_dir = Path(manifest), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tr.span("featurize"):
        with tr.span("beamformer.load_bank"):
            bank = bb.load_bank(bank_path)
        with open(manifest, "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        for row in rows:
            if row["geometry_id"] != bank.geometry.id:
                continue
            wav = manifest.parent / row["audio_path"]
            tensor = _steer(tr, wav, bank, featurize=True)
            with tr.span("features.export"):
                bb.export_features(tensor, out_dir / (wav.stem + ".feat"))
            tr.count("features.frames", tensor.num_frames)


def _steer(tr, wav, bank, featurize=False):
    with tr.span("dsp.read_wav"):
        audio, fs = bb.read_wav(wav, expected_fs=bank.fs)
    with tr.span("dsp.stft"):
        spec = bb.stft(audio, fs=fs, n_fft=bank.n_fft, hop=bank.n_fft // 2)
    with tr.span("dsp.apply_bank"):
        steered = bb.apply_bank(spec, bank)
    if featurize:
        with tr.span("features.log_mel"):
            return bb.featurize_bank_output(steered, bank.direction_labels())
    return audio, steered


def apply(tr: Tracer, wav, bank_path, out_path) -> None:
    """`beambank apply`, stage by stage."""
    with tr.span("apply"):
        with tr.span("beamformer.load_bank"):
            bank = bb.load_bank(bank_path)
        audio, steered = _steer(tr, wav, bank)
        with tr.span("dsp.istft"):
            out = bb.istft(steered, num_samples=audio.shape[1])
        with tr.span("dsp.write_wav"):
            bb.write_wav(out_path, out, bank.fs)


def stream(tr: Tracer, bank, blocks) -> None:
    """BlockProcessor.push over ``blocks``, one span per push."""
    proc = bb.BlockProcessor(bank)
    with tr.span("stream"):
        for block in blocks:
            with tr.span("dsp.stream_push"):
                proc.push(block)
        tr.count("dsp.stream_blocks", len(blocks))


# per-layer timing metrics: name -> ((root, span), ...) summed per round
LAYER_SPANS = {
    "config.settings_ms": (("design", "config.settings"), ("render", "config.settings")),
    "geometry.steering_ms": (("design", "geometry.steering"),),
    "noise_model.covariance_ms": (("covariance", "noise_model.covariance"),),
    "beamformer.solve_ms": (("design", "beamformer.solve"),),
    "beamformer.kkt_ms": (("verify", "beamformer.kkt"),),
    "beamformer.bank_io_ms": (("design", "beamformer.save_bank"),
                              ("verify", "beamformer.load_bank")),
    "dsp.read_wav_ms": (("apply", "dsp.read_wav"),),
    "dsp.stft_ms": (("apply", "dsp.stft"),),
    "dsp.apply_bank_ms": (("apply", "dsp.apply_bank"),),
    "dsp.istft_ms": (("apply", "dsp.istft"),),
    "dsp.write_wav_ms": (("apply", "dsp.write_wav"),),
    "features.log_mel_ms": (("featurize", "features.log_mel"),),
    "features.export_ms": (("featurize", "features.export"),),
}
# per-scene averages: name -> (root, span)
SCENE_SPANS = {
    "simulate.sample_scene_ms": ("render", "simulate.sample_scene"),
    "simulate.rir_ms": ("rir", "simulate.rir"),
    "simulate.compose_ms": ("render", "simulate.compose"),
    "simulate.mix_noise_ms": ("render", "simulate.mix_noise"),
}
COUNTS = (
    "beamformer.designs", "beamformer.bisection_steps", "beamformer.active_designs",
    "dsp.stream_blocks", "simulate.rir_taps", "simulate.rendered_audio_s", "features.frames",
)


def layer_metrics(tr: Tracer, rounds: list, scenes: int) -> dict:
    """Median over rounds of every span-derived per-layer metric."""
    durations = tr.durations()
    per_round = {}
    for r in rounds:
        def total(root, name):
            return sum(durations.get((r, root, name), ()))

        values = {}
        for metric, pairs in LAYER_SPANS.items():
            values[metric] = 1e3 * sum(total(root, name) for root, name in pairs)
        for metric, (root, name) in SCENE_SPANS.items():
            values[metric] = 1e3 * total(root, name) / scenes
        values["dsp.stream_push_ms"] = 1e3 * statistics.median(
            durations[(r, "stream", "dsp.stream_push")]
        )
        for name in COUNTS:
            values[name] = tr.counts[(r, name)]
        for metric, value in values.items():
            per_round.setdefault(metric, []).append(value)
    return {m: statistics.median(v) for m, v in per_round.items()}


def root_seconds(tr: Tracer, rounds: list, root: str) -> float:
    """Median over rounds of a stage's root-span duration."""
    durations = tr.durations()
    return statistics.median(sum(durations[(r, root, root)]) for r in rounds)
