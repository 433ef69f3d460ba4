"""The benchmark's workloads and the seeded inputs they run on.

Every input is a function of (workload, seed): the design and dataset
configs, a corpus of speech-like clips with transcripts, noise recordings,
a long multichannel recording for ``apply`` and streaming, and for ``wide``
a steering-vector (ATF) file. Inputs are written with the benchmark's own
WAV and container writers, so no program fault can shape them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import oracle

FS = 16000
# BlockProcessor.push calls per round, on both workloads: enough for a p99
# with at least ten samples beyond it
STREAM_BLOCKS = 1200

# The reference 7-mic glasses layout (device frame, meters) and its default
# 5-mic subset, with the ids the program gives them.
GLASSES7 = np.array(
    [
        [0.020, 0.000, -0.010],
        [0.030, 0.070, 0.010],
        [0.030, -0.070, 0.010],
        [-0.040, 0.075, 0.000],
        [-0.040, -0.075, 0.000],
        [-0.100, 0.078, 0.005],
        [-0.100, -0.078, 0.005],
    ]
)
GEOMETRIES = {
    "reference_glasses_7": ("glasses7", GLASSES7),
    "reference_glasses_5": ("glasses7_sub2-3-4-5-6", GLASSES7[[2, 3, 4, 5, 6]]),
}

# the default mouth point: 8 cm forward of and 6 cm below the array origin
_MOUTH = np.array([0.08, 0.0, -0.06])
MOUTH = {
    "azimuth": math.atan2(_MOUTH[1], _MOUTH[0]),
    "elevation": math.asin(_MOUTH[2] / float(np.linalg.norm(_MOUTH))),
    "range_m": float(np.linalg.norm(_MOUTH)),
}

VOCAB = (
    "hello there how are you doing today the meeting starts at noon could you "
    "pass me that book we should leave before it rains i think so too see you"
).split()


@dataclass(frozen=True)
class Workload:
    """Sizes and settings of one workload; see README.md for the reasons."""

    name: str
    geometry: str            # builtin array the bank is designed for
    looks_deg: tuple         # horizontal look azimuths
    nulls: tuple             # (azimuth_deg, alpha) point nulls
    n_fft: int
    atf_file: bool           # look steering from a file with seeded errors
    catalog: tuple           # (builtin array, proportion) for the dataset
    clip_seconds: tuple      # utterance length range
    num_clips: int
    noise_seconds: float
    scenes: int              # scenes per dataset call
    recording_seconds: float
    block: int               # streaming block size in samples
    repeats: tuple           # (operation, calls per round) for short or jittery stages

    def calls(self, op: str) -> int:
        return dict(self.repeats).get(op, 1)

    @property
    def geometry_id(self) -> str:
        return GEOMETRIES[self.geometry][0]

    @property
    def mics(self) -> np.ndarray:
        return GEOMETRIES[self.geometry][1]

    @property
    def freqs(self) -> np.ndarray:
        return np.arange(self.n_fft // 2 + 1) * FS / self.n_fft

    def directions(self) -> list:
        """Bank directions as the program stores them: the looks, wrapped to
        (-pi, pi], then the mouth."""
        looks = []
        for deg in self.looks_deg:
            az = math.radians(deg)
            az -= 2.0 * math.pi * math.floor((az + math.pi) / (2.0 * math.pi))
            if az <= -math.pi:
                az += 2.0 * math.pi
            looks.append({"azimuth": az, "elevation": 0.0, "range_m": None})
        return looks + [dict(MOUTH)]

    def null_specs(self) -> list:
        """(direction, weight, psd) triples for the oracle covariance."""
        return [
            ({"azimuth": math.radians(az), "elevation": 0.0, "range_m": None}, alpha, 1.0)
            for az, alpha in self.nulls
        ]


WORKLOADS = {
    "reference": Workload(
        name="reference",
        geometry="reference_glasses_5",
        looks_deg=(0.0, 90.0, 180.0, 270.0),
        nulls=(),
        n_fft=512,
        atf_file=False,
        catalog=(("reference_glasses_5", 0.8), ("reference_glasses_7", 0.2)),
        clip_seconds=(1.0, 2.0),
        num_clips=12,
        noise_seconds=4.0,
        scenes=24,
        recording_seconds=20.0,
        block=256,
        repeats=(("verify", 3), ("apply", 3), ("stream", 4)),
    ),
    "wide": Workload(
        name="wide",
        geometry="reference_glasses_7",
        looks_deg=(0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0),
        nulls=((-90.0, 10.0),),
        n_fft=1024,
        atf_file=True,
        catalog=(("reference_glasses_5", 0.2), ("reference_glasses_7", 0.8)),
        clip_seconds=(6.0, 8.0),
        num_clips=8,
        noise_seconds=10.0,
        scenes=12,
        recording_seconds=30.0,
        block=1024,
        repeats=(("verify", 3), ("render_w2", 2), ("stream", 4)),
    ),
}


def look_steering(wl: Workload, seed: int) -> np.ndarray:
    """(K+1, F, M) look steering vectors: free field for ``reference``; for
    ``wide`` free field times seeded per-mic gain and phase errors."""
    g = np.stack([oracle.steering(wl.mics, d, wl.freqs) for d in wl.directions()])
    if wl.atf_file:
        rng = np.random.default_rng([seed, 7])
        m = wl.mics.shape[0]
        gain = np.exp(rng.normal(0.0, 0.1, size=m))
        phase = rng.normal(0.0, 0.05, size=m)
        g = g * (gain * np.exp(1j * phase))[None, None, :]
    return g


def _speech_like(rng, seconds: float) -> np.ndarray:
    """A voiced, syllable-modulated harmonic signal plus a little noise."""
    n = int(seconds * FS)
    t = np.arange(n) / FS
    f0 = rng.uniform(100.0, 220.0) * (1.0 + 0.1 * np.sin(2 * np.pi * rng.uniform(0.5, 2.0) * t))
    phase = 2 * np.pi * np.cumsum(f0) / FS
    voiced = sum(np.sin(h * phase) / h for h in range(1, 9))
    syllables = 0.5 * (1.0 - np.cos(2 * np.pi * rng.uniform(3.0, 5.0) * t))
    edge = np.minimum(1.0, np.minimum(t, t[::-1]) * 20.0)
    return 0.05 * edge * syllables * voiced + 0.003 * rng.standard_normal(n)


def _yaml_list(values) -> str:
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


def design_config(wl: Workload, atf_name: str | None) -> str:
    lines = [
        f"geometry: {wl.geometry}",
        "method: nlcmv",
        "directions:",
        f"  horizontal: {_yaml_list(wl.looks_deg)}",
        f"fs: {FS}",
        f"n_fft: {wl.n_fft}",
    ]
    if wl.nulls:
        lines.append("nulls:")
        for az, alpha in wl.nulls:
            lines += [f"- azimuth: {float(az)!r}", f"  alpha: {float(alpha)!r}"]
    if atf_name is not None:
        lines += ["atf_source: file", f"atf_file: {atf_name}"]
    return "\n".join(lines) + "\n"


def dataset_config(catalog, count: int, seed: int) -> str:
    lines = ["geometries:"]
    for name, proportion in catalog:
        lines += [f"- geometry: {name}", f"  proportion: {float(proportion)!r}"]
    lines += [
        "clips_dir: clips",
        "noise_dir: noise",
        f"count: {count}",
        f"fs: {FS}",
        f"seed: {seed}",
    ]
    return "\n".join(lines) + "\n"


@dataclass
class Inputs:
    """Paths of one workload's generated inputs, and the arrays the checks
    compare against."""

    design_cfg: Path
    atf: Path | None
    dataset_cfg: Path
    recording: Path
    warm_design_cfg: Path
    warm_dataset_cfg: Path
    warm_recording: Path
    look_steering: np.ndarray
    recording_audio: np.ndarray


def synthesize(wl: Workload, seed: int, root: Path) -> Inputs:
    """Write every input of (workload, seed) under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "clips").mkdir(exist_ok=True)
    (root / "noise").mkdir(exist_ok=True)
    rng = np.random.default_rng([seed, 1])

    for i in range(wl.num_clips):
        oracle.write_wav(root / "clips" / f"utt{i:03d}.wav",
                         _speech_like(rng, rng.uniform(*wl.clip_seconds)), FS)
        words = rng.choice(VOCAB, size=int(rng.integers(3, 9)))
        (root / "clips" / f"utt{i:03d}.txt").write_text(" ".join(words) + "\n", encoding="utf-8")
    for i in range(2):
        n = int(wl.noise_seconds * FS)
        hum = 0.02 * np.sin(2 * np.pi * rng.uniform(50.0, 120.0) * np.arange(n) / FS)
        oracle.write_wav(root / "noise" / f"noise{i}.wav", hum + 0.02 * rng.standard_normal(n), FS)

    g = look_steering(wl, seed)
    atf = None
    if wl.atf_file:
        atf = root / "looks.atf"
        header = {
            "magic": "beambank-atf-v1",
            "id": wl.geometry_id,
            "num_mics": int(wl.mics.shape[0]),
            "frequencies": wl.freqs.tolist(),
            "directions": [
                {k: v for k, v in d.items() if v is not None} for d in wl.directions()
            ],
        }
        oracle.write_container(atf, header, g, "<c16")

    design_cfg = root / "design.yaml"
    design_cfg.write_text(design_config(wl, None if atf is None else atf.name), encoding="utf-8")
    dataset_cfg = root / "dataset.yaml"
    dataset_cfg.write_text(dataset_config(wl.catalog, wl.scenes, seed), encoding="utf-8")

    # a talker reaching each mic with its own integer delay, plus sensor noise
    m = wl.mics.shape[0]
    n = int(wl.recording_seconds * FS)
    talker = _speech_like(rng, wl.recording_seconds + 0.01)
    delays = rng.integers(0, 16, size=m)
    recording = np.stack([talker[d:d + n] for d in delays]) + 0.002 * rng.standard_normal((m, n))
    recording_path = root / "recording.wav"
    oracle.write_wav(recording_path, recording, FS)

    # miniature inputs for the warm-up calls: same arrays and code paths
    warm_design_cfg = root / "warm_design.yaml"
    warm_design_cfg.write_text(
        design_config(replace(wl, n_fft=64), None),
        encoding="utf-8",
    )
    warm_dataset_cfg = root / "warm_dataset.yaml"
    warm_dataset_cfg.write_text(
        dataset_config(((wl.geometry, 1.0),), 1, seed), encoding="utf-8"
    )
    warm_recording = root / "warm_recording.wav"
    oracle.write_wav(warm_recording, recording[:, :FS], FS)

    return Inputs(
        design_cfg=design_cfg,
        atf=atf,
        dataset_cfg=dataset_cfg,
        recording=recording_path,
        warm_design_cfg=warm_design_cfg,
        warm_dataset_cfg=warm_dataset_cfg,
        warm_recording=warm_recording,
        look_steering=g,
        recording_audio=oracle.read_wav(recording_path)[0],
    )
