"""beambank pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

``--trace 0`` times what a user runs (CLI commands in-process through
``beambank.cli.main``, streaming through ``BlockProcessor``, and a fresh
interpreter for ``beambank --help``) in interleaved rounds and prints the
end-to-end metrics. ``--trace 1`` drives the same inputs through each
module's public functions with spans around every layer call and prints the
per-layer metrics. Both check every output against the oracle module, write
a report (environment, per-round samples, checks) and, when traced, the
spans under ``.perfbench/`` in the checkout, and print as the last stdout
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See perfbench/README.md for the timing rules.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# At most nproc (2) busy threads: two dataset workers, never BLAS pools on
# top. Settings from the caller's shell must not steer the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [k for k in os.environ if k.startswith("BEAMBANK_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

from workloads import STREAM_BLOCKS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_SAMPLES = 3  # this process's set-up, then fresh interpreters'
MIN_ROUNDS = {0: 3, 1: 2}
STREAM_CHECK_BLOCK = 1000  # a second block size, not a divisor of any n_fft
TAIL_SAMPLES = 10  # samples that must lie beyond a reported tail percentile
HELP_CODE = "import sys; from beambank.cli import main; sys.exit(main())"
IMPORTTIME_CODE = "import beambank.cli"
SUBPROCESS_TIMEOUT = 60
# The calibration kernel's median time on the reference host (2-core x86-64,
# Python 3.11, numpy 2.4); scaled times read as seconds at that speed.
KERNEL_NOMINAL_S = 9.0e-3

END_TO_END_UNITS = {
    "setup_s": "s", "cli_start_s": "s", "design_s": "s", "verify_s": "s",
    "render_w1_scenes_per_s": "scenes/s", "render_w2_scenes_per_s": "scenes/s",
    "featurize_audio_s_per_s": "audio-s/s", "apply_audio_s_per_s": "audio-s/s",
    "stream_block_p50_ms": "ms", "stream_block_p99_ms": "ms", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "beamformer.designs": "count", "beamformer.bisection_steps": "count",
    "beamformer.active_designs": "count", "dsp.stream_blocks": "count",
    "simulate.rir_taps": "count", "features.frames": "count",
    "simulate.rendered_audio_s": "s",
}


def _import_program():
    """Import beambank from this checkout's src/ and nowhere else."""
    package = SRC / "beambank"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no beambank sources at {package}")
    sys.path.insert(0, str(SRC))
    import beambank.cli

    if Path(beambank.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported beambank from {beambank.__file__}, not {package}")


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        path = Path(path)
        for f in sorted(path.iterdir()) if path.is_dir() else [path]:
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


class HostClock:
    """Times operations and the host's speed, to scale the former by the
    latter.

    The reference host's speed (a 2-core x86-64 VM) drifts by up to 1.8x
    over minutes, with faster flicker below a second, and CPU time drifts
    with wall time, so no clock of the process alone is steady. A fixed numpy kernel is timed before
    every operation; at the end of a round, every wall time of the round is
    multiplied by KERNEL_NOMINAL_S over the median kernel time of the
    round. One scale per round follows the slow drift without adding the
    flicker that a kernel sample next to a long operation would. The kernel
    mixes what the program spends its time on: small dense solves in a
    Python loop, and passes over arrays larger than the caches (an 8 MB
    product and a 256k-point FFT). Of the kernels tried, this mix tracked
    the program's operations best (see README.md).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        self._a = a @ a.conj().T + np.eye(5)
        self._g = rng.standard_normal(5) + 0j
        self._x = rng.standard_normal(1 << 20)
        self._samples = []
        self.ticks = []  # (time, kernel seconds) of every sample, for the report
        self.last = (0.0, 0.0)  # start and end of the last timed operation

    def _kernel_once(self) -> float:
        t0 = time.perf_counter()
        for _ in range(400):
            h = np.linalg.solve(self._a, self._g)
            np.vdot(h, self._g)
            np.outer(h, h.conj())
        np.sum(self._x * 1.0001)
        np.fft.rfft(self._x[:1 << 18])
        return time.perf_counter() - t0

    def tick(self) -> None:
        """Time the kernel (median of three) and keep the sample."""
        self._samples.append(median([self._kernel_once() for _ in range(3)]))
        self.ticks.append((time.perf_counter(), self._samples[-1]))

    def run(self, fn):
        """(result, wall seconds) of ``fn()``, after a kernel sample."""
        self.tick()
        t0 = time.perf_counter()
        result = fn()
        self.last = (t0, time.perf_counter())
        return result, self.last[1] - t0

    def close(self) -> float:
        """The scale for every wall time since the last close."""
        self.tick()
        scale = KERNEL_NOMINAL_S / median(self._samples)
        self._samples = []
        return scale


class Runner:
    """Runs the program's operations, times them, and counts failures.

    ``seconds[op]`` holds each successful operation's scaled time and
    ``wall[op]`` its wall time, one entry per call; times of the current
    round wait in ``pending`` until the round's scale is known.
    """

    def __init__(self, wl, seed: int, work: Path):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.clock = HostClock()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.seconds = {}
        self.wall = {}
        self.pending = []
        self.scales = []
        self.timeline = []  # (op, wall, start, end) of every recorded time
        self.digests = []
        self.inputs = None
        self.featurize_summary = {}
        self._stream = None  # (BlockProcessor, blocks) of the current round
        self._push_times = []

    # -- bookkeeping
    def close_round(self) -> float:
        """Scale and record the round's times; returns the scale."""
        scale = self.clock.close()
        for op, wall, *span in self.pending:
            self.seconds.setdefault(op, []).append(wall * scale)
            self.wall.setdefault(op, []).append(wall)
            self.timeline.append((op, wall, *span))
        self.pending = []
        self.scales.append(scale)
        return scale

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"perfbench: operation failed: {message}", file=sys.stderr)

    def _main(self, argv):
        from beambank.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([str(a) for a in argv])
        return code, buf.getvalue()

    def cli(self, argv, op=None, expect=0):
        """Run ``beambank <argv>`` in-process and record its time under
        ``op``; returns the JSON summary, or None when it failed."""
        self.attempted += 1
        try:
            (code, out), wall = self.clock.run(lambda: self._main(argv))
        except Exception as exc:  # a crash is a failed operation, not a dead run
            traceback.print_exc()
            self.fail(f"{argv[0]}: {type(exc).__name__}: {exc}")
            return None
        if code != expect:
            self.fail(f"{argv[0]}: exit {code}, expected {expect}")
            return None
        if op is not None:
            self.pending.append((op, wall, *self.clock.last))
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def launch(self, args, op):
        """Run a fresh interpreter with ``args`` and record its time under
        ``op``; returns its stderr, or None when it failed."""
        self.attempted += 1
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            proc, wall = self.clock.run(lambda: subprocess.run(
                [sys.executable, *args], env=env, cwd=self.work, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=SUBPROCESS_TIMEOUT,
            ))
        except subprocess.TimeoutExpired:
            self.fail(f"interpreter launch {args}: no exit within {SUBPROCESS_TIMEOUT} s")
            return None
        if proc.returncode != 0:
            self.fail(f"interpreter launch exit {proc.returncode}: {proc.stderr[-300:]}")
            return None
        self.pending.append((op, wall, *self.clock.last))
        return proc.stderr

    # -- set-up
    def setup(self):
        """Synthesize the seeded inputs and warm every command up once on
        miniature inputs."""
        from beambank import BlockProcessor, load_bank
        from workloads import synthesize

        inp = synthesize(self.wl, self.seed, self.work / "inputs")
        warm = self.work / "warm"
        shutil.rmtree(warm, ignore_errors=True)
        warm.mkdir(parents=True)
        bank = warm / "bank.bbk"
        for argv in (
            ["design", "--config", inp.warm_design_cfg, "--out", bank],
            ["verify", "--bank", bank],
            ["dataset", "--config", inp.warm_dataset_cfg, "--workers", 1,
             "--out", warm / "scenes"],
            ["featurize", warm / "scenes" / "manifest.jsonl", "--bank", bank,
             "--out", warm / "feats"],
            ["apply", inp.warm_recording, "--bank", bank, "--out", warm / "out.wav"],
        ):
            self.attempted += 1
            code, _ = self._main(argv)
            if code != 0:
                self.fail(f"warm-up {argv[0]}: exit {code}")
        proc = BlockProcessor(load_bank(bank))
        for start in range(0, 8 * self.wl.block, self.wl.block):
            proc.push(inp.recording_audio[:, start:start + self.wl.block])
        proc.flush()
        self.out.mkdir(exist_ok=True)
        self.inputs = inp

    # -- paths of the outputs each round rewrites
    @property
    def bank(self) -> Path:
        return self.out / "bank.bbk"

    def dataset_dir(self, workers: int) -> Path:
        return self.out / f"scenes_w{workers}"

    @property
    def feats(self) -> Path:
        return self.out / "feats"

    @property
    def steered(self) -> Path:
        return self.out / "steered.wav"

    def verify_args(self, bank) -> list:
        args = ["verify", "--bank", bank]
        return args + (["--atfs", self.inputs.atf] if self.inputs.atf is not None else [])

    # -- the timed operations
    def op_cli_start(self):
        self.launch(["-c", HELP_CODE, "--help"], "cli_start")

    def op_design(self):
        self.cli(["design", "--config", self.inputs.design_cfg, "--out", self.bank], "design")

    def op_render(self, workers: int):
        self.cli(["dataset", "--config", self.inputs.dataset_cfg, "--workers", workers,
                  "--out", self.dataset_dir(workers)], f"render_w{workers}")

    def op_featurize(self):
        summary = self.cli(["featurize", self.dataset_dir(1) / "manifest.jsonl",
                            "--bank", self.bank, "--out", self.feats], "featurize")
        if summary is not None:
            self.featurize_summary = summary

    def op_apply(self):
        self.cli(["apply", self.inputs.recording, "--bank", self.bank, "--out", self.steered],
                 "apply")

    def stream_blocks(self) -> list:
        """The round's blocks: the recording cut at the workload's block
        size, cycled until there are STREAM_BLOCKS of them."""
        audio, b = self.inputs.recording_audio, self.wl.block
        per_pass = audio.shape[1] // b
        return [audio[:, (i % per_pass) * b:(i % per_pass + 1) * b]
                for i in range(STREAM_BLOCKS)]

    def op_stream(self):
        """Push the round's next share of blocks through the round's
        BlockProcessor; the round's pushes are pooled at its end."""
        from beambank import BlockProcessor, load_bank

        if self._stream is None:
            self._stream = (BlockProcessor(load_bank(self.bank)), self.stream_blocks())
        proc, blocks = self._stream
        share = STREAM_BLOCKS // self.wl.calls("stream")
        start = len(self._push_times)

        def push_share():
            for block in blocks[start:start + share]:
                self.attempted += 1
                try:
                    t0 = time.perf_counter()
                    proc.push(block)
                    self._push_times.append(time.perf_counter() - t0)
                except Exception as exc:  # as for cli(): count it, keep running
                    traceback.print_exc()
                    self.fail(f"stream push: {type(exc).__name__}: {exc}")

        self.clock.run(push_share)

    def end_of_round(self) -> float:
        """Close the round; returns its scale."""
        # a p99 needs at least ten samples beyond it
        if len(self._push_times) // 100 >= TAIL_SAMPLES:
            p50, p99 = np.percentile(self._push_times, [50, 99])
            self.pending += [("stream_p50", p50, *self.clock.last),
                             ("stream_p99", p99, *self.clock.last)]
        self._stream, self._push_times = None, []
        self.digests.append(_digest(self.bank, self.dataset_dir(1), self.steered))
        return self.close_round()

    def rounds(self, seconds: float, minimum: int, one_round) -> int:
        """Run whole rounds while the next one is expected to end within
        ``seconds`` (at least ``minimum``); returns the count."""
        t_begin = time.perf_counter()
        durations = []
        while True:
            t0 = time.perf_counter()
            one_round(len(durations))
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_begin
            if len(durations) >= minimum and elapsed + median(durations) > seconds:
                return len(durations)

    def own_audio_seconds(self) -> float:
        from checks import manifest_rows, own_rows
        from workloads import FS

        own = own_rows(manifest_rows(self.dataset_dir(1)), self.wl)
        return sum(r["num_samples"] for r in own) / FS

    def end_to_end(self, times: dict) -> dict:
        """End-to-end figures from per-operation times (medians over calls)."""
        t = {op: median(v) for op, v in times.items()}
        wl = self.wl
        derived = {
            "cli_start_s": ("cli_start", lambda s: s),
            "design_s": ("design", lambda s: s),
            "verify_s": ("verify", lambda s: s),
            "render_w1_scenes_per_s": ("render_w1", lambda s: wl.scenes / s),
            "render_w2_scenes_per_s": ("render_w2", lambda s: wl.scenes / s),
            "featurize_audio_s_per_s": ("featurize", lambda s: self.own_audio_seconds() / s),
            "apply_audio_s_per_s": ("apply", lambda s: wl.recording_seconds / s),
            "stream_block_p50_ms": ("stream_p50", lambda s: 1e3 * s),
            "stream_block_p99_ms": ("stream_p99", lambda s: 1e3 * s),
        }
        return {m: f(t[op]) for m, (op, f) in derived.items() if op in t}


ROUND_ORDER = ("design", "verify", "render_w1", "featurize", "render_w2", "apply",
               "stream", "cli_start")


def schedule(wl) -> list:
    """One round's operations: each in ROUND_ORDER, its repeats spread
    evenly over the round rather than run back to back."""
    calls = []
    for i, op in enumerate(ROUND_ORDER):
        n = wl.calls(op)
        calls += [((j + i / len(ROUND_ORDER)) / n, i, op) for j in range(n)]
    return [op for *_, op in sorted(calls)]


def round_ops(runner: Runner) -> list:
    """The callables of one untraced round, in schedule order."""
    ops = {
        "design": runner.op_design,
        "verify": lambda: runner.cli(runner.verify_args(runner.bank), "verify"),
        "render_w1": lambda: runner.op_render(1),
        "featurize": runner.op_featurize,
        "render_w2": lambda: runner.op_render(2),
        "apply": runner.op_apply,
        "stream": runner.op_stream,
        "cli_start": runner.op_cli_start,
    }
    return [ops[op] for op in schedule(runner.wl)]


def measure(runner: Runner, seconds: float) -> int:
    ops = round_ops(runner)

    def one_round(_):
        for op in ops:
            op()
        runner.end_of_round()

    return runner.rounds(seconds, MIN_ROUNDS[0], one_round)


def end_to_end_metrics(runner: Runner, setup_s: float) -> dict:
    values = runner.end_to_end(runner.seconds)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    missing = sorted(set(END_TO_END_UNITS) - set(values))
    if missing:
        sys.exit(f"perfbench: no samples for {missing}; see the failed operations above")
    return {m: {"value": values[m], "unit": u} for m, u in END_TO_END_UNITS.items()}


# ---------------------------------------------------------------- traced run

def parse_importtime(stderr: str) -> dict:
    """cli.* metrics (ms) from ``python -X importtime`` output."""
    self_us, cumulative = {}, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        self_us[name] = self_us.get(name, 0) + int(fields[0])
        cumulative[name] = int(fields[1])

    def self_ms(package):
        return sum(v for n, v in self_us.items()
                   if n == package or n.startswith(package + ".")) / 1e3

    return {
        "cli.import_ms": cumulative["beambank.cli"] / 1e3,
        "cli.import_scipy_ms": self_ms("scipy"),
        "cli.import_beambank_self_ms": self_ms("beambank"),
    }


# traced stage -> the untraced operation doing the same work
TRACED_STAGES = {"design": "design", "verify": "verify", "render": "render_w1",
                 "featurize": "featurize", "apply": "apply"}


def measure_traced(runner: Runner, seconds: float, trace_path: Path):
    """Rounds of: each operation untraced, then the same work traced layer
    by layer. Returns (per-layer metrics, overhead table, consistency
    failures)."""
    import traced
    from beambank import load_bank

    tr = traced.Tracer()
    inp = runner.inputs
    tdir = runner.work / "traced"
    tdir.mkdir()
    cli_samples = {}

    def stage(fn):
        runner.attempted += 1
        return runner.clock.run(fn)[0]

    def one_round(r):
        tr.trace_id = f"round-{r}"
        stderr = runner.launch(["-X", "importtime", "-c", IMPORTTIME_CODE], "importtime")
        imports = {} if stderr is None else parse_importtime(stderr)
        scenes = []

        def traced_verify():
            if not traced.verify(tr, tdir / "bank.bbk", inp.atf):
                runner.fail("traced verify: an invariant failed")

        pairs = (
            (lambda: runner.cli(["design", "--config", inp.design_cfg, "--out", runner.bank],
                                "design"),
             lambda: stage(lambda: traced.design(tr, inp.design_cfg, tdir / "bank.bbk"))),
            (lambda: runner.cli(runner.verify_args(runner.bank), "verify"),
             lambda: stage(traced_verify)),
            (lambda: runner.op_render(1),
             lambda: scenes.append(stage(lambda: traced.render(
                 tr, inp.dataset_cfg, runner.seed, tdir / "scenes")))),
            (runner.op_featurize,
             lambda: stage(lambda: traced.featurize(
                 tr, tdir / "scenes" / "manifest.jsonl", tdir / "bank.bbk", tdir / "feats"))),
            (runner.op_apply,
             lambda: stage(lambda: traced.apply(
                 tr, inp.recording, tdir / "bank.bbk", tdir / "steered.wav"))),
            (lambda: [runner.op_stream() for _ in range(runner.wl.calls("stream"))],
             lambda: stage(lambda: traced.stream(
                 tr, load_bank(runner.bank), runner.stream_blocks()))),
        )
        # alternate which side runs first, so that neither always inherits
        # the other's warm allocator and caches
        for untraced_op, traced_op in pairs:
            for fn in ((untraced_op, traced_op) if r % 2 == 0 else (traced_op, untraced_op)):
                fn()
        stage(lambda: traced.rirs(tr, *scenes[0]))
        stage(lambda: traced.covariance(tr, load_bank(tdir / "bank.bbk")))
        runner.attempted += STREAM_BLOCKS - 1  # every traced push counts
        tr.scales[tr.trace_id] = scale = runner.end_of_round()
        for k, v in imports.items():
            cli_samples.setdefault(k, []).append(v * scale)

    n = runner.rounds(seconds, MIN_ROUNDS[1], one_round)
    rounds = [f"round-{r}" for r in range(n)]
    metrics = traced.layer_metrics(tr, rounds, runner.wl.scenes)
    metrics.update({k: median(v) for k, v in cli_samples.items()})

    overhead = {}
    for name, op in TRACED_STAGES.items():
        overhead[name] = (traced.root_seconds(tr, rounds, name), median(runner.seconds[op]))
    overhead["stream_push"] = (metrics["dsp.stream_push_ms"] / 1e3,
                               median(runner.seconds["stream_p50"]))
    overhead = {k: {"traced_s": a, "untraced_s": b, "overhead_s": a - b}
                for k, (a, b) in overhead.items()}
    tr.dump(trace_path)

    consistency = []
    for a, b in ((tdir / "bank.bbk", runner.bank),
                 (tdir / "scenes", runner.dataset_dir(1)),
                 (tdir / "feats", runner.feats),
                 (tdir / "steered.wav", runner.steered)):
        if _digest(a) != _digest(b):
            consistency.append(f"traced output {a.name} differs from the CLI's {b.name}")
    return metrics, overhead, consistency


# -------------------------------------------------------------------- checks

def run_checks(runner: Runner) -> dict:
    """Every output check; maps check name to its failure messages."""
    import checks
    from beambank import BlockProcessor, load_bank

    wl, inp = runner.wl, runner.inputs
    if not runner.dataset_dir(2).exists():
        runner.op_render(2)
    results = {"bank": checks.bank(runner.bank, wl, inp.look_steering)}

    tampered = runner.out / "tampered.bbk"
    checks.tamper_bank(runner.bank, tampered)
    codes = []
    for path, expect in ((runner.bank, 0), (tampered, 3)):
        summary = runner.cli(runner.verify_args(path), expect=expect)
        codes.append(expect if summary is not None else -1)
    results["verify"] = checks.verify_exit_codes(*codes)

    results["manifest"] = checks.manifest(runner.dataset_dir(1), wl)
    results["workers"] = checks.identical_outputs(runner.dataset_dir(1), runner.dataset_dir(2))
    results["features"] = checks.features(
        runner.feats, runner.dataset_dir(1), runner.featurize_summary, runner.bank, wl
    )
    results["apply"] = checks.apply_output(runner.steered, inp.recording_audio, runner.bank, wl)

    bank = load_bank(runner.bank)
    outputs = {}
    audio = inp.recording_audio
    for block in (wl.block, STREAM_CHECK_BLOCK):
        proc = BlockProcessor(bank)
        chunks = [proc.push(audio[:, s:s + block]) for s in range(0, audio.shape[1], block)]
        outputs[block] = np.concatenate(chunks + [proc.flush()], axis=1)
    results["stream"] = checks.stream(outputs, runner.steered, wl)
    results["reruns"] = (
        [] if len(set(runner.digests)) == 1
        else [f"outputs differ between rounds ({len(set(runner.digests))} variants)"]
    )
    return results


# -------------------------------------------------------------------- report

def environment() -> dict:
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "platform": platform.platform(),
    }


def launch_setup(runner: Runner, args) -> list:
    """A set-up time of a fresh interpreter running this script up to its
    first timed operation: [seconds], or [] when it failed."""
    runner.attempted += 1
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        runner.fail(f"set-up launch: no exit within {SUBPROCESS_TIMEOUT} s")
        return []
    if proc.returncode != 0:
        runner.fail(f"set-up launch exit {proc.returncode}: {proc.stderr[-300:]}")
        return []
    return [json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import_wall = time.perf_counter() - T_START

    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{tag}-{os.getpid()}"
    runner = Runner(wl, args.seed, work)
    try:
        work.mkdir(parents=True)
        setup_wall = runner.clock.run(runner.setup)[1]
        setup_samples = [(import_wall + setup_wall) * runner.clock.close()]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_samples[0]}))
            return 1 if runner.failed else 0
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            setup_samples += launch_setup(runner, args)
        setup_s = median(setup_samples)
        overhead, consistency = None, []
        if args.trace:
            layer, overhead, consistency = measure_traced(
                runner, args.seconds, STATE / f"trace-{tag}.json"
            )
            rounds = len(runner.digests)
            metrics = {m: {"value": v, "unit": PER_LAYER_UNITS.get(m, "ms")}
                       for m, v in layer.items()}
        else:
            rounds = measure(runner, args.seconds)
            metrics = end_to_end_metrics(runner, setup_s)
        wall_figures = runner.end_to_end(runner.wall)
        results = run_checks(runner)
        if consistency:
            results["traced"] = consistency
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f"{name}: {msg}" for name, msgs in results.items() for msg in msgs]
    for line in failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "rounds": rounds,
        "setup": {"samples_s": setup_samples, "setup_s": setup_s},
        "round_scales": runner.scales,
        "timeline": {"ticks": runner.clock.ticks, "ops": runner.timeline},
        "operations": {wl.name: {"attempted": runner.attempted, "failed": runner.failed}},
        "operation_errors": runner.errors,
        "seconds_scaled": runner.seconds,
        "seconds_wall": runner.wall,
        "end_to_end_wall": wall_figures,
        "metrics": metrics,
        "tracing_overhead": overhead,
        "checks": results,
    }
    with open(STATE / f"report-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for stage, row in (overhead or {}).items():
        print(f"perfbench: tracing overhead {stage}: {row['overhead_s'] * 1e3:+.3f} ms "
              f"({row['traced_s']:.5f} s traced, {row['untraced_s']:.5f} s untraced)",
              file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
