"""Output checks. Each returns a list of failure messages; empty means pass.

The checks read the program's output files with the oracle's own readers
and compare them with the oracle's computations or with properties the
method must have. They import nothing from beambank.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle
from workloads import FS, GEOMETRIES, Workload

DISTORTIONLESS_TOL = 1e-6
WNG_TOL = 1e-6
SLACKNESS_TOL = 1e-8
# the documented default; the benchmark's design configs leave it unset
WNG_MARGIN = 1.0
STATIONARITY_SCALE = 1e-6
PARTNER_SECTOR_DEG = 60.0
SNR_RANGE = (-5, 30)
# float32 output files hold about 7 significant digits
FLOAT32_RTOL = 1e-5
# log-mel values lie around -25..5: compare relative to 1 + |value|
FEATURE_TOL = 1e-4


def bank(path, wl: Workload, g: np.ndarray) -> list:
    """Distortionless response, the WNG floor, KKT stationarity and
    complementary slackness of every design, against the benchmark's own
    design covariance and look steering ``g`` (K+1, F, M)."""
    header, h = oracle.read_bank(path)
    errors = []
    if header["method"] != "nlcmv" or header["n_fft"] != wl.n_fft or header["fs"] != FS:
        errors.append(f"bank settings {header['method']}/{header['n_fft']}/{header['fs']}")
    if header.get("wng_margin") != WNG_MARGIN:
        errors.append(f"bank WNG margin {header.get('wng_margin')}, expected {WNG_MARGIN}")
    if not np.allclose(np.asarray(header["geometry"]["mics"]), wl.mics, atol=1e-12):
        errors.append("bank geometry differs from the workload's array")
    if h.shape != g.shape:
        return errors + [f"bank weights {h.shape}, expected {g.shape}"]
    eps = np.asarray(header["diagnostics"]["loading"], dtype=float)
    phi = oracle.design_covariance(wl.mics, wl.freqs, wl.null_specs())
    m = g.shape[2]

    response = np.einsum("kfm,kfm->kf", h.conj(), g)
    dist = np.abs(response - 1.0)
    g_norm2 = np.einsum("kfm,kfm->kf", g.conj(), g).real
    h_norm2 = np.einsum("kfm,kfm->kf", h.conj(), h).real
    c = h_norm2 - m * np.abs(response) ** 2 / (WNG_MARGIN * g_norm2)
    a_h = np.einsum("fij,kfj->kfi", phi, h) + eps[:, :, None] * h
    lam = np.einsum("kfm,kfm->kf", g.conj(), a_h) / g_norm2
    residual = np.linalg.norm(a_h - lam[:, :, None] * g, axis=2)
    phi_norm = np.linalg.eigvalsh(phi)[:, -1]
    bound = STATIONARITY_SCALE * np.sqrt(h_norm2) * phi_norm[None, :]
    slack = np.abs(eps * c)

    for name, bad, value in (
        ("distortionless", dist > DISTORTIONLESS_TOL, dist),
        ("wng-floor", c > WNG_TOL, c),
        ("kkt-stationarity", residual > bound, residual / bound),
        ("kkt-slackness", slack > SLACKNESS_TOL, slack),
        ("loading", ~(eps >= 0), eps),
    ):
        if bad.any():
            k, f = np.argwhere(bad)[0]
            errors.append(
                f"bank {name}: {int(bad.sum())} designs fail, first direction {k} "
                f"bin {f} (value {value[k, f]:.3e})"
            )
    return errors


def verify_exit_codes(good: int, tampered: int) -> list:
    errors = []
    if good != 0:
        errors.append(f"verify exited {good} on the designed bank, expected 0")
    if tampered != 3:
        errors.append(f"verify exited {tampered} on a tampered bank, expected 3")
    return errors


def tamper_bank(src, dst) -> None:
    """Copy a bank with one weight perturbed (breaks distortionless)."""
    header, h = oracle.read_bank(src)
    h = h.copy()
    h[0, h.shape[1] // 2, 0] += 1e-3 * (1.0 + 1.0j)
    oracle.write_container(dst, header, h, "<c16")


def manifest_rows(out_dir) -> list:
    with open(Path(out_dir) / "manifest.jsonl", "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def manifest(out_dir, wl: Workload) -> list:
    """Row count, the scene recipe, segment bounds, and each wav's channel
    count, length and rate."""
    out_dir = Path(out_dir)
    rows = manifest_rows(out_dir)
    errors = []
    if len(rows) != wl.scenes:
        errors.append(f"manifest has {len(rows)} rows, expected {wl.scenes}")
    channels = {GEOMETRIES[name][0]: GEOMETRIES[name][1].shape[0] for name, _ in wl.catalog}
    sector = math.radians(PARTNER_SECTOR_DEG)
    for i, row in enumerate(rows):
        where = f"scene {i}"
        scene = row["scene"]
        if row.get("index") != i:
            errors.append(f"{where}: index {row.get('index')}")
        if row["geometry_id"] not in channels:
            errors.append(f"{where}: geometry {row['geometry_id']} not in the catalog")
            continue
        if not abs(scene["partner_azimuth"]) <= sector + 1e-12:
            errors.append(f"{where}: partner at {math.degrees(scene['partner_azimuth']):.1f} deg")
        by = scene["bystander_azimuth"]
        if by is not None and not abs(by) > sector:
            errors.append(f"{where}: bystander inside the partner sector")
        snr = scene["snr_db"]
        if not (isinstance(snr, int) and SNR_RANGE[0] <= snr <= SNR_RANGE[1]):
            errors.append(f"{where}: snr {snr!r}")
        n = row["num_samples"]
        for seg in row["segments"]:
            if not 0 <= seg["start"] < seg["end"] <= n:
                errors.append(f"{where}: segment [{seg['start']}, {seg['end']}) outside {n}")
        speakers = [s["speaker"] for s in row["segments"]]
        if ("bystander" in speakers) != (by is not None):
            errors.append(f"{where}: bystander segment does not match the recipe")
        info = oracle.wav_info(out_dir / row["audio_path"])
        if (info["channels"], info["frames"], info["fs"]) != (
            channels[row["geometry_id"]], n, FS
        ):
            errors.append(
                f"{where}: wav {info['channels']} ch x {info['frames']} at {info['fs']} Hz, "
                f"manifest says {channels[row['geometry_id']]} ch x {n}"
            )
    return errors


def identical_outputs(dir_a, dir_b) -> list:
    """Every file of two dataset outputs is byte-identical."""
    a = {p.name: p for p in Path(dir_a).iterdir()}
    b = {p.name: p for p in Path(dir_b).iterdir()}
    if set(a) != set(b):
        return [f"output file sets differ: {sorted(set(a) ^ set(b))[:4]}"]
    differ = sorted(n for n in a if a[n].read_bytes() != b[n].read_bytes())
    if differ:
        return [f"{len(differ)} files differ between worker counts, first {differ[0]}"]
    return []


def own_rows(rows, wl: Workload) -> list:
    return [r for r in rows if r["geometry_id"] == wl.geometry_id]


def features(feat_dir, out_dir, summary: dict, bank_path, wl: Workload) -> list:
    """One .feat per own-geometry row, the skipped count, and the first and
    last files against the oracle log-mel."""
    rows = manifest_rows(out_dir)
    own = own_rows(rows, wl)
    errors = []
    expected = {Path(r["audio_path"]).stem + ".feat" for r in own}
    found = {p.name for p in Path(feat_dir).glob("*.feat")}
    if found != expected:
        errors.append(f"feature files: {len(found)} found, {len(expected)} expected, "
                      f"unexpected {sorted(found - expected)[:3]}")
    skipped = len(rows) - len(own)
    if summary.get("files") != len(own) or summary.get("skipped_other_geometry") != skipped:
        errors.append(f"featurize summary {summary} vs {len(own)} own / {skipped} other rows")
    _, h = oracle.read_bank(bank_path)
    picks = [own[0], own[-1]] if len(own) > 1 else own
    for row in picks:
        audio, _ = oracle.read_wav(Path(out_dir) / row["audio_path"])
        ref = oracle.log_mel_features(h, audio, wl.n_fft, FS)
        path = Path(feat_dir) / (Path(row["audio_path"]).stem + ".feat")
        if not path.exists():
            continue
        _, got = oracle.read_features(path)
        if got.shape != ref.shape:
            errors.append(f"{path.name}: shape {got.shape}, oracle {ref.shape}")
            continue
        err = float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))
        if err > FEATURE_TOL:
            errors.append(f"{path.name}: log-mel differs from the oracle by {err:.3e}")
    return errors


def apply_output(out_path, recording: np.ndarray, bank_path, wl: Workload) -> list:
    """The steered wav against the oracle STFT -> h^H x -> WOLA path."""
    _, h = oracle.read_bank(bank_path)
    ref = oracle.istft(oracle.beamform(h, oracle.stft(recording, wl.n_fft)), wl.n_fft,
                       recording.shape[1])
    got, fs = oracle.read_wav(out_path)
    if got.shape != ref.shape or fs != FS:
        return [f"apply output {got.shape} at {fs} Hz, oracle {ref.shape}"]
    err = float(np.max(np.abs(got - ref)))
    tol = FLOAT32_RTOL * float(np.max(np.abs(ref)))
    if err > tol:
        return [f"apply output differs from the oracle by {err:.3e} (tol {tol:.1e})"]
    return []


def stream(outputs: dict, apply_path, wl: Workload) -> list:
    """Streamed outputs (keyed by block size) agree with each other, and
    their interior matches the offline ``apply`` output."""
    errors = []
    blocks = sorted(outputs)
    base = outputs[blocks[0]]
    peak = float(np.max(np.abs(base)))
    for b in blocks[1:]:
        if outputs[b].shape != base.shape:
            errors.append(f"stream output at block {b} is {outputs[b].shape}, "
                          f"at block {blocks[0]} {base.shape}")
            continue
        err = float(np.max(np.abs(outputs[b] - base)))
        if err > 1e-12 * max(peak, 1.0):
            errors.append(f"stream output at block {b} differs from block {blocks[0]} by {err:.3e}")
    offline, _ = oracle.read_wav(apply_path)
    if offline.shape != base.shape:
        return errors + [f"stream output {base.shape} vs apply output {offline.shape}"]
    core = slice(wl.n_fft, base.shape[1] - wl.n_fft)
    err = float(np.max(np.abs(base[:, core] - offline[:, core])))
    tol = FLOAT32_RTOL * peak
    if err > tol:
        errors.append(f"stream interior differs from apply by {err:.3e} (tol {tol:.1e})")
    return errors
