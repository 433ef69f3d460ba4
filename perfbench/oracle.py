"""Independent reference computations for the benchmark's output checks.

Uses numpy and the standard library only, and none of beambank's code: the
checks compare what the program wrote against what this module computes
from the method's definitions.

- steering: far field exp(-j 2 pi f tau_m) with tau_m = -(r_m . u) / c;
  near field (d_min / d_m) exp(-j 2 pi f d_m / c)
- design covariance: spherical-diffuse coherence sinc(2 f d / c) plus
  weight * psd * g g^H for every point null
- STFT: sqrt-Hann analysis, signal centre-padded by half a window; bank
  output h^H x per bin; synthesis by weighted overlap-add normalised by the
  summed squared window
- log-mel: HTK scale 2595 log10(1 + f / 700), triangular unit-peak filters
  on the power spectrum, natural log with a 1e-10 floor
- containers: one JSON header line plus a little-endian payload; WAV as
  RIFF with 32-bit float or 16-bit PCM samples
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

SOUND_SPEED = 343.0
NUM_MEL = 80
LOG_FLOOR = 1e-10
EDGE_THRESHOLD = 1e-8


# ---------------------------------------------------------------- steering

def unit_vector(azimuth: float, elevation: float) -> np.ndarray:
    ce = math.cos(elevation)
    return np.array(
        [ce * math.cos(azimuth), ce * math.sin(azimuth), math.sin(elevation)]
    )


def far_field(mics, azimuth, elevation, freqs, c=SOUND_SPEED) -> np.ndarray:
    """(F, M) plane-wave steering vectors."""
    tau = -(np.asarray(mics) @ unit_vector(azimuth, elevation)) / c
    return np.exp(-2j * np.pi * np.asarray(freqs)[:, None] * tau[None, :])


def near_field(mics, point, freqs, c=SOUND_SPEED) -> np.ndarray:
    """(F, M) point-source steering vectors, unit gain at the closest mic."""
    d = np.linalg.norm(np.asarray(mics) - np.asarray(point)[None, :], axis=1)
    return (d.min() / d)[None, :] * np.exp(
        -2j * np.pi * np.asarray(freqs)[:, None] * d[None, :] / c
    )


def steering(mics, direction: dict, freqs, c=SOUND_SPEED) -> np.ndarray:
    """(F, M) steering vectors for a direction dict with azimuth and
    elevation in radians and an optional range_m (near field)."""
    az, el = direction["azimuth"], direction.get("elevation", 0.0)
    if direction.get("range_m") is None:
        return far_field(mics, az, el, freqs, c)
    return near_field(mics, direction["range_m"] * unit_vector(az, el), freqs, c)


# -------------------------------------------------------------- covariance

def design_covariance(mics, freqs, nulls=(), c=SOUND_SPEED) -> np.ndarray:
    """(F, M, M) diffuse sinc coherence plus weighted null outer products.
    ``nulls`` holds (direction dict, weight, psd) triples."""
    mics = np.asarray(mics)
    dist = np.linalg.norm(mics[:, None, :] - mics[None, :, :], axis=-1)
    phi = np.sinc(2.0 * np.asarray(freqs)[:, None, None] * dist[None] / c).astype(complex)
    for direction, weight, psd in nulls:
        g = steering(mics, direction, freqs, c)
        phi += (weight * psd) * g[:, :, None] * g[:, None, :].conj()
    return phi


# --------------------------------------------------------------------- STFT

def sqrt_hann(n_fft: int) -> np.ndarray:
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft))


def stft(x: np.ndarray, n_fft: int) -> np.ndarray:
    """(C, N) audio -> (C, T, F) spectra at hop n_fft / 2, centre-padded."""
    hop = n_fft // 2
    padded = np.pad(np.atleast_2d(x), ((0, 0), (hop, hop)))
    n_frames = (padded.shape[1] - n_fft) // hop + 1
    idx = np.arange(n_frames)[:, None] * hop + np.arange(n_fft)[None, :]
    return np.fft.rfft(padded[:, idx] * sqrt_hann(n_fft), axis=2)


def beamform(weights: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """(K, F, M) weights and (M, T, F) spectra -> (K, T, F): h_k(f)^H x(t, f)."""
    out = np.zeros((weights.shape[0], spec.shape[1], spec.shape[2]), dtype=complex)
    for m in range(weights.shape[2]):
        out += weights[:, None, :, m].conj() * spec[m][None]
    return out


def istft(spec: np.ndarray, n_fft: int, num_samples: int) -> np.ndarray:
    """Weighted overlap-add inverse of :func:`stft`, trimmed to num_samples."""
    hop = n_fft // 2
    window = sqrt_hann(n_fft)
    frames = np.fft.irfft(spec, n=n_fft, axis=2) * window
    n_frames = spec.shape[1]
    total = (n_frames - 1) * hop + n_fft
    out = np.zeros((spec.shape[0], total))
    wsum = np.zeros(total)
    for t in range(n_frames):
        out[:, t * hop:t * hop + n_fft] += frames[:, t]
        wsum[t * hop:t * hop + n_fft] += window * window
    good = wsum > EDGE_THRESHOLD * wsum.max()
    out[:, good] /= wsum[good]
    out[:, ~good] = 0.0
    full = out[:, hop:]
    if num_samples > full.shape[1]:
        full = np.pad(full, ((0, 0), (0, num_samples - full.shape[1])))
    return full[:, :num_samples]


# ------------------------------------------------------------------ log-mel

def mel_filterbank(n_fft: int, fs: int, num_filters: int = NUM_MEL) -> np.ndarray:
    """(num_filters, n_fft/2 + 1) HTK triangles with unit peak."""
    top = 2595.0 * math.log10(1.0 + (fs / 2.0) / 700.0)
    edges = 700.0 * (10.0 ** (np.linspace(0.0, top, num_filters + 2) / 2595.0) - 1.0)
    bins = np.arange(n_fft // 2 + 1) * fs / n_fft
    fb = np.zeros((num_filters, bins.shape[0]))
    for i in range(num_filters):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        up = (bins - lo) / (mid - lo)
        down = (hi - bins) / (hi - mid)
        fb[i] = np.maximum(0.0, np.minimum(np.minimum(up, down), 1.0))
    return fb


def log_mel_features(weights: np.ndarray, audio: np.ndarray, n_fft: int, fs: int) -> np.ndarray:
    """(frames, K, mel) log-mel of every bank output of (M, N) audio."""
    steered = beamform(weights, stft(audio, n_fft))
    power = np.abs(steered) ** 2
    mel = power @ mel_filterbank(n_fft, fs).T
    return np.log(np.maximum(mel, LOG_FLOOR)).transpose(1, 0, 2)


# --------------------------------------------------------------- containers

def read_container(path, magic: str, dtype: str):
    """Header dict and flat payload of a JSON-header binary container."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = np.frombuffer(fh.read(), dtype=dtype)
    if header.get("magic") != magic:
        raise ValueError(f"{path}: magic {header.get('magic')!r}, expected {magic!r}")
    return header, payload


def read_bank(path):
    """Header and (K, F, M) complex weights of a bank file."""
    header, payload = read_container(path, "beambank-bank-v1", "<c16")
    k = len(header["directions"])
    f = header["n_fft"] // 2 + 1
    m = len(header["geometry"]["mics"])
    return header, payload.reshape(k, f, m)


def read_features(path):
    """Header and (frames, directions, mel) float32 data of a feature file."""
    header, payload = read_container(path, "beambank-feat-v1", "<f4")
    return header, payload.reshape(header["shape"])


def write_container(path, header: dict, array: np.ndarray, dtype: str) -> None:
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(array, dtype=dtype).tobytes())


def wav_info(path) -> dict:
    """Format fields and the data chunk's offset and size of a RIFF WAV."""
    with open(path, "rb") as fh:
        riff = fh.read(12)
        if riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
            raise ValueError(f"{path}: not a RIFF/WAVE file")
        info = {}
        while True:
            head = fh.read(8)
            if len(head) < 8:
                raise ValueError(f"{path}: no data chunk")
            cid, size = head[:4], struct.unpack("<I", head[4:])[0]
            if cid == b"fmt ":
                fmt = fh.read(size)
                tag, channels, fs = struct.unpack("<HHI", fmt[:8])
                bits = struct.unpack("<H", fmt[14:16])[0]
                if tag == 0xFFFE:
                    tag = struct.unpack("<H", fmt[24:26])[0]
                info.update(tag=tag, channels=channels, fs=fs, bits=bits)
            elif cid == b"data":
                info.update(offset=fh.tell(), size=size)
                info["frames"] = size // (info["channels"] * info["bits"] // 8)
                return info
            else:
                fh.seek(size + (size & 1), 1)


def read_wav(path):
    """(channels, samples) float64 audio and the sample rate."""
    info = wav_info(path)
    if info["tag"] == 3 and info["bits"] == 32:
        dtype, scale = "<f4", 1.0
    elif info["tag"] == 1 and info["bits"] == 16:
        dtype, scale = "<i2", 1.0 / 32768.0
    else:
        raise ValueError(f"{path}: unsupported sample format {info}")
    with open(path, "rb") as fh:
        fh.seek(info["offset"])
        data = np.frombuffer(fh.read(info["size"]), dtype=dtype)
    audio = data.reshape(-1, info["channels"]).T.astype(np.float64) * scale
    return np.ascontiguousarray(audio), info["fs"]


def write_wav(path, audio: np.ndarray, fs: int) -> None:
    """Write (channels, samples) audio as 32-bit float WAV."""
    x = np.ascontiguousarray(np.atleast_2d(audio).T, dtype="<f4")
    channels = x.shape[1]
    data = x.tobytes()
    fmt = struct.pack("<HHIIHH", 3, channels, fs, fs * channels * 4, channels * 4, 32)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        fh.write(b"data" + struct.pack("<I", len(data)) + data)
