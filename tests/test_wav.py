"""The WAV codec in ``beambank.dsp``: the accepted subset round-trips
exactly, the writer's layout is fixed, anything else (cut, mutated or
unsupported) is a DataError, and an interrupted write keeps the previous
file. scipy, where installed, serves only as an oracle."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beambank.dsp import _riff_size, read_wav, write_wav
from beambank.errors import DataError

FS = 16000
PCM, FLOAT, EXTENSIBLE = 1, 3, 0xFFFE
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bytes per sample) of every sample format read_wav accepts
FORMATS = {
    "pcm16": (PCM, 2),
    "pcm24": (PCM, 3),
    "pcm32": (PCM, 4),
    "float32": (FLOAT, 4),
    "float64": (FLOAT, 8),
}
FUZZ = settings(max_examples=200, deadline=None)


def _chunk(cid: bytes, body: bytes) -> bytes:
    return cid + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def _wav(raw: np.ndarray, tag: int, width: int, extensible=False, chunks=()) -> bytes:
    """A WAV file of (frames, channels) ``raw`` integer or float samples;
    ``chunks`` are (id, body) pairs placed between ``fmt `` and ``data``."""
    frames, channels = raw.shape
    if width == 3:
        payload = raw.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        payload = raw.astype(f"<{'f' if tag == FLOAT else 'i'}{width}").tobytes()
    fmt = struct.pack(
        "<HHIIHH", EXTENSIBLE if extensible else tag, channels, FS,
        FS * channels * width, channels * width, 8 * width,
    )
    if extensible:
        fmt += struct.pack("<HHII", 22, 8 * width, 0, tag) + GUID_TAIL
    body = b"WAVE" + _chunk(b"fmt ", fmt)
    body += b"".join(_chunk(cid, data) for cid, data in chunks) + _chunk(b"data", payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _samples(name: str, shape, rng) -> np.ndarray:
    """Random raw samples of a format, full scale, edges included."""
    tag, width = FORMATS[name]
    if tag == FLOAT:
        raw = rng.uniform(-1.0, 1.0, shape).astype(f"f{width}")
    else:
        top = 1 << (8 * width - 1)
        raw = rng.integers(-top, top, shape, dtype=np.int64)
    raw.flat[:2] = (-1.0, 0.5) if tag == FLOAT else (-top, top - 1)
    return raw


def _scaled(name: str, raw: np.ndarray) -> np.ndarray:
    tag, width = FORMATS[name]
    return raw.T / (1.0 if tag == FLOAT else float(1 << (8 * width - 1)))


@pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("name", list(FORMATS))
def test_every_accepted_format_reads_exactly(name, channels, extensible, tmp_path, rng):
    raw = _samples(name, (257, channels), rng)
    path = tmp_path / "in.wav"
    path.write_bytes(_wav(raw, *FORMATS[name], extensible=extensible))
    audio, fs = read_wav(path, expected_fs=FS)
    assert fs == FS
    assert audio.dtype == np.float64 and audio.flags.c_contiguous
    np.testing.assert_array_equal(audio, _scaled(name, raw))


def test_unknown_chunks_and_their_pad_bytes_are_skipped(tmp_path, rng):
    raw = _samples("pcm16", (100, 2), rng)
    chunks = [(b"LIST", b"INFOodd"), (b"JUNK", b""), (b"bext", b"x" * 9)]
    path = tmp_path / "list.wav"
    path.write_bytes(_wav(raw, PCM, 2, chunks=chunks))
    np.testing.assert_array_equal(read_wav(path)[0], _scaled("pcm16", raw))


@pytest.mark.parametrize("channels", [1, 5])
def test_write_then_read_round_trip(channels, tmp_path, rng):
    audio = rng.uniform(-1.5, 1.5, (channels, 321))
    path = tmp_path / "out.wav"
    write_wav(path, audio, FS)
    back, fs = read_wav(path)
    assert fs == FS
    np.testing.assert_array_equal(back, audio.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("frames", [False, True], ids=["channels-first", "frames"])
def test_float32_audio_written_as_it_is(frames, tmp_path, rng):
    """float32 audio writes the bytes of its float64 widening, and without a
    float64 copy: one float32 transpose of a C-contiguous (channels,
    samples) array, and no copy of the transpose of interleaved frames, as
    mix_noise returns."""
    audio = rng.uniform(-1, 1, (5, 100_000)).astype(np.float32)
    if frames:
        audio = np.ascontiguousarray(audio.T).T
    write_wav(tmp_path / "wide.wav", audio.astype(np.float64), FS)
    tracemalloc.start()
    try:
        write_wav(tmp_path / "own.wav", audio, FS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "own.wav").read_bytes() == (tmp_path / "wide.wav").read_bytes()
    # a float64 copy alone would be 2 x nbytes
    assert peak < (0.5 if frames else 1.5) * audio.nbytes


def test_float32_layout(tmp_path):
    """RIFF, an 18-byte fmt chunk with cbSize 0, a fact chunk, then data."""
    path = tmp_path / "f.wav"
    write_wav(path, np.zeros((5, 7)), 8000)
    blob = path.read_bytes()
    assert blob[:4] == b"RIFF" and struct.unpack_from("<I", blob, 4)[0] == len(blob) - 8
    assert blob[8:20] == b"WAVEfmt \x12\x00\x00\x00"
    assert struct.unpack_from("<HHIIHHH", blob, 20) == (3, 5, 8000, 8000 * 20, 20, 32, 0)
    assert blob[38:50] == b"fact" + struct.pack("<II", 4, 7)
    assert blob[50:58] == b"data" + struct.pack("<I", 140) and len(blob) == 58 + 140


@pytest.mark.parametrize("channels", [1, 5])
def test_writer_bytes_equal_scipy(channels, tmp_path, rng):
    wavfile = pytest.importorskip("scipy.io.wavfile")
    audio = rng.uniform(-1.2, 1.2, (channels, 999))
    ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
    write_wav(ours, audio, FS)
    data = audio.T if channels > 1 else audio[0]
    wavfile.write(theirs, FS, data.astype(np.float32))
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
@pytest.mark.parametrize("name", list(FORMATS))
def test_reader_equals_scipy(name, extensible, tmp_path, rng):
    wavfile = pytest.importorskip("scipy.io.wavfile")
    raw = _samples(name, (300, 3), rng)
    path = tmp_path / "in.wav"
    path.write_bytes(_wav(raw, *FORMATS[name], extensible=extensible, chunks=[(b"LIST", b"odd")]))
    fs, data = wavfile.read(path)
    scale = 1.0 if data.dtype.kind == "f" else float(1 << (8 * data.dtype.itemsize - 1))
    audio, ours_fs = read_wav(path)
    assert ours_fs == fs
    np.testing.assert_array_equal(audio, data.astype(np.float64).T / scale)


@pytest.mark.parametrize(
    "tag, width, bits",
    [(PCM, 1, 8), (PCM, 8, 64), (FLOAT, 2, 16), (FLOAT, 4, 64), (2, 2, 16)],
    ids=["uint8", "pcm64", "float16", "float-bits-mismatch", "adpcm"],
)
def test_unsupported_sample_format_is_a_data_error(tag, width, bits, tmp_path):
    fmt = struct.pack("<HHIIHH", tag, 1, FS, FS * width, width, bits)
    body = b"WAVE" + _chunk(b"fmt ", fmt) + _chunk(b"data", b"\0" * 4 * width)
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(DataError, match="unsupported WAV format"):
        read_wav(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
@pytest.mark.parametrize("name", ["float32", "float64"])
def test_non_finite_float_sample_is_a_data_error(name, extensible, value, tmp_path, rng):
    """One NaN sample in a clip used to turn a whole rendered scene into
    NaN, and one in a recording every steered output sample after it."""
    raw = _samples(name, (257, 3), rng)
    raw[100, 1] = value
    path = tmp_path / "in.wav"
    path.write_bytes(_wav(raw, *FORMATS[name], extensible=extensible))
    with pytest.raises(DataError) as info:
        read_wav(path, expected_fs=FS)
    assert str(info.value) == f"{path}: float samples must be finite (found NaN or inf)"


@pytest.mark.parametrize("magic", [b"RIFX", b"RF64", b"FORM"])
def test_other_containers_are_a_data_error(magic, tmp_path, rng):
    blob = _wav(_samples("pcm16", (10, 1), rng), PCM, 2)
    path = tmp_path / "other.wav"
    path.write_bytes(magic + blob[4:])
    with pytest.raises(DataError, match="not a little-endian RIFF WAVE"):
        read_wav(path)


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read WAV"):
        read_wav(tmp_path / "absent.wav")


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """Name -> (path to overwrite, original bytes) of one written float32
    file, one plain PCM16 file and one extensible PCM24 file with an
    odd-sized LIST chunk."""
    root = tmp_path_factory.mktemp("wav")
    rng = np.random.default_rng(5)
    path = root / "float32x5.wav"
    write_wav(path, rng.uniform(-1, 1, (5, 40)), FS)
    out = {"float32x5": (path, path.read_bytes())}
    out["pcm16x3"] = (root / "pcm16x3.wav", _wav(_samples("pcm16", (40, 3), rng), PCM, 2))
    raw = _samples("pcm24", (30, 2), rng)
    blob = _wav(raw, PCM, 3, extensible=True, chunks=[(b"LIST", b"INFOodd")])
    out["pcm24ext"] = (root / "pcm24ext.wav", blob)
    return out


@pytest.mark.parametrize("name", ["float32x5", "pcm16x3", "pcm24ext"])
def test_every_truncation_is_a_data_error(samples, name):
    path, blob = samples[name]
    read_wav(_write(path, blob))
    for cut in range(len(blob)):
        _write(path, blob[:cut])
        with pytest.raises(DataError):
            read_wav(path)


def _write(path, blob):
    path.write_bytes(blob)
    return path


def _fields(blob: bytes):
    """(offset, struct code) of each RIFF, chunk-header and fmt field up to
    the data chunk's size."""
    fields = [(0, "4s"), (4, "I"), (8, "4s")]
    pos = 12
    while True:
        fields += [(pos, "4s"), (pos + 4, "I")]
        cid, size = struct.unpack_from("<4sI", blob, pos)
        if cid == b"data":
            return fields
        if cid == b"fmt ":
            offsets = (0, 2, 4, 8, 12, 14)
            fields += [(pos + 8 + at, code) for at, code in zip(offsets, "HHIIHH")]
            fields += [(at, "H") for at in range(pos + 24, pos + 8 + size - 1, 2)]
        pos += 8 + size + size % 2


def _field_value(code: str):
    if code == "4s":
        ids = [b"RIFF", b"RIFX", b"RF64", b"WAVE", b"fmt ", b"fact", b"LIST", b"data"]
        return st.sampled_from(ids) | st.binary(min_size=4, max_size=4)
    top = 1 << (8 * struct.calcsize(code))
    edges = [0, 1, 2, 3, 16, 18, 24, 32, 40, 64, top - 1, 0xFFFE]
    return st.sampled_from([e for e in edges if e < top]) | st.integers(0, top - 1)


@pytest.mark.parametrize("name", ["float32x5", "pcm16x3", "pcm24ext"])
@FUZZ
@given(data=st.data())
def test_mutated_header_fields_read_or_raise_data_error(samples, name, data):
    path, blob = samples[name]
    mutant = bytearray(blob)
    fields = _fields(blob)
    for at, code in data.draw(st.lists(st.sampled_from(fields), min_size=1, max_size=3)):
        struct.pack_into("<" + code, mutant, at, data.draw(_field_value(code)))
    _write(path, bytes(mutant))
    try:
        audio, fs = read_wav(path)
    except DataError:
        return
    assert audio.ndim == 2 and audio.dtype == np.float64 and fs > 0


@pytest.mark.parametrize("name", ["float32x5", "pcm16x3", "pcm24ext"])
@FUZZ
@given(data=st.data())
def test_mutated_header_bytes_read_or_raise_data_error(samples, name, data):
    path, blob = samples[name]
    head = blob.index(b"data") + 8
    mutant = bytearray(blob)
    for at in data.draw(st.lists(st.integers(0, head - 1), min_size=1, max_size=4)):
        mutant[at] = data.draw(st.integers(0, 255))
    _write(path, bytes(mutant))
    try:
        read_wav(path)
    except DataError:
        pass


def test_write_failing_in_the_payload_keeps_the_previous_file(
    tmp_path, rng, monkeypatch, disk_full
):
    audio = rng.uniform(-1, 1, (5, 500))
    target = tmp_path / "out.wav"
    target.write_bytes(b"previous contents")
    disk_full(58 + audio.size * 2)  # the 58-byte header and half the payload
    with pytest.raises(OSError):
        write_wav(target, audio, FS)
    assert target.read_bytes() == b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]
    monkeypatch.undo()
    write_wav(target, audio, FS)
    np.testing.assert_array_equal(read_wav(target)[0], audio.astype(np.float32))


@pytest.mark.parametrize("channels", [1, 9])
def test_audio_beyond_a_riff_file_refused_before_its_payload(channels, tmp_path, monkeypatch):
    """The 32-bit RIFF size (4 + 46 header bytes + the samples) is checked
    from the shape, before any float32 payload is built."""
    frames = (0xFFFFFFFF - 50) // (4 * channels) + 1
    assert _riff_size(tmp_path, channels, frames - 1) <= 0xFFFFFFFF
    audio = np.broadcast_to(np.float64(0.0), (channels, frames))

    def forbidden(*args, **kwargs):
        raise AssertionError("a payload was built")

    monkeypatch.setattr(np, "ascontiguousarray", forbidden)
    with pytest.raises(DataError, match=f"{4 * channels * frames} bytes of audio exceed a RIFF"):
        write_wav(tmp_path / "big.wav", audio, FS)
    assert list(tmp_path.iterdir()) == []
