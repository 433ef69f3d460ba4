"""The binary container shared by bank, ATF and feature files: truncated
and malformed files are rejected as data errors, every input file reader
refuses a malformed file with one ParseError naming it, and an interrupted
write of any output file leaves the previous file in place."""

import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from beambank import _container, cli
from beambank.analysis import beam_pattern, export_pattern
from beambank.beamformer import MAX_N_FFT, design_bank, load_bank, save_bank
from beambank.cli import main
from beambank.config import default_mouth_direction
from beambank.errors import DataError, ParseError
from beambank.features import (
    FEATURE_MAGIC,
    FeatureTensor,
    accumulate_stats,
    export_features,
    import_features,
    load_stats,
    save_stats,
)
from beambank.geometry import (
    DirectionSpec,
    export_atfs,
    freefield_atfs,
    import_atfs,
    load_geometry,
    reference_glasses_5,
    save_geometry,
)
from beambank.manifest import MANIFEST_SCHEMA

FORMATS = {
    "bank": (save_bank, load_bank),
    "atf": (export_atfs, import_atfs),
    "feat": (export_features, import_features),
}
# every writer that replaces its target atomically: the containers, then
# the text outputs
WRITERS = {
    **{name: write for name, (write, _) in FORMATS.items()},
    "stats": save_stats,
    "pattern.csv": export_pattern,
    "pattern.json": lambda pattern, path: export_pattern(pattern, path, format="json"),
    "geometry": save_geometry,
}
# every reader of an input file the commands take: the containers, then the
# text files (a manifest's rows must be complete scene records)
READERS = {
    **{name: read for name, (_, read) in FORMATS.items()},
    "stats": load_stats,
    "geometry": load_geometry,
    "manifest": lambda path: cli._manifest_wavs(path, "g"),
}
FUZZ = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def objects():
    """Writer name -> an object it writes."""
    geometry = reference_glasses_5()
    directions = [DirectionSpec(azimuth=0.0), DirectionSpec(azimuth=np.pi),
                  default_mouth_direction()]
    freqs = np.fft.rfftfreq(64, 1.0 / 16000)
    rng = np.random.default_rng(3)
    bank = design_bank(geometry, directions, fs=16000, n_fft=64)
    pattern = beam_pattern(bank.weights[0, 4], geometry, float(freqs[4]), look=directions[0])
    labels = ["az0", "az180", "mouth"]
    return {
        "bank": bank,
        "atf": freefield_atfs(geometry, directions, freqs),
        "feat": FeatureTensor(rng.standard_normal((7, 3, 8)), 31.25, labels),
        "stats": accumulate_stats([FeatureTensor(rng.standard_normal((5, 3, 80)), 31.25, labels)]),
        "pattern.csv": pattern,
        "pattern.json": pattern,
        "geometry": geometry,
    }


@pytest.fixture(scope="module")
def saved(tmp_path_factory, objects):
    """Writer name, and "manifest", -> (path of a saved file, its bytes)."""
    root = tmp_path_factory.mktemp("container")
    out = {}
    for name, write in WRITERS.items():
        path = root / f"saved.{name}"
        write(objects[name], path)
        out[name] = (path, path.read_bytes())
    row = {
        "schema": MANIFEST_SCHEMA, "index": 0, "audio_path": "scene_00000.wav", "fs": 16000,
        "num_samples": 100, "geometry_id": "g", "reference": "<self> hi", "scene": {},
        "segments": [{"start": 0, "end": 50, "speaker": "self", "transcript": "hi"}],
    }
    path = root / "manifest.jsonl"
    path.write_text(json.dumps(row) + "\n")
    out["manifest"] = (path, path.read_bytes())
    return out


def _cuts(blob: bytes):
    """Strict prefixes of a saved file, biased to the header's edges."""
    end = blob.index(b"\n")
    edges = [0, 1, end // 2, end - 1, end, end + 1, end + 2, len(blob) - 1]
    return st.one_of(st.sampled_from(edges), st.integers(0, len(blob) - 1))


@pytest.mark.parametrize("name", list(FORMATS))
@FUZZ
@given(data=st.data())
def test_truncated_file_is_a_data_error(saved, name, data):
    path, blob = saved[name]
    cut = path.with_name(f"cut.{name}")
    cut.write_bytes(blob[: data.draw(_cuts(blob), label="cut")])
    with pytest.raises(DataError):
        FORMATS[name][1](cut)


@FUZZ
@given(data=st.data())
def test_verify_on_truncated_bank_exits_2(saved, data):
    path, blob = saved["bank"]
    cut = path.with_name("cut_verify.bbk")
    cut.write_bytes(blob[: data.draw(_cuts(blob), label="cut")])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--bank", str(cut)])
    assert code == 2
    assert out.getvalue() == ""
    assert len(err.getvalue().strip().splitlines()) == 1


_JSON_NON_OBJECTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("name", list(FORMATS))
@FUZZ
@given(value=_JSON_NON_OBJECTS)
def test_non_object_header_is_a_parse_error(saved, name, value):
    path, blob = saved[name]
    bad = path.with_name(f"non_object.{name}")
    bad.write_bytes(json.dumps(value).encode() + b"\n" + blob.split(b"\n", 1)[1])
    with pytest.raises(ParseError, match="not an object"):
        FORMATS[name][1](bad)


@pytest.mark.parametrize("name", list(WRITERS))
def test_write_failing_in_the_payload_keeps_the_previous_file(
    objects, saved, name, tmp_path, monkeypatch, disk_full
):
    _, blob = saved[name]
    write, obj = WRITERS[name], objects[name]
    target = tmp_path / f"out.{name}"
    target.write_bytes(b"previous contents")
    disk_full(len(blob) - 8)
    with pytest.raises(OSError):
        write(obj, target)
    assert target.read_bytes() == b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]
    monkeypatch.undo()
    write(obj, target)
    assert target.read_bytes() == blob


def _document(name, blob):
    """A saved reader input as (its JSON object, the bytes after it): the
    header and payload of a container, a geometry's YAML mapping as JSON."""
    if name == "geometry":
        return yaml.safe_load(blob), b"\n"
    head, tail = blob.split(b"\n", 1)
    return json.loads(head), b"\n" + tail


DEEP = "[" * 2000 + "]" * 2000
# raw JSON (and so YAML) text in place of one field's value
BAD_VALUES = ['"abc"', '{"a": 1}', "[1, [2]]", "null", "true", "-1", "2.5", "1e400",
              "1" + "0" * 5000, DEEP]
# whole files no reader accepts
BAD_FILES = {
    "not-utf8": b"\xff\xfe{}\n",
    "deep": DEEP.encode() + b"\n",
    "syntax": b"{[\n",
    "list": b"[1, 2]\n",
}


def _refused(name, path):
    """The ParseError ``name``'s reader raises on ``path``; it names the path."""
    with pytest.raises(ParseError) as info:
        READERS[name](path)
    assert str(info.value).startswith(f"{path}: bad ")
    return str(info.value)


@pytest.mark.parametrize("label", list(BAD_FILES))
@pytest.mark.parametrize("name", list(READERS))
def test_malformed_file_is_one_parse_error(tmp_path, name, label):
    path = tmp_path / f"bad.{name}"
    path.write_bytes(BAD_FILES[label])
    _refused(name, path)


@pytest.mark.parametrize("name", list(READERS))
def test_any_field_value_loads_or_is_one_parse_error(saved, tmp_path, name):
    """Each field of a valid file set to each wrong-typed, huge, overlong or
    deeply nested value, or deleted: the reader either accepts the file or
    raises a ParseError naming it, never another exception."""
    doc, tail = _document(name, saved[name][1])
    path = tmp_path / f"field.{name}"
    for key in doc:
        texts = [json.dumps({**doc, key: "@@"}).replace('"@@"', value) for value in BAD_VALUES]
        for text in texts + [json.dumps({k: v for k, v in doc.items() if k != key})]:
            path.write_bytes(text.encode() + tail)
            try:
                READERS[name](path)
            except DataError as exc:  # a valid manifest may hold no row of its geometry
                assert isinstance(exc, ParseError) or name == "manifest" and "no scenes" in str(exc)
                assert str(exc).startswith(f"{path}: "), (key, text[:80])


@pytest.mark.parametrize(
    "value", ['"beambank-scene-v2"', '"abc"', '{"a": 1}', "[1, [2]]", "null", "true", "-1", None],
    ids=["v2", "string", "object", "list", "null", "true", "number", "missing"],
)
def test_manifest_row_of_another_schema_is_refused(saved, tmp_path, value):
    """A row's ``schema`` is the manifest's ``magic``: a row of any other
    schema, or none, used to be read as a scene."""
    row = json.loads(saved["manifest"][1])
    text = json.dumps({k: v for k, v in row.items() if k != "schema"})
    if value is not None:
        text = json.dumps({**row, "schema": "@@"}).replace('"@@"', value)
    path = tmp_path / "schema.jsonl"
    path.write_text(text + "\n")
    assert "not a beambank-scene-v1 row (schema " in _refused("manifest", path)


@pytest.mark.parametrize(
    "mics",
    [b"[[a, b, c]]", b"[[0, 0, 0], [1, 2]]", DEEP.encode(), b"[[1" + b"0" * 5000 + b", 0, 0]]",
     b"[[0, 0, 0]]\n\xff\xfe", b"[", b"[[0, 0, .nan]]"],
    ids=["non-numeric", "ragged", "deep", "5000-digits", "not-utf8", "yaml-syntax", "nan"],
)
def test_malformed_geometry_file_is_refused(tmp_path, mics):
    path = tmp_path / "g.yaml"
    path.write_bytes(b"id: g\nmics: " + mics + b"\n")
    _refused("geometry", path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(count=math.inf), "cannot convert float infinity"),
        (lambda doc: doc.update(variance=doc["variance"][:1]), "mean (3, 80) and variance (1, 80)"),
        (lambda doc: doc.update(mean=doc["mean"][0]), "mean (80,) and variance (3, 80)"),
        (lambda doc: doc.pop("magic"), "not a beambank-stats-v1 file (magic None)"),
        (lambda doc: doc.update(count=0), "needs a count >= 1 (got 0)"),
        (lambda doc: doc["variance"][1].__setitem__(3, -1.0), "finite variance >= 0"),
        (lambda doc: doc["variance"][1].__setitem__(3, math.nan), "finite variance >= 0"),
        (lambda doc: doc["mean"][2].__setitem__(0, math.inf), "a finite mean"),
    ],
    ids=["count-inf", "variance-broadcast", "mean-1d", "no-magic", "count-0", "negative",
         "nan-variance", "inf-mean"],
)
def test_malformed_stats_file_is_refused(saved, tmp_path, edit, message):
    """A variance of another shape than the mean used to be broadcast by
    ``normalize``; a count of 1e400 (JSON reads inf) was a traceback."""
    doc, _ = _document("stats", saved["stats"][1])
    edit(doc)
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(doc))
    assert message in _refused("stats", path)


@pytest.mark.parametrize("edit", [lambda blob: blob + b"\0", lambda blob: blob[:-1]],
                         ids=["byte-more", "byte-less"])
@pytest.mark.parametrize("name", list(FORMATS))
def test_payload_of_another_size_is_refused(saved, tmp_path, name, edit):
    path = tmp_path / f"off.{name}"
    path.write_bytes(edit(saved[name][1]))
    assert "payload of" in _refused(name, path)


@pytest.mark.parametrize(
    "name, edit",
    [
        ("feat", lambda head: head.update(shape=[2**20, 2**10, 2**10])),
        ("atf", lambda head: head.update(num_mics=2**40)),
        ("bank", lambda head: head.update(n_fft=MAX_N_FFT)),
    ],
    ids=["feat-2**40", "atf-2**40", "bank-max-n_fft"],
)
def test_huge_header_shape_is_refused_before_allocating(
    saved, tmp_path, monkeypatch, name, edit
):
    """The payload's size is checked against the file before the array is
    allocated: ``np.empty`` is never called."""
    head, tail = _document(name, saved[name][1])
    edit(head)
    path = tmp_path / f"huge.{name}"
    path.write_bytes(json.dumps(head).encode() + tail)
    monkeypatch.setattr(np, "empty", lambda *a, **k: pytest.fail(f"np.empty{a} called"))
    assert "payload of" in _refused(name, path)


def test_payload_is_read_once_into_its_array(objects, tmp_path):
    """The payload goes straight into the array the reader returns: no
    whole-payload bytes object beside it, so the peak is about one payload."""
    rng = np.random.default_rng(5)
    tensor = FeatureTensor(rng.standard_normal((4000, 3, 80)).astype(np.float32), 31.25,
                           objects["feat"].direction_labels)
    path = tmp_path / "big.feat"
    export_features(tensor, path)
    tracemalloc.start()
    try:
        with _container.reading(path, FEATURE_MAGIC, "feature file") as (header, payload):
            data = payload("<f4", header["shape"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(data, tensor.data)
    assert tensor.data.nbytes <= peak < 1.05 * tensor.data.nbytes
