"""The binary container shared by bank, ATF and feature files: truncated
and malformed files are rejected as data errors, and an interrupted write
of any output file leaves the previous file in place."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beambank.analysis import beam_pattern, export_pattern
from beambank.beamformer import design_bank, load_bank, save_bank
from beambank.cli import main
from beambank.config import default_mouth_direction
from beambank.errors import DataError, ParseError
from beambank.features import (
    FeatureTensor,
    accumulate_stats,
    export_features,
    import_features,
    save_stats,
)
from beambank.geometry import (
    DirectionSpec,
    export_atfs,
    freefield_atfs,
    import_atfs,
    reference_glasses_5,
    save_geometry,
)

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
    """Writer name -> (path of a saved file, its bytes)."""
    root = tmp_path_factory.mktemp("container")
    out = {}
    for name, write in WRITERS.items():
        path = root / f"saved.{name}"
        write(objects[name], path)
        out[name] = (path, path.read_bytes())
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
