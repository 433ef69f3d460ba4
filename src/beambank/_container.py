"""The binary container shared by bank, ATF and feature files: one JSON
header line ending in ``\\n``, then a raw little-endian array payload.

:func:`parsing` decides what a malformed input file is: every reader of a
bank, ATF, feature, stats, geometry, manifest or transcript file parses
inside it, so anything its fields raise becomes one ParseError naming the
file. :func:`reading` opens a container, checks its header and compares the
payload's size with the file before it allocates or reads it. :func:`replace`
writes beside the target and renames over it, so an interrupted writer
leaves the previous file (or none), never a truncated one. It does not
fsync: it guards against an interrupted process, not a power cut.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .errors import DataError, ParseError

# a missing or mistyped field, a bad or overflowing number or text, deep
# nesting, or a library check on a parsed value
_MALFORMED = (ArithmeticError, AttributeError, KeyError, TypeError, ValueError,
              RecursionError, DataError)


@contextlib.contextmanager
def parsing(path, what: str):
    """Re-raise a malformed-input error as ``ParseError("{path}: bad
    {what}: ...")``; a ParseError passes through."""
    try:
        yield
    except ParseError:
        raise
    except _MALFORMED as exc:
        raise ParseError(f"{path}: bad {what}: {exc}") from exc


def check_magic(doc, magic: str) -> dict:
    """``doc`` if it is a JSON object with this ``magic``, else ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a JSON {type(doc).__name__}, not an object")
    if doc.get("magic") != magic:
        raise ValueError(f"not a {magic} file (magic {doc.get('magic')!r})")
    return doc


@contextlib.contextmanager
def reading(path, magic: str, what: str):
    """Open a container and yield ``(header, payload)`` inside
    :func:`parsing`; ``payload(dtype, shape)`` reads the rest of the file
    into a new array once its byte length is exactly what the shape needs."""
    with open(path, "rb") as fh, parsing(path, what):
        header = check_magic(json.loads(fh.readline().decode("utf-8")), magic)

        def payload(dtype: str, shape) -> np.ndarray:
            shape, itemsize = tuple(shape), np.dtype(dtype).itemsize
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if min(shape, default=0) < 0 or size != math.prod(shape) * itemsize:
                raise ValueError(f"payload of {size} bytes is not shape {shape} of {dtype}")
            out = np.empty(shape, dtype)
            if fh.readinto(out.reshape(-1).view(np.uint8)) != size:
                raise ValueError("payload changed while it was read")
            return out

        yield header, payload


def replace(path, chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path`` through a temporary file
    in the same directory and ``os.replace``."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    # 0o666 under the umask: the mode a plain open() would have given
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write(path, header: dict, array, dtype: str) -> None:
    """Write ``header`` as one JSON line, then ``array`` as ``dtype``."""
    payload = np.ascontiguousarray(array, dtype=dtype)
    replace(path, (json.dumps(header).encode("utf-8"), b"\n", payload.tobytes()))
