"""The binary container shared by bank, ATF and feature files: one JSON
header line ending in ``\\n``, then a raw little-endian array payload.

:func:`read` makes every check that does not depend on what the header
means; the format modules map header fields to objects and check the
element count. :func:`replace` writes beside the target and then renames
over it, so an interrupted writer leaves the previous file (or none),
never a truncated one. It does not fsync: it guards against an interrupted
process, not against a power cut.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ParseError


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


def read(path, magic: str, dtype: str) -> tuple[dict, np.ndarray]:
    """Return the header object and the flat, read-only ``dtype`` payload
    of a container; any malformed file raises :class:`ParseError` naming
    ``path``."""
    with open(path, "rb") as fh:
        line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    if header.get("magic") != magic:
        raise ParseError(f"{path}: not a {magic} file (magic {header.get('magic')!r})")
    size = np.dtype(dtype).itemsize
    if len(blob) % size:
        raise ParseError(
            f"{path}: payload of {len(blob)} bytes is not a whole number of {size}-byte values"
        )
    return header, np.frombuffer(blob, dtype=dtype)


def shaped(flat: np.ndarray, shape) -> np.ndarray:
    """A writable copy of ``flat`` as ``shape``; ValueError unless the
    element counts agree."""
    shape = tuple(shape)
    if min(shape, default=0) < 0 or flat.size != math.prod(shape):
        raise ValueError(f"payload holds {flat.size} values, header implies shape {shape}")
    return flat.reshape(shape).copy()
