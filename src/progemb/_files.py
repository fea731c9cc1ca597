"""How every artifact file is framed: one JSON header line, then a body.

The header is a JSON object with sorted keys, at least {"format": ...,
"version": ...}; `check_header` is its one check. A text artifact's body is
one JSON object per line. A binary artifact's body is its matrices' raw
little-endian float64 bytes in C order, with shapes given by the header;
`write_binary` and `read_binary` frame both binary formats, the checkpoint
and the passage embeddings. Every artifact is written through
`atomic_open`. This module imports nothing from progemb.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

# a JSON number; like `type(v) is int`, `type(v) in NUMBER` refuses a JSON true
NUMBER = (int, float)
# `need`'s list-of-strings kind, built once: each `list[str]` builds a new alias
_STRINGS = list[str]
# each JSON type a reader may ask `need` for, as its messages name it
_KINDS = {str: "a string", int: "an int", bool: "a bool", NUMBER: "a number",
          _STRINGS: "a list of strings", dict: "an object"}


# One artifact line's JSON, keys sorted. Bare NaN / Infinity is not JSON, so
# it is refused rather than written. One encoder serves every line: json.dumps
# with keyword arguments builds a new one per call.
dump: Callable[[Mapping], str] = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


@contextmanager
def atomic_open(path, mode: str):
    """Open a temporary file beside ``path`` for writing. On a clean exit it
    replaces ``path`` in one ``os.replace``; on an error it is removed, so
    ``path`` keeps its previous content and no partial file is left."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def parse_line(path, lineno: int, line) -> dict:
    """The JSON object on line ``lineno`` of ``path``, given as text or bytes."""
    try:
        obj = json.loads(line)
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}:{lineno}: expected an object, got {type(obj).__name__}")
    return obj


def need(path, obj: Mapping, types: Mapping, what: str = "row") -> list:
    """``obj``'s values for the keys of ``types``, in that order, each of its
    exact JSON type: a key of `_KINDS`. Exact, so a JSON true is not an int
    and a string is not a list. A missing or mistyped key is a ValueError
    naming ``path`` and calling ``obj`` ``what``: a row or the header."""
    values = []
    for key, kind in types.items():
        if key not in obj:
            raise ValueError(f"{path}: {what} missing key {key!r}")
        value = obj[key]
        if kind == _STRINGS:
            ok = type(value) is list and all(type(v) is str for v in value)
        else:
            ok = type(value) in (kind if isinstance(kind, tuple) else (kind,))
        if not ok:
            raise ValueError(f"{path}: {what} key {key!r} must be {_KINDS[kind]}, "
                             f"got {reprlib.repr(value)}")
        values.append(value)
    return values


def check_header(path, head: dict, fmt: str, version: int, types: Mapping) -> dict:
    """``head`` when it is a ``fmt`` header of ``version`` that holds every key
    of ``types`` with its exact JSON type (see `need`); otherwise a ValueError
    naming ``path``."""
    if head.get("format") != fmt:
        raise ValueError(f"{path}: expected format {fmt!r}, found {head.get('format')!r}")
    if head.get("version") != version or type(head["version"]) is not int:
        raise ValueError(f"{path}: unsupported {fmt} version {head.get('version')!r}, "
                         f"this reader handles version {version}")
    need(path, head, types, "header")
    return head


def write_binary(path, fmt: str, version: int, fields: Mapping,
                 matrices: Iterable[np.ndarray]) -> None:
    """Write the header line of ``fmt``, ``version`` and ``fields``, then each
    matrix's own contiguous little-endian float64 buffer, not a bytes copy."""
    with atomic_open(path, "wb") as fh:
        fh.write(dump({"format": fmt, "version": version, **fields}).encode("utf-8") + b"\n")
        for matrix in matrices:
            fh.write(np.ascontiguousarray(matrix, dtype="<f8"))


def read_binary(path, fmt: str, version: int, types: Mapping,
                shapes: Callable[[dict], list]) -> tuple[dict, list[np.ndarray]]:
    """The checked header and the matrices of a file `write_binary` wrote.

    ``shapes`` gives the matrices' shapes from the checked header, or raises
    ValueError for a header whose values do not fit together. The body must
    be exactly their bytes. Each matrix is copied once out of a view of the
    file's bytes into an owned, writeable array the optimizer may update in
    place.
    """
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: no header line, expected a {fmt} header")
    head = check_header(path, parse_line(path, 1, raw[:newline]), fmt, version, types)
    dims = shapes(head)
    if any(n < 0 for shape in dims for n in shape):
        raise ValueError(f"{path}: negative matrix shape in {dims}")
    sizes = [math.prod(shape) for shape in dims]
    body = memoryview(raw)[newline + 1:]
    if len(body) != 8 * sum(sizes):
        raise ValueError(f"{path}: body is {len(body)} bytes, expected {8 * sum(sizes)}")
    matrices, offset = [], 0
    for shape, n in zip(dims, sizes):
        matrices.append(np.frombuffer(body, "<f8", n, offset).reshape(shape).astype(np.float64))
        offset += 8 * n
    return head, matrices
