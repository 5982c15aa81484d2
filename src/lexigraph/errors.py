"""Exception hierarchy shared across the package, and its file I/O policy:
`from_json`, the one typed reader of the JSON records the package reads,
`read_json`, the one reader of a whole JSON file, and `write_file`, the one
writer of every artifact.

The CLI maps these onto exit codes: ParameterError -> 1, DataError -> 2,
ExternalServiceError -> 3.
"""

from __future__ import annotations

import csv
import json
import os
import re
import struct
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints


class LexigraphError(Exception):
    """Base class for all package errors."""


class ParameterError(LexigraphError, ValueError):
    """An argument violates an operation's contract (bad k, bad overlap, ...)."""


class DataError(LexigraphError):
    """Input data violates an invariant (duplicate ids, empty vocabulary, ...)."""


class ExternalServiceError(LexigraphError):
    """A remote embedding/chat service failed: `remote.post_json` raises it
    once a request has failed and been retried `remote.MAX_RETRIES` times,
    and each HTTP client raises it at once for a malformed reply."""


@contextmanager
def data_errors(path: str | Path) -> Iterator[None]:
    """Re-raise a fault met while reading, or encoding, the file at `path` as
    a DataError naming it.

    Covers what a missing, truncated, undecodable or ill-shaped file makes a
    parser raise: OSError, ValueError (JSON and Unicode errors among them),
    KeyError, TypeError, RecursionError (JSON nested too deep), csv.Error,
    struct.error (a cut-off binary header) and DataError.
    """
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, RecursionError, csv.Error,
            struct.error, DataError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_json(path: str | Path, cls):
    """The value of type `cls` that the UTF-8 JSON file at `path` holds, read
    by `from_json`; any fault in the file is a DataError naming it."""
    with data_errors(path):
        return from_json(cls, json.loads(Path(path).read_text(encoding="utf-8")))


def write_file(path: str | Path, data: str | bytes) -> None:
    """Replace the file at `path` whole or not at all with `data`, a str
    encoded as UTF-8 first: it is written to a temporary file beside `path`,
    in a directory made if need be, and renamed over `path`. A str that
    UTF-8 cannot encode (a lone surrogate, as a JSON `\\ud800` escape reads),
    or an OSError from making the directory, writing or renaming, is a
    DataError naming `path`, and `path` is left as it was, with no
    temporary file beside it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with data_errors(path):
        if isinstance(data, str):
            data = data.encode("utf-8")
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def from_json(cls, d):
    """The value of type `cls` that the JSON value `d` holds: `d` itself once
    checked or, for a dataclass, the instance built from a JSON object
    through its field annotations (the inverse of `asdict`).

    Types match exactly, so a JSON `true` is not an int, and an int read into
    a float is made that float. `X | None`, `list[X]`, `dict[K, V]` and
    nested dataclasses are followed; a missing field takes its default. An
    unknown field, or a value of another type, is a TypeError naming it.
    """
    return _read(cls, d, "")


@cache
def _spec(hint) -> tuple:
    """(origin, arguments, name -> type hint of each field of a dataclass or
    None) of a type hint."""
    types = None
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        types = {f.name: hints[f.name] for f in fields(hint)}
    return get_origin(hint), get_args(hint), types


def _read(hint, value, where: str):
    if type(value) is hint:
        return value
    origin, args, types = _spec(hint)
    if types is not None and type(value) is dict:
        for k, v in value.items():
            if type(v) is not types.get(k):
                break
        else:  # known fields, each holding exactly its field's type
            return hint(**value)
        if not value.keys() <= types.keys():
            unknown = min(value.keys() - types.keys())
            raise TypeError(f"{where or hint.__name__} has an unknown field {unknown!r}")
        return hint(**{k: _read(types[k], v, f"{where}.{k}".lstrip(".")) for k, v in value.items()})
    if hint is float and type(value) is int:
        return float(value)
    if origin is list and type(value) is list:
        if set(map(type, value)) <= {args[0]}:
            return value
        return [_read(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if origin is dict and type(value) is dict:
        return {_read(args[0], k, where): _read(args[1], v, f"{where}[{k!r}]")
                for k, v in value.items()}
    if origin is UnionType:
        for arg in args:
            try:
                return _read(arg, value, where)
            except TypeError:
                pass
    name = hint.__name__ if type(hint) is type else re.sub(r"[\w.]+\.", "", str(hint))
    raise TypeError(f"{where or 'value'} must be {name}, got {value!r:.50}")
