"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ParameterError -> 1, DataError -> 2,
ExternalServiceError -> 3.
"""

from __future__ import annotations

import csv
import struct
import zipfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from types import GenericAlias


class LexigraphError(Exception):
    """Base class for all package errors."""


class ParameterError(LexigraphError, ValueError):
    """An argument violates an operation's contract (bad k, bad overlap, ...)."""


class DataError(LexigraphError):
    """Input data violates an invariant (duplicate ids, empty vocabulary, ...)."""


class ExternalServiceError(LexigraphError):
    """A remote embedding/chat service failed after retries."""


@contextmanager
def data_errors(path: str | Path) -> Iterator[None]:
    """Re-raise a fault met while reading the file at `path` as a DataError
    naming it.

    Covers what a missing, truncated, undecodable or ill-shaped file makes a
    parser raise: OSError, EOFError (a cut-off gzip stream), ValueError (JSON
    and Unicode decoding errors among them), KeyError, TypeError,
    RecursionError, csv.Error, struct.error (a cut-off binary header),
    zipfile.BadZipFile (a cut-off `.npz`) and DataError.
    """
    try:
        yield
    except (OSError, EOFError, ValueError, KeyError, TypeError, RecursionError, csv.Error,
            struct.error, zipfile.BadZipFile, DataError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def check_types(obj, types: dict[str, tuple[type | GenericAlias, ...]]) -> None:
    """Raise TypeError naming the first field of a record read from JSON whose
    value's exact type is not one of its `types` (so a JSON `true` is not an
    int). An allowed `list[X]` takes a list whose every item is exactly an X."""
    for name, allowed in types.items():
        value = getattr(obj, name)
        if type(value) not in allowed and not any(_is_list_of(value, t) for t in allowed):
            names = " or ".join("null" if t is type(None) else str(t) if isinstance(t, GenericAlias)
                                else t.__name__ for t in allowed)
            raise TypeError(f"{name} must be {names}, got {value!r:.50}")


def _is_list_of(value, t: type | GenericAlias) -> bool:
    return (isinstance(t, GenericAlias) and type(value) is t.__origin__
            and set(map(type, value)) <= set(t.__args__))
