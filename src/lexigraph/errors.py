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
