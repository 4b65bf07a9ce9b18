"""Shared exception types for validation and numeric failure modes, and the
UTF-8 decoding that turns an undecodable input file into an input error."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable


class CrimecastError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(CrimecastError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateInputError(CrimecastError, ValueError):
    """Input is structurally valid but statistically degenerate (e.g. zero variance)."""


class CollinearityError(CrimecastError, ValueError):
    """Design matrix is rank deficient; carries the offending column names."""

    def __init__(self, columns: Iterable[str], message: str | None = None) -> None:
        self.columns = tuple(columns)
        if message is None:
            message = "design matrix is rank deficient; offending columns: " + ", ".join(self.columns)
        super().__init__(message)


class EmptyPanelError(CrimecastError, ValueError):
    """Balancing removed every unit from the panel."""


class UsageError(CrimecastError):
    """Configuration or input problem; maps to exit code 2."""


def decode_utf8(data: bytes, path: str | Path) -> str:
    """`data`, the bytes of the file `path`, as UTF-8 text. Bytes that are
    not UTF-8 raise InvalidArgumentError naming `path:line`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise not_utf8(data, exc, path) from None


def not_utf8(data: bytes, exc: UnicodeDecodeError, path: str | Path, first_line: int = 1) -> InvalidArgumentError:
    """The error of `decode_utf8` for `data`, whose decoding raised `exc`."""
    line = first_line + data.count(b"\n", 0, exc.start)
    return InvalidArgumentError(f"{path}:{line}: not UTF-8 text ({exc.reason})")
