"""Exception hierarchy, the cell-budget guard and the file and JSON guards.

Exit-code mapping used by the CLI: validation failures exit 2, budget
overruns exit 3, certificate failures exit 4.
"""

from __future__ import annotations

import json
import os

DEFAULT_CELL_BUDGET = 1 << 22


class CuspforgeError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ValidationError(CuspforgeError):
    """Malformed input: bad indices, broken invariants, failed preconditions."""

    exit_code = 2


class BudgetError(CuspforgeError):
    """A construction, or what an integral elimination holds, would exceed the cell budget."""

    exit_code = 3


class CertificateError(CuspforgeError):
    """A certificate precondition failed (e.g. unverified filling)."""

    exit_code = 4


def cell_budget(override: int | None = None) -> int:
    """The cap on cells and on the non-zeros plus logged moves an integral
    elimination holds: explicit argument, else CUSPFORGE_BUDGET, else default."""
    if override is not None:
        if override <= 0:
            raise ValidationError("cell budget must be positive")
        return override
    env = os.environ.get("CUSPFORGE_BUDGET")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValidationError(f"CUSPFORGE_BUDGET is not an integer: {env!r}") from exc
        if value <= 0:
            raise ValidationError("CUSPFORGE_BUDGET must be positive")
        return value
    return DEFAULT_CELL_BUDGET


def check_budget(n_cells: int, budget: int | None = None) -> None:
    cap = cell_budget(budget)
    if n_cells > cap:
        raise BudgetError(f"construction needs {n_cells} cells, budget is {cap}")


def read_file(path: str, mode: str = "r"):
    """File contents; a missing, unreadable or non-UTF-8 path raises ValidationError."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def write_file(path: str, payload: str | bytes) -> None:
    """Write ``payload`` to ``path``, making its missing directories: text
    as UTF-8 with a trailing newline, bytes as they are.  A path that
    cannot be written raises ValidationError."""
    binary = isinstance(payload, bytes)
    try:
        os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
        with open(path, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            fh.write(payload)
            if not binary:
                fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def json_document(text: str, *kinds: str) -> dict:
    """Parse a JSON object whose "type" is one of ``kinds``.

    Bad JSON, a non-object or another type raises ValidationError, so
    readers fail with exit code 2 instead of a traceback.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"not a JSON document: {exc}") from exc
    if not isinstance(data, dict) or data.get("type") not in kinds:
        raise ValidationError(f"not a {' or '.join(kinds)} document")
    return data


def json_int(value) -> int:
    """A JSON integer field; floats, strings and booleans raise ValidationError."""
    if type(value) is not int:
        raise ValidationError(f"expected an integer, got {value!r}")
    return value
