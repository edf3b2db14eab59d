"""Deterministic CSV/JSON emission and run summaries.

Every CSV cell is written with 17 significant digits, which round-trips
64-bit floats exactly; JSON is emitted with sorted keys. No timestamps go
into data files (a sidecar carries version/time metadata on request), so
identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import json
import time
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "format_value",
    "write_csv",
    "write_summary",
    "read_summary",
    "write_sidecar",
    "validate_config",
]

SCHEMA_VERSION = 1
# cell types that "%.17g" formats to the bytes of format_value
_FLOAT_TYPES = frozenset({float, np.float64})


def format_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x  # the bytes of f"{x:.17g}", at less cost per cell
    return str(x)


def write_csv(path, header, rows) -> None:
    """RFC-4180-style CSV: comma separated, '.' decimal point, LF lines; the file is written at once.

    When every row holds len(header) floats, the whole body is one "%"
    of a "%.17g" template; otherwise each cell goes through format_value.
    Both give the same bytes.
    """
    path = Path(path)
    rows = list(rows)
    cells = tuple(chain.from_iterable(rows))
    if set(map(len, rows)) <= {len(header)} and _FLOAT_TYPES.issuperset(map(type, cells)):
        body = (",".join(["%.17g"] * len(header)) + "\n") * len(rows) % cells
    else:
        body = "".join(",".join([format_value(x) for x in row]) + "\n" for row in rows)
    try:
        with path.open("w", newline="") as fh:
            fh.write(",".join(header) + "\n" + body)
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc


def write_summary(path, summary: dict) -> None:
    """JSON with stable key order; parse(write(s)) == s."""
    path = Path(path)
    try:
        with path.open("w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write summary {path}: {exc}") from exc


def read_summary(path) -> dict:
    path = Path(path)
    try:
        with path.open() as fh:
            return json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read summary {path}: {exc}") from exc


def write_sidecar(path, extra: dict | None = None) -> None:
    """Version/timestamp metadata next to a data file, never inside it."""
    from . import __version__

    meta = {"schema": SCHEMA_VERSION, "version": __version__, "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    if extra:
        meta.update(extra)
    write_summary(str(path) + ".meta.json", meta)


def validate_config(config: dict, known_keys: set[str], context: str) -> dict:
    """Reject unknown keys and schema mismatches in a loaded configuration."""
    if not isinstance(config, dict):
        raise ValueError(f"{context}: configuration must be a JSON object")
    schema = config.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValueError(f"{context}: unsupported schema {schema!r} (expected {SCHEMA_VERSION})")
    unknown = set(config) - known_keys - {"schema"}
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)}")
    return config
