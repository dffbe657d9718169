"""Deterministic report rendering for the command-line experiments.

Reports must be byte-identical across runs with the same command, seed
and parameters, so everything nondeterministic (wall time, hostnames)
stays out of them; timings go to stderr.  JSON is sorted and indented;
CSV rows carry a fixed field order with full-precision floats.  The
module also holds the reader for the '#'-commented float CSV files of
ray sets.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA_VERSION = 1


def _plain(value):
    """numpy arrays and scalars as Python values; ``json`` writes floats,
    float subclasses such as ``np.float64`` included, through their repr."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, default=_plain) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def render_csv(rows: list[dict], preamble: dict) -> str:
    """Rows of one schema under a header of the first row's keys, in order;
    the envelope fields of ``preamble`` become '#' comments."""
    lines = [f"# {key}: {_csv_cell(preamble[key])}" for key in sorted(preamble)]
    lines.append(",".join(rows[0]))
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row.values()))
    return "\n".join(lines) + "\n"


def parse_float_csv(text: str, columns: int, source: str) -> tuple[np.ndarray, list[int]]:
    """Rows of ``columns`` comma-separated finite floats, as a 2-D array,
    with the line number of each row.

    '#' starts a comment and blank lines are skipped; any other line
    must hold exactly ``columns`` finite numbers, or ``ValueError`` names
    ``source`` and the line.
    """
    rows, numbers = [], []
    for number, line in enumerate(text.splitlines(), start=1):
        fields = line.split("#", 1)[0].strip()
        if not fields:
            continue
        try:
            row = [float(part) for part in fields.split(",")]
        except ValueError:
            row = []
        if len(row) != columns or not all(map(math.isfinite, row)):
            raise ValueError(
                f"{source}, line {number}: expected {columns} finite numbers: {fields!r}"
            )
        rows.append(row)
        numbers.append(number)
    return np.array(rows, dtype=float).reshape(-1, columns), numbers
