"""Deterministic CSV/JSON serialization helpers.

Numbers are written with 12 significant digits so that repeated runs
of the same seeded experiment produce byte-identical files. A table is
written row by row through one cached %-template per row of cell types,
as CSV or as the JSON document ``{"columns": header, "rows": [...]}``
with one row a line and the same number text. Writers stream into a
temporary file and rename it atomically, so a failed run never leaves a
partial output behind.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import secrets
from pathlib import Path

import numpy as np

from ionstring.chain import ModeSpectrum

SIG_DIGITS = 12


def fmt(value) -> str:
    """Render a number with 12 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), f".{SIG_DIGITS}g")


def _round_floats(obj):
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(fmt(obj))
    return obj


@contextlib.contextmanager
def _atomic_open(path):
    """A handle on a new file renamed onto ``path`` if the block succeeds; ``open()`` gives its mode."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    handle = open(tmp, "x", newline="")  # fails rather than share a name
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write(path, text: str):
    with _atomic_open(path) as handle:
        handle.write(text)


_LABEL = re.compile(r'[^,"\\]+')  # nothing that CSV would quote or JSON escape
# %g spells non-finite floats nan, inf and -inf; JSON readers take NaN, Infinity and -Infinity
_NON_FINITE = re.compile(r"(?<=[\[,])-?(?:nan|inf)(?=[,\]])")


def _check_label(label):
    if not (isinstance(label, str) and label.isprintable() and _LABEL.fullmatch(label)):
        raise ValueError(f'table label {label!r} must be a non-empty printable string without , " or \\')


def _cell_code(cell_type: type, as_json: bool) -> str:
    """%-code of one cell: a number as ``fmt`` renders it, a label as it is (quoted in JSON)."""
    if issubclass(cell_type, (float, np.floating)):
        return f"%.{SIG_DIGITS}g"
    if issubclass(cell_type, (int, np.integer)) and cell_type is not bool:
        return "%d"
    if issubclass(cell_type, str):
        return '"%s"' if as_json else "%s"
    raise TypeError(f"a table cell must be a number or a label, not {cell_type.__name__}")


@functools.lru_cache(maxsize=256)
def _row_template(signature: tuple, as_json: bool) -> tuple[str, tuple]:
    """%-template for a row of these cell types, and the columns that hold labels."""
    row = ",".join(_cell_code(cell_type, as_json) for cell_type in signature)
    return (f"[{row}]" if as_json else row), tuple(i for i, t in enumerate(signature) if issubclass(t, str))


def write_table(path, header: list[str], rows, as_json: bool = False):
    """Write ``rows`` under ``header`` as CSV, or as JSON ``{"columns": header, "rows": [...]}``, row by row.

    A cell is a number (a Python or numpy float or int, not a bool),
    rendered as ``fmt`` renders it, or a label: a non-empty printable
    string without ``,``, ``"`` or ``\\``, written as it is (quoted in
    JSON); the header holds labels. Anything else raises ``TypeError``
    or ``ValueError`` and leaves no file.
    """
    for label in header:
        _check_label(label)
    columns = _row_template((str,) * len(header), as_json)[0] % tuple(header)
    head, between, tail = (f'{{"columns": {columns}, "rows": [', ",\n", "\n]}\n") if as_json else (columns, "\n", "\n")
    with _atomic_open(path) as handle:
        handle.write(head)
        separator = "\n"
        for row in rows:
            cells = tuple(row)
            template, labels = _row_template(tuple(map(type, cells)), as_json)
            for column in labels:
                _check_label(cells[column])
            line = template % cells
            if as_json and "n" in line:
                line = _NON_FINITE.sub(lambda match: match[0].replace("nan", "NaN").replace("inf", "Infinity"), line)
            handle.write(separator + line)
            separator = between
        handle.write(tail)


def write_json(path, payload: dict):
    """Write a JSON document with rounded floats and sorted keys."""
    text = json.dumps(_round_floats(payload), indent=2, sort_keys=True)
    _atomic_write(path, text + "\n")


def mode_spectrum_rows(spectrum: ModeSpectrum):
    """Header and rows ``(mode, frequency_hz, b_ion1, ...)`` of Python numbers, made one at a time for one pass."""
    header = ["mode", "frequency_hz"] + [f"b_ion{i + 1}" for i in range(spectrum.ion_count)]
    frequencies = (spectrum.frequencies / (2.0 * np.pi)).tolist()
    return header, ((m, f, *b.tolist()) for m, (f, b) in enumerate(zip(frequencies, spectrum.eigenvectors.T)))
