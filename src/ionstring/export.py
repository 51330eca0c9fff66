"""Deterministic CSV/JSON serialization helpers.

Numbers are written with 12 significant digits so that repeated runs
of the same seeded experiment produce byte-identical files; a CSV row
of Python floats and ints takes a cached %-template, with the same
bytes. Writers stream into a temporary file and rename it atomically,
so a failed run never leaves a partial output behind.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import secrets
from pathlib import Path

import numpy as np

from ionstring.chain import ModeSpectrum
from ionstring.coupling import CouplingMatrix

SIG_DIGITS = 12


def fmt(value) -> str:
    """Render a number with 12 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), f".{SIG_DIGITS}g")


def _round_floats(obj):
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_round_floats(v) for v in obj.tolist()]
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


_CODES = {float: f"%.{SIG_DIGITS}g", int: "%d"}


@functools.lru_cache(maxsize=256)
def _row_template(signature: tuple) -> str | None:
    """%-template for a row of these cell types, if all are Python floats or ints (a bool is neither)."""
    return ",".join(map(_CODES.get, signature)) + "\n" if set(signature) <= _CODES.keys() else None


def write_csv(path, header: list[str], rows):
    """Write rows of numbers (or strings) with deterministic formatting, streamed row by row."""
    with _atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            template = _row_template(tuple(map(type, row)))
            if template is None:
                writer.writerow([v if isinstance(v, str) else fmt(v) for v in row])
            else:
                handle.write(template % tuple(row))


def write_json(path, payload: dict):
    """Write a JSON document with rounded floats and sorted keys."""
    text = json.dumps(_round_floats(payload), indent=2, sort_keys=True)
    _atomic_write(path, text + "\n")


class _ModeRows:
    """Rows ``[mode, frequency_hz, b_ion1, ...]`` of Python numbers, made one at a time on each pass."""

    def __init__(self, spectrum: ModeSpectrum):
        self.spectrum = spectrum

    def __iter__(self):
        frequencies = (self.spectrum.frequencies / (2.0 * np.pi)).tolist()
        return ([m, f, *b.tolist()] for m, (f, b) in enumerate(zip(frequencies, self.spectrum.eigenvectors.T)))


def mode_spectrum_rows(spectrum: ModeSpectrum):
    header = ["mode", "frequency_hz"] + [
        f"b_ion{i + 1}" for i in range(spectrum.ion_count)
    ]
    return header, _ModeRows(spectrum)


def mode_spectrum_dict(spectrum: ModeSpectrum) -> dict:
    out = {
        "direction": spectrum.direction,
        "frequencies_hz": (spectrum.frequencies / (2.0 * np.pi)).tolist(),
        "eigenvectors": spectrum.eigenvectors.tolist(),
        "ion_mass_kg": spectrum.ion_mass,
    }
    if spectrum.lamb_dicke is not None:
        out["lamb_dicke"] = spectrum.lamb_dicke.tolist()
    return out


def coupling_dict(coupling: CouplingMatrix) -> dict:
    return {
        "j_rad_s": coupling.j.tolist(),
        "field_b_rad_s": coupling.field_b,
    }
