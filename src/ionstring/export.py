"""Deterministic CSV/JSON serialization helpers.

Numbers are written with 12 significant digits so that repeated runs
of the same seeded experiment produce byte-identical files. A table
goes in as columns (float arrays and 2-D float blocks of adjacent
columns, int arrays, and sequences of floats, ints or labels) and is
written as CSV or as the JSON document ``{"columns": header, "rows":
[...]}`` with one row a line and the same number text. Its float cells
are formatted by one numpy formatter, ``_format_floats``, in blocks of
whole rows of at most about ``_BLOCK_CELLS`` (8192) cells: the 12
digits come from ``log10``, a product with a correctly rounded power of
ten and ``rint``, and the cells within ``_TIE`` of a rounding tie take
theirs from Python's correctly rounded ``'%.11e'``. It writes the text
``'%.12g' % x`` gives, byte for byte, and makes no Python float per
cell. Writers stream into a temporary file and rename it atomically,
so a failed run never leaves a partial output behind.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import secrets
from pathlib import Path
from typing import NamedTuple, Sequence

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
    """A binary handle on a new file renamed onto ``path`` if the block succeeds; ``open()`` gives its mode."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    handle = open(tmp, "xb")  # fails rather than share a name
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write(path, text: str):
    with _atomic_open(path) as handle:
        handle.write(text.encode())


_LABEL = re.compile(r'[^,"\\]+')  # nothing that CSV would quote or JSON escape


def _check_label(label):
    if not (isinstance(label, str) and label.isprintable() and _LABEL.fullmatch(label)):
        raise ValueError(f'table label {label!r} must be a non-empty printable string without , " or \\')


# ------------------------------------------------------------ the float formatter

# Float cells per block: a block's temporaries, about 150 bytes a cell, stay near 1 MB.
_BLOCK_CELLS = 8192

# A float cell is laid out in 36 byte slots, and a keep mask picks its text from them: the sign,
# "0.000" (the lead of 0.000123), the 12 digits each followed by a point, "e", the exponent's sign
# and its three digits, and the separator after the cell.
_SIGN, _LEAD, _DIGITS, _EXPONENT, _SEPARATOR, _SLOTS = 0, 1, 6, 30, 35, 36
_TEMPLATE = b"-0.000" + b"0." * SIG_DIGITS + b"e+000,"
# Layouts 0-15 are fixed notation for decimal exponents -4 to 11, where %g writes no exponent;
# then exponent notation with two and with three exponent digits, and the cells that are zero,
# infinite or NaN, whose text comes from the table rather than the digits.
_EXP2, _EXP3, _ZERO, _INF, _NAN = 16, 17, 18, 19, 20
_LAYOUTS = 21
_E_MIN, _E_MAX = -324, 308  # decimal exponents of the nonzero finite doubles
_E_LOW = -297  # below it 10**(11 - e) overflows, and the scaling takes two products
# A double times one correctly rounded power of ten, or two, lies within 4 * 2**-53 of the exact
# product, under 5e-4 below the 1e12 top of the scaled range. A cell scaled to within _TIE of a
# rounding tie, or outside [1e11, 1e12), takes its digits from Python's correctly rounded '%.11e'.
_TIE = 1e-3
# |s - _MIDDLE| > _HALF_RANGE exactly when s < 1e11 or s > 999999999999.25
_MIDDLE, _HALF_RANGE = 549999999999.625, 449999999999.625


class _Tables(NamedTuple):
    """What ``_format_floats`` looks up; ``e`` is indexed from ``_E_MIN``."""

    scale: np.ndarray  # by e: 10**(11 - e), or 10**200 below _E_LOW
    low_scale: np.ndarray  # by e: 10**(11 - e - 200) below _E_LOW, else 1
    key: np.ndarray  # by e: 2 * 13 * its layout
    exponent: np.ndarray  # by e, uint32: the bytes of the exponent's sign and three digits
    digits: np.ndarray  # (10**4,) uint64: the bytes of four digits each followed by a point
    significant: np.ndarray  # (3, 10**4) int8: by group k and its value g, 2 (4 k + its last nonzero digit)
    special: np.ndarray  # (layouts, 36) uint8: the slots of zero, inf and NaN cells
    keep: np.ndarray  # 36-byte rows of bools: by the key 2 (13 layout + significant digits) + sign


def _keep_table(texts: dict) -> np.ndarray:
    """By (layout, significant digits, sign), the 36 slots %g keeps, as bools: the significant digits (trailing
    zeros stripped), the integer digits in fixed notation, a point if digits follow it, and the text of a
    zero, inf or NaN cell."""
    slot = np.arange(_SLOTS)
    number = (slot - _DIGITS) // 2 + 1  # the digit a digit slot holds, or the point slot follows
    digit = (slot >= _DIGITS) & (slot < _EXPONENT) & (slot % 2 == _DIGITS % 2)
    point = (slot >= _DIGITS) & (slot < _EXPONENT) & ~digit
    significant = np.arange(SIG_DIGITS + 1)[:, None]
    keep = np.zeros((_LAYOUTS, SIG_DIGITS + 1, 2, _SLOTS), bool)
    for layout in range(_LAYOUTS):
        e = layout - 4
        if layout >= _ZERO:
            kept = (slot >= _DIGITS) & (slot < _DIGITS + len(texts[layout]))
        elif layout >= _EXP2:
            kept = (digit & (number <= significant)) | (point & (number == 1) & (significant > 1))
            kept |= (slot >= _EXPONENT) & (slot < _EXPONENT + 2)  # "e" and the exponent's sign
            kept |= (slot >= _EXPONENT + 2 + (layout == _EXP2)) & (slot < _SEPARATOR)
        elif e >= 0:
            integer = np.maximum(significant, e + 1)
            kept = (digit & (number <= integer)) | (point & (number == e + 1) & (significant > e + 1))
        else:  # "0." and -e - 1 zeros before the digits
            kept = ((slot >= _LEAD) & (slot < _LEAD + 1 - e)) | (digit & (number <= significant))
        keep[layout] = np.broadcast_to(kept, (SIG_DIGITS + 1, _SLOTS))[:, None, :]
    keep[..., _SEPARATOR] = True
    keep[:, :, 1, _SIGN] = True
    keep[_NAN, :, 1, _SIGN] = False
    return keep.reshape(-1, _SLOTS)


@functools.cache
def _tables(as_json: bool) -> _Tables:
    """Built on first use, in about a millisecond, so importing the module costs nothing."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    scale = np.array([float(f"1e{11 - k if k >= _E_LOW else 200}") for k in e.tolist()])
    low_scale = np.ones(e.size)
    low_scale[e < _E_LOW] = [float(f"1e{11 - k - 200}") for k in e[e < _E_LOW].tolist()]
    layout = np.where(abs(e) < 100, _EXP2, _EXP3)
    layout[(e >= -4) & (e < SIG_DIGITS)] = e[(e >= -4) & (e < SIG_DIGITS)] + 4
    key = 2 * (SIG_DIGITS + 1) * layout
    exponent_digits = abs(e)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    exponent_sign = np.where(e < 0, ord("-"), ord("+"))[:, None]
    exponent = np.hstack([exponent_sign, exponent_digits]).astype(np.uint8).view(np.uint32)[:, 0]
    group = np.indices((10,) * 4).reshape(4, -1)  # the four digits of each group 0000 to 9999
    words = np.full((10**4, 8), ord("."), np.uint8)
    words[:, ::2] = group.T + ord("0")
    digits = words.view(np.uint64)[:, 0]
    last = (np.arange(1, 5)[:, None] * (group > 0)).max(axis=0)  # the place of its last nonzero digit, or 0
    significant = np.stack([np.where(last > 0, 2 * (last + 4 * k), 0) for k in range(3)]).astype(np.int8)
    texts = {_ZERO: b"0", _INF: b"Infinity" if as_json else b"inf", _NAN: b"NaN" if as_json else b"nan"}
    special = np.frombuffer(_TEMPLATE * _LAYOUTS, np.uint8).reshape(_LAYOUTS, _SLOTS).copy()
    for layout_of, text in texts.items():
        special[layout_of, _DIGITS : _DIGITS + len(text)] = np.frombuffer(text, np.uint8)
    keep = _keep_table(texts).view(f"V{_SLOTS}")[:, 0]
    tables = _Tables(scale, low_scale, key, exponent, digits, significant, special, keep)
    for table in tables:
        table.flags.writeable = False
    return tables


def _format_floats(x: np.ndarray, chars: np.ndarray, keep: np.ndarray, tables: _Tables):
    """Lay out ``'%.12g' % v`` of each cell of ``x`` (rows, columns) in ``chars`` and mark it in ``keep``.

    Both outputs are (rows, columns, 36); each cell's separator slot holds ``,`` and is kept. The
    12 digits are ``rint`` of the cell scaled into [1e11, 1e12) by the power of ten its ``log10``
    gives; cells near a tie or outside that range (about 0.2% of them) take theirs from ``'%.11e'``.
    """
    a = np.abs(x)
    regular = (a > 0) & (a < np.inf)  # NaN is neither
    safe = np.where(regular, a, 1.0)
    # e - _E_MIN, truncated as it is positive; near a power of ten it can come out one off, which moves
    # the scaled value outside [1e11, 1e12) or leaves it within 0.05 of 1e11, where its digits stay right
    e = (np.log10(safe) - _E_MIN).astype(np.intp)
    scaled = safe * tables.scale.take(e)
    if e.min() < _E_LOW - _E_MIN:
        scaled *= tables.low_scale.take(e)
    d = np.rint(scaled)
    fallback = (np.abs(scaled - d) > 0.5 - _TIE) | (np.abs(scaled - _MIDDLE) > _HALF_RANGE)
    if fallback.any():
        cells = np.nonzero(fallback)
        texts = ["%.11e" % value for value in a[cells].tolist()]
        d[cells] = [int(text[0] + text[2:13]) for text in texts]
        e[cells] = [int(text[14:]) - _E_MIN for text in texts]
    # the 12 digits in three groups of four, each written as one 8-byte word of digits and points
    low = d.astype(np.int64)
    high = low // 10**8
    low -= high * 10**8
    middle = low // 10**4
    low -= middle * 10**4
    chars[...] = np.frombuffer(_TEMPLATE, np.uint8)
    words = chars[..., _DIGITS:_EXPONENT].view(np.uint64)
    for k, group in enumerate((high, middle, low)):
        np.take(tables.digits, group, out=words[..., k], mode="clip")
    significant = tables.significant[0].take(high)
    np.maximum(significant, tables.significant[1].take(middle), out=significant)
    np.maximum(significant, tables.significant[2].take(low), out=significant)
    np.take(tables.exponent, e, out=chars[..., _EXPONENT + 1 : _SEPARATOR].view(np.uint32)[..., 0], mode="clip")
    key = tables.key.take(e)
    key += significant
    if not regular.all():
        cells = np.nonzero(~regular)
        layout = np.where(a[cells] == 0, _ZERO, np.where(np.isnan(a[cells]), _NAN, _INF))
        chars[cells] = tables.special[layout]
        key[cells] = 2 * (SIG_DIGITS + 1) * layout
    key += np.signbit(x)
    np.take(tables.keep, key, out=keep.view(tables.keep.dtype)[..., 0], mode="clip")


# ------------------------------------------------------------------- tables


class _Run(NamedTuple):
    """Adjacent float columns, as 2-D ``blocks`` of rows, or one int or label column of ``texts``."""

    blocks: list | None = None
    texts: Sequence | None = None
    quote: bool = False

    @property
    def width(self) -> int:
        return 1 if self.blocks is None else sum(block.shape[1] for block in self.blocks)


def _float_block(column) -> np.ndarray | None:
    """``column`` as a 2-D float64 block of rows, if it is a 1-D or 2-D float array or a sequence of floats."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind != "f" or column.ndim not in (1, 2):
            return None
        column = column.astype(np.float64, copy=False)
    elif all(isinstance(cell, (float, np.floating)) for cell in column):
        column = np.array(column, dtype=np.float64)
    else:
        return None
    return column[:, None] if column.ndim == 1 else column


def _text_run(column, as_json: bool) -> _Run:
    """An int column, written as %d, or a label column; anything else raises ``TypeError``."""
    if isinstance(column, np.ndarray):
        if column.ndim != 1 or column.dtype.kind not in "iuU":
            raise TypeError(f"a table column holds floats, ints or labels, not {column.dtype} of shape {column.shape}")
        labels = column.dtype.kind == "U"
    elif all(isinstance(cell, (int, np.integer)) and not isinstance(cell, bool) for cell in column):
        labels = False
    elif all(isinstance(cell, str) for cell in column):
        labels = True
    else:
        kinds = ", ".join(sorted({type(cell).__name__ for cell in column}))
        raise TypeError(f"a table column holds floats, ints (not bools) or labels, one kind of them, not {kinds}")
    if labels:
        for label in column:
            _check_label(label)
    return _Run(texts=column, quote=labels and as_json)


def _runs(header: list, columns, as_json: bool) -> tuple[list[_Run], int]:
    """The table's runs of columns and its row count; a table that does not fit ``header`` raises ``ValueError``."""
    runs, lengths = [], set()
    for column in columns:
        block = _float_block(column)
        lengths.add(len(column))
        if block is None:
            runs.append(_text_run(column, as_json))
        elif runs and runs[-1].blocks is not None:
            runs[-1].blocks.append(block)
        else:
            runs.append(_Run(blocks=[block]))
    width = sum(run.width for run in runs)
    if width != len(header):
        raise ValueError(f"a table of {width} columns under a header of {len(header)}")
    if len(lengths) > 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    return runs, lengths.pop() if lengths else 0


def _rows(runs: list[_Run], start: int, stop: int, prefix: bytes, end: str, tables: _Tables) -> np.ndarray:
    """The bytes of rows ``start`` to ``stop``, each after ``prefix`` and its last cell followed by ``end``."""
    rows = stop - start
    pieces = []
    for run in runs:
        separator = end if run is runs[-1] else ","
        if run.blocks is None:
            values = run.texts[start:stop]
            values = values.tolist() if isinstance(values, np.ndarray) else values
            form = '"{}"' if run.quote else "{}"
            cells = np.array([(form.format(value) + separator).encode() for value in values])
            pieces.append(cells.view(np.uint8).reshape(rows, -1))
        else:
            pieces.append(run)
    width = len(prefix) + sum(_SLOTS * piece.width if isinstance(piece, _Run) else piece.shape[1] for piece in pieces)
    chars = np.empty((rows, width), np.uint8)
    keep = np.empty((rows, width), bool)
    chars[:, : len(prefix)] = np.frombuffer(prefix, np.uint8)
    keep[:, : len(prefix)] = True
    offset = len(prefix)
    for piece in pieces:
        if isinstance(piece, np.ndarray):
            chars[:, offset : offset + piece.shape[1]] = piece
            np.not_equal(piece, 0, out=keep[:, offset : offset + piece.shape[1]])
            offset += piece.shape[1]
            continue
        cells = chars[:, offset : offset + _SLOTS * piece.width].reshape(rows, piece.width, _SLOTS)
        marks = keep[:, offset : offset + _SLOTS * piece.width].reshape(rows, piece.width, _SLOTS)
        blocks = [block[start:stop] for block in piece.blocks]
        x = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        _format_floats(np.ascontiguousarray(x), cells, marks, tables)
        if piece is runs[-1]:
            marks[:, -1, _SEPARATOR] = bool(end)
            if end:
                cells[:, -1, _SEPARATOR] = ord(end)
        offset += _SLOTS * piece.width
    return chars.ravel().take(np.flatnonzero(keep))


def write_table(path, header: list[str], columns, as_json: bool = False):
    """Write the table of ``columns`` under ``header`` as CSV, or as JSON ``{"columns": header, "rows": [...]}``.

    A column is a 1-D float array, a 2-D float array that is a block of
    adjacent columns (such as a mode table's eigenvectors), an int
    array, or a sequence of floats, of ints (Python ints past int64
    too, not bools) or of labels. A float is written as ``'%.12g'``
    writes it, an int as ``%d``, and a label, a non-empty printable
    string without ``,``, ``"`` or ``\\``, as it is (quoted in JSON); the
    header holds labels. JSON spells non-finite floats ``NaN``,
    ``Infinity`` and ``-Infinity``. The columns must fill the header and
    have one length; anything else raises ``TypeError`` or
    ``ValueError`` and leaves no file.

    The rows go out in blocks of at most about ``_BLOCK_CELLS`` cells (one
    row at least), each formatted by ``_format_floats`` with its float
    cells taken from views of the columns, so no copy of the table is
    made. Cells within ``_TIE`` of a rounding tie take their digits from
    Python's ``'%.11e'``.
    """
    for label in header:
        _check_label(label)
    runs, n_rows = _runs(header, columns, as_json)
    labels = ",".join(f'"{label}"' if as_json else label for label in header)
    if as_json:
        head, prefix, end, tail = f'{{"columns": [{labels}], "rows": [', b",\n[", "]", "\n]}\n"
    else:
        head, prefix, end, tail = labels, b"\n", "", "\n"
    tables = _tables(as_json)
    step = max(1, _BLOCK_CELLS // max(1, len(header)))
    with _atomic_open(path) as handle:
        handle.write(head.encode())
        for start in range(0, n_rows, step):
            text = _rows(runs, start, min(start + step, n_rows), prefix, end, tables)
            handle.write(text[1:] if as_json and start == 0 else text)  # the first JSON row follows no comma
        handle.write(tail.encode())


def write_json(path, payload: dict):
    """Write a JSON document with rounded floats and sorted keys."""
    text = json.dumps(_round_floats(payload), indent=2, sort_keys=True)
    _atomic_write(path, text + "\n")


def mode_spectrum_columns(spectrum: ModeSpectrum):
    """Header and columns ``mode``, ``frequency_hz`` and the ``b_ion`` block, a view of the eigenvectors."""
    header = ["mode", "frequency_hz"] + [f"b_ion{i + 1}" for i in range(spectrum.ion_count)]
    modes = np.arange(spectrum.frequencies.size)
    return header, [modes, spectrum.frequencies / (2.0 * np.pi), spectrum.eigenvectors.T]
