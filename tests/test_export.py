import csv
import io
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionstring import chain, export
from ionstring.constants import wavevector

from conftest import small_trap


def cell_by_cell_csv(header, rows) -> bytes:
    """The oracle of every table written: each cell through ``fmt`` and the csv module."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else export.fmt(v) for v in row])
    return buffer.getvalue().encode()


# how JSON readers spell the non-finite numbers that %g writes nan, inf and -inf
_JSON_NUMBERS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def cell_by_cell_json(header, rows) -> bytes:
    """The oracle's CSV cells in the JSON table, one row a line: labels quoted, non-finite numbers spelled for JSON."""
    lines = cell_by_cell_csv(header, rows).decode().split("\n")[1:-1]

    def cell(text, value):
        return f'"{text}"' if isinstance(value, str) else _JSON_NUMBERS.get(text, text)

    columns = ",".join(f'"{label}"' for label in header)
    body = "".join(",\n[" + ",".join(map(cell, line.split(","), row)) + "]" for line, row in zip(lines, rows))
    return f'{{"columns": [{columns}], "rows": [{body[1:]}\n]}}\n'.encode()


def rows_of(columns) -> list:
    """The rows of a table given as columns; a 2-D block stands for its columns."""
    flat = []
    for column in columns:
        flat.extend(column.T if isinstance(column, np.ndarray) and column.ndim == 2 else [column])
    return [list(row) for row in zip(*flat)]


def parsed_cells_match(json_rows, csv_rows) -> bool:
    """JSON cells equal the CSV cells read back as the JSON type: labels, ints, floats (NaN matches NaN)."""
    def same(j, c):
        if isinstance(j, (str, int)):
            return j == type(j)(c)
        return j == float(c) or (math.isnan(j) and math.isnan(float(c)))

    return len(json_rows) == len(csv_rows) and all(
        len(j) == len(c) and all(map(same, j, c)) for j, c in zip(json_rows, csv_rows)
    )


def read_both(path_csv, path_json):
    with open(path_csv, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    document = json.loads(path_json.read_text())
    return header, rows, document


def assert_written_as_the_oracle(directory, header, columns):
    """Both formats hold the oracle's bytes, and the JSON reads back as the CSV's cells."""
    rows = rows_of(columns)
    export.write_table(directory / "t.csv", header, columns)
    assert (directory / "t.csv").read_bytes() == cell_by_cell_csv(header, rows)
    export.write_table(directory / "t.json", header, columns, as_json=True)
    assert (directory / "t.json").read_bytes() == cell_by_cell_json(header, rows)
    _, csv_rows, document = read_both(directory / "t.csv", directory / "t.json")
    assert document["columns"] == header and parsed_cells_match(document["rows"], csv_rows)


# ------------------------------------------------------------ float corpora; CI runs the first two at 10^7 cells


def random_bits(size: int, seed: int = 0) -> np.ndarray:
    """Doubles of uniformly random bit patterns: every exponent and sign, subnormals, infinities and NaNs."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size, dtype=np.uint64, endpoint=False)
    return np.concatenate([bits.view(np.float64), [-math.nan, math.nan, -math.inf, math.inf]])


def decimal_ties(per_exponent: int, seed: int = 0) -> np.ndarray:
    """The doubles nearest ``<12 digits>5`` times 10**(e - 12), halfway between two 12-digit decimals, for
    every decimal exponent e from -330 (which underflows to subnormals and zero) to 308."""
    rng = np.random.default_rng(seed)
    return np.array([
        float(f"{digits}5e{e - 12}")
        for e in range(-330, 309) for digits in rng.integers(10**11, 10**12, per_exponent).tolist()
    ])


def _powers_of_ten() -> np.ndarray:
    """10**e for every e of a double and its two neighbours, of both signs."""
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    around = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return np.concatenate([around, -around])


def _round_up_edges() -> np.ndarray:
    """999999999999.5e<e>, where the 12 digits round up to the next decade, and its neighbours."""
    edges = np.array([float(f"999999999999.5e{e}") for e in range(-335, 297)])
    return np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])


def _subnormals() -> np.ndarray:
    bits = np.random.default_rng(3).integers(1, 2**52, 20000, dtype=np.uint64)
    return np.concatenate([bits.view(np.float64), -bits.view(np.float64), [5e-324, -5e-324, 2.2250738585072014e-308]])


FLOAT_CORPORA = {
    "random-bits": lambda: random_bits(50000),
    "decimal-ties": lambda: decimal_ties(8),
    "powers-of-ten": _powers_of_ten,
    "round-up-edges": _round_up_edges,
    "subnormals": _subnormals,
    "zeros-and-infinities": lambda: np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0]),
}


@pytest.mark.parametrize("corpus", list(FLOAT_CORPORA))
def test_the_formatter_writes_what_percent_12g_writes_cell_by_cell(tmp_path, corpus):
    values = FLOAT_CORPORA[corpus]()
    assert_written_as_the_oracle(tmp_path, ["x"], [values])


@pytest.mark.parametrize("width", [2, 3, 1001])
def test_blocks_of_columns_write_what_their_columns_write(tmp_path, width):
    """A 2-D block, as wide as a mode table's or narrow, gives the bytes of the same cells given column by column."""
    values = random_bits(width * 40, seed=width)[: width * 40].reshape(-1, width)
    header = [f"c{i}" for i in range(width + 1)]
    assert_written_as_the_oracle(tmp_path, header, [np.arange(40), values])


def test_the_tie_step_writes_the_cells_rint_rounds_wrong(tmp_path, monkeypatch):
    """Ties are formatted right (above) only through the '%.11e' step: with no tolerance, rint of the scaled
    value misrounds some of them."""
    values = decimal_ties(8)
    monkeypatch.setattr(export, "_TIE", 0.0)
    export.write_table(tmp_path / "t.csv", ["x"], [values])
    written = (tmp_path / "t.csv").read_text().split("\n")[1:-1]
    assert sum(text != "%.12g" % value for text, value in zip(written, values.tolist())) > 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(), max_size=40))
def test_any_floats_write_what_percent_12g_writes(tmp_path_factory, values):
    assert_written_as_the_oracle(tmp_path_factory.getbasetemp(), ["x"], [np.array(values, dtype=float)])


@pytest.mark.parametrize(
    "column",
    [
        np.array([2**63 - 1, -(2**63 - 1), 0, -1]),
        np.array([0, 2**64 - 1, 7, 1], dtype=np.uint64),
        [2**63 - 1, -(2**63 - 1), 10**40, -(10**40)],
        [np.int64(-3), np.uint8(7), 2**63, -(2**70)],
    ],
    ids=["int64", "uint64", "python", "mixed-ints"],
)
def test_int_columns_are_written_as_percent_d(tmp_path, column):
    assert_written_as_the_oracle(tmp_path, ["n", "x"], [column, [0.5, -1.5, 2.0, 1e300]])


@pytest.mark.parametrize(
    "column",
    [["1-2", "plain label", "é", "nan"], np.array(["x_y", "NaN", "1e5", "ü"])],
    ids=["list", "array"],
)
def test_label_columns_are_written_as_they_are(tmp_path, column):
    floats = np.array([math.nan, 0.25, -0.0, 3.0])
    assert_written_as_the_oracle(tmp_path, ["label", "x", "n"], [column, floats, [1, 2, 3, 4]])


def test_rows_across_blocks_write_the_cells_of_the_whole_table(tmp_path):
    """Row blocks are seamless when ints and labels change their width from one block to the next."""
    rows = 3 * export._BLOCK_CELLS
    labels = [f"L{i * i}" for i in range(rows)]
    assert_written_as_the_oracle(
        tmp_path, ["label", "n", "x", "y"],
        [labels, np.arange(rows) ** 3, random_bits(rows)[:rows], np.linspace(-1.0, 1.0, rows)],
    )


# labels: non-empty printable strings without , " or \
_LABELS = st.text(
    st.characters(blacklist_characters=',"\\', blacklist_categories=("Cc", "Cs")), min_size=1, max_size=4
).filter(str.isprintable)
_COLUMN_OF = {
    "floats": lambda n: st.lists(st.floats(), min_size=n, max_size=n),
    "ints": lambda n: st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=n, max_size=n),
    "labels": lambda n: st.lists(_LABELS, min_size=n, max_size=n),
    "float-array": lambda n: st.lists(st.floats(width=32), min_size=n, max_size=n).map(np.float32).map(np.array),
    "int-array": lambda n: st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n).map(np.array),
    "block": lambda n: st.integers(1, 3).flatmap(
        lambda width: st.lists(st.floats(), min_size=n * width, max_size=n * width).map(
            lambda cells: np.array(cells, dtype=float).reshape(n, width)
        )
    ),
}


@st.composite
def _column_tables(draw):
    n_rows = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_OF)), max_size=6))
    columns = [draw(_COLUMN_OF[kind](n_rows)) for kind in kinds]
    width = sum(c.shape[1] if isinstance(c, np.ndarray) and c.ndim == 2 else 1 for c in columns)
    return [f"c{i}" for i in range(width)], columns


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=_column_tables())
def test_any_columns_match_the_cell_by_cell_path(tmp_path_factory, table):
    header, columns = table
    assert_written_as_the_oracle(tmp_path_factory.getbasetemp(), header, columns)


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize(
    "header, column",
    [
        (["x"], [True]),
        (["x"], np.array([False])),
        (["x"], [""]),
        (["x"], ["a,b"]),
        (["x"], np.array(["a,b"])),
        (["x"], ['say "hi"']),
        (["x"], ["line\nbreak"]),
        (["x"], ["back\\slash"]),
        (["x"], [None]),
        (["x"], [1j]),
        (["x"], np.array([1j])),
        (["x"], [1.5, 2]),
        (["x"], [1, "a"]),
        (["x"], np.zeros((1, 1, 1))),
        (["x"], np.zeros((1, 1), dtype=int)),
        (["b,c"], [1.0]),
        ([""], [1.0]),
    ],
    ids=[
        "bool", "numpy-bool", "empty-label", "comma", "comma-array", "quote", "line-break", "backslash", "none",
        "complex", "complex-array", "floats-and-ints", "ints-and-labels", "3-d", "2-d-ints", "comma-header",
        "empty-header",
    ],
)
def test_cells_outside_the_contract_raise_and_leave_no_file(tmp_path, as_json, header, column):
    with pytest.raises((TypeError, ValueError)):
        export.write_table(tmp_path / "t.out", ["ok", *header], [np.full(len(column), 0.5), column], as_json=as_json)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize(
    "header, columns",
    [
        (["a", "b"], [[1.0], [1.0, 2.0, 3.0], []]),
        (["a", "b"], [[1.0]]),
        (["a"], [[1.0], [2.0]]),
        (["a", "b"], [[1.0], [1.0, 2.0]]),
        (["a", "b"], [[1], ["x", "y"]]),
        (["a", "b", "c"], [np.zeros((2, 2)), [1.0]]),
        (["a", "b"], [np.zeros((3, 3))]),
    ],
    ids=["three-ragged", "too-few", "too-many", "float-lengths", "text-lengths", "block-lengths", "block-too-wide"],
)
def test_tables_that_do_not_fit_their_header_raise_and_leave_no_file(tmp_path, as_json, header, columns):
    with pytest.raises(ValueError):
        export.write_table(tmp_path / "t.out", header, columns, as_json=as_json)
    assert list(tmp_path.iterdir()) == []


def test_mode_table_columns_hold_the_old_values_and_view_the_eigenvectors():
    trap = small_trap(5)
    spectrum = chain.lamb_dicke(
        chain.normal_modes(trap, chain.equilibrium_positions(trap), chain.RADIAL_X), wavevector(729e-9)
    )
    header, columns = export.mode_spectrum_columns(spectrum)
    assert header == ["mode", "frequency_hz"] + [f"b_ion{i}" for i in range(1, 6)]
    modes, frequencies, block = columns
    assert modes.dtype.kind == "i" and frequencies.dtype == block.dtype == np.float64
    assert np.shares_memory(block, spectrum.eigenvectors)  # no copy of the N x N block
    old = [[m, spectrum.frequencies[m] / (2.0 * np.pi), *spectrum.eigenvectors[:, m]] for m in range(5)]
    assert cell_by_cell_csv(header, rows_of(columns)) == cell_by_cell_csv(header, old)


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
def test_the_mode_table_writes_the_bytes_of_the_list_built_table(tmp_path, as_json):
    trap = small_trap(1000)
    spectrum = chain.normal_modes(trap, chain.equilibrium_positions(trap), chain.AXIAL)
    header, columns = export.mode_spectrum_columns(spectrum)
    export.write_table(tmp_path / "modes", header, columns, as_json=as_json)
    frequencies = (spectrum.frequencies / (2.0 * np.pi)).tolist()
    listed = [[m, frequencies[m], *spectrum.eigenvectors[:, m].tolist()] for m in range(1000)]
    oracle = cell_by_cell_json if as_json else cell_by_cell_csv
    assert (tmp_path / "modes").read_bytes() == oracle(header, listed)


# A block of 8192 cells takes about 1.5 MB; a copy of the 10^6-cell table would take 8 MB as floats.
_WRITE_PEAK_BYTES = 3 * 2**20


def test_the_mode_table_is_written_in_bounded_memory(tmp_path):
    trap = small_trap(1000)
    spectrum = chain.normal_modes(trap, chain.equilibrium_positions(trap), chain.AXIAL)
    header, columns = export.mode_spectrum_columns(spectrum)
    export.write_table(tmp_path / "warm.csv", ["x"], [[1.0]])  # the formatter's tables, built once
    tracemalloc.start()
    try:
        export.write_table(tmp_path / "modes.csv", header, columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _WRITE_PEAK_BYTES, peak


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_take_the_file_mode_of_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        export.write_table(tmp_path / "a.csv", ["x"], [[1.0]])
        export.write_json(tmp_path / "a.json", {"x": 1.0})
    finally:
        os.umask(previous)
    for name in ("a.csv", "a.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.csv", "a.json"]


def test_a_table_that_fails_midway_leaves_no_file(tmp_path, monkeypatch):
    format_floats = export._format_floats

    def fail_on_the_second_block(x, *args):
        if fail_on_the_second_block.calls:
            raise FloatingPointError("block 2")
        fail_on_the_second_block.calls += 1
        return format_floats(x, *args)

    fail_on_the_second_block.calls = 0
    monkeypatch.setattr(export, "_format_floats", fail_on_the_second_block)
    (tmp_path / "a.csv").write_text("before\n")
    with pytest.raises(FloatingPointError):
        export.write_table(tmp_path / "a.csv", ["x"], [np.zeros(3 * export._BLOCK_CELLS)])
    assert [path.name for path in tmp_path.iterdir()] == ["a.csv"]
    assert (tmp_path / "a.csv").read_text() == "before\n"
