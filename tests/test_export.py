import csv
import io
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionstring import chain, export
from ionstring.constants import wavevector

from conftest import small_trap


def cell_by_cell_csv(header, rows) -> bytes:
    """The writer before row templates: every cell through ``fmt`` and the csv module."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else export.fmt(v) for v in row])
    return buffer.getvalue().encode()


def cell_by_cell_json(header, rows) -> bytes:
    """The JSON table around the oracle's CSV lines, one row a line, for rows of finite numbers."""
    head, *lines = cell_by_cell_csv(header, rows).decode().splitlines()
    columns = ",".join(f'"{label}"' for label in head.split(","))
    body = ",\n".join(f"[{line}]" for line in lines)
    return f'{{"columns": [{columns}], "rows": [\n{body}\n]}}\n'.encode()


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


FLOATS = [
    0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan, 1.0 / 3.0, -2.5e-7, 123456789.0,
]
INTS = [0, -1, 7, 2**63, -(2**70), 10**40]

# every row fits the cell contract: numbers (Python or numpy floats and ints) and labels
CORPUS = [
    [],
    FLOATS,
    INTS,
    FLOATS + INTS,
    [1, 2.5, -3, -0.0],
    [np.float64(0.1), np.float32(0.1), np.int64(-3), np.uint8(7), np.float64(-0.0)],
    [0.1, np.float64(0.1)],
    ["1-2", "plain label", 1.5, 2],
    [np.str_("x_y"), "nan", "é", 0.5],
    [1e-300],
    [10**40],
    [math.nan, "NaN", 3],
]


def test_row_templates_write_the_bytes_of_the_cell_by_cell_path(tmp_path):
    path, path_json = tmp_path / "corpus.csv", tmp_path / "corpus.json"
    by_width = {}
    for row in CORPUS:
        by_width.setdefault(len(row), []).append(row)
    # each row alone, then each width's rows together (twice, so cached templates are reused)
    for rows in [[row] for row in CORPUS] + [group + group for group in by_width.values()]:
        header = [f"c{i}" for i in range(len(rows[0]))]
        export.write_table(path, header, rows)
        assert path.read_bytes() == cell_by_cell_csv(header, rows)
        export.write_table(path_json, header, rows, as_json=True)
        _, csv_rows, document = read_both(path, path_json)
        assert document["columns"] == header and parsed_cells_match(document["rows"], csv_rows)


# labels: non-empty printable strings without , " or \
_LABELS = st.text(
    st.characters(blacklist_characters=',"\\', blacklist_categories=("Cc", "Cs")), min_size=1, max_size=4
).filter(str.isprintable)
_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**30), max_value=10**30),
    _LABELS,
    st.floats(allow_nan=False, width=64).map(np.float64),
    st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.one_of(st.lists(_CELLS, max_size=6), st.lists(st.floats(), max_size=6)), max_size=6))
def test_any_rows_match_the_cell_by_cell_path(tmp_path_factory, rows):
    base = tmp_path_factory.getbasetemp()
    export.write_table(base / "rows.csv", ["x"], rows)
    assert (base / "rows.csv").read_bytes() == cell_by_cell_csv(["x"], rows)
    export.write_table(base / "rows.json", ["x"], rows, as_json=True)
    _, csv_rows, document = read_both(base / "rows.csv", base / "rows.json")
    assert document["columns"] == ["x"] and parsed_cells_match(document["rows"], csv_rows)


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize(
    "header, row",
    [
        (["x"], [True]),
        (["x"], [np.bool_(False)]),
        (["x"], [""]),
        (["x"], ["a,b"]),
        (["x"], ['say "hi"']),
        (["x"], ["line\nbreak"]),
        (["x"], ["back\\slash"]),
        (["x"], [None]),
        (["x"], [1j]),
        (["b,c"], [1.0]),
        ([""], [1.0]),
    ],
    ids=[
        "bool", "numpy-bool", "empty-label", "comma", "quote", "line-break", "backslash", "none", "complex",
        "comma-header", "empty-header",
    ],
)
def test_cells_outside_the_contract_raise_and_leave_no_file(tmp_path, as_json, header, row):
    with pytest.raises((TypeError, ValueError)):
        export.write_table(tmp_path / "t.out", header, [[0.5] * len(header), row], as_json=as_json)
    assert list(tmp_path.iterdir()) == []


def test_mode_table_rows_are_python_numbers_with_the_old_values():
    trap = small_trap(5)
    spectrum = chain.lamb_dicke(
        chain.normal_modes(trap, chain.equilibrium_positions(trap), chain.RADIAL_X), wavevector(729e-9)
    )
    header, rows = export.mode_spectrum_rows(spectrum)
    rows = list(rows)  # made for one pass
    assert header == ["mode", "frequency_hz"] + [f"b_ion{i}" for i in range(1, 6)]
    assert all(type(m) is int and all(type(v) is float for v in rest) for m, *rest in rows)
    old = [[m, spectrum.frequencies[m] / (2.0 * np.pi), *spectrum.eigenvectors[:, m]] for m in range(5)]
    assert cell_by_cell_csv(header, rows) == cell_by_cell_csv(header, old)


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
def test_streamed_mode_table_writes_the_bytes_of_the_list_built_table(tmp_path, as_json):
    trap = small_trap(1000)
    spectrum = chain.normal_modes(trap, chain.equilibrium_positions(trap), chain.AXIAL)
    header, rows = export.mode_spectrum_rows(spectrum)
    export.write_table(tmp_path / "modes", header, rows, as_json=as_json)
    frequencies = (spectrum.frequencies / (2.0 * np.pi)).tolist()
    listed = [[m, frequencies[m], *spectrum.eigenvectors[:, m].tolist()] for m in range(1000)]
    oracle = cell_by_cell_json if as_json else cell_by_cell_csv
    assert (tmp_path / "modes").read_bytes() == oracle(header, listed)


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


def test_a_table_that_fails_midway_leaves_no_file(tmp_path):
    def rows():
        yield [1.0]
        raise FloatingPointError("row 2")

    (tmp_path / "a.csv").write_text("before\n")
    with pytest.raises(FloatingPointError):
        export.write_table(tmp_path / "a.csv", ["x"], rows())
    assert [path.name for path in tmp_path.iterdir()] == ["a.csv"]
    assert (tmp_path / "a.csv").read_text() == "before\n"
