import csv
import io
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


FLOATS = [
    0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan, 1.0 / 3.0, -2.5e-7, 123456789.0,
]
INTS = [0, -1, 7, 2**63, -(2**70), 10**40]

CORPUS = [
    [],
    FLOATS,
    INTS,
    FLOATS + INTS,
    [1, 2.5, -3, -0.0],
    [True, False, 1.0],
    [1.0, True],
    [np.float64(0.1), np.float32(0.1), np.int64(-3), np.bool_(True), np.float64(-0.0)],
    [0.1, np.float64(0.1)],
    ["a,b", 'say "hi"', "plain", 1.5, 2],
    ["", 0.5],
    ["line\nbreak", -1],
    [1e-300],
    [10**40],
    [math.nan, "nan", 3],
]


def test_row_templates_write_the_bytes_of_the_cell_by_cell_path(tmp_path):
    header = ["a", "b,c", 'd"e']
    path = tmp_path / "corpus.csv"
    # each row alone, then all of them (twice, so cached templates are reused)
    for rows in [[row] for row in CORPUS] + [CORPUS + CORPUS]:
        export.write_csv(path, header, rows)
        assert path.read_bytes() == cell_by_cell_csv(header, rows)


_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.booleans(),
    st.text(max_size=4),
    st.floats(allow_nan=False, width=64).map(np.float64),
    st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.one_of(st.lists(_CELLS, max_size=6), st.lists(st.floats(), max_size=6)), max_size=6))
def test_any_rows_match_the_cell_by_cell_path(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    export.write_csv(path, ["x"], rows)
    assert path.read_bytes() == cell_by_cell_csv(["x"], rows)


def test_mode_table_rows_are_python_numbers_with_the_old_values():
    trap = small_trap(5)
    spectrum = chain.lamb_dicke(
        chain.normal_modes(trap, chain.equilibrium_positions(trap), chain.RADIAL_X), wavevector(trap.laser_wavelength)
    )
    header, rows = export.mode_spectrum_rows(spectrum)
    assert header == ["mode", "frequency_hz"] + [f"b_ion{i}" for i in range(1, 6)]
    assert all(type(m) is int and all(type(v) is float for v in rest) for m, *rest in rows)
    old = [[m, spectrum.frequencies[m] / (2.0 * np.pi), *spectrum.eigenvectors[:, m]] for m in range(5)]
    assert cell_by_cell_csv(header, rows) == cell_by_cell_csv(header, old)


def test_streamed_mode_table_writes_the_bytes_of_the_list_built_table(tmp_path):
    trap = small_trap(1000)
    spectrum = chain.normal_modes(trap, chain.equilibrium_positions(trap), chain.AXIAL)
    header, rows = export.mode_spectrum_rows(spectrum)
    export.write_csv(tmp_path / "modes.csv", header, rows)
    frequencies = (spectrum.frequencies / (2.0 * np.pi)).tolist()
    listed = [[m, frequencies[m], *spectrum.eigenvectors[:, m].tolist()] for m in range(1000)]
    assert (tmp_path / "modes.csv").read_bytes() == cell_by_cell_csv(header, listed)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_take_the_file_mode_of_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        export.write_csv(tmp_path / "a.csv", ["x"], [[1.0]])
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
        export.write_csv(tmp_path / "a.csv", ["x"], rows())
    assert [path.name for path in tmp_path.iterdir()] == ["a.csv"]
    assert (tmp_path / "a.csv").read_text() == "before\n"
