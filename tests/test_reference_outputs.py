"""The committed reference sweeps still come out of the library, cell by cell.

Each case of ``regenerate_reference.CASES`` is rerun and every table and
schedule it writes is compared with its file under ``tests/data/reference/``.
The files are parsed here, not by the library's reader.  A numeric cell may
differ from its reference by at most 1e-10 of the largest magnitude in its
column: OpenBLAS's kernel families move cells by one unit in the 12th
significant digit, and a cell that is zero by symmetry (``2.9e-19``, say)
compares on its column's scale, not on its own.  Byte identity on one
machine stays a check made by hand; a change that moves the bytes on purpose
reruns ``tests/regenerate_reference.py``.
"""

import numpy as np
import pytest

from regenerate_reference import CASES, REFERENCE, write_case

RELATIVE_TO_COLUMN = 1e-10


def _parse(path):
    """Header and cells of one CSV file, which must end in one newline."""
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and not text.endswith("\n\n"), path.name
    header, *lines = text[:-1].split("\n")
    cells = [line.split(",") for line in lines]
    width = len(header.split(","))
    assert all(len(row) == width for row in cells), path.name
    return header, np.array([[float(c) for c in row] for row in cells]).reshape(-1, width)


def _moved(got, want):
    """Mask of the cells of ``got`` that moved from ``want`` by more than
    ``RELATIVE_TO_COLUMN`` of the largest magnitude in their column."""
    scale = np.where(np.isnan(want), 0.0, np.abs(want)).max(axis=0, initial=0.0)
    return (np.isnan(got) != np.isnan(want)) | (
        np.abs(np.where(np.isnan(want), 0.0, got - want)) > RELATIVE_TO_COLUMN * scale
    )


def test_tolerance_scales_with_the_column():
    want = np.array([[1.0, np.nan], [2.89526844386e-19, 0.5]])
    # rounding noise where symmetry gives zero, and one unit in the 12th digit
    assert not _moved(np.array([[1.0, np.nan], [-4.1e-19, 0.500000000001]]), want).any()
    assert _moved(np.array([[1.0, np.nan], [0.0, 0.500000001]]), want).tolist() == [
        [False, False], [False, True],
    ]
    assert _moved(np.array([[1.0, 0.0], [0.0, 0.5]]), want).tolist() == [
        [False, True], [False, False],
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_reproduces_its_reference(case, tmp_path):
    reference = REFERENCE / case
    names = sorted(path.name for path in reference.glob("*.csv"))
    assert names, f"no reference files for {case}"
    assert sorted(path.name for path in write_case(case, tmp_path)) == names
    for name in names:
        header, want = _parse(reference / name)
        got_header, got = _parse(tmp_path / name)
        assert got_header == header, name
        assert got.shape == want.shape, name
        moved = _moved(got, want)
        if moved.any():
            row, col = np.argwhere(moved)[0]
            pytest.fail(
                f"{case}/{name}: {int(moved.sum())} cell(s) moved; first at line {row + 2}, "
                f"column {header.split(',')[col]}: {got[row, col]:.12g} against {want[row, col]:.12g}"
            )
