"""tools/same_outputs.py's cell_moves: how two CSVs of the same shape differ,
by column."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_cell_moves_names_the_columns_of_the_moved_cells():
    old = b"n,l2_error,sup_error_K,note\n1,0.5,2.0,a\n2,0.25,1.0,b,7\n"
    new = b"n,l2_error,sup_error_K,note\n1,0.5,2.5,a\n2,0.25,1.0,c,8\n"
    assert same_outputs.cell_moves(old, new) == ("2 numeric cells moved, largest relative change 2.0e-01, "
                                                 "by column: sup_error_K 1, ? 1, 1 text cells changed")


def test_cell_moves_reports_equal_numbers_and_shapes():
    # "1.0" and "1" are the same number in other text: a moved cell with no change
    assert same_outputs.cell_moves(b"a\n1.0\n", b"a\n1\n") == ("1 numeric cells moved, largest relative change "
                                                              "0.0e+00, by column: a 1")
    assert same_outputs.cell_moves(b"a,b\n1,2\n", b"a,b\n1,2,3\n") == "the tables differ in shape"
