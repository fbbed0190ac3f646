"""The package export list: every name in pwsum.__all__ resolves, once; and
the module layout rules that keep one decision in one module."""

from pathlib import Path

import pwsum


def test_all_resolves_without_duplicates():
    assert len(set(pwsum.__all__)) == len(pwsum.__all__)
    assert [name for name in pwsum.__all__ if not hasattr(pwsum, name)] == []
    namespace: dict = {}
    exec("from pwsum import *", namespace)  # raises AttributeError on a stale name
    assert set(pwsum.__all__) <= set(namespace)


def test_only_spectrum_sizes_the_blocks():
    # every pair kernel walks its blocks with spectrum.row_blocks, which makes
    # the block buffers once per call; a module that sized its own blocks would
    # bypass that rule
    src = Path(pwsum.__file__).parent
    callers = sorted(p.name for p in src.glob("*.py") if "block_rows(" in p.read_text())
    assert callers == ["spectrum.py"]


def test_contour_selection_has_no_separate_zero_pass():
    # select_c scores its candidates by log|B| alone: a side sample on a zero
    # gives log|B| = -inf, so eps_hat = inf, and that candidate is never taken
    src = Path(pwsum.__file__).parent
    assert "collisions(" not in (src / "contours.py").read_text()
