"""The 96-cell hash grid against its committed golden file.

`tools/hash_grid.py` trains every cell of a fixed-seed grid and prints the
SHA-256 of its parameters and history; `hash_grid_golden.txt` is that output,
committed with the build line it was made on.  A fresh run must reproduce it
line for line.  On another NumPy/BLAS build or OpenBLAS kernel the bits may
legitimately differ, so the test skips and names both builds; it never
rewrites the golden file.
"""

from pathlib import Path

import pytest

from helpers import load_hash_grid

GOLDEN = Path(__file__).resolve().parent / "hash_grid_golden.txt"


def test_grid_matches_the_golden_file():
    hash_grid = load_hash_grid()
    header, *want = GOLDEN.read_text(encoding="utf-8").splitlines()
    recorded, running = header.removeprefix("# "), hash_grid.build()
    if recorded != running:
        pytest.skip(f"golden file made on {recorded!r}; this build is {running!r}")
    got = list(hash_grid.hash_lines())
    assert [line.split()[0] for line in got] == [line.split()[0] for line in want]
    changed = [g.split()[0] for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} of {len(want)} cells differ: {changed}"
