"""The 56-cell hash grid against its committed golden file.

`tools/hash_grid.py` trains every cell of a fixed-seed grid and prints the
SHA-256 of its parameters and history; `hash_grid_golden.txt` is that output,
committed with the build line it was made on.  A fresh run must reproduce it
line for line, and a failure names each changed cell as parameter-only,
history-only or both.  On another NumPy/BLAS build or OpenBLAS kernel the
bits may legitimately differ, so the test skips and names both builds; it
never rewrites the golden file.
"""

import pytest

from helpers import HASH_GRID_GOLDEN, load_hash_grid


def test_grid_matches_the_golden_file():
    hash_grid = load_hash_grid()
    header, *want = HASH_GRID_GOLDEN.read_text(encoding="utf-8").splitlines()
    recorded, running = header.removeprefix("# "), hash_grid.build()
    if recorded != running:
        pytest.skip(f"golden file made on {recorded!r}; this build is {running!r}")
    got = [line.split() for line in hash_grid.hash_lines()]
    want = [line.split() for line in want]
    assert [g[0] for g in got] == [w[0] for w in want]
    kinds = {(True, False): "parameter-only", (False, True): "history-only", (True, True): "both"}
    changed = {}
    for (cell, *g), (_, *w) in zip(got, want):
        kind = kinds.get((g[0] != w[0], g[1] != w[1]))
        if kind:
            changed.setdefault(kind, []).append(cell)
    assert not changed, f"of {len(want)} cells, these differ: " + "; ".join(
        f"{kind} {len(cells)}: {cells}" for kind, cells in changed.items()
    )
