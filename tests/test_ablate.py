"""The ablation tool's decision rule and geometry builders.

`tools/ablate.py` keeps or deletes a feature by a rule fixed before its run.
These checks pin that rule on hand-made paired differences, and that every
geometry draws the same rows for a seed, without training a cell.
"""

import numpy as np
import pytest

from helpers import load_tool

ablate = load_tool("ablate")


@pytest.mark.parametrize(
    "diffs, want",
    [
        ([0.02, 0.03, 0.02, 0.04, -0.01], "keep"),
        ([0.005, 0.004, 0.006, 0.003, 0.002], "delete"),
        ([0.05, 0.05, 0.05, -0.01, -0.01], "delete"),
    ],
    ids=["4-of-5-above-spread", "5-of-5-inside-spread", "3-of-5"],
)
def test_rule_keeps_a_feature_only_on_a_consistent_gain_above_the_spread(diffs, want):
    spread = 0.01
    assert ablate.verdict([(diffs, spread)]) == want
    # a geometry where the feature loses changes nothing: one that wins keeps it
    assert ablate.verdict([([-0.1] * 5, 0.0), (diffs, spread)]) == want


@pytest.mark.parametrize("name", list(ablate.GEOMETRIES))
def test_geometry_draws_the_same_rows_for_a_seed(name):
    build = ablate.GEOMETRIES[name]
    first, again, other = build(3), build(3), build(4)
    for a, b in zip(first, again):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
    assert first[1].features.tobytes() != other[1].features.tobytes()


def test_label_shift_keeps_the_stated_share_of_each_target_class():
    n = ablate.SAMPLES
    _, target = ablate.rotated_shift(1)
    assert np.bincount(target.labels).tolist() == [n, n // 9]
    _, target = ablate.ring_shift(1)
    assert np.bincount(target.labels).tolist() == [n] + [n // 4] * 5
