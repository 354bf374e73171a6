"""Decide a training feature on paired evidence: the pre-registered ablation.

Every arm trains the reference config with the arm's ``train`` keys laid
over it, on each geometry of GEOMETRIES and each seed of SEEDS; the seed
fixes both the data and the run, so the arms of one seed see the same rows.
A cell is scored by its accuracy on all target rows.  The target trains
unlabeled: its labels are read only to score.

The rule, fixed before any run (RULE, geometry_wins and verdict hold it):
for an arm F, d_s = acc(F) - acc(reference) on geometry g and seed s.
Keep F if and only if, on at least one geometry, d_s > 0 for at least
MIN_WINS of the seeds and median(d_s) exceeds the reference arm's max - min
accuracy over the seeds on that geometry.  Otherwise delete F.

The reference arm: terms ss,tu,ta, Adam at lr 1e-3, Gaussian fakes, the
default 10/10 warmup and ramp, batch 128, 60 epochs, 1000 rows per class.
The geometries:

  rotated          the ``rotated`` preset (target at 70 degrees)
  ring             6 classes at radius 3, std 0.6, angle 2 pi c / 6; target at 25 degrees
  rotated-shift    ``rotated`` with target class 1 kept at 1/9 (a 0.9/0.1 target)
  ring-shift       the ring with target classes 1-5 kept at 1/4
  cue-40, cue-70   4-D cue conflict: features 0-1 are the "shape", 2-class
                   blobs at (+-2, 0), std 0.5, the target's rotated by 40 or
                   70 degrees; features 2-3 the "texture", blobs at (+-1, 0),
                   std 0.2, whose class is the label in the source and a
                   shuffle of the labels, independent of them, in the target

The cells run in a pool of WORKERS spawned processes.  For each arm and geometry it
prints the min, median and max accuracy, each seed's d_s, how many seeds
came out better and worse, and the median cell CPU seconds; then each arm's
verdict.  It takes no flags:

    PYTHONPATH=src python tools/ablate.py
"""

import math
import multiprocessing
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from contradist.dataset import BlobSpec, DomainDataset, make_blobs, preset_domains
from contradist.evaluation import predict
from contradist.rng import Rng, derive_seed
from contradist.trainer import train, train_config_from_dict

RULE = (
    "keep F iff on some geometry d_s > 0 for >= 4 of 5 seeds "
    "and median(d_s) > the reference's max - min accuracy; else delete F"
)
SEEDS = (1, 2, 3, 4, 5)
MIN_WINS = 4
SAMPLES = 1000  # rows per class
WORKERS = 2
REFERENCE = {
    "terms": ["ss", "tu", "ta"], "optimizer": "adam", "lr": 1e-3,
    "fake_sampler": "gaussian_input", "batch_size": 128, "epochs": 60,
    "warmup_epochs": 10, "ramp_epochs": 10,
}
# each arm's train keys over REFERENCE; "reference" is the arm the others pair with
ARMS = {
    "reference": {},
    "+sgd": {"optimizer": "sgd", "lr": 1e-2},
    "+generator": {"fake_sampler": {}},
}


def _ring(rotation: float, seed: int, domain_id: str) -> DomainDataset:
    classes = tuple(
        ((3 * math.cos(2 * math.pi * c / 6), 3 * math.sin(2 * math.pi * c / 6)), 0.6)
        for c in range(6)
    )
    return make_blobs(BlobSpec(classes, SAMPLES, rotation_deg=rotation, seed=seed), domain_id)


def _keep_share(ds: DomainDataset, classes, divisor: int) -> DomainDataset:
    """ds with each listed class cut to its first n_c // divisor rows."""
    keep = np.ones(ds.n, dtype=bool)
    for c in classes:
        rows = np.flatnonzero(ds.labels == c)
        keep[rows[len(rows) // divisor :]] = False
    return DomainDataset(ds.features[keep], ds.labels[keep], ds.domain_id)


def rotated(seed: int):
    specs = preset_domains("rotated", seed, SAMPLES)
    return make_blobs(specs["d0"], "d0"), make_blobs(specs["d1"], "d1")


def ring(seed: int):
    return (
        _ring(0.0, derive_seed(seed, "ring/source"), "source"),
        _ring(25.0, derive_seed(seed, "ring/target"), "target"),
    )


def rotated_shift(seed: int):
    source, target = rotated(seed)
    return source, _keep_share(target, (1,), 9)


def ring_shift(seed: int):
    source, target = ring(seed)
    return source, _keep_share(target, (1, 2, 3, 4, 5), 4)


def _cue_domain(rotation: float, texture_is_label: bool, seed: int, domain_id: str):
    rng = Rng(seed)
    labels = np.repeat(np.arange(2), SAMPLES)
    n = labels.size
    theta = math.radians(rotation)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    shape = np.array([[-2.0, 0.0], [2.0, 0.0]])[labels] + 0.5 * rng.normal(2 * n).reshape(n, 2)
    cue = labels if texture_is_label else labels[rng.permutation(n)]
    texture = np.array([[-1.0, 0.0], [1.0, 0.0]])[cue] + 0.2 * rng.normal(2 * n).reshape(n, 2)
    return DomainDataset(np.hstack([shape @ rot.T, texture]), labels, domain_id)


def cue_conflict(rotation: float, seed: int):
    return (
        _cue_domain(0.0, True, derive_seed(seed, "cue/source"), "source"),
        _cue_domain(rotation, False, derive_seed(seed, "cue/target"), "target"),
    )


# name -> seed -> (labeled source, labeled target)
GEOMETRIES = {
    "rotated": rotated, "ring": ring, "rotated-shift": rotated_shift,
    "ring-shift": ring_shift, "cue-40": partial(cue_conflict, 40.0),
    "cue-70": partial(cue_conflict, 70.0),
}


def run_cell(cell) -> tuple[float, float]:
    """(target accuracy, CPU seconds of train) for one (arm, geometry, seed)."""
    arm, geometry, seed = cell
    source, target = GEOMETRIES[geometry](seed)
    cfg = train_config_from_dict({**REFERENCE, **ARMS[arm], "seed": seed})
    start = time.process_time()
    params, _ = train(cfg, [source], target.without_labels())
    cpu = time.process_time() - start
    return float(np.mean(predict(params, target.features) == target.labels)), cpu


def geometry_wins(diffs, spread: float) -> bool:
    """Whether one geometry's paired differences meet the rule."""
    return sum(d > 0 for d in diffs) >= MIN_WINS and statistics.median(diffs) > spread


def verdict(pairs) -> str:
    """"keep" or "delete" from (diffs, reference spread) per geometry."""
    return "keep" if any(geometry_wins(d, s) for d, s in pairs) else "delete"


def main() -> int:
    print(f"# rule: {RULE}")
    print(f"# seeds {SEEDS[0]}-{SEEDS[-1]}, {SAMPLES} rows per class, reference {REFERENCE}")
    cells = [(a, g, s) for a in ARMS for g in GEOMETRIES for s in SEEDS]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=spawn) as pool:
        results = dict(zip(cells, pool.map(run_cell, cells)))
    acc = {c: r[0] for c, r in results.items()}
    print(f"{'arm':<12}{'geometry':<15}{'min':>7}{'median':>7}{'max':>7}  "
          f"{'d_s per seed':<36}{'better':>7}{'worse':>6}{'cpu_s':>7}")
    for arm in ARMS:
        pairs = []
        for g in GEOMETRIES:
            ref = [acc["reference", g, s] for s in SEEDS]
            got = [acc[arm, g, s] for s in SEEDS]
            cpu = statistics.median(results[arm, g, s][1] for s in SEEDS)
            if arm == "reference":
                shown, better, worse = f"spread {max(ref) - min(ref):.3f}", "", ""
            else:
                diffs = [a - r for a, r in zip(got, ref)]
                pairs.append((diffs, max(ref) - min(ref)))
                shown = " ".join(f"{d:+.3f}" for d in diffs)
                better, worse = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
            print(f"{arm:<12}{g:<15}{min(got):>7.3f}{statistics.median(got):>7.3f}"
                  f"{max(got):>7.3f}  {shown:<36}{better:>7}{worse:>6}{cpu:>7.2f}")
        if arm != "reference":
            print(f"{arm:<12}verdict: {verdict(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
