"""Print fixed-seed result hashes for the 24-cell training grid.

The first line is ``# `` and the NumPy/BLAS build, OpenBLAS kernel and
machine that ran the grid.  Each further line is one cell: its id, the
SHA-256 of the trained parameters (each layer's W then b as little-endian
float64 bytes) and the SHA-256 of the history (one
``json.dumps(record, sort_keys=True)`` line per epoch).  The configs are
built from ``train`` config-file dicts, so two checkouts whose file schema
agrees can be compared with ``diff``:

    PYTHONPATH=src python tools/hash_grid.py > a.txt

``tests/hash_grid_golden.txt`` is this output, committed;
``tests/test_hash_grid.py`` diffs a fresh run against it.  A change that
alters training numerics on purpose regenerates it with the command above
(``> tests/hash_grid_golden.txt``) on the build the file records.

The grid: two labeled sources of 2-class blobs (centers (-2, 0) and (2, 0),
std 0.5; 60 and 75 per class, rotated 0 and 15 degrees, seeds 1 and 2) and an
unlabeled target (70 per class, 35 degrees, seed 3); batch 32, 8 epochs,
warmup 1, ramp 2, hidden (16, 16), seed 7, lr 3e-3 (adam) or 1e-2 (sgd);
generator noise_dim 4, hidden (16,), lr 1e-3; one source means the first.
The product also holds configs that ``train_config_from_dict`` refuses (the
generator without ta); they are left out.
"""

import hashlib
import itertools
import json
import platform
import sys
from dataclasses import asdict

import numpy as np

from contradist.blas import core_name
from contradist.dataset import BlobSpec, make_blobs
from contradist.errors import ValidationError
from contradist.trainer import train, train_config_from_dict

TERM_SETS = ("ss", "ss,tu", "ss,ta", "ss,tu,ta")
SAMPLERS = {"gauss": "gaussian_input", "gen": {"noise_dim": 4, "hidden_dims": [16], "lr": 1e-3}}
LRS = {"adam": 3e-3, "sgd": 1e-2}


def blobs(samples: int, rotation: float, seed: int, domain_id: str):
    classes = (((-2.0, 0.0), 0.5), ((2.0, 0.0), 0.5))
    spec = BlobSpec(classes, samples, rotation_deg=rotation, seed=seed)
    return make_blobs(spec, domain_id)


def cells():
    """(cell id, source count, TrainConfig) for every kept cell, in a fixed order."""
    for terms, fakes, n_src, opt in itertools.product(TERM_SETS, SAMPLERS, (1, 2), LRS):
        section = {
            "batch_size": 32, "epochs": 8, "lr": LRS[opt], "optimizer": opt,
            "terms": terms.split(","),
            "fake_sampler": SAMPLERS[fakes], "hidden_dims": [16, 16],
            "warmup_epochs": 1, "ramp_epochs": 2, "seed": 7,
        }
        try:
            cfg = train_config_from_dict(section)
        except ValidationError:
            continue
        yield f"{terms}/{fakes}/{n_src}src/{opt}", n_src, cfg


def build() -> str:
    """The NumPy version, BLAS name, version and kernel, and machine, as one line.

    The kernel is the one OpenBLAS picked for this CPU (OPENBLAS_CORETYPE
    overrides it); the same wheel gives other bits under another kernel.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"numpy {np.__version__}; blas {blas['name']} {blas['version']}; "
        f"kernel {core_name()}; {platform.machine()}"
    )


def hash_lines():
    """Yield each cell's output line, training the cells one by one."""
    sources = [blobs(60, 0.0, 1, "s0"), blobs(75, 15.0, 2, "s1")]
    target = blobs(70, 35.0, 3, "t").without_labels()
    for cell_id, n_src, cfg in cells():
        params, history = train(cfg, sources[:n_src], target)
        p = hashlib.sha256(params.flat.astype("<f8").tobytes())
        h = hashlib.sha256()
        for rec in history.records:
            h.update((json.dumps(asdict(rec), sort_keys=True) + "\n").encode())
        yield f"{cell_id} {p.hexdigest()} {h.hexdigest()}"


def main() -> int:
    print(f"# {build()}")
    for line in hash_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
