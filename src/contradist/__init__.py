"""Contradistinguisher-style domain adaptation on synthetic 2-D benchmarks.

A single classifier is trained jointly: supervised on one or more labeled
source domains and unsupervised on an unlabeled target domain via prior-
scaled pseudo-label selection and a contradistinguish objective, optionally
regularized by multi-labeling fake samples.

The package root holds only `__version__`; import from the modules
(`contradist.trainer`, `contradist.dataset`, ...).
"""

__version__ = "0.1.0"
