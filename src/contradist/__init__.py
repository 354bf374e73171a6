"""Contradistinguisher-style domain adaptation on synthetic 2-D benchmarks.

A single classifier is trained jointly: supervised on one or more labeled
source domains and unsupervised on an unlabeled target domain via prior-
scaled pseudo-label selection and a contradistinguish objective, optionally
regularized by multi-labeling fake samples.
"""

from .dataset import (
    BlobSpec,
    DomainDataset,
    Priors,
    estimate_prior,
    load_csv,
    make_blobs,
    preset_domains,
    preset_names,
    save_csv,
    split,
)
from .errors import (
    CheckpointError,
    ContradistError,
    CsvParseError,
    NumericError,
    ShapeError,
    ValidationError,
)
from .evaluation import (
    ContourGrid,
    Metrics,
    compute_metrics,
    contour_grid,
    default_bounds,
    predict,
    save_contour_csv,
)
from .losses import (
    LossValue,
    MmdConfig,
    MmdLossValue,
    PseudoLabels,
    adv_multilabel_loss,
    ce_loss,
    contradistinguish_loss,
    kernel_mmd,
    multi_source_supervised,
    pseudo_label_select,
)
from .model import (
    ForwardTrace,
    Gradients,
    ModelParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .rng import Rng, derive_seed
from .trainer import (
    GeneratorSettings,
    TrainConfig,
    TrainHistory,
    estimate_target_prior,
    generator_loss,
    generator_step,
    sample_fake_gaussian,
    train,
)

__version__ = "0.1.0"
