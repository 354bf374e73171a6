"""Joint training loop: supervised sources plus an unsupervised target.

Each step trains on one mini-batch per source domain and one target
batch, and combines the enabled loss terms:

  ss  cross-entropy on labeled source batches (summed over sources)
  tu  pseudo-label selection + contradistinguish loss on the target batch
  ta  multi-label adversarial loss on fakes drawn near the target batch

Fakes come either from per-dimension Gaussians fit to the batch, or from a
small generator network trained to match the classifier's embedding of the
target via a kernel two-sample loss.  The generator only models the target:
it supplies ta's fakes, so the generator sampler needs ta.  The target
dataset must arrive unlabeled; nothing in here reads target labels.

train() holds the terms in one table.  Each row names a term, the epoch its
weight starts ramping from (none for ss), and how it turns the step's source
and target batches into (trace, loss) pairs; one loop weights the pairs,
sums their values and accumulates their gradients.  The rows run in the
order ss, tu, ta, and that order is fixed: it is the float summation order
of the gradients, so reordering would change trained parameters.  The
generator step runs right after ta, which keeps the draws from its noise
stream in order.

Each step runs the classifier over the target batch once, and only when tu
or the generator step needs it: tu's contradistinguish loss reads that
trace, and the generator matches its last hidden activation.  The ss traces
also give source_train_accuracy, the share of the epoch's source-batch rows
they get right before each step's update, so training runs no whole-set pass.

The data work that never reads the parameters runs outside the step loop.
At the start of an epoch each batch stream draws all of the epoch's batch
indices in one call.  Then, for each block of steps, one fancy index per
domain gathers the block's batches into a (steps, batch, d) stack, and one
sample_fake_gaussian call draws the block's ta Gaussian fakes.  A block
holds as many steps as keep each drawn array within MAX_BATCH_ENTRIES
entries, and at least one; usually it is the whole epoch.
The step loop reads row `step` of those stacks and does only network work.
Generator fakes stay per step, since they read the generator's parameters.
The blocks change no value: the draws are the ones a per-step loop makes,
in the same order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .blas import one_thread
from .dataset import DomainDataset, Priors, estimate_prior
from .errors import NumericError, ValidationError, as_float, as_int, check_keys
from .files import write_atomic
from .losses import (
    adv_multilabel_loss,
    ce_loss,
    contradistinguish_loss,
    kernel_mmd,
    pseudo_label_select,
)
from .model import (
    MAX_BATCH_ENTRIES,
    ModelParams,
    backward,
    forward,
    hidden_pass,
    init_params,
    param_count,
)
from .rng import Rng, derive_seed, seeded_normals

TERMS = ("ss", "tu", "ta")


def _convert_fields(obj, converters: dict, where: str) -> None:
    """Replace each named field of a frozen dataclass by its converted value."""
    for name, convert in converters.items():
        try:
            value = convert(getattr(obj, name))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad {where} value for {name!r}: {exc}") from exc
        object.__setattr__(obj, name, value)


def _items(value) -> tuple:
    """A config list as a tuple; a string would split into characters."""
    if isinstance(value, str):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(value)


def _ints(items) -> tuple[int, ...]:
    return tuple(as_int(h) for h in _items(items))


# The most parameters a config may give a network (classifier or generator).
# Training keeps about eight float64 vectors of that length: the parameters
# (twice while ModelParams copies them), their gradient, one term's gradient,
# and Adam's m, v and two scratch vectors.  At 10**7 parameters that is
# 8 * 8 B * 10**7 = 640 MB per network.  The count is checked when the config
# is built, with the data's widths taken as 1, and again with their real
# widths in validate_inputs; both run before any output is written.
MAX_PARAMS = 10**7

# The largest batch_size a config may set.  Each batch stream draws an
# epoch's batches at once: steps * batch_size int64 indices, the largest
# domain's row count plus less than one batch of them (512 KB at the cap).
MAX_BATCH_SIZE = 2**16


def _check_size(layer_dims: tuple[int, ...], what: str) -> None:
    """Refuse a network whose layer_dims are not all positive or give more than MAX_PARAMS."""
    if min(layer_dims) < 1:
        raise ValidationError(f"{what} must be positive")
    count = param_count(layer_dims)
    if count > MAX_PARAMS:
        raise ValidationError(
            f"{what} give at least {count} parameters, more than MAX_PARAMS = {MAX_PARAMS}"
        )


@dataclass(frozen=True)
class GeneratorSettings:
    """Toy generator: noise_dim -> hidden_dims -> feature dim; the run's
    optimizer steps it at its own lr."""

    noise_dim: int = 8
    hidden_dims: tuple[int, ...] = (64, 64)
    lr: float = 1e-3

    def __post_init__(self):
        converters = {"noise_dim": as_int, "hidden_dims": _ints, "lr": as_float}
        _convert_fields(self, converters, "fake_sampler")
        # its output width is the data's feature count, at least 1
        _check_size((self.noise_dim, *self.hidden_dims, 1), "generator noise_dim and hidden_dims")
        if not (self.lr >= 0 and np.isfinite(self.lr)):
            raise ValidationError("generator lr must be a finite non-negative real")


def _sampler(value):
    """A fake_sampler value: a generator settings object (from a dict) or a name."""
    if not isinstance(value, dict):
        return value
    check_keys(value, [f.name for f in fields(GeneratorSettings)], "fake_sampler")
    return GeneratorSettings(**value)


class Adam:
    """Classic first/second-moment optimizer with bias correction, on one flat vector."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self._vectors: list[np.ndarray] | None = None  # m, v and two scratch vectors
        self._t = 0

    def step(self, a: np.ndarray, g: np.ndarray) -> None:
        """a -= lr * (m / c1) / (sqrt(v / c2) + eps), computed in the scratch
        vectors in that expression's order, so no temporary is allocated."""
        if self._vectors is None:
            self._vectors = [np.zeros_like(a) for _ in range(4)]
        m, v, s, u = self._vectors
        self._t += 1
        c1 = 1.0 - self.BETA1**self._t
        c2 = 1.0 - self.BETA2**self._t
        m *= self.BETA1
        m += np.multiply(g, 1.0 - self.BETA1, out=s)
        v *= self.BETA2
        np.multiply(g, 1.0 - self.BETA2, out=s)
        v += np.multiply(s, g, out=s)
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += self.EPS
        np.divide(m, c1, out=u)
        u *= self.lr
        u /= s
        a -= u


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, a: np.ndarray, g: np.ndarray) -> None:
        a -= self.lr * g


OPTIMIZERS = {"adam": Adam, "sgd": Sgd}


class _FrozenDict(dict):
    """A dict that refuses edits in place; still a dict to asdict, json and pickle."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("read-only dict; build a new config to change it")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


# How TrainConfig turns each value it is given into its field's type
_TRAIN_CONVERTERS = {
    "batch_size": as_int,
    "epochs": as_int,
    "lr": as_float,
    "optimizer": str,
    "terms": _items,
    "term_weights": lambda w: _FrozenDict((k, as_float(v)) for k, v in dict(w).items()),
    "prior": lambda p: p if isinstance(p, str) else tuple(as_float(x) for x in p),
    "fake_sampler": _sampler,
    "mmd_gamma": lambda g: g if g == "median-heuristic" else as_float(g),
    "hidden_dims": _ints,
    "warmup_epochs": as_int,
    "ramp_epochs": as_int,
    "seed": as_int,
}


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings.  The fields are a config file's ``train`` keys and
    ``dataclasses.asdict`` gives that section back.

    Values are converted (_TRAIN_CONVERTERS) and checked when the config is
    built, where a bad one raises ValidationError; fields cannot be reassigned
    afterwards, nor ``term_weights`` edited in place.  ``prior`` is
    "estimate_from_source" or class probabilities, ``fake_sampler``
    "gaussian_input" or GeneratorSettings (or a dict of its fields; the
    terms then need ta, and the classifier a hidden layer), ``mmd_gamma``
    "median-heuristic" or, with the generator, a positive finite kernel
    bandwidth.  ``term_weights`` names only terms in ``terms``; the
    generator's step size is set by its own ``lr`` alone.
    """

    batch_size: int = 128
    epochs: int = 100
    lr: float = 1e-3
    optimizer: str = "adam"  # a key of OPTIMIZERS (Adam: beta1 0.9, beta2 0.999, eps 1e-8)
    terms: tuple[str, ...] = ("ss", "tu", "ta")
    term_weights: dict[str, float] = field(default_factory=dict)
    prior: str | tuple[float, ...] = "estimate_from_source"
    fake_sampler: GeneratorSettings | str = "gaussian_input"
    mmd_gamma: float | str = "median-heuristic"
    hidden_dims: tuple[int, ...] = (64, 64)
    # Pseudo-labels picked from a freshly initialized network are arbitrary,
    # and the contradistinguish term locks in whatever labels it starts from,
    # under either optimizer; so the loss terms are staged: epochs <= warmup
    # train ss only, then tu ramps linearly to full over ramp_epochs, then ta
    # over the following ramp_epochs.  The adversarial push toward uniform
    # outputs can tip a freshly locked assignment into its mirror image
    # unless tu is at full strength first.
    warmup_epochs: int = 10
    ramp_epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        _convert_fields(self, _TRAIN_CONVERTERS, "train config")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ValidationError(
                f"batch_size {self.batch_size} is more than MAX_BATCH_SIZE = {MAX_BATCH_SIZE}"
            )
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if not (self.lr >= 0 and np.isfinite(self.lr)):
            raise ValidationError("lr must be a finite non-negative real")
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"unknown optimizer {self.optimizer!r}")
        seen = set()
        for term in self.terms:
            if term not in TERMS:
                raise ValidationError(f"unknown loss term {term!r}")
            if term in seen:
                raise ValidationError(f"duplicate loss term {term!r}")
            seen.add(term)
        generator = isinstance(self.fake_sampler, GeneratorSettings)
        if "ss" not in seen:
            raise ValidationError("the ss term is the anchor and must stay enabled")
        # tu compares a batch's rows; Gaussian fakes fit a std to a batch
        for term in ("tu",) if generator else ("tu", "ta"):
            if term in seen and self.batch_size < 2:
                raise ValidationError(f"{term} needs batch_size >= 2")
        if generator and "ta" not in seen:
            raise ValidationError(
                "the generator fake_sampler needs the ta term: the generator only makes ta's fakes"
            )
        for term, w in self.term_weights.items():
            if term not in TERMS:
                raise ValidationError(f"unknown term weight {term!r}")
            if term not in seen:
                raise ValidationError(
                    f"term weight {term!r} is for a term this run does not train"
                )
            if not (w >= 0 and np.isfinite(w)):
                raise ValidationError(f"weight for {term!r} must be >= 0")
        if not isinstance(self.prior, str):
            Priors(self.prior)
        elif self.prior != "estimate_from_source":
            raise ValidationError(f"unknown prior mode {self.prior!r}")
        if not generator and self.fake_sampler != "gaussian_input":
            raise ValidationError(f"unknown fake sampler {self.fake_sampler!r}")
        numeric_gamma = self.mmd_gamma != "median-heuristic"
        if numeric_gamma and not (self.mmd_gamma > 0 and np.isfinite(self.mmd_gamma)):
            raise ValidationError(f"mmd_gamma must be positive and finite, got {self.mmd_gamma!r}")
        if numeric_gamma and not generator:
            raise ValidationError(
                "a numeric mmd_gamma needs the generator sampler: Gaussian fakes run no MMD"
            )
        # the data sets the input and output widths; each is at least 1
        _check_size((1, *self.hidden_dims, 1), "classifier hidden_dims")
        if generator and not self.hidden_dims:
            raise ValidationError("classifier needs a hidden layer to expose an embedding")
        if self.warmup_epochs < 0:
            raise ValidationError("warmup_epochs must be >= 0")
        if self.ramp_epochs < 0:
            raise ValidationError("ramp_epochs must be >= 0")

    def weight(self, term: str) -> float:
        return float(self.term_weights.get(term, 1.0))


def train_config_from_dict(obj: dict) -> TrainConfig:
    """A TrainConfig from a config file's train section; unknown keys fail."""
    check_keys(obj, [f.name for f in fields(TrainConfig)], "train config")
    return TrainConfig(**obj)


@dataclass
class EpochRecord:
    epoch: int
    losses: dict[str, float]
    total: float
    source_train_accuracy: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def save_jsonl(self, path) -> None:
        write_atomic(path, (json.dumps(asdict(rec)) + "\n" for rec in self.records))


def sample_fake_gaussian(features: np.ndarray, seed) -> np.ndarray:
    """One fake per batch row from per-dimension Gaussians with the batch's mean and std.

    features is a stack (..., batch, d) of batches and seed holds one seed
    per batch, shape features.shape[:-2]; a 2-D features is one batch with
    an int seed.  The result has features' shape, and batch i's fakes are
    mean_i + std_i * Rng(seed_i).normal(batch * d).reshape(batch, d).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim < 2 or features.shape[-2] < 2:
        raise ValidationError("need at least 2 rows to estimate a std")
    seeds = np.asarray(seed, dtype=np.uint64)
    if seeds.shape != features.shape[:-2]:
        raise ValidationError(
            f"need one seed per batch: seed shape {seeds.shape}, batches {features.shape[:-2]}"
        )
    mean = features.mean(axis=-2, keepdims=True)
    std = features.std(axis=-2, keepdims=True)
    z = seeded_normals(seeds, features.shape[-2] * features.shape[-1]).reshape(features.shape)
    return mean + std * z


def estimate_target_prior(cfg: TrainConfig, sources: list[DomainDataset]) -> Priors:
    """The given target prior, or pooled source label frequencies."""
    if not isinstance(cfg.prior, str):
        return Priors(cfg.prior)
    labels = np.concatenate([s.labels for s in sources])
    return estimate_prior(labels, int(labels.max()) + 1)


class _BatchStream:
    """Cycling mini-batch index stream; reshuffles whenever a pass ends.

    Batches always have exactly batch_size rows: a partial tail is topped
    up from the start of the next (freshly shuffled) pass.  A shuffle is
    drawn only when a batch needs its first row, so k batches from one call
    are the k batches of k one-batch calls.
    """

    def __init__(self, n: int, batch_size: int, rng: Rng):
        self._n = n
        self._b = batch_size
        self._rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def next(self, k: int) -> np.ndarray:
        """The next k batches as a (k, batch_size) index array."""
        chunks = []
        need = k * self._b
        while need > 0:
            avail = self._n - self._pos
            if avail == 0:
                self._order = self._rng.permutation(self._n)
                self._pos = 0
                continue
            take = min(need, avail)
            chunks.append(self._order[self._pos : self._pos + take])
            self._pos += take
            need -= take
        return np.concatenate(chunks).reshape(k, self._b)


def generator_loss(
    gen: ModelParams,
    clf: ModelParams,
    noise: np.ndarray,
    real_emb: np.ndarray,
    gamma: float | str,
) -> tuple[float, np.ndarray]:
    """Embedding-matching loss for the generator and its parameter gradient,
    one vector in gen.flat's layout.

    real_emb is the real target batch's embedding: the last hidden ReLU
    output of the classifier, ``hidden_pass(clf, batch)[1][-1]``, which
    train() takes from the trace it already computed for the batch.  Fakes
    G(noise) take one pass through the classifier's hidden layers; the
    kernel two-sample loss between the two embedding sets is backpropagated
    through the fakes' activations of that pass and then through the
    generator, so only generator parameters get gradients.
    """
    if len(clf.layer_dims) < 3:
        raise ValidationError("classifier needs a hidden layer to expose an embedding")
    gen_trace = forward(gen, noise)
    _, acts_fake = hidden_pass(clf, gen_trace.logits)
    value, d_fakes = kernel_mmd(acts_fake[-1], real_emb, gamma)
    for l in range(len(acts_fake) - 1, -1, -1):
        d_fakes = (d_fakes * (acts_fake[l] > 0.0)) @ clf.weights[l].T
    return value, backward(gen, gen_trace, d_fakes)


def generator_step(
    gen: ModelParams,
    clf: ModelParams,
    real_emb: np.ndarray,
    cfg: TrainConfig,
    optimizer,
    rng: Rng,
) -> float:
    """One optimizer step on gen's parameters, in place; returns the loss.

    real_emb is the real target batch's embedding, as generator_loss takes
    it; one fake is drawn per real row.
    """
    n_f = np.asarray(real_emb).shape[0]
    noise = rng.normal(n_f * gen.input_dim).reshape(n_f, gen.input_dim)
    value, grad = generator_loss(gen, clf, noise, real_emb, cfg.mmd_gamma)
    optimizer.step(gen.flat, grad)
    return value


def validate_inputs(
    cfg: TrainConfig, sources: list[DomainDataset], target: DomainDataset
) -> int:
    """Check the datasets against each other and cfg; returns the class count."""
    if not sources:
        raise ValidationError("need at least one source domain")
    d = sources[0].dim
    for src in sources:
        if src.labels is None:
            raise ValidationError(f"source {src.domain_id!r} must be labeled")
    if target.labels is not None:
        raise ValidationError(
            "target must be passed unlabeled (use DomainDataset.without_labels)"
        )
    if any(ds.dim != d for ds in (*sources, target)):
        raise ValidationError("all domains must share the feature width")
    k = int(max(int(s.labels.max()) for s in sources)) + 1
    if k < 2:
        raise ValidationError("need at least 2 classes across the sources")
    if not isinstance(cfg.prior, str) and len(cfg.prior) != k:
        raise ValidationError(f"given prior has {len(cfg.prior)} classes, sources have {k}")
    # MAX_BATCH_ENTRIES bounds each float64 array of a step, and a step keeps
    # a few per layer and per batch.  A batch's activations are batch_size rows
    # by a layer's width (the data fix the input and output widths), and with
    # the generator each kernel_mmd block is batch_size by batch_size.
    widths = (d, *cfg.hidden_dims, k)
    gs = cfg.fake_sampler
    if isinstance(gs, GeneratorSettings):
        widths += (gs.noise_dim, *gs.hidden_dims, cfg.batch_size)  # last: the MMD blocks
    entries = cfg.batch_size * max(widths)
    if entries > MAX_BATCH_ENTRIES:
        raise ValidationError(
            f"batch_size {cfg.batch_size} by width {max(widths)} gives {entries} entries "
            f"per array, more than MAX_BATCH_ENTRIES = {MAX_BATCH_ENTRIES}"
        )
    _check_size((d, *cfg.hidden_dims, k), "classifier layers with the data's widths")
    if isinstance(gs, GeneratorSettings):
        _check_size((gs.noise_dim, *gs.hidden_dims, d), "generator layers with the data's width")
    return k


@one_thread()
def train(
    cfg: TrainConfig, sources: list[DomainDataset], target: DomainDataset
) -> tuple[ModelParams, TrainHistory]:
    """Run the joint loop and return the final classifier plus history.

    Per epoch there are ceil(max(n_s, n_t) / batch_size) steps; each step
    takes one batch per source and one target batch, accumulates the
    enabled loss gradients, and applies one optimizer update.  The batches
    and Gaussian fakes are drawn ahead of the steps, a block of steps at a
    time (see the module docstring).  Everything is deterministic given
    (cfg, datasets).  The whole call runs on one BLAS thread (see
    contradist.blas), which changes no result.
    """
    k = validate_inputs(cfg, sources, target)
    d = sources[0].dim
    terms = set(cfg.terms)

    params = init_params((d, *cfg.hidden_dims, k), derive_seed(cfg.seed, "init"))
    optimizer = OPTIMIZERS[cfg.optimizer](cfg.lr)
    prior_t = estimate_target_prior(cfg, sources)

    src_streams = [
        _BatchStream(s.n, cfg.batch_size, Rng(derive_seed(cfg.seed, f"shuffle/source/{r}")))
        for r, s in enumerate(sources)
    ]
    tgt_stream = _BatchStream(
        target.n, cfg.batch_size, Rng(derive_seed(cfg.seed, "shuffle/target"))
    )
    fake_seeds_ta = Rng(derive_seed(cfg.seed, "fake/ta"))

    gen = None
    gs = cfg.fake_sampler
    if isinstance(gs, GeneratorSettings):
        gen = init_params(
            (gs.noise_dim, *gs.hidden_dims, d), derive_seed(cfg.seed, "gen-init")
        )
        gen_optimizer = OPTIMIZERS[cfg.optimizer](gs.lr)
        gen_noise = Rng(derive_seed(cfg.seed, "gen-noise"))

    # the current block's Gaussian fakes, (steps, batch, d), drawn at the
    # start of each block
    ta_fakes = None

    def target_fakes(step: int) -> np.ndarray:
        if gen is None:
            return ta_fakes[step]
        noise = gen_noise.normal(cfg.batch_size * gen.input_dim)
        return forward(gen, noise.reshape(cfg.batch_size, gen.input_dim)).logits

    def contradist(trace):
        labels = pseudo_label_select(trace.probs, prior_t)
        return trace, contradistinguish_loss(trace, labels, prior_t)

    def adversarial(fakes: np.ndarray):
        trace = forward(params, fakes)
        return trace, adv_multilabel_loss(trace)

    # (term, epoch its ramp starts after or None, (src, tgt, step) -> [(trace, loss)])
    # where src holds one (labels, trace) per source batch, tgt is the target
    # batch's trace and step the row of the block's fakes.  The row order is the
    # gradient summation order; see the module docstring.
    unsup, adv = cfg.warmup_epochs, cfg.warmup_epochs + cfg.ramp_epochs
    table = [
        ("ss", None, lambda src, tgt, step: [(t, ce_loss(t, y)) for y, t in src]),
        ("tu", unsup, lambda src, tgt, step: [contradist(tgt)]),
        ("ta", adv, lambda src, tgt, step: [adversarial(target_fakes(step))]),
    ]
    table = [row for row in table if row[0] in terms]
    need_target_trace = "tu" in terms or gen is not None

    grad = np.zeros_like(params.flat)
    n_batch = -(-max(max(s.n for s in sources), target.n) // cfg.batch_size)
    # steps per block: ta's raw draws for one step, batch * d + 1 entries at
    # most, are the largest array a block draws
    block = max(1, MAX_BATCH_ENTRIES // (cfg.batch_size * d + 1))
    loss_keys = [t for t in TERMS if t in terms]
    if gen is not None:
        loss_keys.append("gen")

    def ramp(epoch: int, start: int | None) -> float:
        if start is None:
            return 1.0
        if epoch <= start:
            return 0.0
        if cfg.ramp_epochs == 0:
            return 1.0
        return min(1.0, (epoch - start) / cfg.ramp_epochs)

    history = TrainHistory()
    for epoch in range(1, cfg.epochs + 1):
        weights = {name: ramp(epoch, start) * cfg.weight(name) for name, start, _ in table}
        sums = {key: 0.0 for key in loss_keys}
        total_sum = 0.0
        right = 0  # source-batch rows the ss traces classify right
        src_idx = [stream.next(n_batch) for stream in src_streams]
        tgt_idx = tgt_stream.next(n_batch)
        for lo in range(0, n_batch, block):
            steps = min(block, n_batch - lo)
            src_x = [s.features[idx[lo : lo + steps]] for s, idx in zip(sources, src_idx)]
            src_y = [s.labels[idx[lo : lo + steps]] for s, idx in zip(sources, src_idx)]
            tgt_x = target.features[tgt_idx[lo : lo + steps]]
            if "ta" in terms and gen is None:
                ta_fakes = sample_fake_gaussian(tgt_x, fake_seeds_ta._raw(steps))

            for step in range(steps):
                grad.fill(0.0)
                src = [(y[step], forward(params, x[step])) for x, y in zip(src_x, src_y)]
                right += sum(np.count_nonzero(np.argmax(t.probs, axis=1) == y) for y, t in src)
                tgt = forward(params, tgt_x[step]) if need_target_trace else None

                step_total = 0.0
                for name, _, pairs in table:
                    w = weights[name]
                    value = 0.0
                    for trace, lv in pairs(src, tgt, step):
                        value += lv.value
                        if w != 0.0:
                            g = backward(params, trace, lv.dlogits)
                            g *= w
                            grad += g
                    sums[name] += value
                    step_total += w * value
                    if name == "ta" and gen is not None:
                        sums["gen"] += generator_step(
                            gen, params, tgt.activations[-1], cfg, gen_optimizer, gen_noise
                        )

                optimizer.step(params.flat, grad)
                total_sum += step_total

        losses = {key: sums[key] / n_batch for key in loss_keys}
        if not all(math.isfinite(v) for v in losses.values()):
            raise NumericError(f"non-finite loss in epoch {epoch}: {losses}")
        history.records.append(
            EpochRecord(
                epoch=epoch,
                losses=losses,
                total=total_sum / n_batch,
                source_train_accuracy=right / (n_batch * cfg.batch_size * len(sources)),
            )
        )
    return params, history
