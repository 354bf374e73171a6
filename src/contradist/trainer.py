"""Joint training loop: supervised sources plus an unsupervised target.

Per step the loop draws one mini-batch per source domain and one target
batch, then combines the enabled loss terms:

  ss  cross-entropy on labeled source batches (summed over sources)
  tu  pseudo-label selection + contradistinguish loss on the target batch
  su  the same unsupervised pair on source batches, labels ignored
  ta  multi-label adversarial loss on fakes drawn near the target batch
  sa  the adversarial loss on fakes drawn near each source batch

Fakes come either from per-dimension Gaussians fit to the batch, or from a
small generator network trained to match the classifier's embedding of the
target via a kernel two-sample loss.  The generator only models the target,
so sa always uses Gaussian fakes and rejects the generator sampler.  The
target dataset must arrive unlabeled; nothing in here reads target labels.

train() holds the terms in one table.  Each row names a term, the epoch its
weight starts ramping from (none for ss), and how it turns the step's source
and target batches into (trace, loss) pairs; one loop weights the pairs,
sums their values and accumulates their gradients.  The rows run in the
order ss, tu, su, ta, sa, and that order is fixed: it is the float summation
order of the gradients, so reordering would change trained parameters.  The
generator step runs right after ta, which keeps the draws from its noise
stream in order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .dataset import DomainDataset, Priors, estimate_prior
from .errors import NumericError, ValidationError
from .evaluation import predict
from .losses import (
    MmdConfig,
    adv_multilabel_loss,
    ce_loss,
    contradistinguish_loss,
    kernel_mmd,
    pseudo_label_select,
)
from .model import Gradients, ModelParams, backward, forward, init_params
from .rng import Rng, derive_seed

TERMS = ("ss", "su", "tu", "sa", "ta")


@dataclass(frozen=True)
class GeneratorSettings:
    """Toy generator: noise_dim -> hidden_dims -> feature dim, own Adam lr."""

    noise_dim: int = 8
    hidden_dims: tuple[int, ...] = (64, 64)
    lr: float = 1e-3

    def __post_init__(self):
        if self.noise_dim < 1 or any(h < 1 for h in self.hidden_dims):
            raise ValidationError("generator dims must be positive")
        if not (self.lr >= 0 and np.isfinite(self.lr)):
            raise ValidationError("generator lr must be a finite non-negative real")


@dataclass
class TrainConfig:
    batch_size: int = 128
    epochs: int = 100
    lr: float = 1e-3
    optimizer: str = "adam"  # adam(b1=0.9, b2=0.999, eps=1e-8) or sgd
    enabled_terms: tuple[str, ...] = ("ss", "tu", "ta")
    term_weights: dict[str, float] = field(default_factory=dict)
    prior_mode: Priors | str = "estimate_from_source"
    fake_sampler: GeneratorSettings | str = "gaussian_input"
    mmd: MmdConfig = field(default_factory=MmdConfig)
    hidden_dims: tuple[int, ...] = (64, 64)
    # Pseudo-labels picked from a freshly initialized network are arbitrary
    # and the contradistinguish term locks them in (Adam rescales even a
    # small weight to a full-size step), so the loss terms are staged:
    # epochs <= warmup train ss only, then tu/su ramp linearly to full over
    # ramp_epochs, then ta/sa ramp over the following ramp_epochs.  The
    # adversarial push toward uniform outputs can tip a freshly locked
    # assignment into its mirror image unless the unsupervised terms are at
    # full strength first.
    warmup_epochs: int = 10
    ramp_epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        self.enabled_terms = tuple(self.enabled_terms)
        self.hidden_dims = tuple(self.hidden_dims)

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if not (self.lr >= 0 and np.isfinite(self.lr)):
            raise ValidationError("lr must be a finite non-negative real")
        if self.optimizer not in ("adam", "sgd"):
            raise ValidationError(f"unknown optimizer {self.optimizer!r}")
        seen = set()
        for term in self.enabled_terms:
            if term not in TERMS:
                raise ValidationError(f"unknown loss term {term!r}")
            if term in seen:
                raise ValidationError(f"duplicate loss term {term!r}")
            seen.add(term)
        if "ss" not in seen:
            raise ValidationError("the ss term is the anchor and must stay enabled")
        if "tu" in seen and self.batch_size < 2:
            raise ValidationError("tu needs batch_size >= 2")
        if "sa" in seen and isinstance(self.fake_sampler, GeneratorSettings):
            raise ValidationError(
                "sa needs the Gaussian fake sampler: the generator only models the target"
            )
        for term, w in self.term_weights.items():
            if term not in TERMS + ("gen",):
                raise ValidationError(f"unknown term weight {term!r}")
            if not (w >= 0 and np.isfinite(w)):
                raise ValidationError(f"weight for {term!r} must be >= 0")
        if isinstance(self.prior_mode, str) and self.prior_mode != "estimate_from_source":
            raise ValidationError(f"unknown prior mode {self.prior_mode!r}")
        if isinstance(self.fake_sampler, str) and self.fake_sampler != "gaussian_input":
            raise ValidationError(f"unknown fake sampler {self.fake_sampler!r}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValidationError("hidden dims must be positive")
        if self.warmup_epochs < 0:
            raise ValidationError("warmup_epochs must be >= 0")
        if self.ramp_epochs < 0:
            raise ValidationError("ramp_epochs must be >= 0")

    def weight(self, term: str) -> float:
        return float(self.term_weights.get(term, 1.0))


def train_config_to_dict(cfg: TrainConfig) -> dict:
    """JSON-ready view of a TrainConfig (inverse of train_config_from_dict)."""
    prior = cfg.prior_mode
    sampler = cfg.fake_sampler
    if isinstance(sampler, GeneratorSettings):
        sampler = {**asdict(sampler), "hidden_dims": list(sampler.hidden_dims)}
    return {
        "batch_size": cfg.batch_size,
        "epochs": cfg.epochs,
        "lr": cfg.lr,
        "optimizer": cfg.optimizer,
        "terms": list(cfg.enabled_terms),
        "term_weights": dict(cfg.term_weights),
        "prior": prior.probs.tolist() if isinstance(prior, Priors) else prior,
        "fake_sampler": sampler,
        "mmd_gamma": cfg.mmd.gamma,
        "hidden_dims": list(cfg.hidden_dims),
        "warmup_epochs": cfg.warmup_epochs,
        "ramp_epochs": cfg.ramp_epochs,
        "seed": cfg.seed,
    }


def _ints(items) -> tuple[int, ...]:
    return tuple(int(h) for h in items)


def _converted(obj: dict, defaults: dict, converters: dict, where: str) -> dict:
    """obj laid over defaults with every value converted; unknown keys fail."""
    unknown = sorted(set(obj) - set(defaults))
    if unknown:
        raise ValidationError(
            f"unknown {where} key {unknown[0]!r}; known keys: {', '.join(defaults)}"
        )
    out = {}
    for key, default in defaults.items():
        try:
            out[key] = converters[key](obj.get(key, default))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad {where} value for {key!r}: {exc}") from exc
    return out


def train_config_from_dict(obj: dict) -> TrainConfig:
    """Strict inverse of train_config_to_dict: unknown keys and bad values fail."""

    def sampler(value):
        if not isinstance(value, dict):
            return value
        converters = {"noise_dim": int, "hidden_dims": _ints, "lr": float}
        defaults = asdict(GeneratorSettings())
        return GeneratorSettings(**_converted(value, defaults, converters, "fake_sampler"))

    converters = {
        "batch_size": int,
        "epochs": int,
        "lr": float,
        "optimizer": str,
        "terms": tuple,
        "term_weights": lambda w: {k: float(v) for k, v in dict(w).items()},
        "prior": lambda p: p if isinstance(p, str) else Priors(np.asarray(p, dtype=np.float64)),
        "fake_sampler": sampler,
        "mmd_gamma": lambda g: MmdConfig(g if g == "median-heuristic" else float(g)),
        "hidden_dims": _ints,
        "warmup_epochs": int,
        "ramp_epochs": int,
        "seed": int,
    }
    v = _converted(obj, train_config_to_dict(TrainConfig()), converters, "train config")
    for key, name in (("terms", "enabled_terms"), ("prior", "prior_mode"), ("mmd_gamma", "mmd")):
        v[name] = v.pop(key)
    cfg = TrainConfig(**v)
    cfg.validate()
    return cfg


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
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for rec in self.records:
                fh.write(json.dumps(asdict(rec)) + "\n")


class Adam:
    """Classic first/second-moment optimizer with bias correction."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self._m is None:
            self._m = [np.zeros_like(a) for a in arrays]
            self._v = [np.zeros_like(a) for a in arrays]
        self._t += 1
        c1 = 1.0 - self.beta1**self._t
        c2 = 1.0 - self.beta2**self._t
        for a, g, m, v in zip(arrays, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            a -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for a, g in zip(arrays, grads):
            a -= self.lr * g


def make_optimizer(name: str, lr: float):
    if name == "adam":
        return Adam(lr)
    if name == "sgd":
        return Sgd(lr)
    raise ValidationError(f"unknown optimizer {name!r}")


def sample_fake_gaussian(features: np.ndarray, n_f: int, seed: int) -> np.ndarray:
    """Fakes from per-dimension Gaussians with the batch's mean and std."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ValidationError("need at least 2 rows to estimate a std")
    if n_f < 1:
        raise ValidationError("n_f must be >= 1")
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    d = features.shape[1]
    z = Rng(seed).normal(n_f * d).reshape(n_f, d)
    return mean + std * z


def estimate_target_prior(cfg: TrainConfig, sources: list[DomainDataset]) -> Priors:
    """The given target prior, or pooled source label frequencies."""
    if isinstance(cfg.prior_mode, Priors):
        return cfg.prior_mode
    labels = np.concatenate([s.labels for s in sources])
    return estimate_prior(labels, int(labels.max()) + 1)


class _BatchStream:
    """Cycling mini-batch index stream; reshuffles whenever a pass ends.

    Batches always have exactly batch_size rows: a partial tail is topped
    up from the start of the next (freshly shuffled) pass.
    """

    def __init__(self, n: int, batch_size: int, rng: Rng):
        self._n = n
        self._b = batch_size
        self._rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def next(self) -> np.ndarray:
        chunks = []
        need = self._b
        while need > 0:
            avail = self._n - self._pos
            if avail == 0:
                self._order = self._rng.permutation(self._n)
                self._pos = 0
                continue
            k = min(need, avail)
            chunks.append(self._order[self._pos : self._pos + k])
            self._pos += k
            need -= k
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _encoder_input_grad(clf: ModelParams, x: np.ndarray, d_emb: np.ndarray) -> np.ndarray:
    """Gradient of a loss on the last hidden activation wrt the input."""
    if len(clf.layer_dims) < 3:
        raise ValidationError("classifier needs a hidden layer to expose an embedding")
    enc = ModelParams(clf.layer_dims[:-1], clf.weights[:-1], clf.biases[:-1])
    trace = forward(enc, x)
    # embedding = relu(trace.logits); push the gradient through the relu
    d_pre = d_emb * (trace.logits > 0.0)
    return backward(enc, trace, d_pre).inputs


def generator_loss(
    gen: ModelParams,
    clf: ModelParams,
    noise: np.ndarray,
    target_batch: np.ndarray,
    mmd_cfg: MmdConfig,
) -> tuple[float, Gradients]:
    """Embedding-matching loss for the generator and its parameter gradients.

    Fakes G(noise) and the real target batch are both pushed through the
    classifier up to its last hidden layer; the kernel two-sample loss
    between the two embedding sets is differentiated with respect to the
    generator parameters only.
    """
    gen_trace = forward(gen, noise)
    fakes = gen_trace.logits
    emb_fake = forward(clf, fakes).activations[-1]
    emb_real = forward(clf, np.asarray(target_batch, dtype=np.float64)).activations[-1]
    mmd = kernel_mmd(emb_fake, emb_real, mmd_cfg)
    d_fakes = _encoder_input_grad(clf, fakes, mmd.d_emb_a)
    return mmd.value, backward(gen, gen_trace, d_fakes)


def generator_step(
    gen: ModelParams,
    clf: ModelParams,
    target_batch: np.ndarray,
    cfg: TrainConfig,
    optimizer,
    rng: Rng,
) -> tuple[ModelParams, float]:
    """One optimizer step on the generator parameters; returns the loss."""
    if not isinstance(cfg.fake_sampler, GeneratorSettings):
        raise ValidationError("generator_step requires the generator fake sampler")
    n_f = np.asarray(target_batch).shape[0]
    noise = rng.normal(n_f * gen.input_dim).reshape(n_f, gen.input_dim)
    value, grads = generator_loss(gen, clf, noise, target_batch, cfg.mmd)
    w = cfg.weight("gen")
    if w != 0.0:
        optimizer.step(
            gen.weights + gen.biases,
            [w * g for g in grads.weights] + [w * g for g in grads.biases],
        )
    return gen, value


def _validate_inputs(
    cfg: TrainConfig, sources: list[DomainDataset], target: DomainDataset
) -> int:
    if not sources:
        raise ValidationError("need at least one source domain")
    d = sources[0].dim
    for src in sources:
        if src.labels is None:
            raise ValidationError(f"source {src.domain_id!r} must be labeled")
        if src.dim != d:
            raise ValidationError("all domains must share the feature width")
    if target.labels is not None:
        raise ValidationError(
            "target must be passed unlabeled (use DomainDataset.without_labels)"
        )
    if target.dim != d:
        raise ValidationError("all domains must share the feature width")
    k = int(max(int(s.labels.max()) for s in sources)) + 1
    if k < 2:
        raise ValidationError("need at least 2 classes across the sources")
    if isinstance(cfg.prior_mode, Priors) and cfg.prior_mode.num_classes != k:
        raise ValidationError(
            f"given prior has {cfg.prior_mode.num_classes} classes, sources have {k}"
        )
    return k


def train(
    cfg: TrainConfig, sources: list[DomainDataset], target: DomainDataset
) -> tuple[ModelParams, TrainHistory]:
    """Run the joint loop and return the final classifier plus history.

    Per epoch there are ceil(max(n_s, n_t) / batch_size) steps; each step
    draws one batch per source and one target batch, accumulates the
    enabled loss gradients, and applies one optimizer update.  Everything
    is deterministic given (cfg, datasets).
    """
    cfg.validate()
    k = _validate_inputs(cfg, sources, target)
    d = sources[0].dim
    terms = set(cfg.enabled_terms)

    params = init_params((d, *cfg.hidden_dims, k), derive_seed(cfg.seed, "init"))
    optimizer = make_optimizer(cfg.optimizer, cfg.lr)
    prior_t = estimate_target_prior(cfg, sources)
    source_priors = [estimate_prior(s.labels, k) for s in sources]

    src_streams = [
        _BatchStream(s.n, cfg.batch_size, Rng(derive_seed(cfg.seed, f"shuffle/source/{r}")))
        for r, s in enumerate(sources)
    ]
    tgt_stream = _BatchStream(
        target.n, cfg.batch_size, Rng(derive_seed(cfg.seed, "shuffle/target"))
    )
    # independent fake-sample seed streams so enabling one adversarial term
    # never shifts the other's draws
    fake_seeds_ta = Rng(derive_seed(cfg.seed, "fake/ta"))
    fake_seeds_sa = Rng(derive_seed(cfg.seed, "fake/sa"))

    gen = None
    if isinstance(cfg.fake_sampler, GeneratorSettings):
        gs = cfg.fake_sampler
        gen = init_params(
            (gs.noise_dim, *gs.hidden_dims, d), derive_seed(cfg.seed, "gen-init")
        )
        gen_optimizer = make_optimizer(cfg.optimizer, gs.lr)
        gen_noise = Rng(derive_seed(cfg.seed, "gen-noise"))

    def target_fakes(tgt_x: np.ndarray) -> np.ndarray:
        if gen is None:
            return sample_fake_gaussian(tgt_x, cfg.batch_size, fake_seeds_ta.next_u64())
        noise = gen_noise.normal(cfg.batch_size * gen.input_dim)
        return forward(gen, noise.reshape(cfg.batch_size, gen.input_dim)).logits

    def contradist(trace, prior: Priors):
        pseudo = pseudo_label_select(trace.probs, prior)
        return trace, contradistinguish_loss(trace, pseudo, prior)

    def adversarial(fakes: np.ndarray):
        trace = forward(params, fakes)
        return trace, adv_multilabel_loss(trace)

    # (term, epoch its ramp starts after or None, (src, tgt_x) -> [(trace, loss)])
    # where src holds one (features, labels, trace) per source batch.  The row
    # order is the gradient summation order; see the module docstring.
    unsup, adv = cfg.warmup_epochs, cfg.warmup_epochs + cfg.ramp_epochs
    table = [
        ("ss", None, lambda src, tgt_x: [(t, ce_loss(t, y)) for _, y, t in src]),
        ("tu", unsup, lambda src, tgt_x: [contradist(forward(params, tgt_x), prior_t)]),
        ("su", unsup, lambda src, tgt_x: [
            contradist(t, prior) for (_, _, t), prior in zip(src, source_priors)
        ]),
        ("ta", adv, lambda src, tgt_x: [adversarial(target_fakes(tgt_x))]),
        ("sa", adv, lambda src, tgt_x: [
            adversarial(sample_fake_gaussian(x, cfg.batch_size, fake_seeds_sa.next_u64()))
            for x, _, _ in src
        ]),
    ]
    table = [row for row in table if row[0] in terms]

    grads_w = [np.zeros_like(w) for w in params.weights]
    grads_b = [np.zeros_like(b) for b in params.biases]

    def accumulate(scale: float, grads: Gradients) -> None:
        for acc, g in zip(grads_w, grads.weights):
            acc += scale * g
        for acc, g in zip(grads_b, grads.biases):
            acc += scale * g

    pooled_x = np.vstack([s.features for s in sources])
    pooled_y = np.concatenate([s.labels for s in sources])
    n_batch = -(-max(max(s.n for s in sources), target.n) // cfg.batch_size)
    loss_keys = [t for t in TERMS if t in terms]
    if gen is not None and "ta" in terms:
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
        for _ in range(n_batch):
            for acc in grads_w + grads_b:
                acc.fill(0.0)
            src = []
            for s, stream in zip(sources, src_streams):
                idx = stream.next()
                x = s.features[idx]
                src.append((x, s.labels[idx], forward(params, x)))
            tgt_x = target.features[tgt_stream.next()]

            step_total = 0.0
            for name, _, pairs in table:
                w = weights[name]
                value = 0.0
                for trace, lv in pairs(src, tgt_x):
                    value += lv.value
                    if w != 0.0:
                        accumulate(w, backward(params, trace, lv.dlogits))
                sums[name] += value
                step_total += w * value
                if name == "ta" and gen is not None:
                    _, gen_value = generator_step(
                        gen, params, tgt_x, cfg, gen_optimizer, gen_noise
                    )
                    sums["gen"] += gen_value

            optimizer.step(params.weights + params.biases, grads_w + grads_b)
            total_sum += step_total

        losses = {key: sums[key] / n_batch for key in loss_keys}
        if any(not np.isfinite(v) for v in losses.values()):
            raise NumericError(f"non-finite loss in epoch {epoch}: {losses}")
        source_acc = float((predict(params, pooled_x) == pooled_y).mean())
        history.records.append(
            EpochRecord(
                epoch=epoch,
                losses=losses,
                total=total_sum / n_batch,
                source_train_accuracy=source_acc,
            )
        )
    return params, history
