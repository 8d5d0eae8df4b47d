"""Desk-scale end-to-end model: a frozen vision-feature stub, a trainable
projection and embedding (the whole trainable set; the output head is the
embedding transpose), frozen decoder blocks, the answer-only loss with
hand-written gradients, RMSProp training (``train_step``) and checkpoints.

Where each rule lives: what a bin's plan holds in ``_BinPlan``, its cache
in ``_PLANS``, the block loop and its un-permute in ``_bin_pass``, the loss
and its gradients in ``_bin_loss_and_grads``.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from tokenize import TokenError
from typing import Iterator

import numpy as np

from .attn import (
    MultiHeadParams,
    SavedAttention,
    init_multi_head_params,
    multi_head_forward,
    multi_head_input_vjp,
)
from .mask import AttentionLayout, AttentionVariant, _check_image_self, build_layout
from .modseq import LayoutConfig, _check_int, image_blocks
from .template import Conversation, HashTokenizer, RenderedSample, Round, render

GradDict = dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelConfig:
    """Toy dimensions (each an integer >= 1), sized so finite-difference
    and brute-force reference checks of the full model run in milliseconds.
    ``variant`` may be given as its value (``"mmca"``); ``variant`` and
    ``image_self`` are the attention rule."""

    vision_dim: int = 8
    model_dim: int = 16
    num_heads: int = 2
    num_layers: int = 2
    vocab_size: int = 32
    ffn_dim: int = 32
    image_token_count: int = 4
    variant: AttentionVariant = AttentionVariant.MMCA
    image_self: str = "block"

    def __post_init__(self) -> None:
        for name in ("vision_dim", "model_dim", "num_heads", "num_layers",
                     "vocab_size", "ffn_dim", "image_token_count"):
            _check_int(name, getattr(self, name))
        if self.model_dim % self.num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")
        object.__setattr__(self, "variant", AttentionVariant(self.variant))
        _check_image_self(self.image_self)

    def layout(self) -> LayoutConfig:
        return LayoutConfig(self.image_token_count)


@dataclass
class DecoderBlock:
    """One frozen block: multi-head attention + tanh feedforward, each with
    a residual connection and no normalization layers."""

    attn: MultiHeadParams
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        """Every tensor under its name within the block, in a fixed order."""
        for name, array in self.attn.weights():
            yield f"attn.{name}", array
        yield from (("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2))

    def param_count(self) -> int:
        return sum(array.size for _, array in self.tensors())


@dataclass
class ToyModel:
    """Parameter store split into a trainable part (projection, embedding)
    and a frozen part (decoder blocks, vision stub), which has no gradient
    storage and is shared, bit-identical, with every trained successor."""

    config: ModelConfig
    projection: np.ndarray
    embedding: np.ndarray
    blocks: tuple[DecoderBlock, ...]
    vision_stub: dict[str, np.ndarray]
    stub_seed: int

    def trainable_params(self) -> GradDict:
        return {"projection": self.projection, "embedding": self.embedding}

    def trainable_param_count(self) -> int:
        return self.projection.size + self.embedding.size

    def decoder_param_count(self) -> int:
        return sum(block.param_count() for block in self.blocks)

    def frozen_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """All frozen tensors under stable names, in a fixed order."""
        for i, block in enumerate(self.blocks):
            for name, array in block.tensors():
                yield f"block{i}.{name}", array
        for image_id in sorted(self.vision_stub):
            yield f"stub.{image_id}", self.vision_stub[image_id]

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Every tensor under its checkpoint name: the trainable pair, then
        the frozen tensors in ``frozen_arrays`` order."""
        return {**self.trainable_params(), **dict(self.frozen_arrays())}


def vision_features(stub_seed: int, image_id: str, shape: tuple[int, int]) -> np.ndarray:
    """Fixed pseudo-random features for one image id. Keyed by a content
    hash of (seed, id) so the mapping is independent of registration order."""
    digest = hashlib.blake2b(
        f"{stub_seed}:{image_id}".encode("utf-8"), digest_size=8
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    return rng.standard_normal(shape)


def make_model(
    config: ModelConfig, seed: int = 0, known_images: tuple[str, ...] = ()
) -> ToyModel:
    """Build a model with randomly initialized parameters and a vision stub
    covering ``known_images``; any other image id is rejected at forward
    time."""
    rng = np.random.default_rng(seed)
    c = config

    def normal(rows: int, cols: int, fan_in: int) -> np.ndarray:
        return rng.standard_normal((rows, cols)) / math.sqrt(fan_in)

    projection = normal(c.vision_dim, c.model_dim, c.vision_dim)
    embedding = normal(c.vocab_size, c.model_dim, c.model_dim)
    blocks = tuple(
        DecoderBlock(
            attn=init_multi_head_params(c.variant, c.num_heads, c.model_dim, rng),
            w1=normal(c.model_dim, c.ffn_dim, c.model_dim),
            b1=np.zeros(c.ffn_dim),
            w2=normal(c.ffn_dim, c.model_dim, c.ffn_dim),
            b2=np.zeros(c.model_dim),
        )
        for _ in range(c.num_layers)
    )
    stub_shape = (c.image_token_count, c.vision_dim)
    stub = {image_id: vision_features(seed, image_id, stub_shape) for image_id in known_images}
    return ToyModel(config, projection, embedding, blocks, stub, stub_seed=seed)


def _embed(model: ToyModel, plan: _BinPlan) -> np.ndarray:
    """The plan's embedded tokens and projected images, after the model's
    checks of the plan, which run on every call: every token id must lie in
    the vocabulary, and each image block ``(image_id, start, end)`` must
    name an image of the model's stub and be ``image_token_count`` wide."""
    lowest, highest = plan.id_range
    if lowest < 0 or highest >= model.config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    h = model.embedding[plan.token_ids]
    for image_id, start, end in plan.images:
        if image_id not in model.vision_stub:
            raise ValueError(f"unknown image id: {image_id!r}")
        if end - start != model.config.image_token_count:
            raise ValueError(
                f"image block has {end - start} tokens; model expects {model.config.image_token_count}"
            )
        h[start:end] = model.vision_stub[image_id] @ model.projection
    return h


@dataclass(frozen=True, slots=True)
class _BinPlan:
    """What a pass over a bin of samples needs that depends on the samples
    and the attention rule alone, never on a weight, so it is planned once
    and reused across steps and scoring calls. Positions are those of the
    bin laid out once in its layout's key order (image positions, then
    text): the token ids and their (lowest, highest) id, the image blocks
    ``(image_id, start, end)``, the layout (its ``rows`` and ``keys``
    0..d-1), the last block's layout (``layout.restrict(rows)``) and the
    rows the pass returns; for training, also the target token of each row,
    the row weights and the text positions. Every array is read-only and
    has at most d entries (``Term.limit`` is one key count per row)."""

    token_ids: np.ndarray
    id_range: tuple[int, int]
    images: tuple[tuple[str, int, int], ...]
    layout: AttentionLayout
    last: AttentionLayout
    rows: np.ndarray
    targets: np.ndarray | None = None
    weights: np.ndarray | None = None
    text: np.ndarray | None = None

    def __post_init__(self) -> None:
        arrays = [self.token_ids, self.rows, self.targets, self.weights, self.text]
        for layout in (self.layout, self.last):
            arrays += [layout.rows, layout.keys, *(term.limit for term in layout.terms)]
        for array in arrays:
            if array is not None:
                array.setflags(write=False)


# Bin plans ``_make_plan`` keeps, least recently used evicted first. A plan is O(d)
# (a 4,096-token text-only forward plan holds about 136 KB); its key keeps its samples alive.
_PLANS = 128


@lru_cache(maxsize=_PLANS)
def _make_plan(samples: tuple[RenderedSample, ...], variant: AttentionVariant, image_self: str,
               training: bool) -> _BinPlan:
    """The plan of ``samples`` laid end to end under the attention rule
    (``variant``, ``image_self``). A training plan's rows are every
    sample's target rows, each weighing 1/n for a sample with n targets;
    otherwise they are every position in sequence order."""
    starts = np.cumsum([0] + [sample.d for sample in samples[:-1]]).tolist()
    layout = build_layout([sample.tags for sample in samples], variant, image_self)
    order = layout.keys
    inverse = np.empty_like(order)
    inverse[order] = positions = np.arange(order.size)
    at = inverse.tolist()  # each sequence position's place in the layout's order
    images = tuple(
        (sample.image_ids[index], at[first + start], at[first + start] + end - start)
        for sample, first in zip(samples, starts)
        for index, (_, start, end) in enumerate(image_blocks(sample.tags))
    )
    token_ids = np.concatenate([np.asarray(sample.token_ids) for sample in samples])
    id_range = (int(token_ids.min()), int(token_ids.max()))
    layout = replace(layout, rows=positions, keys=positions)
    if not training:
        return _BinPlan(token_ids[order], id_range, images, layout, layout, inverse)
    targets = [_target_positions(sample) for sample in samples]
    rows = np.concatenate([first + positions for first, positions in zip(starts, targets)])
    text = np.flatnonzero(~np.concatenate([sample.tags.is_image() for sample in samples]))
    return _BinPlan(
        token_ids[order], id_range, images, layout, layout.restrict(inverse[rows]), inverse[rows],
        targets=token_ids[rows + 1],
        weights=np.concatenate([_mean_weights(positions.size) for positions in targets]),
        text=inverse[text],
    )


def _plan(samples: list[RenderedSample], config: ModelConfig, training: bool) -> _BinPlan:
    """The cached plan of ``samples`` under ``config``'s attention rule."""
    return _make_plan(tuple(samples), config.variant, config.image_self, training)


def _bin_pass(
    model: ToyModel,
    plan: _BinPlan,
    states: list[tuple[np.ndarray, SavedAttention, np.ndarray | slice]] | None,
) -> np.ndarray:
    """The last block's output at the plan's rows. ``states``, when given,
    receives each layer's (tanh activation, SavedAttention, rows kept: a
    slice for every row) in block order, for the VJP.

    Embedding and every block run once per bin, in the plan's order. Every
    block but the last runs on every row; the last runs its attention on
    the plan's restricted layout and its feedforward on the plan's rows
    alone, so the only gather out of that order is the last block's rows
    (for ``forward``, every row in sequence order: its one un-permute).
    Each layer's attention state is freed before the next block runs
    unless ``states`` keeps it."""
    h = _embed(model, plan)
    passes = [(plan.layout, slice(None))] * (len(model.blocks) - 1) + [(plan.last, plan.rows)]
    for block, (block_layout, kept) in zip(model.blocks, passes):
        attn_out, saved = multi_head_forward(h, block.attn, block_layout)
        h_mid = (h + attn_out)[kept]
        activation = np.tanh(h_mid @ block.w1 + block.b1)  # all that the VJP reads of the feedforward
        h = h_mid + activation @ block.w2 + block.b2  # the feedforward with its residual
        if states is not None:
            states.append((activation, saved, kept))
        del saved  # free this layer's attention state, unless kept, before the next block
    return h


# A model call ends in its own typed error (the kernel's output and gradient
# checks, the logits and loss checks), not in NumPy's warnings on the way.
_typed_errors_only = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_typed_errors_only
def forward(model: ToyModel, sample: RenderedSample) -> np.ndarray:
    """Logits (d x vocab_size) for every position: the pass over every row
    of a one-sample bin, then the head."""
    h = _bin_pass(model, _plan([sample], model.config, training=False), None)
    logits = h @ model.embedding.T
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    return logits


def _target_positions(sample: RenderedSample) -> np.ndarray:
    """Positions t whose next token (the prediction target) is loss-masked;
    a sample without any is a ``ValueError``."""
    mask = np.asarray(sample.loss_mask, dtype=bool)
    positions = np.flatnonzero(mask[1:])
    if positions.size == 0:
        raise ValueError("sample has no loss-masked targets")
    return positions


def _target_loss(
    logits: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Cross-entropy of target-row logits, row i predicting token
    ``targets[i]`` with weight ``weights[i]``, summed over the rows, and the
    rows' log-probabilities, from which training forms the gradient. The
    logits must have one row per target, more columns than the largest
    target id, and finite values."""
    highest = np.maximum.reduce(targets)
    if logits.shape[1] <= highest:
        raise ValueError(f"logits have {logits.shape[1]} columns; target id {highest} needs more")
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    log_probs = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1))[:, None]
    return -float(log_probs[np.arange(targets.size), targets] @ weights), log_probs


def _mean_weights(count: int) -> np.ndarray:
    """Row weights that make ``_target_loss`` the mean over ``count`` rows."""
    return np.full(count, 1.0 / count)


def answer_loss(logits: np.ndarray, sample: RenderedSample) -> float:
    """Mean next-token cross-entropy over positions whose target carries
    the loss mask, from logits of shape (d, V) with V above every target
    id. Logits anywhere else cannot affect the value; non-finite logits at
    a target position are a ``FloatingPointError``."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] != sample.d:
        raise ValueError(f"logits must have shape ({sample.d}, vocab_size)")
    positions = _target_positions(sample)
    targets = np.asarray(sample.token_ids)[positions + 1]
    return _target_loss(logits[positions], targets, _mean_weights(positions.size))[0]


def _bin_loss_and_grads(model: ToyModel, samples: list[RenderedSample]) -> tuple[float, GradDict]:
    """The sum of the samples' answer losses (each a mean over its targets)
    and its gradients w.r.t. the two trainable tensors, from one
    ``_bin_pass`` over the bin's target rows and its hand-written VJP. The
    embedding gradient collects both of its roles: output head (tied
    transpose) and input rows at text positions."""
    plan = _plan(samples, model.config, training=True)
    states = []
    h = _bin_pass(model, plan, states)
    loss, log_probs = _target_loss(h @ model.embedding.T, plan.targets, plan.weights)
    dlogits = np.exp(log_probs, out=log_probs)  # the softmax, over the log-probabilities
    dlogits[np.arange(plan.targets.size), plan.targets] -= 1.0
    dlogits *= plan.weights[:, None]
    d_embedding = dlogits.T @ h
    dh = dlogits @ model.embedding
    for block in reversed(model.blocks):
        activation, saved, kept = states.pop()
        dh_mid = dh + ((dh @ block.w2.T) * (1.0 - activation * activation)) @ block.w1.T
        dattn = dh_mid
        if not isinstance(kept, slice):  # the block kept some rows: the others get no gradient
            dattn = np.zeros((saved.layout.d, dh_mid.shape[1]))
            dattn[kept] = dh_mid
        dh = multi_head_input_vjp(block.attn, saved, dattn)
        dh[kept] += dh_mid
        del saved  # free this layer's attention state before the next layer's VJP

    d_projection = np.zeros_like(model.projection)
    for image_id, start, end in plan.images:
        d_projection += model.vision_stub[image_id].T @ dh[start:end]
    np.add.at(d_embedding, plan.token_ids[plan.text], dh[plan.text])
    return loss, {"projection": d_projection, "embedding": d_embedding}


@_typed_errors_only
def loss_and_param_grads(
    model: ToyModel, sample: RenderedSample
) -> tuple[float, GradDict]:
    """Answer loss and its gradients w.r.t. the two trainable tensors: the
    training pass over a bin of one sample."""
    return _bin_loss_and_grads(model, [sample])


def _bins(batch: list[RenderedSample], capacity: int) -> list[list[RenderedSample]]:
    """``batch`` cut, in order, into bins of at most ``capacity`` positions:
    each sample joins the current bin if it fits and starts the next one
    otherwise, so a sample of ``capacity`` or more positions is a bin of its
    own."""
    bins, size = [], 0
    for sample in batch:
        if not bins or size + sample.d > capacity:
            bins.append([])
            size = 0
        bins[-1].append(sample)
        size += sample.d
    return bins


# ---------------------------------------------------------------------------
# Optimizer


_BETA2 = 0.95
_WARMUP_FRACTION = 0.10
_EPS = 1e-8


@dataclass
class OptimState:
    """RMSProp with bias correction after a linear warmup over the first
    ``_WARMUP_FRACTION`` of ``total_steps``: step ``t`` moves each trainable
    tensor by ``lr * grad / (sqrt(v / (1 - _BETA2**t)) + _EPS)``, where
    ``v``, one buffer per tensor, is the running mean of squared gradients."""

    total_steps: int
    learning_rate: float = 1e-3
    step: int = 0
    v: GradDict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_int("total_steps", self.total_steps)
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        _check_int("step", self.step, minimum=0)

    def current_learning_rate(self) -> float:
        warmup_steps = math.ceil(_WARMUP_FRACTION * self.total_steps)
        if self.step < warmup_steps:
            return self.learning_rate * (self.step + 1) / warmup_steps
        return self.learning_rate


@_typed_errors_only
def train_step(
    model: ToyModel, batch: list[RenderedSample], opt: OptimState
) -> tuple[float, ToyModel]:
    """One optimizer step on the batch-mean loss, one training pass per bin
    of ``_bins(batch, max_sequence_length)``. Returns the loss and a
    successor model whose frozen parts are the very same arrays; only the
    two trainable tensors are replaced."""
    if not batch:
        raise ValueError("train_step needs a non-empty batch")
    total_loss = 0.0
    grads = {
        "projection": np.zeros_like(model.projection),
        "embedding": np.zeros_like(model.embedding),
    }
    for samples in _bins(batch, model.config.layout().max_sequence_length):
        loss, g = _bin_loss_and_grads(model, samples)
        total_loss += loss
        for name in grads:
            grads[name] += g[name]
    loss = total_loss / len(batch)
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite training loss")
    for name in grads:
        grads[name] /= len(batch)

    lr = opt.current_learning_rate()
    opt.step += 1
    t = opt.step
    params = model.trainable_params()
    updated: GradDict = {}
    for name, grad in grads.items():
        v = opt.v.get(name, 0.0)
        opt.v[name] = _BETA2 * v + (1.0 - _BETA2) * grad * grad
        v_hat = opt.v[name] / (1.0 - _BETA2**t)
        updated[name] = params[name] - lr * (grad / (np.sqrt(v_hat) + _EPS))
    return loss, replace(
        model, projection=updated["projection"], embedding=updated["embedding"]
    )


def frozen_fingerprint(model: ToyModel) -> str:
    """Content hash over every frozen tensor plus the stub seed; unchanged
    by any number of training steps."""
    digest = hashlib.sha256()
    digest.update(f"stub_seed={model.stub_seed}".encode("utf-8"))
    for name, array in model.frozen_arrays():
        contiguous = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(f"{name}:{contiguous.shape}".encode("utf-8"))
        digest.update(contiguous.tobytes())
    return digest.hexdigest()


def make_copy_task(
    config: ModelConfig, num_images: int = 8
) -> tuple[list[RenderedSample], tuple[str, ...]]:
    """Synthetic task: each sample shows one image and the answer is that
    image's id, so predicting the answer token requires reading the image
    block through attention. Learnable by projection + embedding alone."""
    image_ids = tuple(f"img{i}" for i in range(num_images))
    tokenizer, layout = HashTokenizer(config.vocab_size), config.layout()
    chats = [Conversation("Name the image.", (Round((i,), "Which image is this?", i),)) for i in image_ids]
    return [render(chat, tokenizer, layout) for chat in chats], image_ids


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_FORMAT_VERSION = 2


def _config_from_dict(data: object) -> ModelConfig:
    """The manifest's config, which must be an object naming exactly
    ``ModelConfig``'s fields; anything else is a ``ValueError`` naming the
    offending key."""
    if not isinstance(data, dict):
        raise ValueError(f"checkpoint config must be an object, got {type(data).__name__}")
    expected = {f.name for f in fields(ModelConfig)}
    missing, unexpected = sorted(expected - data.keys()), sorted(data.keys() - expected)
    if missing or unexpected:
        raise ValueError(f"checkpoint config keys missing: {missing}, unexpected: {unexpected}")
    return ModelConfig(**data)


def save_model(model: ToyModel, path: str | Path) -> None:
    """Versioned checkpoint at exactly ``path``: named tensors plus a JSON
    manifest, as an ``.npz`` archive."""
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": {**asdict(model.config), "variant": model.config.variant.value},
        "stub_seed": model.stub_seed,
        "known_images": sorted(model.vision_stub),
    }
    arrays = model.named_tensors()
    arrays["__manifest__"] = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as handle:  # np.savez appends .npz to a bare path name
        np.savez(handle, **arrays)


def _stored_tensor(data: np.lib.npyio.NpzFile, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The checkpoint's tensor ``name``, which must exist with ``shape``."""
    if name not in data.files:
        raise ValueError(f"checkpoint is missing tensor {name}")
    array = data[name]
    if array.shape != shape:
        raise ValueError(f"tensor {name} has shape {array.shape}, expected {shape}")
    return array


# What opening a corrupt archive or reading a corrupt member raises, besides
# ``ValueError``: a bad directory, CRC, local header or size (``BadZipFile``,
# ``EOFError``), a version, flag or method zipfile cannot read
# (``NotImplementedError``), an ``.npy`` header numpy cannot tokenize
# (``TokenError``), or a directory offset before the file's start, whose
# seek fails with ``EINVAL`` (``OSError``).
_CORRUPT_ARCHIVE = (zipfile.BadZipFile, EOFError, NotImplementedError, TokenError, OSError)


def _not_an_archive(path: str | Path, err: Exception) -> ValueError:
    """The error for a corrupt archive; re-raises any other ``OSError``."""
    if isinstance(err, OSError) and err.errno != errno.EINVAL:
        raise err
    return ValueError(f"{path} is not a checkpoint archive: {err}")


def _read_checkpoint(data: np.lib.npyio.NpzFile) -> ToyModel:
    """The model of an open checkpoint archive, as ``load_model`` states."""
    if "__manifest__" not in data.files:
        raise ValueError("checkpoint has no __manifest__")
    try:
        manifest = json.loads(bytes(data["__manifest__"]).decode("utf-8"))
    except RecursionError:
        raise ValueError("checkpoint manifest is nested too deeply to parse") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"checkpoint manifest must be an object, got {type(manifest).__name__}")
    if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format: {manifest.get('format_version')!r}"
        )
    missing = sorted({"config", "known_images", "stub_seed"} - manifest.keys())
    if missing:
        raise ValueError(f"checkpoint manifest is missing: {', '.join(missing)}")
    config = _config_from_dict(manifest["config"])
    known, stub_seed = manifest["known_images"], manifest["stub_seed"]
    if not isinstance(known, list) or not all(isinstance(i, str) for i in known):
        raise ValueError(f"checkpoint known_images must be a list of strings, got {known!r}")
    if not isinstance(stub_seed, int) or isinstance(stub_seed, bool) or stub_seed < 0:
        raise ValueError(f"checkpoint stub_seed must be an integer >= 0, got {stub_seed!r}")
    c = config  # each size against a stored tensor of that size, before allocating any
    for name, shape in {
        "projection": (c.vision_dim, c.model_dim),
        "embedding": (c.vocab_size, c.model_dim),
        f"block{c.num_layers - 1}.w1": (c.model_dim, c.ffn_dim),
        "block0.attn.wq": (c.num_heads, c.model_dim, c.model_dim // c.num_heads),
        **{f"stub.{image_id}": (c.image_token_count, c.vision_dim) for image_id in known},
    }.items():
        _stored_tensor(data, name, shape)
    model = make_model(config, stub_seed, tuple(known))
    tensors = model.named_tensors()
    unexpected = sorted(set(data.files) - tensors.keys() - {"__manifest__"})
    if unexpected:
        raise ValueError(f"checkpoint has unexpected tensors: {', '.join(unexpected)}")
    for name, target in tensors.items():
        array = _stored_tensor(data, name, target.shape)
        if array.dtype != np.float64:
            raise ValueError(f"tensor {name} has dtype {array.dtype}, expected float64")
        if not np.isfinite(array).all():
            raise ValueError(f"tensor {name} contains non-finite values")
        target[...] = array
    return model


def load_model(path: str | Path) -> ToyModel:
    """Load a checkpoint written by save_model. The manifest must be an
    object of this format version holding a config with exactly
    ``ModelConfig``'s fields, the known images (a list of strings) and the
    stub seed (an integer >= 0). The checkpoint must hold exactly the
    tensors of the model ``make_model`` builds from it, each float64,
    finite and of that shape; each config size is checked against a stored
    tensor before that model is allocated. Otherwise a ValueError names
    the offending key or tensor, or the path of a file that is no ``.npz``
    archive or has a corrupt member; a file that cannot be opened is an
    ``OSError``."""
    try:
        data = np.load(path)
    except (ValueError, *_CORRUPT_ARCHIVE) as err:
        raise _not_an_archive(path, err) from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path} is not a checkpoint archive: it holds a single array")
    try:
        with data:
            return _read_checkpoint(data)
    except _CORRUPT_ARCHIVE as err:
        raise _not_an_archive(path, err) from None
