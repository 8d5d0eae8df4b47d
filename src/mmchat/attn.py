"""Attention computations for the three variants, in double precision,
with hand-derived backward passes and a finite-difference check harness.

The multi-modal variant computes two independently normalized attention
distributions per query, one over allowed text keys (M1) and one over
allowed image keys (M2), and sums them before the value product:

    out = (softmax_M1(S) + softmax_M2(S)) @ V,   S = scale * Q @ K^T

Masking is realized by restricting each softmax to its mask's support
(-inf fill before normalization). Multiplying scores by a 0/1 mask inside
the softmax would still leak weight exp(0) = 1 to forbidden positions, so
support restriction is the only reading under which forbidden edges carry
exactly zero weight. Rows with empty support produce all-zero rows rather
than NaN, which keeps image-free text prefixes and the image rows' text
component well-defined.

Two implementations share these semantics:

* The single-head ``mmca_/causal_/cross_forward`` functions and their
  ``_vjp``s work on the dense d x d mask. They are the inspectable
  reference.
* ``segment_attention`` and ``segment_attention_vjp`` are the one kernel
  behind the multi-head wrapper. They work from an ``AttentionLayout``
  built once per sequence, one softmax term at a time: image rows over
  their own block, text rows over text keys (every row, for causal), and
  runs of text rows over exactly the image keys before them. No d x d
  array is formed. Each term's scores are computed from the pre-scaled Q
  into a fresh buffer that is masked and normalized in place. The forward
  pass returns each term's softmax and output and the VJP reads them, so
  a backward pass forms no scores, takes no softmax and needs no
  rowsum(P * dP) pass over the rows x keys arrays.

``grad_check`` compares analytic gradients against central finite
differences; ``variant_grad_check`` points it at the segment kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mask import AttentionLayout, AttentionVariant, MmcaMask, build_layout, partition
from .modseq import ModalitySequence

GradDict = dict[str, np.ndarray]


@dataclass(frozen=True)
class AttentionConfig:
    """Shape and behavior knobs for multi-head attention.

    ``scale=None`` resolves to 1/sqrt(head_dim). ``normalize_dual_softmax``
    averages the two softmax terms instead of summing them; the literal sum
    is the default, so text rows attending to both modalities carry total
    weight 2.
    """

    variant: AttentionVariant
    num_heads: int
    model_dim: int
    scale: float | None = None
    normalize_dual_softmax: bool = False
    image_self: str = "block"

    def __post_init__(self) -> None:
        if self.num_heads < 1 or self.model_dim < 1:
            raise ValueError("num_heads and model_dim must be positive")
        if self.model_dim % self.num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")
        if self.scale is not None and not self.scale > 0:
            raise ValueError("scale must be > 0")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads

    @property
    def effective_scale(self) -> float:
        return self.scale if self.scale is not None else 1.0 / math.sqrt(self.head_dim)


@dataclass(frozen=True)
class AttentionInputs:
    """Single-head Q, K, V, all d x h and finite."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=np.float64)
        k = np.asarray(self.k, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
            raise ValueError("Q, K, V must be d x h matrices of equal shape")
        for name, a in (("Q", q), ("K", k), ("V", v)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} contains non-finite values")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "v", v)

    @property
    def d(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class CrossParams:
    """Separate key/value representations used by text queries to read
    image keys in the causal-plus-cross variant. Only image rows matter."""

    kx: np.ndarray
    vx: np.ndarray

    def __post_init__(self) -> None:
        kx = np.asarray(self.kx, dtype=np.float64)
        vx = np.asarray(self.vx, dtype=np.float64)
        if kx.ndim != 2 or kx.shape != vx.shape:
            raise ValueError("Kx, Vx must be d x h matrices of equal shape")
        object.__setattr__(self, "kx", kx)
        object.__setattr__(self, "vx", vx)


def masked_softmax(scores: np.ndarray, allow: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax over the last axis, restricted to the allowed
    support.

    ``allow`` has the shape of the scores' trailing (rows, keys) axes, or
    of all of them; leading axes such as heads share it. ``None`` allows
    every key. Disallowed entries are exactly 0 in the output. Rows whose
    support is empty come back all-zero. Each non-empty row is max-shifted
    for stability and sums to 1 up to rounding.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if allow is not None:
        allow = np.asarray(allow, dtype=bool)
    if scores.ndim < 2 or (
        allow is not None and scores.shape[scores.ndim - allow.ndim :] != allow.shape
    ):
        raise ValueError("scores must be 2-d or more, and allow must match their trailing axes")
    # a fresh buffer: the caller's scores are never written
    return _softmax_in_place(scores.copy(), None if allow is None else ~allow)


def _softmax_in_place(s: np.ndarray, forbid: np.ndarray | None) -> np.ndarray:
    """``masked_softmax`` of the scores ``s``, written into ``s``, with the
    support given by its complement ``forbid`` (``None``: every key)."""
    if not np.isfinite(s).all():
        raise ValueError("scores contain non-finite values")
    if forbid is not None:
        np.copyto(s, -np.inf, where=forbid)
    shift = s.max(axis=-1, keepdims=True)
    shift[np.isneginf(shift)] = 0.0  # empty support: every entry is -inf
    s -= shift
    np.exp(s, out=s)
    total = s.sum(axis=-1, keepdims=True)
    total[total == 0.0] = 1.0
    s /= total
    return s


def masked_softmax_vjp(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Gradient of masked_softmax w.r.t. the scores, given the forward
    output. Zero rows and masked entries receive zero gradient."""
    out = probs * dprobs
    np.subtract(dprobs, out.sum(axis=-1, keepdims=True), out=out)
    out *= probs
    return out


def _check_dims(inputs: AttentionInputs, mask: MmcaMask) -> None:
    if inputs.d != mask.d:
        raise ValueError(
            f"inputs have {inputs.d} rows but mask dimension is {mask.d}"
        )


def mmca_forward(
    inputs: AttentionInputs,
    mask: MmcaMask,
    scale: float,
    normalize: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dual-softmax attention. Returns (output, A1, A2) so the two
    per-modality weight matrices can be inspected."""
    _check_dims(inputs, mask)
    m1, m2 = partition(mask)
    s = scale * (inputs.q @ inputs.k.T)
    a1 = masked_softmax(s, m1)
    a2 = masked_softmax(s, m2)
    w = a1 + a2
    if normalize:
        w = 0.5 * w
    return w @ inputs.v, a1, a2


def mmca_vjp(
    inputs: AttentionInputs,
    mask: MmcaMask,
    scale: float,
    dout: np.ndarray,
    normalize: bool = False,
) -> GradDict:
    m1, m2 = partition(mask)
    s = scale * (inputs.q @ inputs.k.T)
    a1 = masked_softmax(s, m1)
    a2 = masked_softmax(s, m2)
    w = a1 + a2
    if normalize:
        w = 0.5 * w
    dv = w.T @ dout
    da = dout @ inputs.v.T
    if normalize:
        da = 0.5 * da
    ds = masked_softmax_vjp(a1, da) + masked_softmax_vjp(a2, da)
    dq = scale * (ds @ inputs.k)
    dk = scale * (ds.T @ inputs.q)
    return {"q": dq, "k": dk, "v": dv}


def causal_forward(inputs: AttentionInputs, mask: MmcaMask, scale: float) -> np.ndarray:
    """Single masked softmax over the mask's full support, times V."""
    _check_dims(inputs, mask)
    s = scale * (inputs.q @ inputs.k.T)
    a = masked_softmax(s, mask.allowed())
    return a @ inputs.v


def causal_vjp(
    inputs: AttentionInputs, mask: MmcaMask, scale: float, dout: np.ndarray
) -> GradDict:
    s = scale * (inputs.q @ inputs.k.T)
    a = masked_softmax(s, mask.allowed())
    dv = a.T @ dout
    ds = masked_softmax_vjp(a, dout @ inputs.v.T)
    return {"q": scale * (ds @ inputs.k), "k": scale * (ds.T @ inputs.q), "v": dv}


def _cross_supports(mask: MmcaMask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split M2 into text-query rows (read through the cross parameters)
    and image-query rows (plain self-attention within the block). Image
    rows are recognized by their diagonal label."""
    m1, m2 = partition(mask)
    image_row = np.diag(mask.entries) == 2
    m2_text = m2 & ~image_row[:, None]
    m2_image = m2 & image_row[:, None]
    return m1, m2_text, m2_image


def cross_forward(
    inputs: AttentionInputs,
    cross: CrossParams | None,
    mask: MmcaMask,
    scale: float,
) -> np.ndarray:
    """Causal-plus-cross baseline: text rows read text keys through K/V and
    image keys through the separate Kx/Vx; image rows self-attend within
    their block through K/V. With Kx = K and Vx = V this reduces exactly to
    the dual-softmax forward."""
    if cross is None:
        raise ValueError("cross_forward requires cross parameters (Kx, Vx)")
    _check_dims(inputs, mask)
    if cross.kx.shape != inputs.k.shape:
        raise ValueError("Kx, Vx must match K, V in shape")
    m1, m2_text, m2_image = _cross_supports(mask)
    s = scale * (inputs.q @ inputs.k.T)
    sx = scale * (inputs.q @ cross.kx.T)
    a1 = masked_softmax(s, m1)
    a2i = masked_softmax(s, m2_image)
    a2x = masked_softmax(sx, m2_text)
    return (a1 + a2i) @ inputs.v + a2x @ cross.vx


def cross_vjp(
    inputs: AttentionInputs,
    cross: CrossParams,
    mask: MmcaMask,
    scale: float,
    dout: np.ndarray,
) -> GradDict:
    m1, m2_text, m2_image = _cross_supports(mask)
    s = scale * (inputs.q @ inputs.k.T)
    sx = scale * (inputs.q @ cross.kx.T)
    a1 = masked_softmax(s, m1)
    a2i = masked_softmax(s, m2_image)
    a2x = masked_softmax(sx, m2_text)
    dv = (a1 + a2i).T @ dout
    dvx = a2x.T @ dout
    da = dout @ inputs.v.T
    ds = masked_softmax_vjp(a1, da) + masked_softmax_vjp(a2i, da)
    dsx = masked_softmax_vjp(a2x, dout @ cross.vx.T)
    dq = scale * (ds @ inputs.k + dsx @ cross.kx)
    dk = scale * (ds.T @ inputs.q)
    dkx = scale * (dsx.T @ inputs.q)
    return {"q": dq, "k": dk, "v": dv, "kx": dkx, "vx": dvx}


# ---------------------------------------------------------------------------
# Segment-structured kernel


def _check_inputs(layout: AttentionLayout, inputs: dict[str, np.ndarray | None]) -> None:
    if layout.reads_cross and (inputs["kx"] is None or inputs["vx"] is None):
        raise ValueError("this layout reads Kx and Vx; pass both")
    shape = inputs["q"].shape
    if len(shape) < 2 or shape[-2] != layout.d:
        raise ValueError(f"inputs must have {layout.d} rows (the layout dimension)")
    for name, a in inputs.items():
        if a is None:
            continue
        if a.shape != shape:
            raise ValueError("Q, K, V (and Kx, Vx) must have equal shapes")
        if not np.isfinite(a).all():
            raise ValueError(f"{name.capitalize()} contains non-finite values")


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def segment_attention(
    layout: AttentionLayout,
    scale: float,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    kx: np.ndarray | None = None,
    vx: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """Attention output for Q/K/V (and Kx/Vx when the layout reads them),
    all of one shape (..., d, h); leading axes are independent heads.
    Matches the dense reference of the layout's variant. Also returns, per
    ``layout.terms`` entry, its softmax P and its own output P @ V, which
    the VJP reads."""
    _check_inputs(layout, {"q": q, "k": k, "v": v, "kx": kx, "vx": vx})
    sources = {False: (k, v), True: (kx, vx)}
    q = scale * q  # scale the thin side, not the rows x keys scores
    out = np.zeros(q.shape)
    saved = []
    for rows, keys, forbid, cross in layout.terms:
        kk, vv = sources[cross]
        p = _softmax_in_place(q[..., rows, :] @ _swap(kk[..., keys, :]), forbid)
        term_out = p @ vv[..., keys, :]
        out[..., rows, :] += term_out
        saved.append((p, term_out))
    return layout.weight * out, tuple(saved)


def segment_attention_vjp(
    layout: AttentionLayout,
    scale: float,
    dout: np.ndarray,
    saved: tuple[tuple[np.ndarray, np.ndarray], ...],
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    kx: np.ndarray | None = None,
    vx: np.ndarray | None = None,
) -> GradDict:
    """Gradients of ``sum(dout * out)`` for every input given, where
    ``out, saved = segment_attention(layout, scale, q, k, v, kx, vx)``.

    Each term's softmax P and output O are read from ``saved``. The score
    gradient is P * (dO V^T - D) with the row term D = rowsum(dO * O),
    which equals rowsum(P * dO V^T) (FlashAttention, Dao et al. 2022)."""
    inputs = {"q": q, "k": k, "v": v, "kx": kx, "vx": vx}
    _check_inputs(layout, inputs)
    if len(saved) != len(layout.terms):
        raise ValueError("saved must hold one softmax per layout term")
    grads = {name: np.zeros_like(a) for name, a in inputs.items() if a is not None}
    dout = layout.weight * dout
    for (p, term_out), (rows, keys, _, cross) in zip(saved, layout.terms):
        kn, vn = ("kx", "vx") if cross else ("k", "v")
        do = dout[..., rows, :]
        grads[vn][..., keys, :] += _swap(p) @ do
        ds = do @ _swap(inputs[vn][..., keys, :])
        ds -= (do[..., None, :] @ term_out[..., :, None])[..., 0]  # D, one value per row
        ds *= p
        grads["q"][..., rows, :] += ds @ inputs[kn][..., keys, :]
        grads[kn][..., keys, :] += _swap(ds) @ q[..., rows, :]
    for name in ("q", "k", "kx"):
        if name in grads:
            grads[name] *= scale
    return grads


# ---------------------------------------------------------------------------
# Multi-head wrapper


@dataclass
class MultiHeadParams:
    """Per-head projection weights. ``wq/wk/wv`` have shape
    (num_heads, model_dim, head_dim); ``wo`` is (model_dim, model_dim).
    ``wkx/wvx`` exist only for the causal-plus-cross variant; that variant
    is the only one that adds parameters."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    wkx: np.ndarray | None = None
    wvx: np.ndarray | None = None

    def param_count(self) -> int:
        count = self.wq.size + self.wk.size + self.wv.size + self.wo.size
        if self.wkx is not None:
            count += self.wkx.size
        if self.wvx is not None:
            count += self.wvx.size
        return count


def init_multi_head_params(
    config: AttentionConfig, rng: np.random.Generator
) -> MultiHeadParams:
    """Random init scaled by 1/sqrt(model_dim); cross projections are
    allocated only when the variant needs them."""
    h, dm, hd = config.num_heads, config.model_dim, config.head_dim
    scale = 1.0 / math.sqrt(dm)

    def w(*shape: int) -> np.ndarray:
        return scale * rng.standard_normal(shape)

    params = MultiHeadParams(wq=w(h, dm, hd), wk=w(h, dm, hd), wv=w(h, dm, hd), wo=w(dm, dm))
    if config.variant is AttentionVariant.CAUSAL_PLUS_CROSS:
        params.wkx = w(h, dm, hd)
        params.wvx = w(h, dm, hd)
    return params


def _resolve_layout(
    config: AttentionConfig, seq: ModalitySequence | AttentionLayout
) -> AttentionLayout:
    if not isinstance(seq, AttentionLayout):
        return build_layout(seq, config.variant, config.image_self, config.normalize_dual_softmax)
    built_for = (seq.variant, seq.image_self, seq.normalize)
    if built_for != (config.variant, config.image_self, config.normalize_dual_softmax):
        raise ValueError("layout was built for a different attention config")
    return seq


def _project_heads(
    config: AttentionConfig, x: np.ndarray, params: MultiHeadParams, layout: AttentionLayout
) -> dict[str, np.ndarray]:
    """Per-head Q/K/V (and Kx/Vx when the layout reads them), each
    (num_heads, d, head_dim)."""
    if x.ndim != 2 or x.shape[1] != config.model_dim:
        raise ValueError(f"x must be d x {config.model_dim}")
    if x.shape[0] != layout.d:
        raise ValueError("x row count must match the sequence length")
    heads = {"q": x @ params.wq, "k": x @ params.wk, "v": x @ params.wv}
    if layout.reads_cross:
        if params.wkx is None or params.wvx is None:
            raise ValueError("cross variant needs wkx/wvx projections")
        heads["kx"] = x @ params.wkx
        heads["vx"] = x @ params.wvx
    return heads


@dataclass(frozen=True)
class SavedAttention:
    """State of one ``multi_head_forward`` pass that ``multi_head_input_vjp``
    reads: per-head projections and each layout term's (softmax, output)."""

    config: AttentionConfig
    layout: AttentionLayout
    heads: dict[str, np.ndarray]
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]


def multi_head_forward(
    config: AttentionConfig,
    x: np.ndarray,
    params: MultiHeadParams,
    seq: ModalitySequence | AttentionLayout,
) -> tuple[np.ndarray, SavedAttention]:
    """Per-head projections, the segment kernel over ``seq``'s layout
    (pass a prebuilt ``AttentionLayout`` to reuse it), concatenation of
    the heads, output projection; plus the state the input VJP reads."""
    layout = _resolve_layout(config, seq)
    x = np.asarray(x, dtype=np.float64)
    heads = _project_heads(config, x, params, layout)
    out, terms = segment_attention(layout, config.effective_scale, **heads)
    return np.concatenate(out, axis=1) @ params.wo, SavedAttention(config, layout, heads, terms)


def multi_head_input_vjp(
    config: AttentionConfig,
    params: MultiHeadParams,
    saved: SavedAttention,
    dout: np.ndarray,
) -> np.ndarray:
    """Gradient of multi_head_forward w.r.t. its input activations, from
    the ``saved`` state of that forward pass. Head parameters receive no
    gradient here; the decoder that uses this wrapper keeps them frozen."""
    if saved.config != config:
        raise ValueError("saved state was built for a different attention config")
    if dout.shape != (saved.layout.d, config.model_dim):
        raise ValueError("dout must have the saved pass's row count and model_dim columns")
    dheads = (dout @ params.wo.T).reshape(-1, config.num_heads, config.head_dim)
    grads = segment_attention_vjp(
        saved.layout, config.effective_scale, dheads.transpose(1, 0, 2), saved.terms, **saved.heads
    )
    weights = {"q": params.wq, "k": params.wk, "v": params.wv, "kx": params.wkx, "vx": params.wvx}
    return sum((g @ _swap(weights[name])).sum(axis=0) for name, g in grads.items())


# ---------------------------------------------------------------------------
# Gradient verification


def grad_check(
    loss: Callable[[GradDict], float],
    analytic: GradDict,
    params: GradDict,
    eps: float = 1e-5,
) -> float:
    """Compare analytic gradients against central finite differences.

    ``analytic`` is the gradient of ``loss`` at ``params``; the probes
    call ``loss`` alone. Returns the max over all parameter entries of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    if not np.isfinite(loss(params)):
        raise FloatingPointError("non-finite loss in grad_check")
    worst = 0.0
    for name, values in params.items():
        numeric = np.zeros_like(values)
        for idx in np.ndindex(values.shape):
            original = values[idx]
            values[idx] = original + eps
            plus = loss(params)
            values[idx] = original - eps
            minus = loss(params)
            values[idx] = original
            numeric[idx] = (plus - minus) / (2.0 * eps)
        if not np.isfinite(numeric).all():
            raise FloatingPointError(f"non-finite numeric gradient for {name}")
        a = analytic[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - numeric) / denom)))
    return worst


def variant_grad_check(
    variant: AttentionVariant,
    seq: ModalitySequence,
    head_dim: int = 4,
    eps: float = 1e-5,
    seed: int = 0,
    scale: float | None = None,
    normalize: bool = False,
    image_self: str = "block",
    corrupt: bool = False,
) -> float:
    """Run grad_check on the segment kernel for one variant, on random
    Q/K/V (plus Kx/Vx when the layout reads them) with the loss
    sum(output). ``corrupt`` deliberately breaks the analytic gradient; it
    exists to prove the harness can fail.
    """
    layout = build_layout(seq, variant, image_self, normalize)
    if scale is None:
        scale = 1.0 / math.sqrt(head_dim)
    rng = np.random.default_rng(seed)
    names = ("q", "k", "v", "kx", "vx") if layout.reads_cross else ("q", "k", "v")
    params: GradDict = {name: rng.standard_normal((seq.d, head_dim)) for name in names}

    def loss(p: GradDict) -> float:
        return float(segment_attention(layout, scale, **p)[0].sum())

    _, saved = segment_attention(layout, scale, **params)
    analytic = segment_attention_vjp(layout, scale, np.ones((seq.d, head_dim)), saved, **params)
    if corrupt:
        analytic["q"] = analytic["q"] + 1.0
    return grad_check(loss, analytic, params, eps)
