"""Attention for the three variants, in double precision: the segment
kernel (``segment_attention``) and its hand-derived VJP
(``segment_attention_vjp``), the multi-head wrapper around them, and a
central-difference gradient check (``grad_check``).

Where each rule lives: the attention rule, views and gathers in
``mask.AttentionLayout``; masking, the -inf support and empty rows in
``_exp_in_place``; public kernel inputs in ``segment_attention(_vjp)``,
multi-head arguments in ``_project_heads`` and ``multi_head_input_vjp``,
weight shapes (so equal Q/K/V shapes) in ``MultiHeadParams``; finite
outputs and gradients, deferred normalization and the FlashAttention row
term in the cores ``_attend`` and ``_attend_vjp``, which the wrapper calls
directly; the heap policy this module sets on import in ``_keep_heap_pages``.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, fields
from typing import Callable, Iterator

import numpy as np

from .mask import AttentionLayout, AttentionVariant

GradDict = dict[str, np.ndarray]


# glibc's mallopt parameters (malloc.h) and the values its dynamic rule
# stops at on 64-bit: an mmap threshold capped at 32 MiB, paired with a
# trim threshold of twice that.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))


def _keep_heap_pages() -> None:
    """Fix glibc's malloc thresholds at the ends of its own dynamic rule, so
    the heap keeps the pages that one training step or scoring pass frees
    for the next instead of trimming them and faulting them in again; RSS
    stays at the heap's high-water mark. Both are set: setting either one
    stops glibc from adjusting the other. A silent no-op off glibc, or where
    ``mallopt`` refuses a value."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_POLICY:
        if not mallopt(param, value):
            return


_keep_heap_pages()


def _exp_in_place(s: np.ndarray, limit: np.ndarray | None) -> np.ndarray:
    """Max-shifted exponentials of the scores ``s`` over the last axis,
    written into ``s``, row r restricted to its first ``limit[r]`` keys
    (``None``: every key; leading axes such as heads share it). Returns the
    row totals (last axis 1), so ``s / total`` is the masked softmax.

    Forbidden scores become -inf before the shift rather than being
    multiplied by a 0/1 mask, which would leave them weight exp(0) = 1, so
    they carry exactly zero weight and zero gradient. No row is empty
    (``AttentionLayout`` rejects a ``limit`` below 1), so finite scores give
    each row a largest entry of 1; ``segment_attention`` rejects NaN rows."""
    if limit is not None:
        np.copyto(s, -np.inf, where=np.arange(s.shape[-1]) >= limit[:, None])
    s -= np.maximum.reduce(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    return np.add.reduce(s, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Segment-structured kernel


def _check_inputs(layout: AttentionLayout, inputs: dict[str, np.ndarray]) -> None:
    if layout.reads_cross and not {"kx", "vx"} <= inputs.keys():
        raise ValueError("this layout reads Kx and Vx; pass both")
    shape = inputs["q"].shape
    if len(shape) < 2 or shape[-2] != layout.d:
        raise ValueError(f"inputs must have {layout.d} rows (the layout dimension)")
    for name, a in inputs.items():
        if a.shape != shape:
            raise ValueError("Q, K, V (and Kx, Vx) must have equal shapes")
        if not np.isfinite(a).all():
            raise ValueError(f"{name.capitalize()} contains non-finite values")


def _gather(a: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """``a``'s rows along ``order`` (``None``: ``a`` itself)."""
    return a if order is None else a[..., order, :]


def _scatter(a: np.ndarray, order: np.ndarray | None, d: int) -> np.ndarray:
    """``a``'s rows put back at positions ``order`` of ``d``, zero elsewhere
    (``None``: ``a`` itself)."""
    if order is None:
        return a
    full = np.zeros((*a.shape[:-2], d, a.shape[-1]))
    full[..., order, :] = a
    return full


@dataclass(frozen=True)
class SavedAttention:
    """State of one pass, all that both VJPs and ``attention_weights`` read:
    the layout, the score scale, the inputs in the layout's order
    (``layout.gathers``), per term its exponentials E, their row totals and
    its output O = (E @ V) / total, and a ``multi_head_forward`` pass's
    weights (``None`` for a ``segment_attention`` pass)."""

    layout: AttentionLayout
    scale: float
    inputs: dict[str, np.ndarray]
    terms: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    params: MultiHeadParams | None = None


def segment_attention(
    layout: AttentionLayout,
    scale: float,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    kx: np.ndarray | None = None,
    vx: np.ndarray | None = None,
) -> tuple[np.ndarray, SavedAttention]:
    """Attention output for Q/K/V (and Kx/Vx when the layout reads them),
    all of one shape (..., d, h) in sequence order; leading axes are
    independent heads. Matches the dense reference of the layout's variant.
    Also returns the pass's ``SavedAttention``. No d x d array is formed:
    every term runs on the layout's views of its inputs (array-likes).
    Non-finite inputs or output (from a NaN scale or an overflow) are a
    ``ValueError``."""
    given = {"q": q, "k": k, "v": v, "kx": kx, "vx": vx}
    given = {name: np.asanyarray(a) for name, a in given.items() if a is not None}
    _check_inputs(layout, given)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the output check, not warnings
        return _attend(layout, scale, given)


def _attend(layout: AttentionLayout, scale: float, inputs: dict[str, np.ndarray],
            params: MultiHeadParams | None = None) -> tuple[np.ndarray, SavedAttention]:
    """``segment_attention`` after its input checks: checks only the output."""
    if layout.gathers[0] is not None or layout.gathers[1] is not None:
        inputs = {name: _gather(a, layout.gathers[name != "q"]) for name, a in inputs.items()}
    sources = {False: (inputs["k"], inputs["v"]), True: (inputs.get("kx"), inputs.get("vx"))}
    q = scale * inputs["q"]  # scale the thin side, not the rows x keys scores
    out = np.zeros(q.shape)
    terms = []
    for term, (row_view, key_view) in zip(layout.terms, layout.views):
        k, v = sources[term.cross]
        e = row_view(q) @ key_view(k).swapaxes(-1, -2)
        total = _exp_in_place(e, term.limit)
        term_out = e @ key_view(v)
        term_out /= total  # normalize the thin rows x head_dim output, not E
        term_rows = row_view(out)
        term_rows += term_out
        terms.append((e, total, term_out))
    if not np.isfinite(out).all():
        raise ValueError("output contains non-finite values")
    full = _scatter(out, layout.gathers[0], layout.d)
    return full, SavedAttention(layout, scale, inputs, tuple(terms), params)


# Entries (1 MiB of float64) of one row chunk of the VJP's score gradient dS,
# so a large term never adds a whole rows x keys array to training's peak
# memory; a term that fits is one chunk.
_SCRATCH_SIZE = 1 << 17


def segment_attention_vjp(saved: SavedAttention, dout: np.ndarray) -> GradDict:
    """Gradients of ``sum(dout * out)`` for every input of the pass that
    returned ``out, saved``. ``dout`` (any array-like) must have ``out``'s
    shape and be finite; a non-finite gradient is a ``ValueError``."""
    dout = np.asanyarray(dout)
    shape = saved.inputs["k"].shape
    if dout.shape != shape:
        raise ValueError(f"dout must have the output's shape {shape}, got {dout.shape}")
    if not np.isfinite(dout).all():
        raise ValueError("dout contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the gradient check, not warnings
        return _attend_vjp(saved, dout)


def _attend_vjp(saved: SavedAttention, dout: np.ndarray) -> GradDict:
    """``segment_attention_vjp`` after its dout checks: checks only the gradients.

    Normalization is deferred, as in FlashAttention (Dao et al., arXiv
    2205.14135): the softmax is P = E / total, but the forward pass divides
    only the thin output E @ V and this pass only the thin dO rows. With
    G = dO / total, P^T dO = E^T G, and the score gradient P * (dO V^T - D)
    with the row term D = rowsum(dO * O) is E * (G V^T - rowsum(G * O)), so
    no scores, softmax or rows x keys rowsum are formed here."""
    inputs, layout = saved.inputs, saved.layout
    dout = _gather(dout, layout.gathers[0])
    grads = {name: np.zeros(a.shape) for name, a in inputs.items()}
    for (e, total, term_out), term, (row_view, key_view) in zip(saved.terms, layout.terms, layout.views):
        kn, vn = ("kx", "vx") if term.cross else ("k", "v")
        k, v = key_view(inputs[kn]), key_view(inputs[vn])
        gk, gv = key_view(grads[kn]), key_view(grads[vn])
        g = row_view(dout) / total
        gv += e.swapaxes(-1, -2) @ g
        row_term = (g[..., None, :] @ term_out[..., :, None])[..., 0]  # rowsum(G * O), one per row
        q, gq = row_view(inputs["q"]), row_view(grads["q"])
        size = e.shape[-2]
        step = max(_SCRATCH_SIZE * size // e.size, 1)  # rows whose dS fits one chunk
        for start in range(0, size, step):
            rows = np.s_[..., start : start + step, :]
            ds = g[rows] @ v.swapaxes(-1, -2)
            ds -= row_term[rows]
            ds *= e[rows]
            gq[rows] += ds @ k
            gk += ds.swapaxes(-1, -2) @ q[rows]
            del ds  # free this chunk before the next is allocated, which then reuses it
    for name, g in grads.items():
        if name in ("q", "k", "kx"):
            g *= saved.scale
        if not np.isfinite(g).all():
            raise ValueError(f"the gradient of {name.capitalize()} contains non-finite values")
    return {name: _scatter(g, layout.gathers[name != "q"], layout.d) for name, g in grads.items()}


def attention_weights(saved: SavedAttention) -> tuple[np.ndarray, np.ndarray]:
    """(text_weights, image_weights): each term's softmax, normalized from
    the E and row totals in ``saved``, placed into a d x d view of the
    weight every row puts on every key, with the terms' leading head axes
    kept. A term reads image keys iff it has no ``limit`` (causal's one term
    always has one, so causal puts all its weight in the text view). Rows
    without a term (a restricted layout's) are zero."""
    layout = saved.layout
    lead = saved.inputs["q"].shape[:-2]
    text, image = np.zeros((2, *lead, layout.d, layout.d))
    for (e, total, _), term in zip(saved.terms, layout.terms):
        rows, keys = layout.positions(term)
        view = text if term.limit is not None else image
        view[..., rows[..., :, None], keys[..., None, :]] = e * (1.0 / total)
    return text, image


# ---------------------------------------------------------------------------
# Multi-head wrapper


@dataclass(frozen=True)
class MultiHeadParams:
    """Per-head projection weights: ``wq/wk/wv`` (num_heads, model_dim,
    head_dim), ``wo`` (num_heads * head_dim, model_dim), and ``wkx/wvx``
    (as ``wq``) for the cross variant only, the one variant that adds
    parameters; any other shape is a ``ValueError`` naming the tensor."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    wkx: np.ndarray | None = None
    wvx: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.wq.ndim != 3:
            raise ValueError(f"wq must be (num_heads, model_dim, head_dim), got shape {self.wq.shape}")
        heads, model_dim, head_dim = self.wq.shape
        for name, array in self.weights():
            shape = (heads * head_dim, model_dim) if name == "wo" else self.wq.shape
            if array.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {array.shape}")

    def weights(self) -> Iterator[tuple[str, np.ndarray]]:
        """(name, array) for every present weight, in field order."""
        return ((f.name, a) for f in fields(self) if (a := getattr(self, f.name)) is not None)

    def param_count(self) -> int:
        return sum(array.size for _, array in self.weights())


def init_multi_head_params(
    variant: AttentionVariant, num_heads: int, model_dim: int, rng: np.random.Generator
) -> MultiHeadParams:
    """Random init scaled by 1/sqrt(model_dim); cross projections are
    allocated only when the variant needs them."""
    if num_heads < 1 or model_dim < 1:
        raise ValueError("num_heads and model_dim must be positive")
    if model_dim % num_heads != 0:
        raise ValueError("model_dim must be divisible by num_heads")
    h, dm, hd = num_heads, model_dim, model_dim // num_heads
    scale = 1.0 / math.sqrt(dm)

    def w(*shape: int) -> np.ndarray:
        return scale * rng.standard_normal(shape)

    cross = AttentionVariant(variant) is AttentionVariant.CAUSAL_PLUS_CROSS
    return MultiHeadParams(wq=w(h, dm, hd), wk=w(h, dm, hd), wv=w(h, dm, hd), wo=w(dm, dm),
                           wkx=w(h, dm, hd) if cross else None, wvx=w(h, dm, hd) if cross else None)


def _project_heads(
    x: np.ndarray, params: MultiHeadParams, layout: AttentionLayout
) -> dict[str, np.ndarray]:
    """Per-head Q/K/V (and Kx/Vx when the layout reads them), each
    (num_heads, d, head_dim)."""
    model_dim = params.wq.shape[1]
    if x.ndim != 2 or x.shape[1] != model_dim:
        raise ValueError(f"x must be d x {model_dim}")
    if x.shape[0] != layout.d:
        raise ValueError("x row count must match the sequence length")
    cross = layout.variant is AttentionVariant.CAUSAL_PLUS_CROSS
    if (params.wkx is None) == cross or (params.wvx is None) == cross:
        raise ValueError("params must carry wkx/wvx exactly when the layout is the cross variant")
    heads = {"q": x @ params.wq, "k": x @ params.wk, "v": x @ params.wv}
    if layout.reads_cross:
        heads["kx"] = x @ params.wkx
        heads["vx"] = x @ params.wvx
    return heads


def multi_head_forward(
    x: np.ndarray, params: MultiHeadParams, layout: AttentionLayout
) -> tuple[np.ndarray, SavedAttention]:
    """Per-head projections, the segment kernel over ``layout``, the heads
    concatenated and the output projection; plus the kernel's saved pass,
    with ``params``, for the input VJP. The layout carries the attention
    rule, and ``params.wq``'s shape (num_heads, model_dim, head_dim) the
    head shape and so the 1/sqrt(head_dim) score scale; params carry
    ``wkx``/``wvx`` exactly when the layout is the cross variant."""
    x = np.asarray(x, dtype=np.float64)
    heads = _project_heads(x, params, layout)
    out, saved = _attend(layout, 1.0 / math.sqrt(params.wq.shape[2]), heads, params)
    return out.transpose(1, 0, 2).reshape(layout.d, -1) @ params.wo, saved


def multi_head_input_vjp(saved: SavedAttention, dout: np.ndarray) -> np.ndarray:
    """Gradient of ``sum(dout * out)`` w.r.t. the input of the
    ``multi_head_forward`` pass that returned ``out, saved``, read from
    ``saved`` with its weights (frozen: they get none). ``dout`` is as in
    ``segment_attention_vjp``; a pass without weights is a ``ValueError``."""
    params = saved.params
    if params is None:
        raise ValueError("saved holds no weights: pass the state of a multi_head_forward pass")
    dout = np.asanyarray(dout)
    num_heads, model_dim, head_dim = params.wq.shape
    if dout.shape != (saved.layout.d, model_dim):
        raise ValueError("dout must have the saved pass's row count and model_dim columns")
    if not np.isfinite(dout).all():
        raise ValueError("dout contains non-finite values")
    dheads = (dout @ params.wo.T).reshape(-1, num_heads, head_dim)
    grads = _attend_vjp(saved, dheads.transpose(1, 0, 2))
    dx = (grads.pop("q") @ params.wq.swapaxes(1, 2)).sum(axis=0)
    for name, g in grads.items():  # k, v, then kx, vx for the cross variant
        dx += (g @ getattr(params, "w" + name).swapaxes(1, 2)).sum(axis=0)
    return dx


# ---------------------------------------------------------------------------
# Gradient verification


def grad_check(
    loss: Callable[[GradDict], float],
    analytic: GradDict,
    params: GradDict,
    eps: float = 1e-5,
) -> float:
    """Compare ``analytic``, the gradient of ``loss`` at ``params``,
    against central finite differences: the max over all parameter entries
    of |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)."""
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
    layout: AttentionLayout, head_dim: int = 4, eps: float = 1e-5, seed: int = 0
) -> float:
    """Run grad_check on the segment kernel over ``layout``, on random
    Q/K/V (plus Kx/Vx when the layout reads them) with the loss
    sum(output) and the scale 1/sqrt(head_dim)."""
    if head_dim < 1:
        raise ValueError("head_dim must be >= 1")
    scale = 1.0 / math.sqrt(head_dim)
    rng = np.random.default_rng(seed)
    names = ("q", "k", "v", "kx", "vx") if layout.reads_cross else ("q", "k", "v")
    params: GradDict = {name: rng.standard_normal((layout.d, head_dim)) for name in names}

    def loss(p: GradDict) -> float:
        return float(segment_attention(layout, scale, **p)[0].sum())

    _, saved = segment_attention(layout, scale, **params)
    analytic = segment_attention_vjp(saved, np.ones((layout.d, head_dim)))
    return grad_check(loss, analytic, params, eps)
