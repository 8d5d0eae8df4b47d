"""Dense single-head attention over the d x d mask: the reference that the
segment kernel in ``mmchat.attn`` is held to.

Each variant is written directly from its rule on the whole mask:

    mmca:   out = (softmax_M1(S) + softmax_M2(S)) @ V,   S = scale * Q @ K^T
    causal: out = softmax_M(S) @ V
    cross:  text rows read image keys through Kx/Vx, image rows their block

with hand-derived VJPs. ``masked_softmax`` has its own body (the same
operations as the kernel's softmax), so the kernel is never compared with
its own softmax. Nothing here imports ``mmchat.attn``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mmchat.mask import IMAGE_KEY, TEXT_KEY, MmcaMask

GradDict = dict[str, np.ndarray]


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


def partition(mask: MmcaMask) -> tuple[np.ndarray, np.ndarray]:
    """Split the mask into its boolean parts (M1, M2).

    M1 marks allowed edges with text keys, M2 allowed edges with image
    keys; the two never overlap, and together they reconstruct the mask.
    """
    m1 = mask.entries == TEXT_KEY
    m2 = mask.entries == IMAGE_KEY
    return m1, m2


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
    s = scores.copy()  # a fresh buffer: the caller's scores are never written
    if not np.isfinite(s).all():
        raise ValueError("scores contain non-finite values")
    if allow is not None:
        np.copyto(s, -np.inf, where=~allow)
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dual-softmax attention. Returns (output, A1, A2) so the two
    per-modality weight matrices can be inspected."""
    _check_dims(inputs, mask)
    m1, m2 = partition(mask)
    s = scale * (inputs.q @ inputs.k.T)
    a1 = masked_softmax(s, m1)
    a2 = masked_softmax(s, m2)
    return (a1 + a2) @ inputs.v, a1, a2


def mmca_vjp(
    inputs: AttentionInputs,
    mask: MmcaMask,
    scale: float,
    dout: np.ndarray,
) -> GradDict:
    m1, m2 = partition(mask)
    s = scale * (inputs.q @ inputs.k.T)
    a1 = masked_softmax(s, m1)
    a2 = masked_softmax(s, m2)
    dv = (a1 + a2).T @ dout
    da = dout @ inputs.v.T
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
