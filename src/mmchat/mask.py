"""Modality-aware attention masks.

The integer mask M over {0, 1, 2} encodes, per (query, key) edge, whether
attention is forbidden (0), allowed with a text key (1), or allowed with an
image key (2). The boolean partitions M1 = [M == 1] and M2 = [M == 2] drive
the dual-softmax attention computation.

The dense mask is the inspectable reference. The attention hot path uses
``build_layout`` instead: the same edges as image blocks, gathered prefix
rows and per-key-class supports, with no d x d array.

The entry value encodes the KEY token's modality; the query's modality
determines which rows can carry which values. Two builders cover the
three attention variants:

* causal      - plain lower-triangular mask, modality ignored (all 1s).
* multi-modal - image queries attend only within their own image block;
                text queries attend causally, with text keys labeled 1 and
                image keys labeled 2. The cross variant uses this mask
                too; it differs in how attention consumes the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .modseq import ModalitySequence, image_blocks

FORBIDDEN = 0
TEXT_KEY = 1
IMAGE_KEY = 2

_GRID_CHARS = {0: "·", 1: "1", 2: "2"}


class AttentionVariant(str, Enum):
    CAUSAL_ONLY = "causal"
    CAUSAL_PLUS_CROSS = "cross"
    MMCA = "mmca"


@dataclass(frozen=True)
class MmcaMask:
    """d x d integer mask with values in {0, 1, 2}; row i is query i."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.int8)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("mask entries must be a square matrix")
        if entries.shape[0] < 1:
            raise ValueError("mask dimension must be >= 1")
        if not np.isin(entries, (FORBIDDEN, TEXT_KEY, IMAGE_KEY)).all():
            raise ValueError("mask entries must lie in {0, 1, 2}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def allowed(self) -> np.ndarray:
        """Boolean support M1 | M2."""
        return self.entries != FORBIDDEN


def _check_image_self(image_self: str) -> None:
    if image_self not in ("block", "diagonal"):
        raise ValueError(f"image_self must be 'block' or 'diagonal', got {image_self!r}")


def build_mmca_mask(seq: ModalitySequence, image_self: str = "block") -> MmcaMask:
    """Multi-modal causal mask, which the causal-plus-cross variant uses too.

    Image query in block b: key allowed iff it lies in block b (value 2);
    with ``image_self="diagonal"`` only the query token itself. Text query
    i: keys j <= i allowed, labeled 1 for text keys and 2 for image keys.
    Image tokens never attend to text, and text never sees a later image.
    """
    _check_image_self(image_self)
    d = seq.d
    bid = seq.block_ids()
    is_img = bid > 0
    lower = np.tril(np.ones((d, d), dtype=bool))
    img_q = is_img[:, None]
    img_k = is_img[None, :]

    text_to_text = ~img_q & lower & ~img_k
    text_to_image = ~img_q & lower & img_k
    if image_self == "block":
        image_rows = img_q & (bid[:, None] == bid[None, :])
    else:
        image_rows = img_q & np.eye(d, dtype=bool)

    entries = np.zeros((d, d), dtype=np.int8)
    entries[text_to_text] = TEXT_KEY
    entries[text_to_image | image_rows] = IMAGE_KEY
    return MmcaMask(entries)


def build_causal_mask(seq: ModalitySequence) -> MmcaMask:
    """Standard lower-triangular causal mask; modality ignored, every
    allowed key labeled as text."""
    entries = np.tril(np.ones((seq.d, seq.d), dtype=np.int8))
    return MmcaMask(entries)


def build_mask(
    seq: ModalitySequence, variant: AttentionVariant, image_self: str = "block"
) -> MmcaMask:
    """Build the mask for the given attention variant."""
    if variant is AttentionVariant.CAUSAL_ONLY:
        return build_causal_mask(seq)
    if variant in (AttentionVariant.MMCA, AttentionVariant.CAUSAL_PLUS_CROSS):
        return build_mmca_mask(seq, image_self)
    raise ValueError(f"unknown attention variant {variant!r}")


def partition(mask: MmcaMask) -> tuple[np.ndarray, np.ndarray]:
    """Split the mask into its boolean parts (M1, M2).

    M1 marks allowed edges with text keys, M2 allowed edges with image
    keys; the two never overlap, and together they reconstruct the mask.
    """
    m1 = mask.entries == TEXT_KEY
    m2 = mask.entries == IMAGE_KEY
    return m1, m2


# ---------------------------------------------------------------------------
# Structured layout


@dataclass(frozen=True)
class KeyClass:
    """One softmax term of the prefix rows: the key positions it reads,
    which of them each prefix row may attend to (``allow``, rows x keys),
    and whether it reads them through Kx/Vx instead of K/V."""

    keys: np.ndarray
    allow: np.ndarray
    cross: bool


@dataclass(frozen=True)
class AttentionLayout:
    """The attention pattern of one sequence for one variant, as
    structure rather than a d x d mask.

    ``blocks`` stacks equal-size image blocks into (count, size) position
    arrays; each image row attends over its own block through K/V (with
    ``image_self="diagonal"`` every image token is a one-token block).
    ``rows`` are the prefix rows: text rows for mmca/cross, every row for
    causal. ``key_classes`` split their allowed keys into one softmax term
    per key class. ``weight`` scales the summed terms (0.5 for the
    normalized dual softmax, else 1).
    """

    d: int
    variant: AttentionVariant
    image_self: str
    normalize: bool
    weight: float
    blocks: tuple[np.ndarray, ...]
    rows: np.ndarray
    key_classes: tuple[KeyClass, ...]

    @property
    def reads_cross(self) -> bool:
        return any(kc.cross for kc in self.key_classes)

    def terms(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None, bool]]:
        """(query rows, keys, allow, cross) per softmax term."""
        for block in self.blocks:
            yield block, block, None, False
        for kc in self.key_classes:
            yield self.rows, kc.keys, kc.allow, kc.cross


def build_layout(
    seq: ModalitySequence,
    variant: AttentionVariant,
    image_self: str = "block",
    normalize: bool = False,
) -> AttentionLayout:
    """Layout of ``seq`` for the given variant, ``image_self`` rule and
    dual-softmax normalization: the same edges as ``build_mask``, as
    structure. Build it once per sequence and reuse it for every layer,
    head and pass."""
    _check_image_self(image_self)
    positions = np.arange(seq.d)
    is_image = seq.is_image()
    blocks: tuple[np.ndarray, ...] = ()
    if variant is AttentionVariant.CAUSAL_ONLY:
        rows = positions
        classes = [(positions, False)]
    else:
        rows = positions[~is_image]
        if image_self == "block":
            spans = [np.arange(start, end) for _, start, end in image_blocks(seq)]
        else:
            spans = [positions[i : i + 1] for i in positions[is_image]]
        by_size: dict[int, list[np.ndarray]] = {}
        for span in spans:
            by_size.setdefault(span.size, []).append(span)
        blocks = tuple(np.stack(group) for group in by_size.values())
        classes = [
            (rows, False),
            (positions[is_image], variant is AttentionVariant.CAUSAL_PLUS_CROSS),
        ]
    key_classes = []
    if rows.size:
        for keys, cross in classes:
            keys = keys[keys <= rows[-1]]  # no prefix row reads a later key
            if keys.size:
                key_classes.append(KeyClass(keys, keys[None, :] <= rows[:, None], cross))
    return AttentionLayout(
        d=seq.d,
        variant=variant,
        image_self=image_self,
        normalize=normalize,
        weight=0.5 if normalize and variant is AttentionVariant.MMCA else 1.0,
        blocks=blocks,
        rows=rows,
        key_classes=tuple(key_classes),
    )


def render_mask(mask: MmcaMask) -> str:
    """Text grid, one row per query: '·' forbidden, '1' text key,
    '2' image key."""
    return "\n".join(
        "".join(_GRID_CHARS[int(v)] for v in row) for row in mask.entries
    )
