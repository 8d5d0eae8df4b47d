"""Modality-aware attention masks.

The integer mask M over {0, 1, 2} encodes, per (query, key) edge, whether
attention is forbidden (0), allowed with a text key (1), or allowed with an
image key (2). A text row's dual softmax takes one softmax over its 1
entries and one over its 2 entries, and the two are summed.

The dense mask is the inspectable reference (``mmchat mask`` prints it).
Attention uses ``build_layout`` instead: the same edges as a tuple of
softmax terms (image blocks, text rows over text keys, and a staircase of
text-row runs over exactly the image keys before them), with no d x d
array. The layout puts the positions in modality order, image positions
first, so every term reads one slice of its rows and one of its keys. The
variant and ``image_self`` are the whole attention rule, and both builders
take both. ``build_layout`` also takes a bin of sequences laid end to end
(sequence packing without cross-contamination, Krell et al., arXiv
2107.02027): no term reads two sequences, so the absence of a term is the
document mask. ``AttentionLayout.restrict`` keeps only chosen query rows,
for a pass whose other rows reach nothing (the toy model's last block,
whose only consumers are the loss's target rows).

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

from dataclasses import dataclass, replace
from enum import Enum
from itertools import groupby
from typing import NamedTuple, Sequence

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
    """Build the mask for the given attention variant (an
    ``AttentionVariant`` or its value; anything else is a ``ValueError``)."""
    if AttentionVariant(variant) is AttentionVariant.CAUSAL_ONLY:
        return build_causal_mask(seq)
    return build_mmca_mask(seq, image_self)


# ---------------------------------------------------------------------------
# Structured layout


class Term(NamedTuple):
    """One softmax term: slices of the layout's ``rows`` and ``keys``, the
    (rows, keys) entries the rows may not read (``forbid``; ``None``: every
    row reads every key), whether the keys are read through Kx/Vx instead
    of K/V, and ``stack``: the number of equal-size blocks, each its own
    softmax over itself, that the term splits into (0: one flat term)."""

    rows: slice
    keys: slice
    forbid: np.ndarray | None
    cross: bool
    stack: int = 0


@dataclass(frozen=True)
class AttentionLayout:
    """The attention pattern of one sequence, or of a bin of sequences laid
    end to end (``d`` positions in all), for one variant, as a sum of
    softmax terms rather than a d x d mask.

    ``keys`` orders the positions by modality: every image position of
    every sequence, then every text position (for causal, the identity);
    ``rows`` lists the computed query rows in that order. Every term reads
    slices of both, and no term reads two sequences.

    Causal is one term per sequence: every row over every key, forbidding
    later keys. For mmca and cross, each run of adjacent equal-size image
    blocks, across sequences too, is one stacked term, every image row
    reading its own block through K/V (with ``image_self="diagonal"`` every
    image token is a one-token block). Per sequence, text rows read text
    keys in one term, forbidding later keys, and image keys in a staircase:
    one unmasked term per run of text rows with the same number n of image
    tokens before them, reading exactly those n image keys, the first n of
    the sequence's own (through Kx/Vx for cross). Text rows before a
    sequence's first image have no image term. The kernel sums the terms'
    outputs.
    """

    d: int
    variant: AttentionVariant
    terms: tuple[Term, ...]
    rows: np.ndarray
    keys: np.ndarray

    @property
    def reads_cross(self) -> bool:
        return any(term.cross for term in self.terms)

    def positions(self, term: Term) -> tuple[np.ndarray, np.ndarray]:
        """The sequence positions of ``term``'s rows and keys: (count, size)
        arrays for a stack of blocks, 1-D otherwise."""
        shape = (term.stack, -1) if term.stack else (-1,)
        return self.rows[term.rows].reshape(shape), self.keys[term.keys].reshape(shape)

    def restrict(self, rows: np.ndarray) -> AttentionLayout:
        """The layout over the same ``d`` and ``keys`` whose terms keep only
        the query rows in ``rows`` (non-empty, each in [0, d)), in the old
        row order, so each term's kept rows stay one slice. A flat term
        keeps its ``forbid`` rows. Of a stack, each run of wholly kept
        adjacent blocks stays stacked, and each partly kept block becomes a
        flat term over its block's keys. Terms left empty are dropped.
        Every allowed edge of a kept row stays in exactly one term; the
        kernel gives every other row zero output."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            raise ValueError("restrict needs at least one row")
        if rows.min() < 0 or rows.max() >= self.d:
            raise ValueError(f"rows must lie in [0, {self.d})")
        keep = np.zeros(self.d, dtype=bool)
        keep[rows] = True
        kept = keep[self.rows]
        at = [0, *np.cumsum(kept).tolist()]  # new index of each old row index
        terms = []
        for term in self.terms:
            start, stop = term.rows.start, term.rows.stop
            if not term.stack:
                if at[stop] > at[start]:
                    forbid = None if term.forbid is None else term.forbid[kept[term.rows]]
                    terms.append(term._replace(rows=slice(at[start], at[stop]), forbid=forbid))
                continue
            size = (stop - start) // term.stack
            ends = at[start : stop + 1 : size]  # new index of each block boundary
            whole = np.diff(ends) == size
            for _, run in groupby(range(term.stack), key=lambda b: -1 if whole[b] else b):
                run = list(run)  # adjacent whole blocks, or one partly kept or empty block
                lo, hi = run[0], run[-1] + 1
                if ends[hi] > ends[lo]:
                    keys = slice(term.keys.start + lo * size, term.keys.start + hi * size)
                    stack = hi - lo if whole[lo] else 0
                    terms.append(term._replace(rows=slice(ends[lo], ends[hi]), keys=keys, stack=stack))
        return replace(self, terms=tuple(terms), rows=self.rows[kept])


def build_layout(
    seqs: ModalitySequence | Sequence[ModalitySequence],
    variant: AttentionVariant,
    image_self: str = "block",
) -> AttentionLayout:
    """Layout of one sequence, or of a bin of sequences laid end to end, for
    the given variant (an ``AttentionVariant`` or its value) and
    ``image_self`` rule: the edges of each sequence's ``build_mask``, each
    in exactly one term, and no edge between two sequences. Build it once
    per sequence or bin and reuse it for every layer, head and pass. An
    mmca text row's two softmaxes are summed, so a text row that reads both
    modalities carries total weight 2."""
    variant = AttentionVariant(variant)
    _check_image_self(image_self)
    seqs = (seqs,) if isinstance(seqs, ModalitySequence) else tuple(seqs)
    if not seqs:
        raise ValueError("build_layout needs at least one sequence")
    causal = variant is AttentionVariant.CAUSAL_ONLY  # modality ignored: every token is text
    d = sum(seq.d for seq in seqs)
    spans = [[] if causal else image_blocks(seq) for seq in seqs]
    is_image = np.zeros(d, dtype=bool) if causal else np.concatenate([seq.is_image() for seq in seqs])
    positions = np.arange(d)
    text = positions[~is_image]
    order = np.concatenate([positions[is_image], text])
    n_img = d - text.size
    sizes = [1] * n_img if image_self == "diagonal" else [
        end - start for blocks in spans for _, start, end in blocks
    ]
    terms, at = [], 0
    for size, run in groupby(sizes):  # adjacent equal-size blocks stack, across sequences too
        count = len(list(run))
        span = slice(at, at + size * count)
        terms.append(Term(span, span, None, False, count))
        at = span.stop
    cross = variant is AttentionVariant.CAUSAL_PLUS_CROSS
    img_at, text_at = 0, n_img  # where this sequence's image keys and text rows start
    for seq, blocks in zip(seqs, spans):
        n_text = seq.d - sum(end - start for _, start, end in blocks)
        if n_text:  # text positions ascend, so a later text key is a later column
            span = slice(text_at, text_at + n_text)
            columns = positions[:n_text]
            terms.append(Term(span, span, columns[None, :] > columns[:, None], False))
        n = 0
        stops = [start for _, start, _ in blocks[1:]] + [seq.d]
        for (_, start, end), stop in zip(blocks, stops):
            n += end - start
            if stop > end:  # the text rows up to the next block read the n image keys before them
                rows = slice(text_at + end - n, text_at + stop - n)
                terms.append(Term(rows, slice(img_at, img_at + n), None, cross))
        img_at += seq.d - n_text
        text_at += n_text
    return AttentionLayout(d, variant, tuple(terms), order, order)


def render_mask(mask: MmcaMask) -> str:
    """Text grid, one row per query: '·' forbidden, '1' text key,
    '2' image key."""
    return "\n".join(
        "".join(_GRID_CHARS[int(v)] for v in row) for row in mask.entries
    )
