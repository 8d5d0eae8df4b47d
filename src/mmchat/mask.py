"""Attention patterns of the three variants over a ``ModalitySequence``.
``build_mask`` gives the dense d x d mask, the inspectable form
(``mmchat mask``) and the tests' oracle; ``build_layout`` gives the same
edges as the softmax terms the kernel runs (``AttentionLayout``), for one
sequence or a packed bin of them. Both take the whole attention rule: the
variant and ``image_self``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, partial
from itertools import groupby
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

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
    """d x d integer mask; row i is query i. An entry is 0 (forbidden), 1
    (allowed, a text key) or 2 (allowed, an image key); a text row takes
    one softmax over each allowed label."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        given = np.asarray(self.entries)
        if given.ndim != 2 or given.shape[0] != given.shape[1]:
            raise ValueError("mask entries must be a square matrix")
        if given.shape[0] < 1:
            raise ValueError("mask dimension must be >= 1")
        # copy every input but a read-only int8 array: the caller's array is
        # never frozen or aliased
        with np.errstate(invalid="ignore"):
            entries = given.astype(np.int8, copy=given.flags.writeable)
        # as bytes, every value outside {0, 1, 2} is above 2; a cast that
        # wrapped or truncated a value no longer equals it
        if entries.view(np.uint8).max() > IMAGE_KEY or (
            given.dtype != np.int8 and not np.array_equal(entries, given)
        ):
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


def build_mask(
    seq: ModalitySequence, variant: AttentionVariant, image_self: str = "block"
) -> MmcaMask:
    """Dense mask of ``seq`` for the given variant (an ``AttentionVariant``
    or its value) and ``image_self`` rule; anything else is a
    ``ValueError``.

    Causal: key j allowed for query i iff j <= i, labeled 1, modality
    ignored. Mmca and cross (which differ only in how attention reads the
    mask): a text query i reads keys j <= i, an image query in block b
    only the keys of block b (with ``image_self="diagonal"`` only itself),
    and every allowed key is labeled by its modality: 1 text, 2 image.
    Image tokens never attend to text, and text never sees a later image.
    """
    causal = AttentionVariant(variant) is AttentionVariant.CAUSAL_ONLY
    _check_image_self(image_self)
    entries = np.tri(seq.d, dtype=np.int8)  # every key up to the query, as a text key
    if not causal:
        bid = seq.block_ids()
        is_img = bid > 0
        group = bid if image_self == "block" else np.arange(seq.d)
        entries[is_img] = group[is_img, None] == group  # image rows: their own group only
        entries *= np.where(is_img, IMAGE_KEY, TEXT_KEY).astype(np.int8)  # label by key modality
    entries.setflags(write=False)  # so MmcaMask keeps it without a copy
    return MmcaMask(entries)


# ---------------------------------------------------------------------------
# Structured layout


class Term(NamedTuple):
    """One softmax term: a stack of ``stack`` >= 1 equal-size blocks, each
    its own softmax, laid over slices of the layout's ``rows`` and ``keys``.
    Each block reads rows ``row_part`` of its rows over keys ``key_part`` of
    its keys (default: all of them); row r of that part reads the first
    ``limit[r]`` keys of it, in every block (``None``: every row reads every
    key), and ``cross`` reads the keys through Kx/Vx instead of K/V."""

    rows: slice
    keys: slice
    limit: np.ndarray | None
    cross: bool
    stack: int = 1
    row_part: slice = slice(None)
    key_part: slice = slice(None)



def _stack_view(whole: tuple, stack: int, part: tuple, a: np.ndarray) -> np.ndarray:
    return a[whole].reshape(*a.shape[:-2], stack, -1, a.shape[-1])[part]


def _view(whole: slice, stack: int, part: slice) -> Callable[[np.ndarray], np.ndarray]:
    """The view of rows ``part`` of each of ``stack`` equal blocks over rows
    ``whole`` of an array (..., n, h), as (..., stack, rows, h): one basic
    index for one block, else slice, reshape and part."""
    if stack == 1:
        start, stop, _ = part.indices(whole.stop - whole.start)
        return itemgetter((..., None, slice(whole.start + start, whole.start + stop), slice(None)))
    return partial(_stack_view, (..., whole, slice(None)), stack, (..., part, slice(None)))


@dataclass(frozen=True)
class AttentionLayout:
    """The attention pattern of one sequence, or of a bin of sequences laid
    end to end (``d`` positions in all), as a sum of softmax terms, each
    allowed edge in exactly one, rather than a d x d mask.

    ``keys`` orders the positions by modality: every image position, then
    every text position (for causal, the identity); ``rows`` lists the
    computed query rows in that order. In that order every term's support
    is a slice of each, and no block of a term reads two sequences.

    Each run of adjacent equal-size image blocks, across sequences too, is
    one stack, every image row reading its own block through K/V (with
    ``image_self="diagonal"`` every image token is a one-token block). Each
    run of adjacent equal sequences (a run of one included) shares its text
    terms as stacks with one block per sequence: text rows over text keys,
    each reading the keys up to itself (causal: every row over every key),
    and a staircase of one unmasked term per run of text rows with the same
    number n of image tokens before them, whose ``row_part`` picks those
    rows and ``key_part`` the first n image keys of each sequence (through
    Kx/Vx for cross). Text rows before a sequence's first image have no
    image term. The kernel sums the terms' outputs. A ``limit`` below 1 is a
    ``ValueError``: no softmax the kernel takes is empty.

    The kernel gathers its inputs along ``rows`` and ``keys`` once per pass,
    or not at all where ``gathers`` says a side is in order, and runs every
    term on ``views``: per term a (row view, key view), built with the
    layout, each viewing an array in that order as (..., stack, size, h) at
    ``positions(term)``; a one-block term's view is one basic index.
    """

    d: int
    variant: AttentionVariant
    terms: tuple[Term, ...]
    rows: np.ndarray
    keys: np.ndarray
    views: tuple[tuple[Callable, Callable], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(term.limit is not None and (term.limit < 1).any() for term in self.terms):
            raise ValueError("a term's limit has a row that allows no key")
        views = ((_view(t.rows, t.stack, t.row_part), _view(t.keys, t.stack, t.key_part)) for t in self.terms)
        object.__setattr__(self, "views", tuple(views))

    @cached_property
    def reads_cross(self) -> bool:
        """Whether a term reads Kx/Vx; computed once per layout."""
        return any(term.cross for term in self.terms)

    @cached_property
    def gathers(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``rows`` and ``keys``, each ``None`` if it is 0..d-1 (nothing to
        gather or scatter); computed once per layout."""
        identity = np.arange(self.d)
        return tuple(None if np.array_equal(a, identity) else a for a in (self.rows, self.keys))

    def positions(self, term: Term) -> tuple[np.ndarray, np.ndarray]:
        """The sequence positions of ``term``'s rows and keys, as (stack,
        size) arrays: one row per block."""
        rows = self.rows[term.rows].reshape(term.stack, -1)
        keys = self.keys[term.keys].reshape(term.stack, -1)
        return rows[:, term.row_part], keys[:, term.key_part]

    def restrict(self, rows: np.ndarray) -> AttentionLayout:
        """The layout over the same ``d`` and ``keys`` whose terms keep only
        the query rows in ``rows`` (non-empty, each in [0, d)), in the old
        row order. Within each term, each run of adjacent blocks that keep
        the same rows becomes one stack over those rows, with its
        ``row_part`` renumbered and its ``limit`` cut to the kept rows it
        reads; a run that reads no kept row is dropped. Every allowed edge
        of a kept row stays in exactly one term; the kernel gives every
        other row zero output. Keeping every row returns this layout."""
        rows = np.asarray(rows)
        if rows.size == 0:
            raise ValueError("restrict needs at least one row")
        if rows.dtype.kind not in "iu":
            raise ValueError(f"rows must be integer positions, got dtype {rows.dtype}")
        if rows.min() < 0 or rows.max() >= self.d:
            raise ValueError(f"rows must lie in [0, {self.d})")
        keep = np.zeros(self.d, dtype=bool)
        keep[rows] = True
        if np.count_nonzero(keep) == self.d:
            return self
        kept = keep[self.rows]
        at = [0, *np.cumsum(kept).tolist()]  # new index of each old row index
        terms = []
        for term in self.terms:
            held = kept[term.rows].reshape(term.stack, -1)  # the kept rows of each block
            size, width = held.shape[1], (term.keys.stop - term.keys.start) // term.stack
            part, stop = range(size)[term.row_part], 0
            for _, run in groupby(held.tolist()):  # adjacent blocks that keep the same rows
                start, stop = stop, stop + len(list(run))
                block, read = held[start], held[start, term.row_part]
                if not read.any():
                    continue
                first, last = int(block[: part.start].sum()), int(block[: part.stop].sum())
                terms.append(term._replace(
                    rows=slice(at[term.rows.start + start * size], at[term.rows.start + stop * size]),
                    keys=slice(term.keys.start + start * width, term.keys.start + stop * width),
                    limit=term.limit if term.limit is None or read.all() else term.limit[read],
                    stack=stop - start,
                    row_part=slice(None) if (first, last) == (0, block.sum()) else slice(first, last),
                ))
        return replace(self, terms=tuple(terms), rows=self.rows[kept])


def build_layout(
    seqs: ModalitySequence | Sequence[ModalitySequence],
    variant: AttentionVariant,
    image_self: str = "block",
) -> AttentionLayout:
    """Layout of one sequence, or of a bin of sequences laid end to end, for
    the given variant (an ``AttentionVariant`` or its value) and
    ``image_self`` rule: the edges of each sequence's ``build_mask``, each
    in exactly one term, and no edge between two sequences (packing without
    cross-contamination, Krell et al., arXiv 2107.02027: the absence of a
    term is the document mask). Build it once per sequence or bin and reuse
    it for every layer, head and pass. A text row's two softmaxes are the
    paper's literal sum, so a row that reads both modalities carries total
    weight 2."""
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
    img_at, text_at = 0, n_img  # where this run's image keys and text rows start
    for seq, run in groupby(zip(seqs, spans), key=itemgetter(0)):
        blocks, count = next(run)[1], 1 + len(list(run))  # a run of equal sequences shares its terms
        n_image = sum(end - start for _, start, end in blocks)
        text_rows = slice(text_at, text_at + count * (seq.d - n_image))
        image_keys = slice(img_at, img_at + count * n_image)
        if seq.d > n_image:  # text positions ascend, so text row r reads the first r + 1 text keys
            columns = positions[: seq.d - n_image]
            terms.append(Term(text_rows, text_rows, columns + 1, False, count))
        n = 0
        stops = [start for _, start, _ in blocks[1:]] + [seq.d]
        for (_, start, end), stop in zip(blocks, stops):
            n += end - start
            if stop > end:  # the text rows up to the next block read the n image keys before them
                parts = slice(end - n, stop - n), slice(0, n)
                terms.append(Term(text_rows, image_keys, None, cross, count, *parts))
        img_at, text_at = image_keys.stop, text_rows.stop
    return AttentionLayout(d, variant, tuple(terms), order, order)


def render_mask(mask: MmcaMask) -> str:
    """Text grid, one row per query: '·' forbidden, '1' text key,
    '2' image key."""
    return "\n".join(
        "".join(_GRID_CHARS[int(v)] for v in row) for row in mask.entries
    )
