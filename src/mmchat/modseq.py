"""Interleaved image/text token sequences: ``ModalitySequence``, the one
layout input of mask building, attention and template rendering, its image
blocks, and the token-layout constants (``LayoutConfig``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np


class TokenKind(Enum):
    TEXT = "text"
    IMAGE = "image"


_NOT_IDS = "block ids must be a 1-d sequence of integers, got "


@dataclass(frozen=True)
class ModalitySequence:
    """Ordered token stream as one block id per token: 0 for text, k >= 1
    for a token of image block k.

    Invariants enforced at construction: at least one token, no negative
    id, each image block contiguous, and block ids strictly increasing in
    order of first occurrence. ``ids`` may be given as any 1-d sequence of
    ints or an integer array; it is stored as a tuple of ints.
    """

    ids: tuple[int, ...]

    def __post_init__(self) -> None:
        values = self.ids.tolist() if isinstance(self.ids, np.ndarray) else self.ids
        try:
            ids = tuple(values)
        except TypeError:
            raise ValueError(_NOT_IDS + type(values).__name__) from None
        other = set(map(type, ids)) - {int}  # bool, float, nested sequences, ...
        if other:
            raise ValueError(_NOT_IDS + ", ".join(sorted(t.__name__ for t in other)))
        object.__setattr__(self, "ids", ids)
        if not ids:
            raise ValueError("empty sequence")
        seen: list[int] = []  # block ids in order of first occurrence
        for bid, _ in itertools.groupby(ids):
            if bid == 0:
                continue
            if bid < 0:
                raise ValueError(f"block ids must be >= 0, got {bid}")
            if seen and bid <= seen[-1]:
                if bid in seen:
                    raise ValueError(f"image block {bid} is not contiguous")
                raise ValueError(
                    f"block ids must be strictly increasing, got {bid} after {seen[-1]}"
                )
            seen.append(bid)

    @property
    def d(self) -> int:
        return len(self.ids)

    def is_image(self) -> np.ndarray:
        """Boolean vector: True at image positions."""
        return np.array(self.ids, dtype=bool)

    def block_ids(self) -> np.ndarray:
        """Integer vector of block ids, 0 at text positions."""
        return np.array(self.ids, dtype=np.int64)


def _check_int(name: str, value: object, minimum: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an int (not a bool) of at
    least ``minimum``: the one check of every count and seed a config takes."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class LayoutConfig:
    """Token-layout constants: how many tokens one image expands to, and
    the hard cap on rendered sequence length."""

    image_token_count: int = 256
    max_sequence_length: int = 4096

    def __post_init__(self) -> None:
        _check_int("image_token_count", self.image_token_count)
        _check_int("max_sequence_length", self.max_sequence_length)
        if self.max_sequence_length < self.image_token_count:
            raise ValueError("max_sequence_length must cover one image block")


def build_sequence(segments: Iterable[tuple[TokenKind, int]]) -> ModalitySequence:
    """Build a sequence from an ordered list of (kind, token_count) segments.

    Image segments receive block ids 1, 2, ... in order of appearance; a
    kind may be given as its value (``"image"``).
    """
    segs = list(segments)
    if not segs:
        raise ValueError("empty sequence")
    ids: list[int] = []
    next_block = 1
    for kind, count in segs:
        if count < 1:
            raise ValueError(f"segment token_count must be >= 1, got {count}")
        if TokenKind(kind) is TokenKind.IMAGE:
            ids.extend([next_block] * count)
            next_block += 1
        else:
            ids.extend([0] * count)
    return ModalitySequence(tuple(ids))


def image_blocks(seq: ModalitySequence) -> list[tuple[int, int, int]]:
    """Half-open (block_id, start, end) spans, one per image block, in
    block-id order."""
    spans: list[tuple[int, int, int]] = []
    start = last = 0
    for pos, bid in enumerate(seq.ids):
        if bid != last:
            if last:
                spans.append((last, start, pos))
            start, last = pos, bid
    if last:
        spans.append((last, start, len(seq.ids)))
    return spans
