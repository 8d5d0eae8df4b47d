"""Interleaved image/text token sequences and their segment structure.

A ModalitySequence is the shared input of mask building, attention, and
template rendering: an ordered list of per-token modality tags where each
image token also carries the 1-based id of the image block it belongs to.
Image blocks are contiguous by construction; a layout that splits one
image's tokens across several runs is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np


class TokenKind(Enum):
    TEXT = "text"
    IMAGE = "image"


@dataclass(frozen=True)
class ModalityTag:
    """Modality label of one token. ``block_id`` is present exactly when
    the token is part of an image block."""

    kind: TokenKind
    block_id: int | None = None

    def __post_init__(self) -> None:
        if self.kind is TokenKind.IMAGE:
            if self.block_id is None or self.block_id < 1:
                raise ValueError("image tokens need a positive block_id")
        elif self.block_id is not None:
            raise ValueError("text tokens must not carry a block_id")


@dataclass(frozen=True)
class ModalitySequence:
    """Ordered token stream tagged text/image.

    Invariants enforced at construction: at least one token, each image
    block contiguous, and block ids strictly increasing in order of first
    occurrence.
    """

    tags: tuple[ModalityTag, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(self.tags))
        if not self.tags:
            raise ValueError("empty sequence")
        seen_closed: set[int] = set()
        last_block: int | None = None
        prev_first = 0
        for tag in self.tags:
            bid = tag.block_id
            if bid is None:
                if last_block is not None:
                    seen_closed.add(last_block)
                    last_block = None
                continue
            if bid == last_block:
                continue
            if last_block is not None:
                seen_closed.add(last_block)
            if bid in seen_closed:
                raise ValueError(f"image block {bid} is not contiguous")
            if bid <= prev_first:
                raise ValueError(
                    f"block ids must be strictly increasing, got {bid} after {prev_first}"
                )
            prev_first = bid
            last_block = bid

    @property
    def d(self) -> int:
        return len(self.tags)

    def is_image(self) -> np.ndarray:
        """Boolean vector: True at image-tagged positions."""
        return np.array([t.kind is TokenKind.IMAGE for t in self.tags], dtype=bool)

    def block_ids(self) -> np.ndarray:
        """Integer vector of block ids, 0 at text positions."""
        return np.array([t.block_id or 0 for t in self.tags], dtype=np.int64)


@dataclass(frozen=True)
class LayoutConfig:
    """Token-layout constants: how many tokens one image expands to, and
    the hard cap on rendered sequence length."""

    image_token_count: int = 256
    max_sequence_length: int = 4096

    def __post_init__(self) -> None:
        if self.image_token_count < 1:
            raise ValueError("image_token_count must be >= 1")
        if self.max_sequence_length < self.image_token_count:
            raise ValueError("max_sequence_length must cover one image block")


def build_sequence(segments: Iterable[tuple[TokenKind, int]]) -> ModalitySequence:
    """Build a sequence from an ordered list of (kind, token_count) segments.

    Image segments receive block ids 1, 2, ... in order of appearance.
    """
    segs = list(segments)
    if not segs:
        raise ValueError("empty sequence")
    tags: list[ModalityTag] = []
    next_block = 1
    for kind, count in segs:
        if count < 1:
            raise ValueError(f"segment token_count must be >= 1, got {count}")
        if kind is TokenKind.IMAGE:
            tags.extend(ModalityTag(kind, next_block) for _ in range(count))
            next_block += 1
        else:
            tags.extend(ModalityTag(kind) for _ in range(count))
    return ModalitySequence(tuple(tags))


def image_blocks(seq: ModalitySequence) -> list[tuple[int, int, int]]:
    """Half-open (block_id, start, end) spans, one per image block, in
    block-id order."""
    spans: list[tuple[int, int, int]] = []
    for pos, tag in enumerate(seq.tags):
        if tag.block_id is None:
            continue
        if spans and spans[-1][0] == tag.block_id:
            bid, start, _ = spans[-1]
            spans[-1] = (bid, start, pos + 1)
        else:
            spans.append((tag.block_id, pos, pos + 1))
    return spans
