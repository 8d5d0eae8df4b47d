import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mmchat.modseq import (
    LayoutConfig,
    ModalitySequence,
    ModalityTag,
    TokenKind,
    build_sequence,
    image_blocks,
)

I, T = TokenKind.IMAGE, TokenKind.TEXT


def test_build_sequence_image_then_text():
    seq = build_sequence([(I, 3), (T, 7)])
    assert seq.d == 10
    assert [t.kind for t in seq.tags[:3]] == [I, I, I]
    assert all(t.block_id == 1 for t in seq.tags[:3])
    assert [t.kind for t in seq.tags[3:]] == [T] * 7
    assert all(t.block_id is None for t in seq.tags[3:])


def test_build_sequence_text_only():
    seq = build_sequence([(T, 5)])
    assert seq.d == 5
    assert not seq.is_image().any()
    assert image_blocks(seq) == []


def test_build_sequence_two_blocks_positions():
    seq = build_sequence([(T, 2), (I, 4), (T, 3), (I, 4), (T, 1)])
    assert seq.d == 14
    assert image_blocks(seq) == [(1, 2, 6), (2, 9, 13)]


def test_build_sequence_empty_error():
    with pytest.raises(ValueError, match="empty sequence"):
        build_sequence([])


def test_build_sequence_zero_count_error():
    with pytest.raises(ValueError, match=">= 1"):
        build_sequence([(T, 0)])


def test_image_blocks_single_front():
    assert image_blocks(build_sequence([(I, 3), (T, 7)])) == [(1, 0, 3)]


def test_tag_validation():
    with pytest.raises(ValueError):
        ModalityTag(TokenKind.IMAGE)
    with pytest.raises(ValueError):
        ModalityTag(TokenKind.IMAGE, 0)
    with pytest.raises(ValueError):
        ModalityTag(TokenKind.TEXT, 1)


def test_sequence_rejects_split_block():
    tags = (
        ModalityTag(I, 1),
        ModalityTag(T),
        ModalityTag(I, 1),
    )
    with pytest.raises(ValueError, match="not contiguous"):
        ModalitySequence(tags)


def test_sequence_rejects_block_order():
    tags = (ModalityTag(I, 2), ModalityTag(I, 1))
    with pytest.raises(ValueError, match="strictly increasing"):
        ModalitySequence(tags)


def test_sequence_rejects_empty():
    with pytest.raises(ValueError, match="empty sequence"):
        ModalitySequence(())


def test_adjacent_blocks_are_distinct():
    seq = build_sequence([(I, 2), (I, 3)])
    assert image_blocks(seq) == [(1, 0, 2), (2, 2, 5)]


def test_layout_config_defaults_and_validation():
    layout = LayoutConfig()
    assert layout.image_token_count == 256
    assert layout.max_sequence_length == 4096
    with pytest.raises(ValueError):
        LayoutConfig(image_token_count=0)
    with pytest.raises(ValueError):
        LayoutConfig(image_token_count=10, max_sequence_length=9)


def test_is_image_and_block_ids_vectors():
    seq = build_sequence([(T, 1), (I, 2), (T, 1)])
    assert seq.is_image().tolist() == [False, True, True, False]
    assert seq.block_ids().tolist() == [0, 1, 1, 0]


segment_lists = st.lists(
    st.tuples(st.sampled_from([T, I]), st.integers(1, 5)), min_size=1, max_size=8
)


def _merge_text_runs(segs):
    out = []
    for kind, count in segs:
        if out and kind is T and out[-1][0] is T:
            out[-1] = (T, out[-1][1] + count)
        else:
            out.append((kind, count))
    return out


@given(segment_lists)
def test_build_sequence_roundtrip(segs):
    seq = build_sequence(segs)
    runs = itertools.groupby(seq.tags, key=lambda tag: (tag.kind, tag.block_id))
    assert [(kind, len(list(run))) for (kind, _), run in runs] == _merge_text_runs(segs)


@given(segment_lists)
def test_image_blocks_cover_image_positions(segs):
    seq = build_sequence(segs)
    spans = image_blocks(seq)
    covered = set()
    prev_end = -1
    prev_bid = 0
    for bid, start, end in spans:
        assert start < end
        assert start >= prev_end
        assert bid > prev_bid
        prev_end, prev_bid = end, bid
        overlap = covered.intersection(range(start, end))
        assert not overlap
        covered.update(range(start, end))
    assert covered == set(np.flatnonzero(seq.is_image()).tolist())
    for bid, start, end in spans:
        assert all(seq.tags[p].block_id == bid for p in range(start, end))
