import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mmchat.modseq import (
    LayoutConfig,
    ModalitySequence,
    TokenKind,
    build_sequence,
    image_blocks,
)

I, T = TokenKind.IMAGE, TokenKind.TEXT


def test_build_sequence_image_then_text():
    seq = build_sequence([(I, 3), (T, 7)])
    assert seq.d == 10
    assert seq.ids == (1, 1, 1) + (0,) * 7


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


def test_build_sequence_takes_kinds_by_value():
    assert build_sequence([("image", 2), ("text", 1)]) == build_sequence([(I, 2), (T, 1)])
    for kind in ("Image", "img", None):
        with pytest.raises(ValueError, match=re.escape(f"{kind!r} is not a valid TokenKind")):
            build_sequence([(T, 1), (kind, 2)])


def test_image_blocks_single_front():
    assert image_blocks(build_sequence([(I, 3), (T, 7)])) == [(1, 0, 3)]


def test_sequence_rejects_split_block():
    with pytest.raises(ValueError, match="not contiguous"):
        ModalitySequence((1, 0, 1))


def test_sequence_rejects_block_order():
    with pytest.raises(ValueError, match="strictly increasing"):
        ModalitySequence((2, 1))


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"image_token_count": 2.5}, "image_token_count must be an integer >= 1, got 2.5"),
        ({"image_token_count": True}, "image_token_count must be an integer >= 1, got True"),
        ({"image_token_count": 0}, "image_token_count must be an integer >= 1, got 0"),
        ({"max_sequence_length": 4096.0}, "max_sequence_length must be an integer >= 1, got 4096.0"),
        ({"max_sequence_length": "4096"}, "max_sequence_length must be an integer >= 1, got '4096'"),
    ],
)
def test_layout_config_rejects_non_integer_sizes(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LayoutConfig(**kwargs)


def test_is_image_and_block_ids_vectors():
    seq = build_sequence([(T, 1), (I, 2), (T, 1)])
    assert seq.is_image().tolist() == [False, True, True, False]
    assert seq.block_ids().tolist() == [0, 1, 1, 0]


# ---------------------------------------------------------------------------
# Construction: exactly the vectors a scalar restatement of the rule accepts


def rule_accepts(ids) -> bool:
    """Non-empty, no negative id, each image block one run, and blocks
    first seen in strictly increasing id order."""
    if not ids:
        return False
    first_seen: list[int] = []
    prev = 0
    for bid in ids:
        if bid < 0:
            return False
        if bid != 0 and bid != prev:
            if bid in first_seen or (first_seen and bid < first_seen[-1]):
                return False
            first_seen.append(bid)
        prev = bid
    return True


def _expand(runs):
    return [bid for bid, count in runs for _ in range(count)]


@st.composite
def valid_id_vectors(draw):
    """Text runs and image runs, image ids rising by 1-3 per block."""
    ids, block = [], 0
    runs = st.tuples(st.booleans(), st.integers(1, 4), st.integers(1, 3))
    for is_image, count, step in draw(st.lists(runs, min_size=1, max_size=8)):
        block += step if is_image else 0
        ids += [block if is_image else 0] * count
    return ids


id_vectors = st.one_of(
    st.lists(st.integers(-2, 6), max_size=12),
    st.lists(st.tuples(st.integers(-1, 6), st.integers(1, 4)), max_size=8).map(_expand),
    valid_id_vectors(),
)


@given(id_vectors)
@example([])  # empty
@example([0])  # d=1, text
@example([3])  # d=1, image; ids need not start at 1
@example([-1])  # negative id
@example([0, 0, 1, 1])  # text before the first image
@example([1, 1, 2, 2, 2])  # adjacent blocks
@example([1, 0, 1])  # a block repeated after text
@example([1, 1, 2, 1])  # a block repeated after another block
@example([2, 1])  # decreasing ids
@example([2, 2, 0, 2])  # split block that is also the largest id
def test_sequence_accepts_exactly_the_rule(ids):
    if rule_accepts(ids):
        seq = ModalitySequence(ids)
        assert seq.ids == tuple(ids)
        assert seq.d == len(ids)
        assert seq.block_ids().tolist() == ids
        assert seq.is_image().tolist() == [bid != 0 for bid in ids]
        assert ModalitySequence(np.array(ids, dtype=np.int32)) == seq
    else:
        with pytest.raises(ValueError):
            ModalitySequence(ids)


def test_sequence_rejection_messages():
    cases = [
        ((), "empty sequence"),
        ((-1,), ">= 0"),
        ((0, -2, 0), ">= 0"),
        ((1, 0, 1), "image block 1 is not contiguous"),
        ((1, 2, 1), "image block 1 is not contiguous"),
        ((2, 1), "strictly increasing, got 1 after 2"),
        ((0, 3, 0, 2), "strictly increasing, got 2 after 3"),
    ]
    for ids, message in cases:
        with pytest.raises(ValueError, match=message):
            ModalitySequence(ids)


def test_sequence_rejects_non_integer_and_non_vector_input():
    bad = [
        (0, 1.0),
        (0.0,),
        (True, False),
        np.array([True, False]),
        np.array([0.0, 1.0]),
        np.array([[0, 1], [1, 0]]),
        ((0, 1),),
        [[0, 1]],
        "01",
        5,
        np.int64(1),
        None,
    ]
    for values in bad:
        with pytest.raises(ValueError, match="1-d sequence of integers"):
            ModalitySequence(values)


def test_sequence_accepts_integer_arrays():
    seq = ModalitySequence(np.array([0, 1, 1], dtype=np.uint8))
    assert seq.ids == (0, 1, 1)
    assert all(type(bid) is int for bid in seq.ids)
    assert seq == ModalitySequence([0, 1, 1])


# ---------------------------------------------------------------------------
# Segment structure


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
    runs = [(bid, len(list(run))) for bid, run in itertools.groupby(seq.ids)]
    assert [(I if bid else T, count) for bid, count in runs] == _merge_text_runs(segs)
    image_count = sum(kind is I for kind, _ in segs)
    assert [bid for bid, _ in runs if bid] == list(range(1, image_count + 1))


@given(valid_id_vectors())
@example([0])
@example([1, 1, 2, 2, 2])
@example([0, 0, 4, 0, 7, 7])
def test_image_blocks_equal_groupby_of_ids(ids):
    expected = []
    pos = 0
    for bid, run in itertools.groupby(ids):
        count = len(list(run))
        if bid:
            expected.append((bid, pos, pos + count))
        pos += count
    assert rule_accepts(ids)
    assert image_blocks(ModalitySequence(ids)) == expected


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
        assert all(seq.ids[p] == bid for p in range(start, end))
