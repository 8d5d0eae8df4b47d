import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmchat.mask import AttentionVariant, MmcaMask, build_mask, render_mask
from mmchat.modseq import LayoutConfig, TokenKind, build_sequence
from mmchat.template import Conversation, HashTokenizer, Round, render

from dense_reference import partition
from oracles import rule_mask

I, T = TokenKind.IMAGE, TokenKind.TEXT


def test_mmca_image_then_text_rows():
    mask = build_mask(build_sequence([(I, 3), (T, 7)]), "mmca")
    for i in range(3):
        expected = [2, 2, 2] + [0] * 7
        assert mask.entries[i].tolist() == expected
    assert mask.entries[5].tolist() == [2, 2, 2, 1, 1, 1, 0, 0, 0, 0]


def test_mmca_text_only_is_causal():
    seq = build_sequence([(T, 4)])
    mask = build_mask(seq, "mmca")
    assert np.array_equal(mask.entries, np.tril(np.ones((4, 4), dtype=np.int8)))


def test_mmca_single_image_block():
    mask = build_mask(build_sequence([(I, 2)]), "mmca")
    assert mask.entries.tolist() == [[2, 2], [2, 2]]


def test_causal_examples():
    assert build_mask(build_sequence([(T, 3)]), "causal").entries.tolist() == [
        [1, 0, 0],
        [1, 1, 0],
        [1, 1, 1],
    ]
    assert build_mask(build_sequence([(T, 1)]), "causal").entries.tolist() == [[1]]
    row4 = build_mask(build_sequence([(I, 3), (T, 7)]), "causal").entries[4]
    assert row4.tolist() == [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]


def test_cross_mask_equals_mmca_geometry():
    seq = build_sequence([(I, 3), (T, 7)])
    assert np.array_equal(
        build_mask(seq, AttentionVariant.CAUSAL_PLUS_CROSS).entries, build_mask(seq, "mmca").entries
    )


def test_cross_mask_text_only_and_image_only():
    assert np.array_equal(
        build_mask(build_sequence([(T, 4)]), AttentionVariant.CAUSAL_PLUS_CROSS).entries,
        np.tril(np.ones((4, 4), dtype=np.int8)),
    )
    image_only = build_mask(build_sequence([(I, 3)]), AttentionVariant.CAUSAL_PLUS_CROSS)
    assert image_only.entries.tolist() == [
        [2, 2, 2],
        [2, 2, 2],
        [2, 2, 2],
    ]


def test_partition_examples():
    m1, m2 = partition(MmcaMask(np.zeros((2, 2), dtype=np.int8)))
    assert not m1.any() and not m2.any()

    m1, m2 = partition(build_mask(build_sequence([(T, 2)]), "causal"))
    assert m1.tolist() == [[True, False], [True, True]]
    assert not m2.any()

    m1, m2 = partition(build_mask(build_sequence([(I, 2), (T, 2)]), "mmca"))
    m2_true = {(i, j) for i in range(4) for j in range(4) if m2[i, j]}
    m1_true = {(i, j) for i in range(4) for j in range(4) if m1[i, j]}
    assert m2_true == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)}
    assert m1_true == {(2, 2), (3, 2), (3, 3)}


def test_partition_disjoint_and_lossless():
    seq = build_sequence([(T, 2), (I, 3), (T, 2), (I, 2)])
    for variant in AttentionVariant:
        mask = build_mask(seq, variant)
        m1, m2 = partition(mask)
        assert not (m1 & m2).any()
        rebuilt = np.zeros_like(mask.entries)
        rebuilt[m1] = 1
        rebuilt[m2] = 2
        assert np.array_equal(rebuilt, mask.entries)


def test_render_mask_examples():
    assert render_mask(MmcaMask(np.array([[1]]))) == "1"
    assert render_mask(build_mask(build_sequence([(T, 2)]), "causal")) == "1·\n11"
    assert render_mask(build_mask(build_sequence([(I, 1), (T, 1)]), "mmca")) == "2·\n21"


def test_mask_validation():
    with pytest.raises(ValueError, match="square"):
        MmcaMask(np.zeros((2, 3), dtype=np.int8))
    with pytest.raises(ValueError, match="lie in"):
        MmcaMask(np.full((2, 2), 3, dtype=np.int8))
    with pytest.raises(ValueError):
        MmcaMask(np.zeros((0, 0), dtype=np.int8))
    # values a one-byte cast would wrap or truncate into {0, 1, 2}
    for entries in (np.array([[258]]), np.array([[-254]]), np.array([[1.7]]), [[258]]):
        with pytest.raises(ValueError, match=r"mask entries must lie in \{0, 1, 2\}"):
            MmcaMask(entries)
    accepted = ([[1, 0], [2, 1]], np.array([[True, False], [True, True]]), np.array([[2.0, 0.0], [1.0, 1.0]]))
    for entries in accepted:
        mask = MmcaMask(entries)
        assert mask.entries.dtype == np.int8 and np.array_equal(mask.entries, np.asarray(entries))


def test_mask_entries_immutable():
    mask = build_mask(build_sequence([(T, 3)]), "causal")
    with pytest.raises(ValueError):
        mask.entries[0, 0] = 2


def test_mask_copies_a_writable_input_and_keeps_a_read_only_one():
    given = np.ones((2, 2), dtype=np.int8)
    mask = MmcaMask(given)
    assert given.flags.writeable and not np.shares_memory(given, mask.entries)
    given[0, 1] = 0
    assert mask.entries.tolist() == [[1, 1], [1, 1]]
    # a read-only int8 array, such as build_mask makes, is kept as it is
    frozen = np.ones((2, 2), dtype=np.int8)
    frozen.setflags(write=False)
    assert MmcaMask(frozen).entries is frozen


def test_image_self_diagonal():
    seq = build_sequence([(I, 3), (T, 1)])
    mask = build_mask(seq, "mmca", image_self="diagonal")
    assert mask.entries[:3, :3].tolist() == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert mask.entries[3].tolist() == [2, 2, 2, 1]
    with pytest.raises(ValueError, match="image_self"):
        build_mask(seq, "mmca", image_self="full")


def test_build_mask_takes_variant_by_enum_or_value_and_checks_image_self():
    seq = build_sequence([(I, 2), (T, 2)])
    for variant in AttentionVariant:
        assert np.array_equal(
            build_mask(seq, variant).entries, build_mask(seq, variant.value).entries
        )
        with pytest.raises(ValueError, match="image_self"):
            build_mask(seq, variant, "full")
        with pytest.raises(ValueError, match="image_self"):
            build_mask(seq, variant.value, "row")


segment_lists = st.lists(
    st.tuples(st.sampled_from([T, I]), st.integers(1, 4)), min_size=1, max_size=6
)


@settings(max_examples=60)
@given(segment_lists, st.sampled_from(["block", "diagonal"]))
def test_builders_match_rule_evaluator(segs, image_self):
    seq = build_sequence(segs)
    assert np.array_equal(
        build_mask(seq, "mmca", image_self).entries, rule_mask(seq, "mmca", image_self)
    )
    assert np.array_equal(
        build_mask(seq, AttentionVariant.CAUSAL_PLUS_CROSS, image_self).entries,
        rule_mask(seq, "cross", image_self),
    )
    assert np.array_equal(build_mask(seq, "causal", image_self).entries, rule_mask(seq, "causal"))


@settings(max_examples=60)
@given(segment_lists)
def test_mask_invariants(segs):
    seq = build_sequence(segs)
    is_image = seq.is_image()
    bid = seq.block_ids()
    for variant in (AttentionVariant.MMCA, AttentionVariant.CAUSAL_PLUS_CROSS):
        entries = build_mask(seq, variant).entries
        # key labeling: 1 => text key, 2 => image key
        assert not (entries[:, is_image] == 1).any()
        assert not (entries[:, ~is_image] == 2).any()
        # text causality: strict upper triangle of text rows is 0
        for i in np.flatnonzero(~is_image):
            assert not entries[i, i + 1 :].any()
        # image isolation: image rows allowed only within own block
        for i in np.flatnonzero(is_image):
            allowed = np.flatnonzero(entries[i])
            assert all(bid[j] == bid[i] for j in allowed)
        # every token attends to itself except never-leaking image rows
        assert (np.diag(entries) != 0).all()
    if not is_image.any():
        causal = build_mask(seq, "causal").entries
        assert np.array_equal(build_mask(seq, "mmca").entries, causal)
        assert np.array_equal(build_mask(seq, AttentionVariant.CAUSAL_PLUS_CROSS).entries, causal)


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_dense_mask_memory_on_eight_image_conversation(variant):
    """The dense reference of an 8-image conversation with 256 tokens per
    image (d = 2264, one byte per entry: 4.9 MiB) stays within a few d x d
    bytes: 9.8 MiB peak measured for mask plus support, where three
    builders with boolean d x d temporaries and an ``np.isin`` check
    peaked at 83.2 MiB."""
    eight, ten = " ".join(["word"] * 8), " ".join(["word"] * 10)
    conv = Conversation(eight, [Round((f"img{k}",), ten, eight) for k in range(8)])
    seq = render(conv, HashTokenizer(32), LayoutConfig(256)).tags
    assert seq.d == 2264
    tracemalloc.start()
    try:
        allowed = int(build_mask(seq, variant).allowed().sum())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    causal = variant is AttentionVariant.CAUSAL_ONLY
    assert allowed == (seq.d * (seq.d + 1) // 2 if causal else 781196)
    assert peak < 16 * 2**20
