"""The segment-structured kernel against the dense reference.

The reference is ``tests/dense_reference.py``: the dense single-head
functions (``mmca_/causal_/cross_forward`` and their ``_vjp``s over
``build_mask``), composed per head with the output projection here, i.e.
the multi-head path as it was before the kernel existed. It has its own
softmax, so the kernel's softmax is checked too.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmchat.attn as attn_module
import mmchat.mask as mask_module
import mmchat.toy_model as toy_model_module
from mmchat.attn import (
    SavedAttention,
    attention_weights,
    init_multi_head_params,
    multi_head_forward,
    multi_head_input_vjp,
    segment_attention,
    segment_attention_vjp,
)
from mmchat.mask import AttentionVariant, MmcaMask, build_layout, build_mask
from mmchat.modseq import LayoutConfig, ModalitySequence, TokenKind, build_sequence, image_blocks
from mmchat.template import Conversation, HashTokenizer, Round, render
from mmchat.toy_model import (
    ModelConfig,
    OptimState,
    _bin_loss_and_grads,
    loss_and_param_grads,
    make_copy_task,
    make_model,
    train_step,
)

from dense_reference import (
    AttentionInputs,
    CrossParams,
    _cross_supports,
    causal_forward,
    causal_vjp,
    cross_forward,
    cross_vjp,
    masked_softmax,
    mmca_forward,
    mmca_vjp,
)
from oracles import random_conversation

I, T = TokenKind.IMAGE, TokenKind.TEXT
TOLERANCE = 1e-12
CONFIGS = list(itertools.product(AttentionVariant, ("block", "diagonal")))
# Each rule-level test runs with the variant as the enum and as its string
# value, which must build the same layout.
BY_VALUE = pytest.mark.parametrize("by_value", (False, True))


def as_given(variant, by_value):
    return variant.value if by_value else variant


def forbid(term):
    """The (rows, keys) entries of ``term``'s part that no block may read:
    the boolean complement of its ``limit`` (``None``: it reads every key)."""
    if term.limit is None:
        return None
    width = len(range((term.keys.stop - term.keys.start) // term.stack)[term.key_part])
    return np.arange(width) >= term.limit[:, None]


def head_shape(config):
    """(head_dim, 1/sqrt(head_dim)) of a ``ModelConfig``'s attention."""
    hd = config.model_dim // config.num_heads
    return hd, 1.0 / math.sqrt(hd)


def dense_heads(config, x, params, seq):
    """Per-head (AttentionInputs, CrossParams | None) and the dense mask of
    ``config``, a ``ModelConfig`` whose attention fields set the rule, over
    one sequence or a bin of them (the block diagonal of their masks)."""
    if isinstance(seq, ModalitySequence):
        mask = build_mask(seq, config.variant, config.image_self)
    else:
        grids = [build_mask(one, config.variant, config.image_self).entries for one in seq]
        mask = MmcaMask(block_diagonal(grids))
    heads = []
    for h in range(config.num_heads):
        inputs = AttentionInputs(x @ params.wq[h], x @ params.wk[h], x @ params.wv[h])
        cross = None
        if config.variant is AttentionVariant.CAUSAL_PLUS_CROSS:
            cross = CrossParams(x @ params.wkx[h], x @ params.wvx[h])
        heads.append((inputs, cross))
    return heads, mask


def dense_forward(config, x, params, seq):
    heads, mask = dense_heads(config, x, params, seq)
    _, scale = head_shape(config)
    outs = []
    for inputs, cross in heads:
        if config.variant is AttentionVariant.MMCA:
            out, _, _ = mmca_forward(inputs, mask, scale)
        elif config.variant is AttentionVariant.CAUSAL_ONLY:
            out = causal_forward(inputs, mask, scale)
        else:
            out = cross_forward(inputs, cross, mask, scale)
        outs.append(out)
    return np.concatenate(outs, axis=1) @ params.wo


def dense_input_vjp(config, x, params, seq, dout):
    heads, mask = dense_heads(config, x, params, seq)
    hd, scale = head_shape(config)
    dconcat = dout @ params.wo.T
    dx = np.zeros_like(x)
    for h, (inputs, cross) in enumerate(heads):
        dh = dconcat[:, h * hd : (h + 1) * hd]
        if config.variant is AttentionVariant.MMCA:
            g = mmca_vjp(inputs, mask, scale, dh)
        elif config.variant is AttentionVariant.CAUSAL_ONLY:
            g = causal_vjp(inputs, mask, scale, dh)
        else:
            g = cross_vjp(inputs, cross, mask, scale, dh)
            dx += g["kx"] @ params.wkx[h].T + g["vx"] @ params.wvx[h].T
        dx += g["q"] @ params.wq[h].T + g["k"] @ params.wk[h].T + g["v"] @ params.wv[h].T
    return dx


def random_layout(rng):
    """Layout of 1..64 tokens: text-only, image-only or mixed, with block
    sizes from 1 and adjacent image blocks wherever two image segments
    meet."""
    mode = int(rng.integers(0, 6))  # 0 text-only, 1 image-only, else mixed
    d = int(rng.integers(1, 65))
    segments, total = [], 0
    while total < d:
        size = int(rng.integers(1, min(12, d - total) + 1))
        kind = T if mode == 0 else I if mode == 1 else (I if rng.random() < 0.5 else T)
        segments.append((kind, size))
        total += size
    return build_sequence(segments)


def dense_weights(config, x, params, seq):
    """Per head, the reference's (text, image) weight views: (A1, A2) for
    mmca, (A, 0) for causal, and (A1, block + Kx softmaxes) for cross."""
    heads, mask = dense_heads(config, x, params, seq)
    _, scale = head_shape(config)
    views = []
    for inputs, cross in heads:
        if config.variant is AttentionVariant.MMCA:
            _, a1, a2 = mmca_forward(inputs, mask, scale)
            views.append((a1, a2))
        elif config.variant is AttentionVariant.CAUSAL_ONLY:
            a = masked_softmax(scale * (inputs.q @ inputs.k.T), mask.allowed())
            views.append((a, np.zeros_like(a)))
        else:
            m1, m2_text, m2_image = _cross_supports(mask)
            s = scale * (inputs.q @ inputs.k.T)
            sx = scale * (inputs.q @ cross.kx.T)
            image = masked_softmax(s, m2_image) + masked_softmax(sx, m2_text)
            views.append((masked_softmax(s, m1), image))
    return np.array(views)


def max_gaps(config, seq, seed, rows=None):
    """(forward gap, input-VJP gap, weight-view gap) between the kernel and
    the reference, on one sequence or a bin of them. With ``rows`` the
    kernel runs on the layout restricted to them: its output and weights
    must match the reference on those rows and be zero on every other, and
    its VJP must match the reference's for a ``dout`` that is zero off them."""
    rng = np.random.default_rng(seed)
    layout = build_layout(seq, config.variant, config.image_self)
    params = init_multi_head_params(config.variant, config.num_heads, config.model_dim, rng)
    x = rng.standard_normal((layout.d, config.model_dim))
    dout = rng.standard_normal((layout.d, config.model_dim))
    kept = np.ones(layout.d, dtype=bool)
    if rows is not None:
        layout = layout.restrict(rows)
        kept[:] = False
        kept[rows] = True
        dout[~kept] = 0.0
    out, saved = multi_head_forward(x, params, layout)
    fwd = np.abs(out - np.where(kept[:, None], dense_forward(config, x, params, seq), 0.0))
    vjp = np.abs(
        multi_head_input_vjp(params, saved, dout)
        - dense_input_vjp(config, x, params, seq, dout)
    )
    views = np.stack(attention_weights(saved), axis=1)  # heads lead
    weights = np.abs(views - np.where(kept[:, None], dense_weights(config, x, params, seq), 0.0))
    return float(fwd.max()), float(vjp.max()), float(weights.max())


@BY_VALUE
@pytest.mark.parametrize(("variant", "image_self"), CONFIGS)
def test_matches_dense_reference_on_random_layouts(variant, image_self, by_value):
    config = ModelConfig(
        variant=as_given(variant, by_value), num_heads=2, model_dim=4, image_self=image_self
    )
    assert config.variant is variant
    rng = np.random.default_rng(2309)
    worst = (0.0, 0.0, 0.0)
    for trial in range(500):
        gaps = max_gaps(config, random_layout(rng), seed=trial)
        worst = tuple(map(max, worst, gaps))
    assert max(worst) <= TOLERANCE, worst


_segments = st.lists(
    st.tuples(st.sampled_from([T, I]), st.integers(1, 6)), min_size=1, max_size=6
)


@settings(max_examples=150, deadline=None)
@given(
    segments=_segments,
    config_index=st.integers(0, len(CONFIGS) - 1),
    seed=st.integers(0, 2**16),
)
@example(segments=[(T, 5)], config_index=0, seed=0)  # text-only
@example(segments=[(I, 4)], config_index=5, seed=1)  # image-only
@example(segments=[(I, 2), (I, 3), (T, 2)], config_index=5, seed=2)  # adjacent blocks
# 1-token blocks
@example(segments=[(I, 1), (T, 1), (I, 1), (I, 1), (T, 2)], config_index=2, seed=3)
@example(segments=[(T, 1)], config_index=4, seed=4)  # d=1
@example(segments=[(I, 1)], config_index=4, seed=5)  # d=1, image
@example(segments=[(T, 3), (I, 2), (T, 2)], config_index=2, seed=6)  # text before the first image
def test_edge_layouts_match_dense_reference(segments, config_index, seed):
    variant, image_self = CONFIGS[config_index]
    config = ModelConfig(variant=variant, num_heads=2, model_dim=6, image_self=image_self)
    assert max(max_gaps(config, build_sequence(segments), seed)) <= TOLERANCE


def test_layout_structure():
    seq = build_sequence([(T, 2), (I, 3), (T, 1), (I, 3), (I, 2), (T, 1), (I, 2)])
    mmca = build_layout(seq, AttentionVariant.MMCA)
    # modality order: every image position, then every text position
    assert mmca.keys.tolist() == mmca.rows.tolist() == [2, 3, 4, 6, 7, 8, 9, 10, 12, 13, 0, 1, 5, 11]
    three, two, text, *stairs = mmca.terms
    assert [(t.rows, t.keys, t.stack) for t in (three, two, text)] == [
        (slice(0, 6), slice(0, 6), 2), (slice(6, 10), slice(6, 10), 2), (slice(10, 14), slice(10, 14), 1)
    ]
    # adjacent equal-size image blocks stack into one term each, every block over itself
    (three_rows, three_keys), (two_rows, two_keys) = mmca.positions(three), mmca.positions(two)
    assert three_rows.tolist() == [[2, 3, 4], [6, 7, 8]] and two_rows.tolist() == [[9, 10], [12, 13]]
    assert np.array_equal(three_keys, three_rows) and np.array_equal(two_keys, two_rows)
    assert forbid(three) is None and forbid(two) is None
    assert [p.tolist() for p in mmca.positions(text)] == [[[0, 1, 5, 11]]] * 2
    assert np.array_equal(~forbid(text), np.tril(np.ones((4, 4), dtype=bool)))
    # the image keys each text row reads: none for rows 0 and 1 (before every
    # image), three for row 5, all eight for row 11; the trailing block comes
    # after the last text row, so no row reads it
    assert [(*(p.tolist() for p in mmca.positions(t)), forbid(t)) for t in stairs] == [
        ([[5]], [[2, 3, 4]], None), ([[11]], [[2, 3, 4, 6, 7, 8, 9, 10]], None)
    ]
    # each step is one block over all four text rows and all ten image keys,
    # its parts picking the rows and keys it reads
    assert [(t.rows, t.keys, t.stack, t.row_part, t.key_part) for t in stairs] == [
        (slice(10, 14), slice(0, 10), 1, slice(2, 3), slice(0, 3)),
        (slice(10, 14), slice(0, 10), 1, slice(3, 4), slice(0, 8)),
    ]
    assert not mmca.reads_cross
    cross = build_layout(seq, AttentionVariant.CAUSAL_PLUS_CROSS)
    assert cross.reads_cross and [t.cross for t in cross.terms] == [False] * 3 + [True] * 2
    diagonal = build_layout(seq, AttentionVariant.MMCA, "diagonal")
    assert diagonal.terms[0].stack == 10
    assert diagonal.positions(diagonal.terms[0])[0].tolist() == [[p] for p in (2, 3, 4, 6, 7, 8, 9, 10, 12, 13)]
    assert [diagonal.positions(t)[1].tolist() for t in diagonal.terms[1:]] == [
        mmca.positions(t)[1].tolist() for t in mmca.terms[2:]
    ]
    causal_layout = build_layout(seq, AttentionVariant.CAUSAL_ONLY)
    (causal,) = causal_layout.terms
    assert causal_layout.keys.tolist() == list(range(seq.d))  # causal's order is the identity
    assert [p.tolist() for p in causal_layout.positions(causal)] == [[list(range(seq.d))]] * 2
    assert np.array_equal(~forbid(causal), np.tril(np.ones((seq.d, seq.d), dtype=bool)))
    with pytest.raises(ValueError, match="image_self"):
        build_layout(seq, AttentionVariant.MMCA, "row")


def test_layout_orders_on_edge_layouts():
    """Each term's rows and keys are one slice of the layout's orders, on
    the layouts where the slices are easiest to get wrong."""

    def terms(layout):
        return [(t.rows, t.keys, t.stack) for t in layout.terms]

    # adjacent blocks of sizes 3, 3, 2, then a text token and a block of 3:
    # only the two adjacent 3s stack
    mixed = build_layout(build_sequence([(I, 3), (I, 3), (I, 2), (T, 1), (I, 3), (T, 2)]), "mmca")
    assert mixed.keys.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 8, 12, 13]
    assert terms(mixed) == [
        (slice(0, 6), slice(0, 6), 2), (slice(6, 8), slice(6, 8), 1), (slice(8, 11), slice(8, 11), 1),
        (slice(11, 14), slice(11, 14), 1), (slice(11, 14), slice(0, 11), 1), (slice(11, 14), slice(0, 11), 1),
    ]
    # the staircase: text row 8 reads the first 8 image keys, rows 12 and 13 all 11
    assert [(t.row_part, t.key_part) for t in mixed.terms[-2:]] == [
        (slice(0, 1), slice(0, 8)), (slice(1, 3), slice(0, 11))
    ]
    # a partly kept block in the middle of a stack splits it into one stack
    # per run of blocks that keep the same rows, here three runs of one
    # block, each reading its whole block
    stack = build_layout(build_sequence([(I, 3), (I, 3), (I, 3), (T, 1)]), "mmca")
    part = stack.restrict([0, 1, 2, 4, 6, 7, 8])
    assert part.rows.tolist() == [0, 1, 2, 4, 6, 7, 8] and part.keys is stack.keys
    assert terms(part) == [
        (slice(0, 3), slice(0, 3), 1), (slice(3, 4), slice(3, 6), 1), (slice(4, 7), slice(6, 9), 1)
    ]
    assert [k.tolist() for _, k in map(part.positions, part.terms)] == [[[0, 1, 2]], [[3, 4, 5]], [[6, 7, 8]]]
    # text before the first image has no image term
    early = build_layout(build_sequence([(T, 3), (I, 2), (T, 2)]), "cross")
    assert early.keys.tolist() == [3, 4, 0, 1, 2, 5, 6]
    assert terms(early) == [(slice(0, 2), slice(0, 2), 1), (slice(2, 7), slice(2, 7), 1),
                            (slice(2, 7), slice(0, 2), 1)]
    assert (early.terms[2].row_part, early.terms[2].key_part) == (slice(3, 5), slice(0, 2))
    assert early.positions(early.terms[2])[0].tolist() == [[5, 6]]
    # d=1
    for kind, variant, image_self in ((T, "mmca", "block"), (I, "cross", "diagonal"), (I, "causal", "block")):
        one = build_layout(build_sequence([(kind, 1)]), variant, image_self)
        assert one.keys.tolist() == one.rows.tolist() == [0]
        assert terms(one) == [(slice(0, 1), slice(0, 1), 1)]


def test_restrict_splits_a_stack_into_runs_of_blocks_that_keep_the_same_rows():
    """Four adjacent 3-token image blocks, the first two wholly kept and the
    last two keeping only their first row: the one stack of four becomes
    two stacks of two, each over its own kept rows and its blocks' keys,
    and the restricted kernel still matches the dense reference."""
    seq = build_sequence([(I, 3)] * 4)
    rows = [0, 1, 2, 3, 4, 5, 6, 9]
    part = build_layout(seq, "mmca").restrict(rows)
    assert [(t.rows, t.keys, t.stack, t.row_part) for t in part.terms] == [
        (slice(0, 6), slice(0, 6), 2, slice(None)), (slice(6, 8), slice(6, 12), 2, slice(None))
    ]
    assert [p.tolist() for p in part.positions(part.terms[1])] == [[[6], [9]], [[6, 7, 8], [9, 10, 11]]]
    for config in CONFIGS:
        assert_terms_account_for_mask(seq, *config, rows)
        model = ModelConfig(variant=config[0], num_heads=2, model_dim=6, image_self=config[1])
        assert max(max_gaps(model, seq, seed=18, rows=rows)) <= TOLERANCE


def block_diagonal(grids):
    """The square matrix with ``grids`` on its diagonal and 0 elsewhere."""
    d = sum(len(g) for g in grids)
    out = np.zeros((d, d), dtype=np.int8)
    at = 0
    for g in grids:
        out[at : at + len(g), at : at + len(g)] = g
        at += len(g)
    return out


def test_bin_layout_lays_sequences_end_to_end():
    """A bin's layout orders every sequence's image positions before every
    text position, stacks equal adjacent blocks across sequences, and keeps
    each sequence's text and staircase terms over its own positions; a bin
    of one sequence is that sequence's layout."""
    first = build_sequence([(T, 1), (I, 2), (T, 2)])
    second = build_sequence([(I, 2), (I, 3), (T, 1)])
    layout = build_layout([first, second], "cross")
    assert layout.d == 11
    assert layout.keys.tolist() == layout.rows.tolist() == [1, 2, 5, 6, 7, 8, 9, 0, 3, 4, 10]
    every = slice(None)
    assert [(t.rows, t.keys, t.stack, t.cross, t.row_part, t.key_part) for t in layout.terms] == [
        (slice(0, 4), slice(0, 4), 2, False, every, every),  # the 2-blocks of both sequences, one stack
        (slice(4, 7), slice(4, 7), 1, False, every, every),
        (slice(7, 10), slice(7, 10), 1, False, every, every),  # first's text over its text
        (slice(7, 10), slice(0, 2), 1, True, slice(1, 3), slice(0, 2)),  # first's text after its image
        (slice(10, 11), slice(10, 11), 1, False, every, every),  # second's text over its text
        (slice(10, 11), slice(2, 7), 1, True, slice(0, 1), slice(0, 5)),  # over its five image keys
    ]
    assert np.array_equal(forbid(layout.terms[2]), np.triu(np.ones((3, 3), dtype=bool), 1))
    for variant, image_self in CONFIGS:
        one, alone = build_layout([first], variant, image_self), build_layout(first, variant, image_self)
        assert one.d == alone.d and np.array_equal(one.keys, alone.keys)
        assert_same_terms(one.terms, alone.terms)
    (causal_first, causal_second) = build_layout([first, second], "causal").terms
    assert (causal_first.rows, causal_second.rows) == (slice(0, 5), slice(5, 11))
    # the copy task's eight equal samples: one stack of eight 4-token image
    # blocks, then one text term and one staircase step, each a stack of
    # eight 16-row blocks over all 128 text rows; the step reads rows 6-15
    # of each block (after the image) over the first 4 image keys of each
    copy = build_layout([sample.tags for sample in make_copy_task(ModelConfig())[0]], "mmca")
    assert [(t.rows, t.keys, t.stack, t.row_part, t.key_part) for t in copy.terms] == [
        (slice(0, 32), slice(0, 32), 8, slice(None), slice(None)),
        (slice(32, 160), slice(32, 160), 8, slice(None), slice(None)),
        (slice(32, 160), slice(0, 32), 8, slice(6, 16), slice(0, 4)),
    ]
    assert np.array_equal(forbid(copy.terms[1]), np.triu(np.ones((16, 16), dtype=bool), 1))
    with pytest.raises(ValueError, match="at least one sequence"):
        build_layout([], "mmca")


def assert_terms_account_for_mask(seqs, variant, image_self, rows=None, by_value=False):
    """Every allowed edge of the dense mask lies in exactly one term, with
    the term's key class; each term row is one whole softmax group of the
    reference (one query row's text keys or image keys), never split across
    terms; image-key terms carry no mask; cross flags mark exactly the text
    rows' image terms of the cross variant. ``seqs`` is one sequence or a
    bin of them laid end to end, whose mask is the block diagonal of the
    sequences' masks, and no term reads positions of two sequences. With
    ``rows``, the same holds for the layout restricted to them, over the
    mask's kept rows, and no other row has an edge in any term. The
    layout's ``keys`` are a permutation of range(d) and its ``rows`` of the
    kept rows (in the full layout's order), and every term's rows and keys
    are slices of them, each a stack of one or more equal blocks, and
    ``positions`` gives one row of positions per block. ``by_value`` passes
    the variant as its string value."""
    layout = build_layout(seqs, as_given(variant, by_value), image_self)
    assert layout.variant is variant
    bin_ = [seqs] if isinstance(seqs, ModalitySequence) else list(seqs)
    entries = block_diagonal([build_mask(seq, variant, image_self).entries for seq in bin_])
    owner = np.repeat(np.arange(len(bin_)), [seq.d for seq in bin_])  # the sequence of each position
    d = owner.size
    assert layout.d == d
    if rows is not None:
        full, layout = layout, layout.restrict(rows)
        assert layout.d == d and layout.keys is full.keys
        assert np.array_equal(layout.rows, full.rows[np.isin(full.rows, rows)])  # the old row order
        kept = np.zeros(d, dtype=bool)
        kept[rows] = True
        entries = np.where(kept[:, None], entries, 0)
    # the orders: every key once, every computed row once; each term reads slices of them
    assert sorted(layout.keys.tolist()) == list(range(d))
    assert sorted(layout.rows.tolist()) == sorted(set(range(d) if rows is None else rows))
    assert all(type(t.rows) is slice and type(t.keys) is slice for t in layout.terms)
    is_image = np.concatenate([seq.is_image() for seq in bin_])
    seen = np.zeros((3,) + entries.shape, dtype=int)  # edges per key class
    groups = np.zeros((3, d), dtype=int)  # terms per (key class, row)
    for term in layout.terms:
        # one shape: a stack of one or more blocks, each a row of positions
        assert term.stack >= 1
        assert all((span.stop - span.start) % term.stack == 0 for span in (term.rows, term.keys))
        term_rows, term_keys = layout.positions(term)
        assert term_rows.ndim == term_keys.ndim == 2 and len(term_rows) == len(term_keys) == term.stack
        for rows, keys in zip(term_rows, term_keys):
            assert np.unique(owner[np.concatenate([rows, keys])]).size == 1  # one sequence per softmax
            allowed = np.ones((rows.size, keys.size), dtype=bool)
            if term.limit is not None:
                allowed = ~forbid(term)
            labels = entries[np.ix_(rows, keys)][allowed]
            assert labels.size and (labels == labels[0]).all()  # one key class per term
            key_class = int(labels[0])
            assert allowed.any(axis=1).all()  # no term row has an empty support
            seen[key_class][np.ix_(rows, keys)] += allowed
            groups[key_class][rows] += 1
            if key_class == 2:
                assert term.limit is None
            text_rows_reading_images = key_class == 2 and not is_image[rows].any()
            assert term.cross == (variant is AttentionVariant.CAUSAL_PLUS_CROSS and text_rows_reading_images)
    for key_class in (1, 2):
        assert np.array_equal(seen[key_class], (entries == key_class).astype(int))
        assert np.array_equal(groups[key_class], (entries == key_class).any(axis=1).astype(int))
    assert not seen[0].any()


def row_subsets(seqs, rng):
    """Row sets to restrict a layout of ``seqs`` (one sequence or a bin of
    them) to: one random row, every row, a random subset, and, when there
    is an image block of two or more tokens, part of one such block."""
    bin_ = [seqs] if isinstance(seqs, ModalitySequence) else seqs
    starts = np.cumsum([0] + [seq.d for seq in bin_])
    d = int(starts[-1])
    subsets = [[int(rng.integers(d))], list(range(d))]
    subsets.append(np.flatnonzero(rng.random(d) < 0.4).tolist() or [d - 1])
    wide = [(at + start, at + end) for seq, at in zip(bin_, starts)
            for _, start, end in image_blocks(seq) if end - start > 1]
    if wide:
        start, end = wide[int(rng.integers(len(wide)))]
        subsets.append(list(range(start, int(rng.integers(start + 1, end)))))
    return subsets


def rendered_sample(rng, image_token_count=2):
    """A rendered random chat (1-4 rounds of 0-3 images each) whose images
    are ``image_token_count`` tokens long."""
    layout = LayoutConfig(image_token_count=image_token_count, max_sequence_length=4096)
    return render(random_conversation(rng), HashTokenizer(32), layout)


def target_rows(sample):
    """The positions whose next token is in the loss: the rows the toy
    model's last block keeps."""
    return np.flatnonzero(np.asarray(sample.loss_mask[1:]))


@BY_VALUE
@pytest.mark.parametrize(("variant", "image_self"), CONFIGS)
def test_terms_account_for_every_allowed_edge_once(variant, image_self, by_value):
    rng = np.random.default_rng(2310)
    for _ in range(100):
        seq = random_layout(rng)
        assert_terms_account_for_mask(seq, variant, image_self, by_value=by_value)
        for rows in row_subsets(seq, rng):
            assert_terms_account_for_mask(seq, variant, image_self, rows, by_value)
    for _ in range(20):
        sample = rendered_sample(rng)
        assert_terms_account_for_mask(
            sample.tags, variant, image_self, target_rows(sample), by_value
        )
    # bins of 2-4 sequences laid end to end, restricted like single sequences
    for _ in range(40):
        bin_ = [random_layout(rng) for _ in range(int(rng.integers(2, 5)))]
        assert_terms_account_for_mask(bin_, variant, image_self, by_value=by_value)
        for rows in row_subsets(bin_, rng):
            assert_terms_account_for_mask(bin_, variant, image_self, rows, by_value)
    for _ in range(10):
        samples = [rendered_sample(rng) for _ in range(3)]
        starts = np.cumsum([0] + [sample.d for sample in samples[:-1]])
        targets = np.concatenate([at + target_rows(sample) for at, sample in zip(starts, samples)])
        assert_terms_account_for_mask([sample.tags for sample in samples], variant, image_self, targets, by_value)


def assert_views_read_positions(layout):
    """Each term's row view, applied to the layout's ``rows`` as a column,
    and its key view, applied to its ``keys``, are views that give exactly
    ``layout.positions(term)``: for a layout in order, to ``np.arange(d)``."""
    assert len(layout.views) == len(layout.terms)
    for term, (row_view, key_view) in zip(layout.terms, layout.views):
        for view, order, expected in zip((row_view, key_view), (layout.rows, layout.keys), layout.positions(term)):
            column = order[:, None]
            got = view(column)
            assert got.shape == (*expected.shape, 1) and np.array_equal(got[..., 0], expected)
            assert np.shares_memory(got, column)


@BY_VALUE
@pytest.mark.parametrize(("variant", "image_self"), CONFIGS)
def test_term_views_read_exactly_the_term_positions(variant, image_self, by_value):
    """On random sequences and bins, their layouts in order and restricted,
    and the copy task's stacked bin, restricted to its target rows."""
    rng = np.random.default_rng(2441)
    for _ in range(60):
        seqs = random_layout(rng) if rng.random() < 0.5 else [random_layout(rng) for _ in range(3)]
        layout = build_layout(seqs, as_given(variant, by_value), image_self)
        in_order = dataclasses.replace(layout, rows=np.arange(layout.d), keys=np.arange(layout.d))
        for part in (layout, in_order):
            assert_views_read_positions(part)
            for rows in row_subsets(seqs, rng):
                assert_views_read_positions(part.restrict(rows))
    samples, _ = make_copy_task(ModelConfig(variant=variant, image_self=image_self))
    layout = build_layout([sample.tags for sample in samples], as_given(variant, by_value), image_self)
    targets = np.concatenate([i * samples[0].d + target_rows(sample) for i, sample in enumerate(samples)])
    assert any(term.stack == 8 for term in layout.terms)
    assert_views_read_positions(layout)
    assert_views_read_positions(layout.restrict(targets))


@settings(max_examples=100, deadline=None)
@given(
    segments=_segments,
    picks=st.lists(st.integers(0, 63), min_size=1, max_size=8),
    others=st.lists(_segments, max_size=3),
)
@example(segments=[(T, 5)], picks=[4], others=[])  # text-only
@example(segments=[(I, 4)], picks=[1, 2], others=[])  # image-only, part of the block
@example(segments=[(I, 2), (I, 3), (T, 2)], picks=[0, 1, 3, 6], others=[])  # adjacent blocks
@example(segments=[(I, 1), (T, 1), (I, 1), (I, 1), (T, 2)], picks=[1, 5], others=[])  # 1-token blocks
@example(segments=[(T, 1)], picks=[0], others=[])  # d=1
@example(segments=[(I, 1)], picks=[0], others=[])  # d=1, image
@example(segments=[(T, 3), (I, 2), (T, 2)], picks=[0, 3, 6], others=[])  # text before the first image
# mixed sizes
@example(segments=[(I, 3), (I, 3), (I, 2), (T, 1), (I, 3), (T, 2)], picks=[0, 4, 9], others=[])
# a partly kept block in the middle of a stack
@example(segments=[(I, 3), (I, 3), (I, 3), (T, 1)], picks=[0, 1, 2, 4, 6, 7, 8], others=[])
# bins: a text-only sample then an image-only one, whose block stacks with the next sample's
@example(segments=[(T, 4)], picks=[3, 5], others=[[(I, 2)], [(I, 2), (T, 3)]])
# 1-token blocks in every sample, text before the first image of the second
@example(segments=[(I, 1), (T, 2)], picks=[0, 2, 5], others=[[(T, 2), (I, 1), (T, 1)], [(I, 1)]])
# a partly kept block of a stack that spans two samples
@example(segments=[(T, 1), (I, 3)], picks=[0, 2, 4, 6], others=[[(I, 3), (T, 2)]])
def test_edge_layout_terms_account_for_every_allowed_edge_once(segments, picks, others):
    seq = build_sequence(segments)
    rows = sorted({pick % seq.d for pick in picks})
    for config in CONFIGS:
        assert_terms_account_for_mask(seq, *config)
        assert_terms_account_for_mask(seq, *config, rows)
        assert_terms_account_for_mask(seq, *config, list(range(seq.d)))
    bin_ = [seq, *map(build_sequence, others)]
    d = sum(s.d for s in bin_)
    for config in CONFIGS:  # the same sequence first in a bin of up to four
        assert_terms_account_for_mask(bin_, *config)
        assert_terms_account_for_mask(bin_, *config, sorted({pick % d for pick in picks}))


def image_rows(seqs, variant):
    """The number of image rows that lead a layout of ``seqs``: each of its
    per-sequence terms (text rows over text keys, or a staircase step)
    starts after them."""
    if variant is AttentionVariant.CAUSAL_ONLY:
        return 0
    return sum(int(seq.is_image().sum()) for seq in seqs)


def per_sequence_terms(layout, seqs):
    return [t for t in layout.terms if t.rows.start >= image_rows(seqs, layout.variant)]


def image_terms(layout, seqs):
    return [t for t in layout.terms if t.rows.start < image_rows(seqs, layout.variant)]


def runs_of(seqs):
    """(sequence, count) for each run of adjacent equal sequences."""
    return [(seq, len(list(run))) for seq, run in itertools.groupby(seqs)]


def moved_terms(seqs, variant, image_self):
    """Each sequence's own per-sequence terms, moved to where a bin of
    ``seqs`` lays out that sequence's text rows and image keys."""
    img_at, text_at, terms = 0, image_rows(seqs, variant), []
    for seq in seqs:
        n_img = image_rows([seq], variant)
        for t in per_sequence_terms(build_layout(seq, variant, image_self), [seq]):
            row_at = text_at - n_img
            key_at = row_at if t.keys.start >= n_img else img_at  # text or image keys
            terms.append(t._replace(rows=slice(t.rows.start + row_at, t.rows.stop + row_at),
                                    keys=slice(t.keys.start + key_at, t.keys.stop + key_at)))
        img_at, text_at = img_at + n_img, text_at + seq.d - n_img
    return terms


def assert_same_terms(terms, expected):
    assert [(t.rows, t.keys, t.stack, t.cross, t.row_part, t.key_part) for t in terms] == [
        (t.rows, t.keys, t.stack, t.cross, t.row_part, t.key_part) for t in expected
    ]
    for t, e in zip(terms, expected):
        assert t.limit is e.limit is None or np.array_equal(forbid(t), forbid(e))


@settings(max_examples=100, deadline=None)
@given(seqs=st.lists(_segments.map(build_sequence), min_size=1, max_size=4))
@example(seqs=[build_sequence([(T, 2), (I, 3), (T, 1)])] * 2)  # equal neighbours are dropped below
def test_sequences_without_equal_neighbours_keep_their_own_terms(seqs):
    """A single sequence, and a bin in which no two adjacent sequences are
    equal, lay out every sequence's text and staircase terms as that
    sequence alone does: stacks of one block, moved to its place."""
    distinct = [seq for seq, _ in runs_of(seqs)]
    for variant, image_self in CONFIGS:
        for bin_ in [*([seq] for seq in distinct), distinct]:
            layout = build_layout(bin_, variant, image_self)
            assert all(t.row_part == t.key_part == slice(None) for t in image_terms(layout, bin_))
            assert all(t.stack == 1 for t in per_sequence_terms(layout, bin_))
            assert_same_terms(per_sequence_terms(layout, bin_), moved_terms(bin_, variant, image_self))


def test_paper_shaped_bin_keeps_each_samples_terms():
    """A bin of 1, 2 and 4 images of 256 tokens: one stack of its seven
    image blocks, then each sample's own text and staircase terms."""
    rounds = [Round((f"{n}.{i}",), f"what is in image {i}", "a picture of a cat") for n in (1, 2, 4)
              for i in range(n)]
    convs = [Conversation("look", tuple(rounds[:1])), Conversation("look", tuple(rounds[1:3])),
             Conversation("look", tuple(rounds[3:]))]
    layout = LayoutConfig(image_token_count=256, max_sequence_length=4096)
    bin_ = [render(conv, HashTokenizer(32), layout).tags for conv in convs]
    assert [sum(seq.is_image()) for seq in bin_] == [256, 512, 1024]
    for variant, image_self in CONFIGS:
        packed = build_layout(bin_, variant, image_self)
        assert_same_terms(per_sequence_terms(packed, bin_), moved_terms(bin_, variant, image_self))
        stacks = [t.stack for t in image_terms(packed, bin_)]
        if variant is AttentionVariant.CAUSAL_ONLY:
            assert stacks == []
        else:  # seven 256-token blocks, or 1792 one-token blocks
            assert stacks == ([7] if image_self == "block" else [1792])
        assert len(packed.terms) == (3 if variant is AttentionVariant.CAUSAL_ONLY else 11)


_run = st.tuples(_segments, st.integers(1, 4))
# runs of equal sequences: one of 2-4 between up to two runs of 1-4 on either side
_run_bins = st.tuples(
    st.lists(_run, max_size=2), st.tuples(_segments, st.integers(2, 4)), st.lists(_run, max_size=2)
)


@settings(max_examples=60, deadline=None)
@given(
    runs=_run_bins,
    picks=st.lists(st.integers(0, 255), min_size=1, max_size=8),
    config_index=st.integers(0, len(CONFIGS) - 1),
    seed=st.integers(0, 2**16),
)
# the copy task's shape: one image between text, eight times
@example(runs=([], ([(T, 6), (I, 4), (T, 10)], 8), []), picks=[18, 19], config_index=2, seed=0)
# text before the first image, two staircase steps, image blocks that stack across runs
@example(runs=([([(I, 2), (T, 3)], 1)], ([(T, 1), (I, 2), (T, 2), (I, 1), (T, 2)], 3), [([(I, 2)], 2)]),
         picks=[0, 3, 5, 8], config_index=5, seed=1)
# text-only and image-only runs
@example(runs=([([(T, 3)], 2)], ([(I, 3)], 2), [([(T, 2)], 1)]), picks=[1, 2], config_index=4, seed=2)
def test_runs_of_equal_sequences_stack_their_terms(runs, picks, config_index, seed):
    """In a bin, each run of adjacent equal sequences lays out one set of
    text and staircase terms, each stacked over the run (a stack of one for
    a run of one); every allowed edge lies in exactly one term, for the full layout
    and restricted to the same rows of every sequence or to scattered rows,
    and the stacked terms stay stacked when every sequence keeps the same
    rows; the kernel's output, VJP and weights match the dense reference."""
    before, middle, after = runs
    bin_ = [build_sequence(segments) for segments, count in [*before, middle, *after]
            for _ in range(count)]
    starts = np.cumsum([0] + [seq.d for seq in bin_])
    same = sorted({int(at) + pick % seq.d for seq, at in zip(bin_, starts) for pick in picks})
    scattered = sorted({pick % int(starts[-1]) for pick in picks})
    for variant, image_self in CONFIGS:
        layout = build_layout(bin_, variant, image_self)
        expected = [count for seq, count in runs_of(bin_)
                    for _ in per_sequence_terms(build_layout(seq, variant, image_self), [seq])]
        assert [t.stack for t in per_sequence_terms(layout, bin_)] == expected
        assert_terms_account_for_mask(bin_, variant, image_self)
        for rows in (same, scattered):
            assert_terms_account_for_mask(bin_, variant, image_self, rows)
        # one restricted term for each per-sequence term that reads a kept row
        reading = [t for t in per_sequence_terms(layout, bin_) if np.isin(layout.positions(t)[0], same).any()]
        restricted = layout.restrict(same)
        kept_image_rows = int(np.isin(layout.rows[: image_rows(bin_, variant)], same).sum())
        stacks = [t.stack for t in restricted.terms if t.rows.start >= kept_image_rows]
        assert stacks == [t.stack for t in reading]
    variant, image_self = CONFIGS[config_index]
    config = ModelConfig(variant=variant, num_heads=2, model_dim=6, image_self=image_self)
    for rows in (None, same, scattered):
        assert max(max_gaps(config, bin_, seed, rows)) <= TOLERANCE


@pytest.mark.parametrize(("variant", "full", "last"), [("causal", 1, 1), ("cross", 3, 2), ("mmca", 3, 2)])
def test_copy_bin_stacks_its_eight_samples_terms(variant, full, last):
    """The copy task's eight samples share one structure, so its bin runs
    one term per kind, each a stack of eight: the image blocks, text rows
    over text keys and one staircase step (causal: one term); the last
    block's layout, restricted to the target rows, keeps the text term
    and the staircase step stacked."""
    samples, _ = make_copy_task(ModelConfig(variant=variant))
    assert len(samples) == 8 and len({sample.tags for sample in samples}) == 1
    layout = build_layout([sample.tags for sample in samples], variant)
    targets = np.concatenate([i * samples[0].d + target_rows(sample) for i, sample in enumerate(samples)])
    assert [t.stack for t in layout.terms] == [8] * full
    assert [t.stack for t in layout.restrict(targets).terms] == [8] * last


def flat_layout(seqs, variant, image_self="block"):
    """The layout of a bin of ``seqs`` with every sequence's text and
    staircase terms flat, as a bin without equal neighbours lays them out."""
    layout = build_layout(seqs, variant, image_self)
    terms = (*image_terms(layout, seqs), *moved_terms(seqs, variant, image_self))
    return dataclasses.replace(layout, terms=terms)


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_stacked_bin_matches_flat_terms_bit_for_bit_and_sums_its_samples(monkeypatch, variant):
    """A training pass over a bin with runs of equal samples (the copy
    task's eight, then one rendered chat three times and another once)
    gives bit for bit what it gives with every sample's terms flat, and the
    sum of the samples' own passes within one rounding per sample, relative
    to the largest entry: the bin adds the samples' parts in another order."""
    config = ModelConfig(variant=variant)
    copies, ids = make_copy_task(config)
    rng = np.random.default_rng(14)
    chat, other = (render(random_conversation(rng), HashTokenizer(config.vocab_size), config.layout())
                   for _ in range(2))
    samples = [*copies, chat, chat, chat, other]
    seqs = [sample.tags for sample in samples]
    assert [count for _, count in runs_of(seqs)] == [8, 3, 1]
    assert len(flat_layout(seqs, variant).terms) > len(build_layout(seqs, variant).terms)
    model = make_model(config, seed=0, known_images=tuple(i for s in samples for i in s.image_ids))
    loss, grads = _bin_loss_and_grads(model, samples)
    monkeypatch.setattr(toy_model_module, "build_layout", flat_layout)
    # an empty plan cache of this test's own: the flat pass builds its plan
    # rather than reuse the stacked one, and no flat plan outlives the test
    plans = toy_model_module._make_plan.cache_info().maxsize
    monkeypatch.setattr(toy_model_module, "_make_plan",
                        functools.lru_cache(maxsize=plans)(toy_model_module._make_plan.__wrapped__))
    flat_loss, flat_grads = _bin_loss_and_grads(model, samples)
    assert loss == flat_loss and all(np.array_equal(grads[name], flat_grads[name]) for name in grads)
    alone = [loss_and_param_grads(model, sample) for sample in samples]
    pairs = [(loss, [one for one, _ in alone]), *((grads[n], [g[n] for _, g in alone]) for n in grads)]
    for got, parts in pairs:
        total = sum(parts)
        assert np.abs(got - total).max() <= len(samples) * np.finfo(float).eps * np.abs(total).max()


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_restrict_to_every_row_is_bit_identical(variant):
    rng = np.random.default_rng(11)
    sample = rendered_sample(rng, image_token_count=3)
    layout = build_layout(sample.tags, variant)
    everything = layout.restrict(np.arange(sample.d))
    q, k, v, kx, vx = (rng.standard_normal((2, sample.d, 4)) for _ in range(5))
    out, saved = segment_attention(layout, 0.5, q, k, v, kx, vx)
    out_all, saved_all = segment_attention(everything, 0.5, q, k, v, kx, vx)
    assert np.array_equal(out, out_all)
    dout = rng.standard_normal(out.shape)
    grads = segment_attention_vjp(saved, dout)
    grads_all = segment_attention_vjp(saved_all, dout)
    assert grads.keys() == grads_all.keys()
    assert all(np.array_equal(grads[name], grads_all[name]) for name in grads)
    for empty in ([], np.array([], dtype=int)):
        with pytest.raises(ValueError, match="at least one row"):
            layout.restrict(empty)
    with pytest.raises(ValueError, match=r"rows must lie in \[0, "):
        layout.restrict([sample.d])


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_restrict_takes_only_integer_rows(variant):
    """A boolean mask or float rows are rejected by dtype rather than read
    as the positions 0 and 1 or truncated; integer lists, ranges and
    arrays of any integer width are positions."""
    layout = build_layout(build_sequence([(I, 2), (T, 3)]), variant)
    for rows, dtype in (([False, False, True, False, True], "bool"), (np.array([2.7, 4.2]), "float64")):
        with pytest.raises(ValueError, match=f"rows must be integer positions, got dtype {dtype}"):
            layout.restrict(rows)
    for rows in ([2, 4], range(2, 5, 2), np.array([2, 4], dtype=np.int32), np.array([2, 4], dtype=np.uint8)):
        assert layout.restrict(rows).rows.tolist() == [2, 4]


@BY_VALUE
@pytest.mark.parametrize(("variant", "image_self"), CONFIGS)
def test_restricted_layout_matches_full_layout_on_kept_rows(variant, image_self, by_value):
    """On the kept rows the restricted kernel gives the full kernel's output,
    zero elsewhere, and its VJP the full VJP of a ``dout`` that is zero off
    the kept rows."""
    rng = np.random.default_rng(12)
    for trial in range(40):
        sample = rendered_sample(rng)
        seq = sample.tags
        layout = build_layout(seq, as_given(variant, by_value), image_self)
        for rows in [target_rows(sample), *row_subsets(seq, rng)]:
            restricted = layout.restrict(rows)
            q, k, v, kx, vx = (rng.standard_normal((2, seq.d, 3)) for _ in range(5))
            out, saved = segment_attention(layout, 0.7, q, k, v, kx, vx)
            part, part_saved = segment_attention(restricted, 0.7, q, k, v, kx, vx)
            off = np.ones(seq.d, dtype=bool)
            off[rows] = False
            assert not part[:, off].any()
            assert np.abs(part[:, rows] - out[:, rows]).max() <= TOLERANCE
            dout = rng.standard_normal(out.shape)
            dout[:, off] = 0.0
            grads = segment_attention_vjp(saved, dout)
            part_grads = segment_attention_vjp(part_saved, dout)
            for name in grads:
                assert np.abs(part_grads[name] - grads[name]).max() <= TOLERANCE, (trial, name)


def test_prebuilt_layout_reused_and_checked():
    seq = build_sequence([(I, 2), (T, 3)])
    rng = np.random.default_rng(0)
    params = init_multi_head_params(AttentionVariant.MMCA, 2, 4, rng)
    x = rng.standard_normal((5, 4))
    layout = build_layout(seq, AttentionVariant.MMCA)
    out, saved = multi_head_forward(x, params, layout)
    assert saved.layout is layout
    rebuilt = build_layout(seq, AttentionVariant.MMCA)
    assert np.array_equal(out, multi_head_forward(x, params, rebuilt)[0])
    with pytest.raises(ValueError, match="row count"):
        multi_head_input_vjp(params, saved, np.ones((4, 4)))


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_saved_attention_is_the_whole_pass_state(variant):
    """The kernel returns one frozen ``SavedAttention`` holding its layout,
    scale and given inputs in the layout's order (Q along ``rows``, the rest
    along ``keys``), one (E, total, O) per term; the multi-head wrapper
    returns that object, whose inputs are the per-head projections in that
    order."""
    seq = build_sequence([(T, 1), (I, 2), (T, 2)])
    layout = build_layout(seq, variant)
    rng = np.random.default_rng(9)
    q, k, v, kx, vx = (rng.standard_normal((5, 2)) for _ in range(5))
    cross = {"kx": kx, "vx": vx} if layout.reads_cross else {}
    _, saved = segment_attention(layout, 0.3, q, k, v, **cross)
    assert saved.layout is layout and saved.scale == 0.3
    assert saved.inputs.keys() == {"q", "k", "v", *cross}
    for name, a in {"q": q, "k": k, "v": v, **cross}.items():
        order = layout.rows if name == "q" else layout.keys
        assert np.array_equal(saved.inputs[name], a[order])
    assert len(saved.terms) == len(layout.terms)
    with pytest.raises(dataclasses.FrozenInstanceError):
        saved.scale = 1.0
    params = init_multi_head_params(variant, 2, 4, rng)
    x = rng.standard_normal((5, 4))
    _, heads = multi_head_forward(x, params, layout)
    assert type(heads) is SavedAttention and heads.scale == 1.0 / math.sqrt(2)
    assert np.array_equal(heads.inputs["q"], (x @ params.wq)[:, layout.rows])
    assert heads.inputs.keys() == {"q", "k", "v", *cross}


def _is_basic(index):
    parts = index if isinstance(index, tuple) else (index,)
    return all(p is Ellipsis or p is None or isinstance(p, (slice, int, np.integer)) for p in parts)


class IndexRecorder(np.ndarray):
    """An array that logs every index taken of it, or of any array computed
    from it, into ``log`` as (``name``, whether the index is basic: slices,
    ``Ellipsis``, ``None`` and ints only), and every reshape into
    ``reshapes`` as ``name``. ``name`` is the kernel input an array was
    given as, and ``None`` for arrays computed from one."""

    log = []
    reshapes = []

    def __array_finalize__(self, obj):
        self.name = None

    def __getitem__(self, index):
        IndexRecorder.log.append((self.name, _is_basic(index)))
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        IndexRecorder.log.append((self.name, _is_basic(index)))
        super().__setitem__(index, value)

    def reshape(self, *shape, **kwargs):
        IndexRecorder.reshapes.append(self.name)
        return super().reshape(*shape, **kwargs)


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_kernel_gathers_each_input_once_and_slices_every_term(variant):
    """The forward pass takes at most one integer-array index of each input
    (its gather into the layout's order) and none of an input whose side of
    the layout is already in order (Q: the rows; the rest: the keys); the
    VJP takes at most one of ``dout``, none when the rows are in order.
    Every other index of them or of anything computed from them, per term
    or not, is basic. A one-block term takes one index of each input it
    reads and no reshape; a stack slices, reshapes and cuts out its part.
    The outputs and gradients land in fresh arrays."""
    seq = build_sequence([(T, 2), (I, 3), (T, 1), (I, 3), (I, 2), (T, 2), (I, 3), (T, 1)])
    rng = np.random.default_rng(10)

    def recorded(name, shape):
        a = rng.standard_normal(shape).view(IndexRecorder)
        a.name = name
        return a

    layout = build_layout(seq, variant)
    positions = np.arange(seq.d)
    in_order = dataclasses.replace(layout, rows=positions, keys=positions)  # as the toy model runs it
    assert in_order.gathers == (None, None)
    assert all(order is None for order in layout.gathers) is (variant is AttentionVariant.CAUSAL_ONLY)
    names = ("q", "k", "v", "kx", "vx") if layout.reads_cross else ("q", "k", "v")
    for part in (layout, layout.restrict([3, 5, 6, 9, 10, 13]), in_order, in_order.restrict([3, 5, 13])):
        rows, keys = (order is not None for order in part.gathers)
        stacks = sum(term.stack > 1 for term in part.terms)
        IndexRecorder.log.clear()
        IndexRecorder.reshapes.clear()
        out, saved = segment_attention(part, 0.5, **{name: recorded(name, (2, seq.d, 3)) for name in names})
        gathered = sorted(name for name, basic in IndexRecorder.log if not basic)
        assert gathered == sorted(name for name in names if (rows if name == "q" else keys))
        # every term reads Q and its K, V (or Kx, Vx) by slices: once each for one block, twice for a stack
        assert len(IndexRecorder.log) == len(gathered) + 3 * (len(part.terms) + stacks)
        assert len(IndexRecorder.reshapes) == 3 * stacks
        IndexRecorder.log.clear()
        IndexRecorder.reshapes.clear()
        segment_attention_vjp(saved, recorded("dout", out.shape))
        assert [name for name, basic in IndexRecorder.log if not basic] == (["dout"] if rows else [])
        assert len(IndexRecorder.log) > 2 * len(part.terms)
        assert len(IndexRecorder.reshapes) == 4 * stacks  # Q, K, V and dout: no reshape for one block
        if part is in_order:  # in order on both sides: no integer-array index at all
            assert gathered == []
    assert variant is AttentionVariant.CAUSAL_ONLY or len(layout.terms) >= 6
    assert [term.stack for term in layout.terms].count(2) == (variant is not AttentionVariant.CAUSAL_ONLY)


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_model_passes_gather_only_the_restricted_last_q(monkeypatch, variant):
    """The toy model keeps each bin in its layout's order for the whole
    pass: in a training step and in scoring, the kernel takes no
    integer-array index of K/V (or Kx/Vx) in any layer, and of Q only in
    the training pass's last block, which runs on the target rows alone."""
    real_project = attn_module._project_heads
    layers = []

    def recording_project(x, params, layout):
        layers.append(layout)
        heads = real_project(x, params, layout)
        for name, a in heads.items():
            heads[name] = a.view(IndexRecorder)
            heads[name].name = (len(layers) - 1, name)
        return heads

    def gathered():  # (layer, input) of every integer-array index of a projected head
        return {name for name, basic in IndexRecorder.log if name is not None and not basic}

    monkeypatch.setattr(attn_module, "_project_heads", recording_project)
    config = ModelConfig(variant=variant, num_layers=3, image_token_count=3)
    tokenizer = HashTokenizer(config.vocab_size)
    chat = Conversation("look", (
        Round(("a", "b"), "compare them", "the first is red"),
        Round((), "and now", "still red"),
        Round(("c",), "and this one", "blue"),
    ))
    other = Conversation("s", (Round(("d",), "q w", "x y"),))
    samples = [render(conv, tokenizer, config.layout()) for conv in (chat, other, chat)]
    model = make_model(config, seed=0, known_images=("a", "b", "c", "d"))
    IndexRecorder.log.clear()
    train_step(model, samples, OptimState(total_steps=1))
    assert len(layers) == 3 and gathered() == {(2, "q")}
    layers.clear()
    IndexRecorder.log.clear()
    toy_model_module.forward(model, samples[0])
    assert len(layers) == 3 and IndexRecorder.log and gathered() == set()


def test_vjp_holds_its_score_gradient_one_row_chunk_at_a_time():
    """A term's rows x keys score gradient is formed in row chunks of at
    most ``_SCRATCH_SIZE`` entries, so the VJP's peak allocation stays
    within two chunks although the image stack here (2 heads x 3 blocks of
    256 x 256) is three chunks' worth."""
    import tracemalloc

    seq = build_sequence([(I, 256), (I, 256), (I, 256), (T, 3)])
    layout = build_layout(seq, AttentionVariant.MMCA)
    rng = np.random.default_rng(13)
    q, k, v = (rng.standard_normal((2, seq.d, 2)) for _ in range(3))
    _, saved = segment_attention(layout, 0.5, q, k, v)
    dout = rng.standard_normal((2, seq.d, 2))
    chunk = 8 * attn_module._SCRATCH_SIZE
    assert max(e.nbytes for e, _, _ in saved.terms) > 2 * chunk
    tracemalloc.start()
    try:
        segment_attention_vjp(saved, dout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * chunk, (peak, chunk)


@pytest.mark.parametrize("scratch_size", [1, 7, 40])
def test_vjp_in_row_chunks_matches_dense_reference(monkeypatch, scratch_size):
    """With a score-gradient buffer smaller than the terms, the VJP takes
    each term's rows in chunks (one row at a time for a buffer of one
    entry) and still matches the dense reference."""
    monkeypatch.setattr(attn_module, "_SCRATCH_SIZE", scratch_size)
    rng = np.random.default_rng(2311)
    for variant, image_self in CONFIGS:
        config = ModelConfig(variant=variant, num_heads=2, model_dim=4, image_self=image_self)
        for trial in range(25):
            assert max(max_gaps(config, random_layout(rng), seed=trial)) <= TOLERANCE


@pytest.mark.filterwarnings("error")
def test_nonfinite_inputs_and_scores_rejected():
    seq = build_sequence([(I, 2), (T, 2)])
    layout = build_layout(seq, AttentionVariant.MMCA)
    ok = np.ones((4, 2))
    bad = ok.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="K contains non-finite"):
        segment_attention(layout, 1.0, ok, bad, ok)
    with pytest.raises(ValueError, match="4 rows"):
        segment_attention(layout, 1.0, ok[:3], ok[:3], ok[:3])
    with pytest.raises(ValueError, match="equal shapes"):
        segment_attention(layout, 1.0, ok, ok, np.ones((4, 3)))
    cross = build_layout(seq, AttentionVariant.CAUSAL_PLUS_CROSS)
    with pytest.raises(ValueError, match="Kx and Vx"):
        segment_attention(cross, 1.0, ok, ok, ok)
    huge = np.full((4, 2), 1e200)
    with pytest.raises(ValueError, match="output contains non-finite"):
        segment_attention(layout, 1.0, huge, huge, ok)


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_overflowing_scores_and_bad_dout_rejected(variant):
    seq = build_sequence([(T, 1), (I, 2), (T, 2)])
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 4))
    params = init_multi_head_params(variant, 2, 4, rng)
    layout = build_layout(seq, variant)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="output contains non-finite"
    ):
        multi_head_forward(1e200 * x, params, layout)
    q, k, v, kx, vx = (rng.standard_normal((5, 2)) for _ in range(5))
    cross = (kx, vx) if layout.reads_cross else ()
    _, saved = segment_attention(layout, 1.0, q, k, v, *cross)
    for wrong in (np.ones((4, 2)), np.ones((5, 3)), np.ones((1, 5, 2)), np.ones(10)):
        with pytest.raises(ValueError, match=r"dout must have the output's shape \(5, 2\)"):
            segment_attention_vjp(saved, wrong)
    for value in (np.nan, np.inf, -np.inf):
        dout = np.ones((5, 2))
        dout[3, 1] = value
        with pytest.raises(ValueError, match="dout contains non-finite values"):
            segment_attention_vjp(saved, dout)


def test_empty_support_and_forbidden_edges_exactly_zero():
    # text row 0 precedes every image: its image term has empty support
    seq = build_sequence([(T, 1), (I, 2), (T, 2)])
    layout = build_layout(seq, AttentionVariant.MMCA)
    rng = np.random.default_rng(1)
    q, k, v = (rng.standard_normal((5, 3)) for _ in range(3))
    out, saved = segment_attention(layout, 0.5, q, k, v)
    assert np.array_equal(out[0], v[0])
    dout = np.zeros((5, 3))
    dout[0] = rng.standard_normal(3)
    dout[1] = rng.standard_normal(3)  # image row: reads only its block
    grads = segment_attention_vjp(saved, dout)
    assert not grads["v"][3:].any() and not grads["k"][3:].any()
    assert not grads["q"][3:].any()


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_attention_weights_keep_leading_head_axes(variant):
    seq = build_sequence([(T, 2), (I, 3), (T, 1), (I, 3), (I, 1), (T, 2)])
    layout = build_layout(seq, variant)
    rng = np.random.default_rng(7)
    inputs = [rng.standard_normal((2, 3, seq.d, 4)) for _ in range(5)]
    _, saved = segment_attention(layout, 0.5, *inputs)
    text, image = attention_weights(saved)
    assert text.shape == image.shape == (2, 3, seq.d, seq.d)
    for index in np.ndindex(2, 3):
        one_head = dataclasses.replace(
            saved,
            inputs={name: a[index] for name, a in saved.inputs.items()},
            terms=tuple((e[index], total[index], o[index]) for e, total, o in saved.terms),
        )
        head_text, head_image = attention_weights(one_head)
        assert np.array_equal(text[index], head_text)
        assert np.array_equal(image[index], head_image)


class ScoreRecorder:
    """Records, per ``multi_head_forward`` call the toy model makes (one per
    layer), its layout and the shape of every score buffer the kernel
    exponentiates, and counts ``build_layout`` calls; the dense mask
    builder raises."""

    def __init__(self, monkeypatch):
        self.layers, self.layouts, self.built = [], [], 0

        def forbidden(*args, **kwargs):
            raise AssertionError("dense mask machinery on the hot path")

        real_exp, real_forward = attn_module._exp_in_place, toy_model_module.multi_head_forward
        real_layout = mask_module.build_layout

        def recording_exp(scores, limit):
            self.layers[-1].append(scores.shape)
            return real_exp(scores, limit)

        def recording_forward(x, params, layout):
            self.layouts.append(layout)
            self.layers.append([])
            return real_forward(x, params, layout)

        def counting_layout(*args):
            self.built += 1
            return real_layout(*args)

        monkeypatch.setattr(mask_module, "build_mask", forbidden)
        monkeypatch.setattr(attn_module, "_exp_in_place", recording_exp)
        monkeypatch.setattr(toy_model_module, "multi_head_forward", recording_forward)
        monkeypatch.setattr(toy_model_module, "build_layout", counting_layout)

    def clear(self):
        self.layers.clear()
        self.layouts.clear()
        self.built = 0


def test_hot_path_builds_no_dense_mask(monkeypatch):
    recorder = ScoreRecorder(monkeypatch)
    for variant in AttentionVariant:
        config = ModelConfig(variant=variant)
        samples, ids = make_copy_task(config, num_images=3)
        model = make_model(config, seed=0, known_images=ids)
        toy_model_module._make_plan.cache_clear()  # another test may have planned these bins
        recorder.clear()
        train_step(model, samples, OptimState(total_steps=2))
        # the three samples fit one bin: one layout, not one per sample, layer, head or pass
        assert recorder.built == 1
        # one softmax per term of each block's layout, all in the forward pass:
        # the VJP takes none; the last block's layout keeps every sample's target rows
        full = mask_module.build_layout([sample.tags for sample in samples], variant)
        starts = np.cumsum([0] + [sample.d for sample in samples[:-1]])
        last = full.restrict(np.concatenate([at + target_rows(s) for at, s in zip(starts, samples)]))
        expected = [len(full.terms)] * (config.num_layers - 1) + [len(last.terms)]
        assert [len(layout.terms) for layout in recorder.layouts] == expected
        assert [len(shapes) for shapes in recorder.layers] == expected
        d = samples[0].d
        shapes = [shape[-2:] for layer in recorder.layers for shape in layer]
        # no term is as wide as a sample: causal's per-sample terms are the d x d prefix
        assert shapes and all(shape[-1] <= d for shape in shapes)
        if variant is not AttentionVariant.CAUSAL_ONLY:
            assert all(shape != (d, d) for shape in shapes)
        toy_model_module._make_plan.cache_clear()
        recorder.clear()
        loss_and_param_grads(model, samples[0])
        assert recorder.built == 1
        alone = mask_module.build_layout(samples[0].tags, variant)
        alone_last = alone.restrict(target_rows(samples[0]))
        assert [len(shapes) for shapes in recorder.layers] == (
            [len(alone.terms)] * (config.num_layers - 1) + [len(alone_last.terms)]
        )
        # a bin is planned once: repeating the pass builds no layout
        recorder.clear()
        loss_and_param_grads(model, samples[0])
        assert recorder.built == 0
    # a batch past the bin capacity takes one layout per bin: 205 samples of
    # 20 positions fill a bin of 204 (4080 of 4096 positions) and one of 1
    config = ModelConfig()
    samples, ids = make_copy_task(config, num_images=205)
    assert {sample.d for sample in samples} == {20} and config.layout().max_sequence_length == 4096
    toy_model_module._make_plan.cache_clear()
    recorder.clear()
    train_step(make_model(config, seed=0, known_images=ids), samples, OptimState(total_steps=2))
    assert recorder.built == 2
    assert [layout.d for layout in recorder.layouts] == [4080] * config.num_layers + [20] * config.num_layers


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_last_block_scores_only_the_target_rows(monkeypatch, variant):
    """The work the training speed rests on, as a count: in one
    ``loss_and_param_grads`` on a multi-round, multi-image chat, every
    block but the last computes the full layout's score buffers, and the
    last computes scores for exactly the target rows, with no image-block
    term."""
    recorder = ScoreRecorder(monkeypatch)
    config = ModelConfig(variant=variant, num_layers=3, image_token_count=3)
    conv = Conversation("look", (
        Round(("a", "b"), "compare them", "the first is red"),
        Round((), "and now", "still red"),
        Round(("c",), "and this one", "blue"),
    ))
    sample = render(conv, HashTokenizer(config.vocab_size), config.layout())
    model = make_model(config, seed=0, known_images=("a", "b", "c"))
    loss_and_param_grads(model, sample)
    full = mask_module.build_layout(sample.tags, variant)
    heads = (config.num_heads,)
    full_positions = [full.positions(t) for t in full.terms]
    full_shapes = [heads + rows.shape + keys.shape[-1:] for rows, keys in full_positions]
    *early, last = recorder.layers
    assert early == [full_shapes] * (config.num_layers - 1)
    targets = target_rows(sample)
    last_layout = recorder.layouts[-1]
    last_positions = [last_layout.positions(t) for t in last_layout.terms]
    # the pass runs in the layout's order: its position p is sequence position order[p]
    order = full.keys
    assert all(t.stack == 1 for t in last_layout.terms)  # no image-block stack is left
    assert not sample.tags.is_image()[order[np.concatenate([rows.ravel() for rows, _ in last_positions])]].any()
    assert last == [heads + (1, rows.size, keys.size) for rows, keys in last_positions]
    # every target row reads text keys in one term and, after the first
    # image (every target here), image keys in one more: no other row is scored
    key_rows = [order[rows.ravel()] for rows, _ in last_positions]
    assert np.array_equal(np.unique(np.concatenate(key_rows)), targets)
    reads = 1 if variant is AttentionVariant.CAUSAL_ONLY else 2
    assert sum(shape[-2] for shape in last) == reads * targets.size
    assert sum(np.prod(s) for s in last) < sum(np.prod(s) for s in full_shapes)


def nonfinite_cases():
    """Three calls whose result is not finite, each (segments, scale, q, k,
    v, dout): a NaN scale; E @ V overflowing before the division by the row
    total, although the true output is 1e307; and a VJP whose score
    gradient overflows."""
    rng = np.random.default_rng(0)
    normal, zeros = rng.standard_normal((5, 4)), np.zeros((20, 4))
    q, k = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    return [
        ([(I, 2), (T, 3)], math.nan, normal, normal, normal, np.ones((5, 4))),
        ([(T, 20)], 0.5, zeros, zeros, np.full((20, 4), 1e307), np.ones((20, 4))),
        ([(T, 6)], 0.5, q, k, 1e10 * rng.standard_normal((6, 4)), np.full((6, 4), 1e300)),
    ]


def run_pass(layout, scale, q, k, v):
    """``segment_attention``, with K and V also as Kx and Vx when the layout
    reads them."""
    return segment_attention(layout, scale, q, k, v, *((k, v) if layout.reads_cross else ()))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_nonfinite_outputs_and_gradients_rejected(variant):
    nan_scale, overflow, vjp_overflow = nonfinite_cases()
    for segments, scale, q, k, v, _ in (nan_scale, overflow):
        with pytest.raises(ValueError, match="output contains non-finite values"):
            run_pass(build_layout(build_sequence(segments), variant), scale, q, k, v)
    segments, scale, q, k, v, dout = vjp_overflow
    out, saved = run_pass(build_layout(build_sequence(segments), variant), scale, q, k, v)
    assert np.isfinite(out).all()
    with pytest.raises(ValueError, match="the gradient of Q contains non-finite values"):
        segment_attention_vjp(saved, dout)
    # inputs this large pass while their scores (here 4e300) stay finite
    layout = build_layout(build_sequence([(T, 1), (I, 2), (T, 2)]), variant)
    ones = np.ones((2, 5, 1))
    out, saved = run_pass(layout, 1.0, 2e150 * ones, 2e150 * ones, ones)
    assert np.isfinite(out).all()
    assert all(np.isfinite(g).all() for g in segment_attention_vjp(saved, ones).values())


@st.composite
def _kernel_calls(draw):
    """(segments, rows, scale, arrays): a sequence from ``_segments``, rows
    to restrict its layouts to, a scale from {1/sqrt(head_dim), 1e300, NaN,
    inf}, and Q, K, V, Kx, Vx and dout of random normals, each scaled by its
    own 10**e with e in [0, 308]."""
    segments = draw(_segments)
    d = build_sequence(segments).d
    rows = sorted(draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=8, unique=True)))
    head_dim = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1 / math.sqrt(head_dim), 1e300, math.nan, math.inf]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    with np.errstate(over="ignore"):
        arrays = [10.0 ** draw(st.integers(0, 308)) * rng.standard_normal((d, head_dim)) for _ in range(6)]
    return segments, rows, scale, arrays


def as_call(segments, scale, q, k, v, dout):
    """One of ``nonfinite_cases`` as a ``_kernel_calls`` draw, restricted to
    its last row, with K and V also as Kx and Vx."""
    return segments, [q.shape[0] - 1], scale, [q, k, v, k, v, dout]


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@given(call=_kernel_calls())
@example(call=as_call(*nonfinite_cases()[0]))  # a NaN scale
@example(call=as_call(*nonfinite_cases()[1]))  # E @ V overflows before the division
@example(call=as_call(*nonfinite_cases()[2]))  # the VJP's score gradient overflows
def test_no_kernel_call_returns_nonfinite_arrays(call):
    """Under every variant, on the full layout and on it restricted to some
    rows, each ``segment_attention``, ``attention_weights`` and
    ``segment_attention_vjp`` call raises ``ValueError`` or returns only
    finite arrays, without a NumPy warning."""
    segments, rows, scale, (q, k, v, kx, vx, dout) = call
    for variant in AttentionVariant:
        full = build_layout(build_sequence(segments), variant)
        for layout in (full, full.restrict(rows)):
            cross = (kx, vx) if layout.reads_cross else ()
            try:
                out, saved = segment_attention(layout, scale, q, k, v, *cross)
            except ValueError:
                continue
            results = [out, *attention_weights(saved)]
            try:
                results += segment_attention_vjp(saved, dout).values()
            except ValueError:
                pass
            assert all(np.isfinite(a).all() for a in results)


@st.composite
def _multi_head_calls(draw):
    """(segments, rows, seed, x, dout): a sequence from ``_segments``, rows
    to restrict its layouts to, a seed for the weights, and x and dout of
    random normals (d x 4), each scaled by its own 10**e with e in
    [0, 308]."""
    segments = draw(_segments)
    d = build_sequence(segments).d
    rows = sorted(draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=8, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    with np.errstate(over="ignore"):
        x, dout = (10.0 ** draw(st.integers(0, 308)) * rng.standard_normal((d, 4)) for _ in range(2))
    return segments, rows, draw(st.integers(0, 2**16)), x, dout


@settings(max_examples=200, deadline=None)
@given(call=_multi_head_calls())
def test_no_multi_head_call_returns_nonfinite_arrays(call):
    """The multi-head wrapper runs the kernel's cores without their input
    checks, so the cores' output and gradient checks carry the same
    contract: under every variant, on the full layout and on it restricted
    to some rows, each ``multi_head_forward`` and ``multi_head_input_vjp``
    call raises ``ValueError`` or returns only finite arrays."""
    segments, rows, seed, x, dout = call
    for variant in AttentionVariant:
        params = init_multi_head_params(variant, 2, 4, np.random.default_rng(seed))
        full = build_layout(build_sequence(segments), variant)
        for layout in (full, full.restrict(rows)):
            with np.errstate(all="ignore"):  # the projections may overflow before a check
                try:
                    out, saved = multi_head_forward(x, params, layout)
                except ValueError:
                    continue
                results = [out]
                try:
                    results.append(multi_head_input_vjp(params, saved, dout))
                except ValueError:
                    pass
            assert all(np.isfinite(a).all() for a in results)


def test_masked_softmax_shares_allow_across_leading_axes():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal((2, 3, 4))
    allow = rng.random((3, 4)) < 0.5
    allow[0] = False
    batched = masked_softmax(scores, allow)
    for h in range(2):
        assert np.array_equal(batched[h], masked_softmax(scores[h], allow))
    assert not batched[:, 0].any()
    full = masked_softmax(scores, None)
    assert np.array_equal(full, masked_softmax(scores, np.ones((3, 4), dtype=bool)))
    with pytest.raises(ValueError, match="2-d"):
        masked_softmax(scores, np.ones((2, 4), dtype=bool))
    with pytest.raises(ValueError, match="2-d"):
        masked_softmax(np.zeros(3))
    with pytest.raises(ValueError, match="2-d"):
        masked_softmax(np.zeros((2, 2)), np.ones((2, 3), dtype=bool))


def test_masked_softmax_leaves_scores_unchanged():
    rng = np.random.default_rng(4)
    scores = rng.standard_normal((2, 3, 4))
    allow = rng.random((3, 4)) < 0.5
    for mask in (None, allow):
        before = scores.copy()
        masked_softmax(scores, mask)
        assert np.array_equal(scores, before)
