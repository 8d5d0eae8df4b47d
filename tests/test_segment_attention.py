"""The segment-structured kernel against the dense reference.

The reference is ``tests/dense_reference.py``: the dense single-head
functions (``mmca_/causal_/cross_forward`` and their ``_vjp``s over
``build_mask``), composed per head with the output projection here, i.e.
the multi-head path as it was before the kernel existed. It has its own
softmax, so the kernel's softmax is checked too.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmchat.attn as attn_module
import mmchat.mask as mask_module
from mmchat.attn import (
    attention_weights,
    init_multi_head_params,
    multi_head_forward,
    multi_head_input_vjp,
    segment_attention,
    segment_attention_vjp,
)
from mmchat.mask import AttentionVariant, build_layout, build_mask
from mmchat.modseq import TokenKind, build_sequence
from mmchat.toy_model import (
    ModelConfig,
    OptimState,
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

I, T = TokenKind.IMAGE, TokenKind.TEXT
TOLERANCE = 1e-12
CONFIGS = list(
    itertools.product(AttentionVariant, ("block", "diagonal"), (False, True))
)


def head_shape(config):
    """(head_dim, 1/sqrt(head_dim)) of a ``ModelConfig``'s attention."""
    hd = config.model_dim // config.num_heads
    return hd, 1.0 / math.sqrt(hd)


def dense_heads(config, x, params, seq):
    """Per-head (AttentionInputs, CrossParams | None) and the dense mask of
    ``config``, a ``ModelConfig`` whose attention fields set the rule."""
    mask = build_mask(seq, config.variant, config.image_self)
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
            out, _, _ = mmca_forward(inputs, mask, scale, config.normalize_dual_softmax)
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
            g = mmca_vjp(inputs, mask, scale, dh, config.normalize_dual_softmax)
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


def max_gaps(config, seq, seed):
    """(forward gap, input-VJP gap, weight-view gap) between the kernel and
    the reference."""
    rng = np.random.default_rng(seed)
    params = init_multi_head_params(config.variant, config.num_heads, config.model_dim, rng)
    x = rng.standard_normal((seq.d, config.model_dim))
    dout = rng.standard_normal((seq.d, config.model_dim))
    layout = build_layout(seq, config.variant, config.image_self, config.normalize_dual_softmax)
    out, saved = multi_head_forward(x, params, layout)
    fwd = np.abs(out - dense_forward(config, x, params, seq))
    vjp = np.abs(
        multi_head_input_vjp(params, saved, dout)
        - dense_input_vjp(config, x, params, seq, dout)
    )
    views = np.stack(attention_weights(saved.layout, saved.terms), axis=1)  # heads lead
    weights = np.abs(views - dense_weights(config, x, params, seq))
    return float(fwd.max()), float(vjp.max()), float(weights.max())


@pytest.mark.parametrize(("variant", "image_self", "normalize"), CONFIGS)
def test_matches_dense_reference_on_random_layouts(variant, image_self, normalize):
    config = ModelConfig(
        variant=variant, num_heads=2, model_dim=4,
        normalize_dual_softmax=normalize, image_self=image_self,
    )
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
@example(segments=[(I, 4)], config_index=10, seed=1)  # image-only
@example(segments=[(I, 2), (I, 3), (T, 2)], config_index=11, seed=2)  # adjacent blocks
# 1-token blocks
@example(segments=[(I, 1), (T, 1), (I, 1), (I, 1), (T, 2)], config_index=5, seed=3)
@example(segments=[(T, 1)], config_index=8, seed=4)  # d=1
@example(segments=[(I, 1)], config_index=9, seed=5)  # d=1, image
@example(segments=[(T, 3), (I, 2), (T, 2)], config_index=4, seed=6)  # text before the first image
def test_edge_layouts_match_dense_reference(segments, config_index, seed):
    variant, image_self, normalize = CONFIGS[config_index]
    config = ModelConfig(
        variant=variant, num_heads=2, model_dim=6,
        normalize_dual_softmax=normalize, image_self=image_self,
    )
    assert max(max_gaps(config, build_sequence(segments), seed)) <= TOLERANCE


def test_layout_structure():
    seq = build_sequence([(T, 2), (I, 3), (T, 1), (I, 3), (I, 2), (T, 1), (I, 2)])
    mmca = build_layout(seq, AttentionVariant.MMCA)
    three, two, text, *stairs = mmca.terms
    # equal-size image blocks stack into one term each, every block over itself
    assert three.rows.tolist() == [[2, 3, 4], [6, 7, 8]] and two.rows.tolist() == [[9, 10], [12, 13]]
    assert all(np.array_equal(t.keys, t.rows) and t.forbid is None for t in (three, two))
    assert text.rows.tolist() == text.keys.tolist() == [0, 1, 5, 11]
    assert np.array_equal(~text.forbid, np.tril(np.ones((4, 4), dtype=bool)))
    # the image keys each text row reads: none for rows 0 and 1 (before every
    # image), three for row 5, all eight for row 11; the trailing block comes
    # after the last text row, so no row reads it
    assert [(t.rows.tolist(), t.keys.tolist(), t.forbid) for t in stairs] == [
        ([5], [2, 3, 4], None), ([11], [2, 3, 4, 6, 7, 8, 9, 10], None)
    ]
    assert not mmca.reads_cross
    cross = build_layout(seq, AttentionVariant.CAUSAL_PLUS_CROSS)
    assert cross.reads_cross and [t.cross for t in cross.terms] == [False] * 3 + [True] * 2
    diagonal = build_layout(seq, AttentionVariant.MMCA, "diagonal")
    assert diagonal.terms[0].rows.tolist() == [[p] for p in (2, 3, 4, 6, 7, 8, 9, 10, 12, 13)]
    assert [t.keys.tolist() for t in diagonal.terms[1:]] == [t.keys.tolist() for t in mmca.terms[2:]]
    (causal,) = build_layout(seq, AttentionVariant.CAUSAL_ONLY).terms
    assert causal.rows.tolist() == causal.keys.tolist() == list(range(seq.d))
    assert np.array_equal(~causal.forbid, np.tril(np.ones((seq.d, seq.d), dtype=bool)))
    assert build_layout(seq, AttentionVariant.MMCA, normalize=True).weight == 0.5
    assert build_layout(seq, AttentionVariant.CAUSAL_PLUS_CROSS, normalize=True).weight == 1.0
    with pytest.raises(ValueError, match="image_self"):
        build_layout(seq, AttentionVariant.MMCA, "row")


def assert_terms_account_for_mask(seq, variant, image_self, normalize):
    """Every allowed edge of the dense mask lies in exactly one term, with
    the term's key class; each term row is one whole softmax group of the
    reference (one query row's text keys or image keys), never split across
    terms; image-key terms carry no mask; cross flags mark exactly the text
    rows' image terms of the cross variant."""
    layout = build_layout(seq, variant, image_self, normalize)
    entries = build_mask(seq, variant, image_self).entries
    is_image = seq.is_image()
    seen = np.zeros((3,) + entries.shape, dtype=int)  # edges per key class
    groups = np.zeros((3, seq.d), dtype=int)  # terms per (key class, row)
    for term in layout.terms:
        for rows, keys in zip(np.atleast_2d(term.rows), np.atleast_2d(term.keys)):
            allowed = np.ones((rows.size, keys.size), dtype=bool)
            if term.forbid is not None:
                allowed = ~term.forbid
            labels = entries[np.ix_(rows, keys)][allowed]
            assert labels.size and (labels == labels[0]).all()  # one key class per term
            key_class = int(labels[0])
            assert allowed.any(axis=1).all()  # no term row has an empty support
            seen[key_class][np.ix_(rows, keys)] += allowed
            groups[key_class][rows] += 1
            if key_class == 2:
                assert term.forbid is None
            text_rows_reading_images = key_class == 2 and not is_image[rows].any()
            assert term.cross == (variant is AttentionVariant.CAUSAL_PLUS_CROSS and text_rows_reading_images)
    for key_class in (1, 2):
        assert np.array_equal(seen[key_class], (entries == key_class).astype(int))
        assert np.array_equal(groups[key_class], (entries == key_class).any(axis=1).astype(int))
    assert not seen[0].any()


@pytest.mark.parametrize(("variant", "image_self", "normalize"), CONFIGS)
def test_terms_account_for_every_allowed_edge_once(variant, image_self, normalize):
    rng = np.random.default_rng(2310)
    for _ in range(100):
        assert_terms_account_for_mask(random_layout(rng), variant, image_self, normalize)


@settings(max_examples=100, deadline=None)
@given(segments=_segments)
@example(segments=[(T, 5)])  # text-only
@example(segments=[(I, 4)])  # image-only
@example(segments=[(I, 2), (I, 3), (T, 2)])  # adjacent blocks
@example(segments=[(I, 1), (T, 1), (I, 1), (I, 1), (T, 2)])  # 1-token blocks
@example(segments=[(T, 1)])  # d=1
@example(segments=[(I, 1)])  # d=1, image
@example(segments=[(T, 3), (I, 2), (T, 2)])  # text before the first image
def test_edge_layout_terms_account_for_every_allowed_edge_once(segments):
    seq = build_sequence(segments)
    for config in CONFIGS:
        assert_terms_account_for_mask(seq, *config)


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


def test_nonfinite_inputs_and_scores_rejected():
    seq = build_sequence([(I, 2), (T, 2)])
    layout = build_layout(seq, AttentionVariant.MMCA)
    ok = np.ones((4, 2))
    bad = ok.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="K contains non-finite"):
        segment_attention(layout, 1.0, ok, bad, ok)
    _, probs = segment_attention(layout, 1.0, ok, ok, ok)
    with pytest.raises(ValueError, match="Q contains non-finite"):
        segment_attention_vjp(layout, 1.0, ok, probs, bad, ok, ok)
    with pytest.raises(ValueError, match="one softmax per layout term"):
        segment_attention_vjp(layout, 1.0, ok, probs[:-1], ok, ok, ok)
    with pytest.raises(ValueError, match="4 rows"):
        segment_attention(layout, 1.0, ok[:3], ok[:3], ok[:3])
    with pytest.raises(ValueError, match="equal shapes"):
        segment_attention(layout, 1.0, ok, ok, np.ones((4, 3)))
    cross = build_layout(seq, AttentionVariant.CAUSAL_PLUS_CROSS)
    with pytest.raises(ValueError, match="Kx and Vx"):
        segment_attention(cross, 1.0, ok, ok, ok)
    huge = np.full((4, 2), 1e200)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="scores contain non-finite"):
        segment_attention(layout, 1.0, huge, huge, ok)


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_overflowing_scores_and_wrong_saved_length_rejected(variant):
    seq = build_sequence([(T, 1), (I, 2), (T, 2)])
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 4))
    params = init_multi_head_params(variant, 2, 4, rng)
    layout = build_layout(seq, variant)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="scores contain non-finite"
    ):
        multi_head_forward(1e200 * x, params, layout)
    q, k, v, kx, vx = (rng.standard_normal((5, 2)) for _ in range(5))
    cross = (kx, vx) if layout.reads_cross else ()
    _, saved = segment_attention(layout, 1.0, q, k, v, *cross)
    for wrong in (saved[:-1], saved + saved[:1]):
        with pytest.raises(ValueError, match="one softmax per layout term"):
            segment_attention_vjp(layout, 1.0, q, wrong, q, k, v, *cross)


def test_empty_support_and_forbidden_edges_exactly_zero():
    # text row 0 precedes every image: its image term has empty support
    seq = build_sequence([(T, 1), (I, 2), (T, 2)])
    layout = build_layout(seq, AttentionVariant.MMCA)
    rng = np.random.default_rng(1)
    q, k, v = (rng.standard_normal((5, 3)) for _ in range(3))
    out, probs = segment_attention(layout, 0.5, q, k, v)
    assert np.array_equal(out[0], v[0])
    dout = np.zeros((5, 3))
    dout[0] = rng.standard_normal(3)
    dout[1] = rng.standard_normal(3)  # image row: reads only its block
    grads = segment_attention_vjp(layout, 0.5, dout, probs, q, k, v)
    assert not grads["v"][3:].any() and not grads["k"][3:].any()
    assert not grads["q"][3:].any()


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_attention_weights_keep_leading_head_axes(variant):
    seq = build_sequence([(T, 2), (I, 3), (T, 1), (I, 3), (I, 1), (T, 2)])
    layout = build_layout(seq, variant)
    rng = np.random.default_rng(7)
    inputs = [rng.standard_normal((2, 3, seq.d, 4)) for _ in range(5)]
    _, terms = segment_attention(layout, 0.5, *inputs)
    text, image = attention_weights(layout, terms)
    assert text.shape == image.shape == (2, 3, seq.d, seq.d)
    for index in np.ndindex(2, 3):
        one_head = tuple((p[index], o[index]) for p, o in terms)
        head_text, head_image = attention_weights(layout, one_head)
        assert np.array_equal(text[index], head_text)
        assert np.array_equal(image[index], head_image)
    with pytest.raises(ValueError, match="one softmax per layout term"):
        attention_weights(layout, terms[:-1])


def test_hot_path_builds_no_dense_mask(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense mask machinery on the hot path")

    monkeypatch.setattr(mask_module, "build_mask", forbidden)
    softmax_shapes = []
    real_softmax = attn_module._softmax_in_place

    def recording_softmax(scores, forbid):
        softmax_shapes.append(scores.shape[-2:])
        return real_softmax(scores, forbid)

    monkeypatch.setattr(attn_module, "_softmax_in_place", recording_softmax)
    layouts = []
    real_layout = mask_module.build_layout

    def counting_layout(seq, *args):
        layouts.append(real_layout(seq, *args))
        return layouts[-1]

    monkeypatch.setattr("mmchat.toy_model.build_layout", counting_layout)
    for variant in AttentionVariant:
        config = ModelConfig(variant=variant)
        samples, ids = make_copy_task(config, num_images=3)
        model = make_model(config, seed=0, known_images=ids)
        layouts.clear()
        softmax_shapes.clear()
        train_step(model, samples, OptimState(total_steps=2))
        assert len(layouts) == len(samples)  # once per sample, not per layer, head or pass
        # one softmax per layout term and layer, all in the forward pass: the VJP takes none
        terms = sum(len(layout.terms) for layout in layouts)
        assert len(softmax_shapes) == terms * config.num_layers
        d = samples[0].d
        if variant is not AttentionVariant.CAUSAL_ONLY:  # causal's one term is the d x d prefix
            assert softmax_shapes and all(shape != (d, d) for shape in softmax_shapes)
        layouts.clear()
        softmax_shapes.clear()
        loss_and_param_grads(model, samples[0])
        assert len(layouts) == 1
        assert len(softmax_shapes) == len(layouts[0].terms) * config.num_layers


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
