import dataclasses
import math
import os
import resource
from types import SimpleNamespace

import numpy as np
import pytest

import mmchat.attn as attn_module
from mmchat.attn import (
    MultiHeadParams,
    grad_check,
    init_multi_head_params,
    multi_head_forward,
    multi_head_input_vjp,
    variant_grad_check,
)
from mmchat.mask import AttentionVariant, build_layout, build_mask
from mmchat.modseq import TokenKind, build_sequence
from mmchat.toy_model import ModelConfig

from dense_reference import (
    AttentionInputs,
    CrossParams,
    causal_forward,
    causal_vjp,
    cross_forward,
    cross_vjp,
    masked_softmax,
    masked_softmax_vjp,
    mmca_forward,
    mmca_vjp,
    partition,
)
from oracles import naive_causal, naive_cross, naive_mmca, naive_multi_head

I, T = TokenKind.IMAGE, TokenKind.TEXT


def rand_inputs(rng, d, h):
    return AttentionInputs(
        rng.standard_normal((d, h)),
        rng.standard_normal((d, h)),
        rng.standard_normal((d, h)),
    )


# ---------------------------------------------------------------------------
# masked_softmax: the kernel's in-place softmax and the reference's


def kernel_softmax(scores, allow):
    """The kernel's masked exponentials on a copy, with the support given as
    ``allow`` (each row a prefix of its keys, as a layout's ``limit``
    states it), divided by their row totals as the kernel's normalization
    does on its outputs."""
    limit = allow.sum(axis=1)
    assert np.array_equal(allow, np.arange(allow.shape[1]) < limit[:, None])
    e = np.array(scores, dtype=np.float64)
    total = attn_module._exp_in_place(e, limit)
    return e / total


SOFTMAXES = pytest.mark.parametrize(
    "softmax", [kernel_softmax, masked_softmax], ids=["kernel", "reference"]
)


@SOFTMAXES
def test_masked_softmax_uniform(softmax):
    out = softmax(np.zeros((2, 2)), np.ones((2, 2), dtype=bool))
    assert np.array_equal(out, np.full((2, 2), 0.5))


@pytest.mark.parametrize("softmax", [masked_softmax], ids=["reference"])
def test_masked_softmax_empty_row_is_zero(softmax):
    allow = np.array([[False, False], [True, True]])
    out = softmax(np.array([[5.0, -3.0], [0.0, 0.0]]), allow)
    assert np.array_equal(out[0], [0.0, 0.0])
    assert np.allclose(out[1], [0.5, 0.5])


def test_layout_rejects_a_term_row_that_allows_no_key():
    """The kernel's softmax has no empty-row case: a layout whose term
    allows no key to a row (a ``limit`` of 0) is rejected when built, and
    so never reaches the kernel."""
    layout = build_layout(build_sequence([(T, 3)]), AttentionVariant.CAUSAL_ONLY)
    (term,) = layout.terms
    limit = term.limit.copy()
    limit[1] = 0
    with pytest.raises(ValueError, match="allows no key"):
        dataclasses.replace(layout, terms=(term._replace(limit=limit),))
    assert term.limit.tolist() == [1, 2, 3]  # build_layout's own limit allows the diagonal


@SOFTMAXES
def test_masked_softmax_partial_row(softmax):
    scores = np.array([[1.0, 2.0], [3.0, 4.0]])
    allow = np.array([[True, False], [True, True]])
    out = softmax(scores, allow)
    e3, e4 = math.exp(3.0), math.exp(4.0)
    assert out[0].tolist() == [1.0, 0.0]
    assert np.allclose(out[1], [e3 / (e3 + e4), e4 / (e3 + e4)], atol=1e-12)
    assert np.allclose(out[1], [0.2689, 0.7311], atol=1e-4)


@pytest.mark.parametrize("softmax", [masked_softmax], ids=["reference"])
def test_masked_softmax_rejects_nonfinite(softmax):
    with pytest.raises(ValueError, match="non-finite"):
        softmax(np.array([[np.inf, 0.0]]), np.ones((1, 2), dtype=bool))


@pytest.mark.filterwarnings("error")
def test_segment_attention_rejects_nonfinite_scores():
    """The kernel's softmax does not check its scores: an infinite score
    makes its row NaN, and the pass rejects that output without a NumPy
    warning."""
    with np.errstate(invalid="ignore"):
        assert np.isnan(kernel_softmax(np.array([[np.inf, 0.0]]), np.ones((1, 2), dtype=bool))).all()
    layout = build_layout(build_sequence([(T, 2)]), AttentionVariant.CAUSAL_ONLY)
    q = np.array([[0.0], [1.0]])  # row 1 scores key 0 at 1e200 * 1e200 = inf, row 0 at 0
    k = np.array([[1e200], [0.0]])
    with pytest.raises(ValueError, match="output contains non-finite values"):
        attn_module.segment_attention(layout, 1e200, q, k, np.ones((2, 1)))


def test_masked_softmax_vjp_matches_finite_differences():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal((4, 4))
    allow = rng.random((4, 4)) < 0.6
    dprobs = rng.standard_normal((4, 4))
    probs = masked_softmax(scores, allow)
    analytic = masked_softmax_vjp(probs, dprobs)
    eps = 1e-6
    for i in range(4):
        for j in range(4):
            bumped = scores.copy()
            bumped[i, j] += eps
            plus = float((masked_softmax(bumped, allow) * dprobs).sum())
            bumped[i, j] -= 2 * eps
            minus = float((masked_softmax(bumped, allow) * dprobs).sum())
            numeric = (plus - minus) / (2 * eps)
            assert abs(analytic[i, j] - numeric) < 1e-6


# ---------------------------------------------------------------------------
# Single-head forwards


def test_mmca_text_only_equals_causal_exactly():
    seq = build_sequence([(T, 6)])
    rng = np.random.default_rng(1)
    inputs = rand_inputs(rng, 6, 3)
    out_mmca, a1, a2 = mmca_forward(inputs, build_mask(seq, "mmca"), 0.7)
    out_causal = causal_forward(inputs, build_mask(seq, "causal"), 0.7)
    assert not a2.any()
    assert np.array_equal(out_mmca, out_causal)


def test_mmca_dual_rows_sum_to_two():
    seq = build_sequence([(I, 2), (T, 3)])
    rng = np.random.default_rng(2)
    inputs = rand_inputs(rng, 5, 4)
    _, a1, a2 = mmca_forward(inputs, build_mask(seq, "mmca"), 0.5)
    w = a1 + a2
    for i in range(2, 5):  # text rows see both modalities
        assert abs(w[i].sum() - 2.0) < 1e-12


def test_mmca_two_token_hand_example():
    seq = build_sequence([(I, 1), (T, 1)])
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    inputs = AttentionInputs(np.eye(2), np.eye(2), v)
    out, a1, a2 = mmca_forward(inputs, build_mask(seq, "mmca"), 1.0)
    assert a2[0].tolist() == [1.0, 0.0]
    assert a1[1].tolist() == [0.0, 1.0]
    assert a2[1].tolist() == [1.0, 0.0]
    assert np.allclose(out[1], v[0] + v[1], atol=1e-15)
    assert np.allclose(out[0], v[0], atol=1e-15)


def test_row_sum_law():
    seq = build_sequence([(T, 2), (I, 3), (T, 2), (I, 2), (T, 1)])
    rng = np.random.default_rng(3)
    inputs = rand_inputs(rng, 10, 3)
    mask = build_mask(seq, "mmca")
    _, a1, a2 = mmca_forward(inputs, mask, 0.5)
    m1, m2 = partition(mask)
    for i in range(10):
        expected = int(m1[i].any()) + int(m2[i].any())
        assert abs((a1[i].sum() + a2[i].sum()) - expected) < 1e-12


def test_causal_d1_returns_v():
    seq = build_sequence([(T, 1)])
    v = np.array([[2.5, -1.0]])
    inputs = AttentionInputs(np.zeros((1, 2)), np.zeros((1, 2)), v)
    assert np.array_equal(causal_forward(inputs, build_mask(seq, "causal"), 1.0), v)


def test_causal_uniform_scores_average_prefix():
    seq = build_sequence([(T, 4)])
    rng = np.random.default_rng(4)
    v = rng.standard_normal((4, 3))
    inputs = AttentionInputs(np.zeros((4, 3)), rng.standard_normal((4, 3)), v)
    out = causal_forward(inputs, build_mask(seq, "causal"), 1.0)
    for i in range(4):
        assert np.allclose(out[i], v[: i + 1].mean(axis=0), atol=1e-12)


def test_forwards_match_naive_oracles():
    rng = np.random.default_rng(5)
    seq = build_sequence([(T, 2), (I, 3), (T, 3), (I, 2)])
    mask_m = build_mask(seq, "mmca")
    mask_c = build_mask(seq, "causal")
    for trial in range(5):
        inputs = rand_inputs(rng, 10, 4)
        cross = CrossParams(rng.standard_normal((10, 4)), rng.standard_normal((10, 4)))
        out_m, _, _ = mmca_forward(inputs, mask_m, 0.5)
        assert np.allclose(
            out_m, naive_mmca(inputs.q, inputs.k, inputs.v, mask_m.entries, 0.5), atol=1e-12
        )
        assert np.allclose(
            causal_forward(inputs, mask_c, 0.5),
            naive_causal(inputs.q, inputs.k, inputs.v, mask_c.entries, 0.5),
            atol=1e-12,
        )
        assert np.allclose(
            cross_forward(inputs, cross, mask_m, 0.5),
            naive_cross(
                inputs.q, inputs.k, inputs.v, cross.kx, cross.vx, mask_m.entries, 0.5
            ),
            atol=1e-12,
        )


def test_cross_text_only_equals_causal():
    seq = build_sequence([(T, 5)])
    rng = np.random.default_rng(6)
    inputs = rand_inputs(rng, 5, 3)
    cross = CrossParams(rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))
    mask = build_mask(seq, AttentionVariant.CAUSAL_PLUS_CROSS)
    out_cross = cross_forward(inputs, cross, mask, 0.6)
    out_causal = causal_forward(inputs, build_mask(seq, "causal"), 0.6)
    assert np.allclose(out_cross, out_causal, atol=1e-12)


def test_cross_degenerates_to_mmca_when_sharing_kv():
    seq = build_sequence([(I, 2), (T, 4)])
    rng = np.random.default_rng(7)
    inputs = rand_inputs(rng, 6, 3)
    mask = build_mask(seq, AttentionVariant.CAUSAL_PLUS_CROSS)
    shared = CrossParams(inputs.k, inputs.v)
    out_cross = cross_forward(inputs, shared, mask, 0.5)
    out_mmca, _, _ = mmca_forward(inputs, build_mask(seq, "mmca"), 0.5)
    assert np.allclose(out_cross, out_mmca, atol=1e-12)


def test_cross_requires_params():
    seq = build_sequence([(I, 2), (T, 2)])
    rng = np.random.default_rng(8)
    inputs = rand_inputs(rng, 4, 2)
    with pytest.raises(ValueError, match="cross parameters"):
        cross_forward(inputs, None, build_mask(seq, AttentionVariant.CAUSAL_PLUS_CROSS), 0.5)
    with pytest.raises(ValueError, match="shape"):
        bad = CrossParams(np.zeros((3, 2)), np.zeros((3, 2)))
        cross_forward(inputs, bad, build_mask(seq, AttentionVariant.CAUSAL_PLUS_CROSS), 0.5)


def test_dimension_mismatch_rejected():
    seq = build_sequence([(T, 3)])
    rng = np.random.default_rng(9)
    inputs = rand_inputs(rng, 4, 2)
    with pytest.raises(ValueError, match="mask dimension"):
        mmca_forward(inputs, build_mask(seq, "mmca"), 0.5)


def test_attention_inputs_validation():
    with pytest.raises(ValueError, match="equal shape"):
        AttentionInputs(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        AttentionInputs(np.full((2, 2), np.nan), np.zeros((2, 2)), np.zeros((2, 2)))


def test_zero_leak_single_edge():
    seq = build_sequence([(T, 2), (I, 3), (T, 3)])
    mask = build_mask(seq, "mmca")
    rng = np.random.default_rng(10)
    inputs = rand_inputs(rng, 8, 3)
    out, _, _ = mmca_forward(inputs, mask, 0.5)
    # text row 1 must not see the later image block (cols 2..4) or later text
    assert mask.entries[1, 4] == 0
    v2 = inputs.v.copy()
    v2[4] += 100.0
    out2, _, _ = mmca_forward(AttentionInputs(inputs.q, inputs.k, v2), mask, 0.5)
    assert np.array_equal(out[1], out2[1])
    assert not np.array_equal(out[5], out2[5])  # text after the block does see it


# ---------------------------------------------------------------------------
# Multi-head wrapper


def test_multi_head_single_head_reduction():
    seq = build_sequence([(I, 2), (T, 4)])
    rng = np.random.default_rng(11)
    params = init_multi_head_params(AttentionVariant.MMCA, 1, 4, rng)
    x = rng.standard_normal((6, 4))
    inputs = AttentionInputs(x @ params.wq[0], x @ params.wk[0], x @ params.wv[0])
    single, _, _ = mmca_forward(inputs, build_mask(seq, "mmca"), 1.0 / math.sqrt(4))
    layout = build_layout(seq, AttentionVariant.MMCA)
    assert np.allclose(multi_head_forward(x, params, layout)[0], single @ params.wo, atol=1e-14)


def test_multi_head_head_permutation_symmetry():
    seq = build_sequence([(I, 2), (T, 4)])
    rng = np.random.default_rng(12)
    params = init_multi_head_params(AttentionVariant.MMCA, 2, 8, rng)
    x = rng.standard_normal((6, 8))
    hd = params.wq.shape[2]
    perm = [1, 0]
    permuted = MultiHeadParams(
        wq=params.wq[perm],
        wk=params.wk[perm],
        wv=params.wv[perm],
        wo=np.concatenate([params.wo[h * hd : (h + 1) * hd] for h in perm], axis=0),
    )
    layout = build_layout(seq, AttentionVariant.MMCA)
    assert np.allclose(
        multi_head_forward(x, params, layout)[0],
        multi_head_forward(x, permuted, layout)[0],
        atol=1e-14,
    )


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_multi_head_matches_naive_oracle(variant):
    seq = build_sequence([(T, 2), (I, 3), (T, 3)])
    config = ModelConfig(variant=variant, num_heads=2, model_dim=6)
    rng = np.random.default_rng(13)
    params = init_multi_head_params(variant, 2, 6, rng)
    x = rng.standard_normal((8, 6))
    assert np.allclose(
        multi_head_forward(x, params, build_layout(seq, variant))[0],
        naive_multi_head(config, x, params, seq),
        atol=1e-10,
    )


@pytest.mark.parametrize("num_heads", [1, 2, 4])
@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_head_shape_comes_from_the_weights(variant, num_heads):
    # heads, head width and the 1/sqrt(head_dim) scale are read off wq
    seq = build_sequence([(T, 2), (I, 3), (T, 1), (I, 2), (T, 3)])
    config = ModelConfig(variant=variant, num_heads=num_heads, model_dim=8)
    rng = np.random.default_rng(20 + num_heads)
    params = init_multi_head_params(variant, num_heads, 8, rng)
    x = rng.standard_normal((seq.d, 8))
    out, _ = multi_head_forward(x, params, build_layout(seq, variant))
    assert np.abs(out - naive_multi_head(config, x, params, seq)).max() <= 1e-12


def test_params_carry_cross_projections_iff_the_layout_is_cross():
    seq = build_sequence([(I, 2), (T, 3)])
    rng = np.random.default_rng(17)
    x = rng.standard_normal((5, 4))
    plain = init_multi_head_params(AttentionVariant.MMCA, 2, 4, rng)
    cross = init_multi_head_params(AttentionVariant.CAUSAL_PLUS_CROSS, 2, 4, rng)
    cross_layout = build_layout(seq, AttentionVariant.CAUSAL_PLUS_CROSS)
    text_only_cross = build_layout(build_sequence([(T, 5)]), AttentionVariant.CAUSAL_PLUS_CROSS)
    half = MultiHeadParams(cross.wq, cross.wk, cross.wv, cross.wo, wkx=cross.wkx)
    mismatched = [(plain, cross_layout), (plain, text_only_cross), (half, cross_layout)]
    for variant in (AttentionVariant.MMCA, AttentionVariant.CAUSAL_ONLY):
        mismatched.append((cross, build_layout(seq, variant)))
    for params, layout in mismatched:
        with pytest.raises(ValueError, match="wkx/wvx exactly when the layout is the cross"):
            multi_head_forward(x, params, layout)
    assert multi_head_forward(x, cross, text_only_cross)[0].shape == (5, 4)


def _saved_pass(variant, num_heads, seed):
    """A 2-image, 5-token pass of ``variant`` with ``num_heads`` heads."""
    seq = build_sequence([(I, 2), (T, 3)])
    rng = np.random.default_rng(seed)
    params = init_multi_head_params(variant, num_heads, 4, rng)
    _, saved = multi_head_forward(rng.standard_normal((5, 4)), params, build_layout(seq, variant))
    return saved, np.ones((5, 4))


def test_input_vjp_rejects_params_without_the_cross_pass_projections():
    saved, dout = _saved_pass(AttentionVariant.CAUSAL_PLUS_CROSS, 2, 30)
    plain = init_multi_head_params(AttentionVariant.MMCA, 2, 4, np.random.default_rng(31))
    with pytest.raises(ValueError, match="wkx/wvx exactly when the layout is the cross"):
        multi_head_input_vjp(plain, saved, dout)


def test_input_vjp_rejects_params_of_another_head_shape():
    saved, dout = _saved_pass(AttentionVariant.MMCA, 2, 32)
    one_head = init_multi_head_params(AttentionVariant.MMCA, 1, 4, np.random.default_rng(33))
    with pytest.raises(ValueError, match="1 heads of width 4; the saved pass has 2 of width 2"):
        multi_head_input_vjp(one_head, saved, dout)


def test_input_vjp_rejects_cross_params_after_an_mmca_pass():
    saved, dout = _saved_pass(AttentionVariant.MMCA, 2, 34)
    rng = np.random.default_rng(35)
    cross = init_multi_head_params(AttentionVariant.CAUSAL_PLUS_CROSS, 2, 4, rng)
    with pytest.raises(ValueError, match="wkx/wvx exactly when the layout is the cross"):
        multi_head_input_vjp(cross, saved, dout)


def test_multi_head_shape_validation():
    layout = build_layout(build_sequence([(T, 4)]), AttentionVariant.MMCA)
    rng = np.random.default_rng(14)
    params = init_multi_head_params(AttentionVariant.MMCA, 2, 6, rng)
    with pytest.raises(ValueError, match="d x 6"):
        multi_head_forward(np.zeros((4, 5)), params, layout)
    with pytest.raises(ValueError, match="row count"):
        multi_head_forward(np.zeros((5, 6)), params, layout)


def test_cross_params_allocated_only_for_cross_variant():
    rng = np.random.default_rng(15)
    mmca = init_multi_head_params(AttentionVariant.MMCA, 2, 6, rng)
    causal = init_multi_head_params(AttentionVariant.CAUSAL_ONLY, 2, 6, rng)
    cross = init_multi_head_params(AttentionVariant.CAUSAL_PLUS_CROSS, 2, 6, rng)
    assert mmca.wkx is None and causal.wkx is None
    assert cross.wkx is not None and cross.wvx is not None
    assert mmca.param_count() == causal.param_count()
    assert cross.param_count() > mmca.param_count()


@pytest.mark.parametrize(("name", "shape", "message"), [
    ("wq", (2, 6, 3, 1), r"wq must be \(num_heads, model_dim, head_dim\), got shape \(2, 6, 3, 1\)"),
    ("wk", (2, 6, 2), r"wk must have shape \(2, 6, 3\), got \(2, 6, 2\)"),
    ("wv", (1, 6, 3), r"wv must have shape \(2, 6, 3\), got \(1, 6, 3\)"),
    ("wo", (6, 5), r"wo must have shape \(6, 6\), got \(6, 5\)"),
    ("wkx", (2, 5, 3), r"wkx must have shape \(2, 6, 3\), got \(2, 5, 3\)"),
    ("wvx", (6, 3), r"wvx must have shape \(2, 6, 3\), got \(6, 3\)"),
])
def test_multi_head_params_reject_a_malformed_tensor(name, shape, message):
    """Every weight is checked against ``wq``'s (heads, model_dim,
    head_dim) once, when the params are made, and none can be rebound
    later, so the Q/K/V the wrapper projects always share a shape."""
    cross = init_multi_head_params(AttentionVariant.CAUSAL_PLUS_CROSS, 2, 6, np.random.default_rng(16))
    weights = dict(cross.weights())
    weights[name] = np.zeros(shape)
    with pytest.raises(ValueError, match=message):
        MultiHeadParams(**weights)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cross, name, weights[name])


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_multi_head_input_vjp_matches_finite_differences(variant):
    layout = build_layout(build_sequence([(T, 2), (I, 2), (T, 1)]), variant)
    rng = np.random.default_rng(16)
    params = init_multi_head_params(variant, 2, 4, rng)
    x = rng.standard_normal((5, 4))
    dout = np.ones((5, 4))
    _, saved = multi_head_forward(x, params, layout)
    analytic = multi_head_input_vjp(params, saved, dout)
    eps = 1e-6
    for i in range(5):
        for j in range(4):
            bumped = x.copy()
            bumped[i, j] += eps
            plus = multi_head_forward(bumped, params, layout)[0].sum()
            bumped[i, j] -= 2 * eps
            minus = multi_head_forward(bumped, params, layout)[0].sum()
            numeric = (plus - minus) / (2 * eps)
            denom = max(abs(analytic[i, j]), abs(numeric), 1e-8)
            assert abs(analytic[i, j] - numeric) / denom < 1e-5


# ---------------------------------------------------------------------------
# Gradient checking harness


def test_grad_check_eps_validation():
    layout = build_layout(build_sequence([(T, 2)]), AttentionVariant.MMCA)
    with pytest.raises(ValueError, match="eps"):
        variant_grad_check(layout, eps=1e-2)
    with pytest.raises(ValueError, match="eps"):
        variant_grad_check(layout, eps=1e-8)


def test_variant_grad_check_rejects_a_head_dim_below_one():
    layout = build_layout(build_sequence([(T, 2)]), AttentionVariant.MMCA)
    for head_dim in (0, -2):
        with pytest.raises(ValueError, match="head_dim must be >= 1"):
            variant_grad_check(layout, head_dim=head_dim)


def test_grad_check_linear_case_machine_precision():
    # d=1: softmax weight is identically 1, so output = V is linear
    layout = build_layout(build_sequence([(T, 1)]), AttentionVariant.CAUSAL_ONLY)
    assert variant_grad_check(layout, head_dim=2, seed=0) < 1e-9


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_variant_grad_check_mixed_sequence(variant):
    layout = build_layout(build_sequence([(T, 2), (I, 2), (T, 2)]), variant)
    assert variant_grad_check(layout, head_dim=3, eps=1e-5, seed=2) < 1e-4


def test_variant_grad_check_diagonal():
    layout = build_layout(build_sequence([(I, 3), (T, 3)]), AttentionVariant.MMCA, "diagonal")
    assert variant_grad_check(layout, seed=3) < 1e-4


def corrupt_q_gradient(monkeypatch):
    """Make the kernel's VJP add 1.0 to every entry of the Q gradient."""
    real_vjp = attn_module.segment_attention_vjp

    def corrupted_vjp(*args, **kwargs):
        grads = real_vjp(*args, **kwargs)
        grads["q"] = grads["q"] + 1.0
        return grads

    monkeypatch.setattr(attn_module, "segment_attention_vjp", corrupted_vjp)


def test_grad_check_detects_corrupted_gradient(monkeypatch):
    corrupt_q_gradient(monkeypatch)
    layout = build_layout(build_sequence([(T, 2), (I, 2), (T, 2)]), AttentionVariant.MMCA)
    assert variant_grad_check(layout, seed=4) >= 1e-4


def test_variant_grad_check_runs_the_vjp_once(monkeypatch):
    calls = []
    real_vjp = attn_module.segment_attention_vjp

    def counting_vjp(*args, **kwargs):
        calls.append(1)
        return real_vjp(*args, **kwargs)

    monkeypatch.setattr(attn_module, "segment_attention_vjp", counting_vjp)
    seq = build_sequence([(T, 2), (I, 2), (T, 2)])
    for variant in AttentionVariant:
        calls.clear()
        assert variant_grad_check(build_layout(seq, variant), head_dim=3, seed=2) < 1e-4
        assert len(calls) == 1


def test_grad_check_rejects_nonfinite_loss():
    def bad(params):
        return float("nan")

    with pytest.raises(FloatingPointError):
        grad_check(bad, {"x": np.zeros(1)}, {"x": np.zeros(1)})


def test_vjp_matches_for_explicit_dout():
    # weighted (not all-ones) cotangent exercises the VJP beyond sum-loss
    seq = build_sequence([(I, 2), (T, 3)])
    mask = build_mask(seq, "mmca")
    rng = np.random.default_rng(17)
    inputs = rand_inputs(rng, 5, 3)
    dout = rng.standard_normal((5, 3))
    grads = mmca_vjp(inputs, mask, 0.5, dout)
    eps = 1e-6
    for name in ("q", "k", "v"):
        arrays = {"q": inputs.q, "k": inputs.k, "v": inputs.v}
        base = arrays[name]
        for idx in [(0, 0), (2, 1), (4, 2)]:
            bumped = base.copy()
            bumped[idx] += eps
            plus_inputs = {**arrays, name: bumped}
            out_p, _, _ = mmca_forward(AttentionInputs(**plus_inputs), mask, 0.5)
            bumped[idx] -= 2 * eps
            minus_inputs = {**arrays, name: bumped}
            out_m, _, _ = mmca_forward(AttentionInputs(**minus_inputs), mask, 0.5)
            numeric = float(((out_p - out_m) * dout).sum()) / (2 * eps)
            assert abs(grads[name][idx] - numeric) < 1e-6


def test_causal_and_cross_vjp_explicit_dout():
    seq = build_sequence([(T, 2), (I, 2), (T, 1)])
    rng = np.random.default_rng(18)
    inputs = rand_inputs(rng, 5, 2)
    cross = CrossParams(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))
    dout = rng.standard_normal((5, 2))
    mask_c = build_mask(seq, "causal")
    mask_x = build_mask(seq, AttentionVariant.CAUSAL_PLUS_CROSS)
    eps = 1e-6

    grads = causal_vjp(inputs, mask_c, 0.5, dout)
    bumped = inputs.q.copy()
    bumped[(1, 1)] += eps
    plus = causal_forward(AttentionInputs(bumped, inputs.k, inputs.v), mask_c, 0.5)
    bumped[(1, 1)] -= 2 * eps
    minus = causal_forward(AttentionInputs(bumped, inputs.k, inputs.v), mask_c, 0.5)
    numeric = float(((plus - minus) * dout).sum()) / (2 * eps)
    assert abs(grads["q"][1, 1] - numeric) < 1e-6

    grads = cross_vjp(inputs, cross, mask_x, 0.5, dout)
    bumped = cross.kx.copy()
    bumped[(2, 0)] += eps
    plus = cross_forward(inputs, CrossParams(bumped, cross.vx), mask_x, 0.5)
    bumped[(2, 0)] -= 2 * eps
    minus = cross_forward(inputs, CrossParams(bumped, cross.vx), mask_x, 0.5)
    numeric = float(((plus - minus) * dout).sum()) / (2 * eps)
    assert abs(grads["kx"][2, 0] - numeric) < 1e-6


def test_init_multi_head_params_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="divisible"):
        init_multi_head_params(AttentionVariant.MMCA, 3, 8, rng)
    with pytest.raises(ValueError, match="positive"):
        init_multi_head_params(AttentionVariant.MMCA, 0, 8, rng)
    params = init_multi_head_params(AttentionVariant.MMCA, 2, 8, rng)
    assert params.wq.shape == params.wk.shape == params.wv.shape == (2, 8, 4)
    assert params.wo.shape == (8, 8)


def test_variant_given_by_value_selects_that_variant():
    # build_layout's by-value path runs through test_segment_attention's
    # rule-level tests
    seq = build_sequence([(T, 1), (I, 2), (T, 2)])
    rng = np.random.default_rng(21)
    assert init_multi_head_params("cross", 2, 4, rng).wkx is not None
    assert init_multi_head_params("mmca", 2, 4, rng).wkx is None
    for variant in AttentionVariant:
        mask = build_mask(seq, variant.value)
        assert np.array_equal(mask.entries, build_mask(seq, variant).entries)
    for build in (
        lambda: build_layout(seq, "full"),
        lambda: build_mask(seq, "full"),
        lambda: init_multi_head_params("full", 2, 4, rng),
    ):
        with pytest.raises(ValueError, match="'full' is not a valid AttentionVariant"):
            build()


# ---------------------------------------------------------------------------
# Heap policy: importing the package fixes glibc's malloc thresholds


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap policy applies to glibc's malloc only")
def test_freed_heap_pages_are_kept_for_the_next_round():
    """Under glibc's dynamic rule, freeing one 8 MiB array raises its
    thresholds so that three more come from the heap, whose freed top it
    then trims and faults in again every round. With the thresholds the
    import fixes, the heap keeps those pages, so a round after the first
    faults almost none."""
    np.ones(1 << 20)  # allocated and freed at once
    faults = []
    for _ in range(4):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(1 << 20) for _ in range(3)]
        del arrays
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults[1:]) < 50, faults


def test_heap_policy_is_a_silent_no_op_off_glibc_or_when_refused(monkeypatch):
    """The import-time helper never raises: off glibc it looks up no
    ``mallopt``, and when glibc refuses the first value it sets no
    threshold alone."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 0  # glibc's answer to a value it refuses

    def confstr(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(attn_module.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(attn_module.os, "confstr", confstr)
    attn_module._keep_heap_pages()
    assert calls == []
    monkeypatch.setattr(attn_module.os, "confstr", lambda name: "glibc 2.36")
    attn_module._keep_heap_pages()
    assert len(calls) == 1  # the first refusal stops it: no threshold is set alone
