import functools
import json
import math
import re
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mmchat.attn import grad_check
from mmchat.mask import AttentionVariant
from mmchat.template import Conversation, HashTokenizer, RenderedSample, Round, render
from mmchat.modseq import ModalitySequence
from mmchat.toy_model import (
    CHECKPOINT_FORMAT_VERSION,
    _bin_loss_and_grads,
    _bins,
    ModelConfig,
    OptimState,
    answer_loss,
    forward,
    frozen_fingerprint,
    load_model,
    loss_and_param_grads,
    make_copy_task,
    make_model,
    save_model,
    train_step,
)

from oracles import IdPool, naive_model_logits, random_conversation

SMALL = ModelConfig(
    vision_dim=3,
    model_dim=4,
    num_heads=2,
    num_layers=2,
    vocab_size=8,
    ffn_dim=5,
    image_token_count=2,
)


def small_sample(config=SMALL, images=("a",), question="q w", answer="x y"):
    conv = Conversation("s", (Round(images, question, answer),))
    return render(conv, HashTokenizer(config.vocab_size), config.layout())


def small_model(config=SMALL, seed=0, images=("a",)):
    return make_model(config, seed=seed, known_images=images)


# ---------------------------------------------------------------------------
# Construction and the trainable-parameter contract


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(model_dim=6, num_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=0)


@pytest.mark.parametrize(
    ("name", "value"), [("num_heads", 2.0), ("vocab_size", True), ("model_dim", "16"), ("ffn_dim", None)]
)
def test_config_sizes_must_be_integers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {value!r}"):
        ModelConfig(**{name: value})


def test_config_takes_the_variant_by_value_and_checks_the_rule():
    images = ("a", "b")
    sample = small_sample(images=images)
    logits = {}
    for variant in AttentionVariant:
        by_value = ModelConfig(**{**SMALL.__dict__, "variant": variant.value})
        assert by_value.variant is variant
        logits[variant] = forward(small_model(by_value, images=images), sample)
        by_enum = ModelConfig(**{**SMALL.__dict__, "variant": variant})
        assert np.array_equal(logits[variant], forward(small_model(by_enum, images=images), sample))
    causal, cross, mmca = (logits[v] for v in AttentionVariant)
    assert not np.array_equal(causal, mmca) and not np.array_equal(cross, mmca)
    with pytest.raises(ValueError, match="'full' is not a valid AttentionVariant"):
        ModelConfig(variant="full")
    with pytest.raises(ValueError, match="image_self must be 'block' or 'diagonal', got 'full'"):
        ModelConfig(image_self="full")


def param_counts(model):
    """(trainable, decoder) parameter counts, over ``named_tensors``."""
    trainable = model.trainable_params()
    sizes = {name: array.size for name, array in model.named_tensors().items()}
    return (sum(sizes[name] for name in trainable),
            sum(size for name, size in sizes.items() if name.startswith("block")))


def test_trainable_param_count_formula():
    model = small_model()
    expected = SMALL.vision_dim * SMALL.model_dim + SMALL.vocab_size * SMALL.model_dim
    assert param_counts(model)[0] == expected
    assert set(model.trainable_params()) == {"projection", "embedding"}


def test_variant_plug_compatibility_param_counts():
    base = small_model(SMALL)
    causal = small_model(
        ModelConfig(**{**SMALL.__dict__, "variant": AttentionVariant.CAUSAL_ONLY})
    )
    cross = small_model(
        ModelConfig(**{**SMALL.__dict__, "variant": AttentionVariant.CAUSAL_PLUS_CROSS})
    )
    (base_trainable, base_decoder), (causal_trainable, causal_decoder), (cross_trainable, cross_decoder) = map(
        param_counts, (base, causal, cross))
    assert base_trainable == causal_trainable == cross_trainable
    assert base_decoder == causal_decoder
    assert cross_decoder > base_decoder


def test_fingerprint_stability_and_sensitivity():
    a = small_model(seed=1)
    b = small_model(seed=1)
    c = small_model(seed=2)
    assert frozen_fingerprint(a) == frozen_fingerprint(b)
    assert frozen_fingerprint(a) != frozen_fingerprint(c)
    a.blocks[0].w1[0, 0] += 1.0
    assert frozen_fingerprint(a) != frozen_fingerprint(b)


def test_fingerprint_ignores_trainable_params():
    model = small_model(seed=1)
    before = frozen_fingerprint(model)
    model.projection[:] += 1.0
    model.embedding[:] -= 1.0
    assert frozen_fingerprint(model) == before


# ---------------------------------------------------------------------------
# forward


def test_forward_text_only_same_for_mmca_and_causal():
    sample = small_sample(images=())
    mmca = forward(small_model(images=()), sample)
    causal_cfg = ModelConfig(**{**SMALL.__dict__, "variant": AttentionVariant.CAUSAL_ONLY})
    causal = forward(make_model(causal_cfg, seed=0, known_images=()), sample)
    assert np.array_equal(mmca, causal)


def test_forward_zero_projection_still_finite():
    model = small_model()
    model.projection[:] = 0.0
    logits = forward(model, small_sample())
    assert np.isfinite(logits).all()


def test_forward_matches_naive_reference():
    config = ModelConfig(
        vision_dim=3,
        model_dim=6,
        num_heads=2,
        num_layers=2,
        vocab_size=8,
        ffn_dim=7,
        image_token_count=2,
    )
    sample = small_sample(config, images=("a", "b"), question="q", answer="x")
    model = make_model(config, seed=5, known_images=("a", "b"))
    assert np.allclose(forward(model, sample), naive_model_logits(model, sample), atol=1e-10)
    cross_cfg = ModelConfig(**{**config.__dict__, "variant": AttentionVariant.CAUSAL_PLUS_CROSS})
    cross_model = make_model(cross_cfg, seed=5, known_images=("a", "b"))
    assert np.allclose(
        forward(cross_model, sample), naive_model_logits(cross_model, sample), atol=1e-10
    )


def edge_samples(config, rng):
    """Samples whose layouts the permuted pass must get right: random
    multi-round chats (text before the first image, as the template
    writes), a text-only chat, and built token sequences with adjacent
    image blocks, one of them opening with an image; with their image ids."""
    tokenizer = HashTokenizer(config.vocab_size)
    ids = IdPool(rng)
    convs = [random_conversation(rng, ids) for _ in range(4)]
    convs.append(Conversation("s", (Round((), "only text", "no image"),)))
    samples = [render(conv, tokenizer, config.layout()) for conv in convs]
    n = config.image_token_count
    for blocks, text in (((0, 1, 2), 3), ((1, 2, 3), 4)):  # (0: a text token, k: image block k)
        block_ids = [k for b in blocks for k in ([b] * (n if b else 1))] + [0] * text
        loss = [False] * (len(block_ids) - 2) + [True, True]
        tokens = rng.integers(0, config.vocab_size, len(block_ids)).tolist()
        images = tuple(ids.next() for b in blocks if b)
        samples.append(RenderedSample(tokens, ModalitySequence(block_ids), loss, images))
    return samples, tuple(i for sample in samples for i in sample.image_ids)


@pytest.mark.parametrize("image_token_count", [1, 3])
@pytest.mark.parametrize("image_self", ["block", "diagonal"])
@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_permuted_pass_matches_the_oracle(variant, image_self, image_token_count):
    """The pass runs each bin in its layout's order and un-permutes once:
    ``forward`` matches the layer-by-layer oracle on every sample, and the
    training pass's gradients over a bin of distinct samples (target rows,
    text rows and image spans all permuted) match finite differences."""
    config = replace(SMALL, variant=variant, image_self=image_self,
                     image_token_count=image_token_count, num_layers=2)
    samples, images = edge_samples(config, np.random.default_rng(31 + image_token_count))
    model = make_model(config, seed=4, known_images=images)
    for sample in samples:
        assert np.allclose(forward(model, sample), naive_model_logits(model, sample), atol=1e-10)
    bin_ = samples[-3:] + samples[:1]  # text-only, both built samples and a chat
    params = model.trainable_params()  # the model's own arrays: the probes move them in place
    _, grads = _bin_loss_and_grads(model, bin_)
    assert grad_check(lambda _: _bin_loss_and_grads(model, bin_)[0], grads, params, eps=1e-6) < 1e-4


def image_logits_in_contexts(config):
    """``forward``'s logits at image "x"'s block in three chats that put
    different text and other images before and around it."""
    chats = [
        Conversation("s", (Round(("x",), "what is it", "a cat"),)),
        Conversation("a longer system line", (Round(("y",), "first", "one"),
                                              Round(("x",), "and this one", "two"))),
        Conversation("", (Round((), "no image yet " * 5, "ok"),
                          Round(("z", "x", "w"), "three more", "fine"))),
    ]
    model = make_model(config, seed=2, known_images=("w", "x", "y", "z"))
    logits = []
    for chat in chats:
        sample = render(chat, HashTokenizer(config.vocab_size), config.layout())
        block = sample.image_ids.index("x") + 1
        logits.append(forward(model, sample)[np.asarray(sample.tags.ids) == block])
    return logits


@pytest.mark.parametrize("image_self", ["block", "diagonal"])
@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_an_image_block_reads_only_itself(variant, image_self):
    """The paper's image isolation: under mmca and cross an image block's
    rows read only that block at every layer, and the feedforward and the
    residuals work row by row, so its logits are bit for bit the same
    whatever text and images surround it. Under causal they read the text
    before them and differ."""
    config = replace(ModelConfig(), variant=variant, image_self=image_self)
    first, *others = image_logits_in_contexts(config)
    same = [np.array_equal(first, other) for other in others]
    assert same == [variant is not AttentionVariant.CAUSAL_ONLY] * len(others)


def test_forward_frees_each_layer_attention_state(monkeypatch):
    import mmchat.toy_model as toy_model_module

    refs, alive = [], []
    real_forward = toy_model_module.multi_head_forward

    def recording_forward(*args):
        out, saved = real_forward(*args)
        refs.append(weakref.ref(saved))
        alive.append(sum(ref() is not None for ref in refs))
        return out, saved

    monkeypatch.setattr(toy_model_module, "multi_head_forward", recording_forward)
    config = ModelConfig(**{**SMALL.__dict__, "num_layers": 3})
    model = make_model(config, seed=0, known_images=("a", "b"))
    forward(model, small_sample(config, images=("a", "b")))
    assert len(refs) == config.num_layers
    assert alive == [1] * config.num_layers  # the previous layer's state is gone
    assert all(ref() is None for ref in refs)


def test_forward_unknown_image_id():
    model = small_model(images=("a",))
    sample = small_sample(images=("b",))
    with pytest.raises(ValueError, match="unknown image id"):
        forward(model, sample)


def test_forward_wrong_block_width():
    model = small_model()
    other = ModelConfig(**{**SMALL.__dict__, "image_token_count": 3})
    sample = small_sample(other)
    with pytest.raises(ValueError, match="expects 2"):
        forward(model, sample)


# ---------------------------------------------------------------------------
# answer_loss


def test_answer_loss_uniform_logits():
    sample = small_sample()
    logits = np.zeros((sample.d, SMALL.vocab_size))
    assert abs(answer_loss(logits, sample) - math.log(SMALL.vocab_size)) < 1e-12


def test_answer_loss_ignores_non_answer_positions():
    sample = small_sample()
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((sample.d, SMALL.vocab_size))
    base = answer_loss(logits, sample)
    mask = np.asarray(sample.loss_mask)
    targets = set(np.flatnonzero(mask[1:]).tolist())
    for t in range(sample.d):
        if t in targets:
            continue
        perturbed = logits.copy()
        perturbed[t] += rng.standard_normal(SMALL.vocab_size) * 10
        assert answer_loss(perturbed, sample) == base


def test_answer_loss_two_round_manual():
    conv = Conversation(
        "s",
        (Round(("a",), "q", "x y"), Round((), "p", "z")),
    )
    tok = HashTokenizer(SMALL.vocab_size)
    sample = render(conv, tok, SMALL.layout())
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((sample.d, SMALL.vocab_size))
    # independent summation: mean of -log softmax at each target position
    expected_terms = []
    for t in range(sample.d - 1):
        if sample.loss_mask[t + 1]:
            row = logits[t]
            log_z = math.log(sum(math.exp(v) for v in row - row.max())) + row.max()
            expected_terms.append(log_z - row[sample.token_ids[t + 1]])
    expected = sum(expected_terms) / len(expected_terms)
    assert abs(answer_loss(logits, sample) - expected) < 1e-12
    assert len(expected_terms) == sum(len(r.answer.split()) + 1 for r in conv.rounds)


def test_answer_loss_requires_targets():
    tags = ModalitySequence((0, 0))
    sample = RenderedSample((1, 2), tags, (False, False), ())
    with pytest.raises(ValueError, match="loss-masked"):
        answer_loss(np.zeros((2, 8)), sample)


def test_answer_loss_rejects_logits_without_a_row_per_position():
    sample = small_sample()
    logits = np.zeros((sample.d, SMALL.vocab_size))
    for bad in (logits[:-1], logits[None], logits[0]):
        with pytest.raises(ValueError, match=rf"logits must have shape \({sample.d}, vocab_size\)"):
            answer_loss(bad, sample)


def test_answer_loss_rejects_logits_narrower_than_a_target_id():
    sample = small_sample()
    positions = np.flatnonzero(np.asarray(sample.loss_mask[1:]))
    largest = max(sample.token_ids[t + 1] for t in positions)
    with pytest.raises(ValueError, match=f"target id {largest} needs more"):
        answer_loss(np.zeros((sample.d, largest)), sample)
    assert math.isfinite(answer_loss(np.zeros((sample.d, largest + 1)), sample))


def test_answer_loss_rejects_nonfinite_target_logits():
    sample = small_sample()
    target = int(np.flatnonzero(np.asarray(sample.loss_mask[1:]))[0])
    for value in (np.nan, np.inf):
        logits = np.zeros((sample.d, SMALL.vocab_size))
        logits[target, 0] = value
        with pytest.raises(FloatingPointError, match="non-finite logits"):
            answer_loss(logits, sample)


def test_negative_token_id_rejected():
    sample = small_sample()
    ids = (-1,) + sample.token_ids[1:]
    bad = RenderedSample(ids, sample.tags, sample.loss_mask, sample.image_ids)
    model = small_model()
    with pytest.raises(ValueError, match="out of vocabulary range"):
        forward(model, bad)
    with pytest.raises(ValueError, match="out of vocabulary range"):
        loss_and_param_grads(model, bad)


# ---------------------------------------------------------------------------
# Gradients


def worst_param_grad_error(model, sample, eps=1e-6):
    """Largest relative gap between ``loss_and_param_grads``' gradients and
    central finite differences of its loss, over every trainable entry."""
    _, grads = loss_and_param_grads(model, sample)
    worst = 0.0
    for name, param in model.trainable_params().items():
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + eps
            plus = loss_and_param_grads(model, sample)[0]
            param[idx] = orig - eps
            minus = loss_and_param_grads(model, sample)[0]
            param[idx] = orig
            numeric = (plus - minus) / (2 * eps)
            denom = max(abs(grads[name][idx]), abs(numeric), 1e-8)
            worst = max(worst, abs(grads[name][idx] - numeric) / denom)
    return worst


def test_param_grads_match_finite_differences():
    assert worst_param_grad_error(small_model(seed=3), small_sample()) < 1e-4
    # multi-round, two images, every variant; the last block (with one
    # layer, the only block) runs on the target rows alone
    conv = Conversation("s", (Round(("a",), "q w", "x y"), Round(("b",), "p", "z w")))
    for variant in AttentionVariant:
        for num_layers in (1, 2, 3):
            config = ModelConfig(**{**SMALL.__dict__, "variant": variant, "num_layers": num_layers})
            sample = render(conv, HashTokenizer(config.vocab_size), config.layout())
            model = make_model(config, seed=num_layers, known_images=("a", "b"))
            assert worst_param_grad_error(model, sample) < 1e-4, (variant, num_layers)


def test_param_grads_scan_the_image_blocks_once_per_sample(monkeypatch):
    """One ``loss_and_param_grads`` on a bin not yet planned scans the
    sample's image blocks twice: once for the bin's image spans, once for
    the attention layout; a ``train_step`` whose batch packs into one new
    bin scans each sample's blocks as often. A planned bin is not scanned
    again."""
    import mmchat.mask as mask_module
    import mmchat.toy_model as toy_model_module

    calls = []
    real = toy_model_module.image_blocks

    def counting(seq):
        calls.append(seq)
        return real(seq)

    monkeypatch.setattr(toy_model_module, "image_blocks", counting)
    monkeypatch.setattr(mask_module, "image_blocks", counting)
    conv = Conversation("s", (Round(("a",), "q w", "x y"), Round(("b",), "p", "z w")))
    for variant in AttentionVariant:
        config = ModelConfig(**{**SMALL.__dict__, "variant": variant})
        sample = render(conv, HashTokenizer(config.vocab_size), config.layout())
        toy_model_module._make_plan.cache_clear()  # another test may have planned these bins
        calls.clear()
        loss_and_param_grads(make_model(config, known_images=("a", "b")), sample)
        # causal's layout ignores modality, so only the model scans the blocks
        scans = 1 if variant is AttentionVariant.CAUSAL_ONLY else 2
        assert len(calls) == scans
        assert all(seq is sample.tags for seq in calls)
        other = small_sample(config, images=("b",))
        toy_model_module._make_plan.cache_clear()
        calls.clear()
        train_step(make_model(config, known_images=("a", "b")), [sample, other], OptimState(total_steps=1))
        assert [seq is sample.tags for seq in calls].count(True) == scans
        assert [seq is other.tags for seq in calls].count(True) == scans
        assert len(calls) == 2 * scans
        # a bin is planned once: repeating the step scans nothing
        calls.clear()
        train_step(make_model(config, known_images=("a", "b")), [sample, other], OptimState(total_steps=1))
        assert calls == []


def relative_gap(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_bin_matches_the_sum_of_per_sample_passes(variant, num_layers):
    """One training pass over a bin of samples laid end to end gives the sum
    of the samples' own losses and gradients: no attention crosses a sample
    boundary and each sample's loss is its own mean."""
    rng = np.random.default_rng(12 + num_layers)
    config = ModelConfig(**{**SMALL.__dict__, "variant": variant, "num_layers": num_layers})
    tokenizer = HashTokenizer(config.vocab_size)
    ids = IdPool(rng)
    convs = [random_conversation(rng, ids) for _ in range(5)]
    convs.insert(2, Conversation("s", (Round((), "only text", "no image"),)))  # text-only
    samples = [render(conv, tokenizer, config.layout()) for conv in convs]
    model = make_model(config, seed=5, known_images=tuple(i for s in samples for i in s.image_ids))
    loss, grads = _bin_loss_and_grads(model, samples)
    alone = [loss_and_param_grads(model, sample) for sample in samples]
    assert relative_gap(loss, sum(one_loss for one_loss, _ in alone)) <= 1e-12
    for name, grad in grads.items():
        assert relative_gap(grad, sum(g[name] for _, g in alone)) <= 1e-12, name


def tie_cases(config):
    """A text-only sample, a multi-round multi-image chat, and a bin of
    distinct samples (both of those and a third), with their image ids."""
    tokenizer = HashTokenizer(config.vocab_size)
    text_only = Conversation("s", (Round((), "only text", "no image"),))
    chat = Conversation("look", (
        Round(("a", "b"), "compare them", "the first is red"),
        Round((), "and now", "still red"),
        Round(("c",), "and this one", "blue"),
    ))
    third = Conversation("s", (Round(("d",), "q w", "x y"), Round((), "again", "z")))
    text_only, chat, third = (render(conv, tokenizer, config.layout()) for conv in (text_only, chat, third))
    return [[text_only], [chat], [text_only, chat, third]], ("a", "b", "c", "d")


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_training_loss_equals_the_loss_of_forward_logits(variant, num_layers):
    """The two users of the block loop agree: the training pass's loss is
    the sum of ``answer_loss`` of ``forward``'s logits over the bin's
    samples, and of the layer-by-layer oracle's logits."""
    config = ModelConfig(**{**SMALL.__dict__, "variant": variant, "num_layers": num_layers})
    cases, images = tie_cases(config)
    model = make_model(config, seed=7, known_images=images)
    for samples in cases:
        loss = _bin_loss_and_grads(model, samples)[0]
        assert relative_gap(loss, sum(answer_loss(forward(model, s), s) for s in samples)) <= 1e-12
        oracle = sum(answer_loss(naive_model_logits(model, s), s) for s in samples)
        assert relative_gap(loss, oracle) <= 1e-10


def test_training_pass_frees_each_layer_attention_state_before_the_next_vjp(monkeypatch):
    import mmchat.toy_model as toy_model_module

    refs, vjp_layers, vjp_alive = [], [], []
    real_forward, real_vjp = toy_model_module.multi_head_forward, toy_model_module.multi_head_input_vjp

    def recording_forward(*args):
        out, saved = real_forward(*args)
        refs.append(weakref.ref(saved))
        return out, saved

    def recording_vjp(saved, dout):
        vjp_layers.append(next(i for i, ref in enumerate(refs) if ref() is saved))
        vjp_alive.append(sum(ref() is not None for ref in refs))
        return real_vjp(saved, dout)

    monkeypatch.setattr(toy_model_module, "multi_head_forward", recording_forward)
    monkeypatch.setattr(toy_model_module, "multi_head_input_vjp", recording_vjp)
    config = ModelConfig(**{**SMALL.__dict__, "num_layers": 3})
    model = make_model(config, seed=0, known_images=("a", "b"))
    loss_and_param_grads(model, small_sample(config, images=("a", "b")))
    assert vjp_layers == [2, 1, 0]  # one VJP per layer, last layer first
    assert vjp_alive == [3, 2, 1]  # each later layer's state is gone before the next VJP
    assert all(ref() is None for ref in refs)


def test_bins_follow_batch_order_and_capacity():
    def bins(sizes, capacity=4096):
        batch = [SimpleNamespace(d=size, index=i) for i, size in enumerate(sizes)]
        packed = _bins(batch, capacity)
        assert [s.index for b in packed for s in b] == list(range(len(sizes)))  # batch order
        return [[s.d for s in b] for b in packed]

    # the paper-shaped batch: 1, 2, 4 and 8 images of 256 tokens
    assert bins([290, 572, 1136, 2264]) == [[290, 572, 1136], [2264]]
    # a sample of exactly the capacity is a bin of its own, and so is a longer one
    assert bins([10, 4096, 5]) == [[10], [4096], [5]]
    assert bins([4097, 1]) == [[4097], [1]]
    # greedy in order: a later small sample does not fill an earlier bin
    assert bins([6, 5, 4, 1], capacity=10) == [[6], [5, 4, 1]]
    assert bins([20] * 8) == [[20] * 8]
    assert bins([3]) == [[3]]


# ---------------------------------------------------------------------------
# Bin plans


def plan_arrays(plan):
    """Every array a bin plan holds."""
    arrays = [plan.token_ids, plan.rows, plan.targets, plan.weights, plan.text]
    for layout in (plan.layout, plan.last):
        arrays += [layout.rows, layout.keys, *(term.limit for term in layout.terms)]
    return [array for array in arrays if array is not None]


def test_each_bin_is_planned_once(monkeypatch):
    """Three steps on the copy task's one bin, then a forward pass of every
    sample twice, lay out each distinct bin once: the step's bin and one
    bin of one sample per scored sample."""
    import mmchat.toy_model as toy_model_module

    built = []
    real = toy_model_module.build_layout

    def counting(seqs, *args):
        built.append(len(seqs))
        return real(seqs, *args)

    monkeypatch.setattr(toy_model_module, "build_layout", counting)
    for variant in AttentionVariant:
        config = ModelConfig(variant=variant)
        samples, ids = make_copy_task(config)
        model, opt = make_model(config, seed=0, known_images=ids), OptimState(total_steps=3)
        toy_model_module._make_plan.cache_clear()
        built.clear()
        for _ in range(3):
            _, model = train_step(model, samples, opt)
        for _ in range(2):
            for sample in samples:
                forward(model, sample)
        assert built == [len(samples)] + [1] * len(samples)


def test_plan_arrays_are_read_only():
    import mmchat.toy_model as toy_model_module

    samples = [small_sample(images=("a", "b")), small_sample(answer="z")]
    for training in (False, True):
        plan = toy_model_module._plan(samples, SMALL, training)
        arrays = plan_arrays(plan)
        assert any(term.limit is not None for term in plan.layout.terms)
        for array in arrays:
            assert array.size <= plan.layout.d  # no rows x keys array
            assert array.flags.owndata and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]


def test_a_cached_plan_still_checks_the_model(monkeypatch):
    """A plan holds nothing of a model: a bin planned under one model is
    checked again against each model's stub and image width."""
    import mmchat.toy_model as toy_model_module

    sample = small_sample(images=("a", "b"))
    toy_model_module._make_plan.cache_clear()
    forward(small_model(images=("a", "b")), sample)
    loss_and_param_grads(small_model(images=("a", "b")), sample)
    assert toy_model_module._make_plan.cache_info().currsize == 2
    monkeypatch.setattr(toy_model_module, "build_layout", None)  # a cached plan builds nothing
    wider = replace(SMALL, image_token_count=3)
    for run in (forward, loss_and_param_grads):
        with pytest.raises(ValueError, match="unknown image id: 'b'"):
            run(small_model(images=("a",)), sample)
        with pytest.raises(ValueError, match="image block has 2 tokens; model expects 3"):
            run(small_model(wider, images=("a", "b")), sample)


def test_a_cached_plan_still_checks_the_vocabulary(monkeypatch):
    """A plan keeps its token ids' range, not a verdict on it: a bin planned
    under one model is rejected by a model whose vocabulary is too small
    for its ids."""
    import mmchat.toy_model as toy_model_module

    sample = small_sample()
    toy_model_module._make_plan.cache_clear()
    forward(small_model(), sample)
    loss_and_param_grads(small_model(), sample)
    assert toy_model_module._make_plan.cache_info().currsize == 2
    monkeypatch.setattr(toy_model_module, "build_layout", None)  # a cached plan builds nothing
    smaller = replace(SMALL, vocab_size=max(sample.token_ids))
    for run in (forward, loss_and_param_grads):
        with pytest.raises(ValueError, match="token id out of vocabulary range"):
            run(small_model(smaller), sample)


@pytest.mark.parametrize("variant", list(AttentionVariant))
def test_cold_and_warm_plans_give_bit_identical_passes(variant):
    import mmchat.toy_model as toy_model_module

    config = replace(SMALL, variant=variant)
    samples = [small_sample(config, images=("a", "b")), small_sample(config, answer="z"),
               small_sample(config, images=("b",))]
    model = small_model(config, images=("a", "b"))
    runs = []
    for cache in ("cold", "warm"):
        if cache == "cold":
            toy_model_module._make_plan.cache_clear()
        loss, grads = _bin_loss_and_grads(model, samples)
        runs.append((loss, grads, [forward(model, sample) for sample in samples]))
    (loss, grads, logits), (warm_loss, warm_grads, warm_logits) = runs
    assert loss == warm_loss
    assert all(np.array_equal(grads[name], warm_grads[name]) for name in grads)
    assert all(np.array_equal(a, b) for a, b in zip(logits, warm_logits))


def test_plan_cache_keeps_the_most_recently_used_plans(monkeypatch):
    """A cache of two plans: a hit returns the kept plan and makes it the
    most recently used, and a new plan evicts the least recently used."""
    import mmchat.toy_model as toy_model_module

    wrapped = toy_model_module._make_plan.__wrapped__
    monkeypatch.setattr(toy_model_module, "_make_plan", functools.lru_cache(maxsize=2)(wrapped))
    a, b, c = (small_sample(images=(image,)) for image in "abc")  # equal in size, not equal

    def plan(sample):
        return toy_model_module._plan([sample], SMALL, True)

    def misses():
        return toy_model_module._make_plan.cache_info().misses

    plan_a, plan_b = plan(a), plan(b)
    assert plan(a) is plan_a and misses() == 2  # a hit, and now the most recently used
    plan_c = plan(c)  # evicts b, the least recently used
    assert plan(a) is plan_a and plan(c) is plan_c and misses() == 3
    assert plan(b) is not plan_b and misses() == 4  # b was gone: planned again, evicting a
    assert plan(c) is plan_c and misses() == 4
    assert plan(a) is not plan_a and misses() == 5
    assert toy_model_module._make_plan.cache_info().currsize == 2


def long_text_sample(first):
    """A 4,096-token text-only sample (one per ``first`` token id) that
    ``forward`` can plan: one text term whose triangle spans every row."""
    ids = (first, *range(4095))
    tags = ModalitySequence((0,) * len(ids))
    return RenderedSample(ids, tags, (False,) * (len(ids) - 1) + (True,), ())


@pytest.mark.parametrize("training", [False, True])
def test_a_plan_holds_no_rows_by_keys_array(training):
    """A term stores one key count per row, so a forward or training plan
    of a 4,096-token text-only sample holds under 1 MiB, where its dense
    rows x keys mask alone would take 16 MiB, and a full cache of
    ``_PLANS`` such distinct bins frees at most 32 MiB when cleared, as
    tracemalloc traces it."""
    import gc

    import mmchat.toy_model as toy_model_module

    count = toy_model_module._PLANS
    assert toy_model_module._make_plan.cache_info().maxsize == count
    samples = [long_text_sample(first) for first in range(count)]
    toy_model_module._make_plan.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = toy_model_module._plan(samples[:1], ModelConfig(), training)
        one = tracemalloc.get_traced_memory()[0] - before
        for sample in samples[1:]:
            toy_model_module._plan([sample], ModelConfig(), training)
        assert toy_model_module._make_plan.cache_info().currsize == count  # full: nothing evicted
        del plan
        gc.collect()
        full = tracemalloc.get_traced_memory()[0]
        toy_model_module._make_plan.cache_clear()
        gc.collect()
        freed = full - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert one < 1 << 20, one
    assert freed <= 32 << 20, freed


# ---------------------------------------------------------------------------
# Optimizer and training


def test_optim_state_validation_and_warmup():
    with pytest.raises(ValueError):
        OptimState(total_steps=0)
    opt = OptimState(total_steps=200, learning_rate=1e-3)
    assert abs(opt.current_learning_rate() - 1e-3 / 20) < 1e-15
    opt.step = 19
    assert abs(opt.current_learning_rate() - 1e-3) < 1e-15
    opt.step = 9
    assert abs(opt.current_learning_rate() - 1e-3 / 2) < 1e-15  # linear over 20 of 200 steps
    opt.step = 100
    assert opt.current_learning_rate() == 1e-3


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"total_steps": 2.5}, "total_steps must be an integer >= 1, got 2.5"),
        ({"total_steps": True}, "total_steps must be an integer >= 1, got True"),
        ({"total_steps": 10, "learning_rate": math.nan}, "learning_rate must be finite and >= 0, got nan"),
        ({"total_steps": 10, "learning_rate": math.inf}, "learning_rate must be finite and >= 0, got inf"),
        ({"total_steps": 10, "learning_rate": -1e-3}, "learning_rate must be finite and >= 0, got -0.001"),
    ],
)
def test_optim_state_rejects_non_integer_steps_and_non_finite_rates(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        OptimState(**kwargs)


def test_train_step_zero_learning_rate_is_identity():
    model = small_model()
    sample = small_sample()
    opt = OptimState(total_steps=3, learning_rate=0.0)
    _, model2 = train_step(model, [sample], opt)
    assert np.array_equal(model2.projection, model.projection)
    assert np.array_equal(model2.embedding, model.embedding)


def test_train_step_applies_the_update_rule():
    """Three steps against the rule written out from the gradients: v is
    the 0.95-decayed sum of squared gradients, scaled by 0.05 and divided
    by 1 - 0.95**t, and the rate ramps up over ceil(0.1 * 20) = 2 steps."""
    model, sample = small_model(), small_sample()
    opt = OptimState(total_steps=20, learning_rate=1e-2)
    reference = model
    history = {"projection": [], "embedding": []}
    for t in (1, 2, 3):
        expected_loss, grads = loss_and_param_grads(reference, sample)
        loss, model = train_step(model, [sample], opt)
        assert loss == pytest.approx(expected_loss, rel=1e-12)
        rate = 1e-2 * min(t, 2) / 2
        updated = {}
        for name, grad in grads.items():
            history[name].append(grad)
            v = 0.05 * sum(0.95 ** (t - k) * g * g for k, g in enumerate(history[name], start=1))
            np.testing.assert_allclose(opt.v[name], v, rtol=1e-12, atol=0)
            v_hat = v / (1.0 - 0.95**t)
            updated[name] = getattr(reference, name) - rate * grad / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(getattr(model, name), updated[name], rtol=1e-12, atol=0)
        reference = replace(reference, **updated)
    assert opt.step == 3


def test_train_step_freezes_decoder():
    model = small_model()
    sample = small_sample()
    fp = frozen_fingerprint(model)
    opt = OptimState(total_steps=10, learning_rate=1e-2)
    current = model
    for _ in range(10):
        _, current = train_step(current, [sample], opt)
    assert frozen_fingerprint(current) == fp
    trainable = model.trainable_params()
    for (na, a), (nb, b) in zip(model.named_tensors().items(), current.named_tensors().items()):
        assert na == nb
        assert (a is b) is (na not in trainable)  # frozen tensors are shared, not copied
    assert not np.array_equal(current.projection, model.projection)


def test_train_step_rejects_empty_batch():
    with pytest.raises(ValueError, match="non-empty"):
        train_step(small_model(), [], OptimState(total_steps=1))


def train_copy_task(config, num_images, steps):
    """``steps`` full-batch train_steps on the copy task from a seed-0
    model: the trained model and the loss of each step."""
    samples, ids = make_copy_task(config, num_images=num_images)
    model = make_model(config, seed=0, known_images=ids)
    opt = OptimState(total_steps=steps)
    losses = []
    for _ in range(steps):
        loss, model = train_step(model, samples, opt)
        losses.append(loss)
    return model, losses


def test_training_is_deterministic():
    a_model, a_losses = train_copy_task(ModelConfig(), 4, 20)
    b_model, b_losses = train_copy_task(ModelConfig(), 4, 20)
    assert a_losses == b_losses
    assert np.array_equal(a_model.projection, b_model.projection)
    assert np.array_equal(a_model.embedding, b_model.embedding)


def test_copy_task_loss_decreases():
    _, losses = train_copy_task(ModelConfig(), 8, 40)
    assert losses[-1] < losses[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("variant", list(AttentionVariant))
@pytest.mark.parametrize("tensor", ["block0.attn.wq", "block1.attn.wk", "block0.attn.wv",
                                    "block1.attn.wo", "block0.w1", "block1.w2", "stub.img0"])
def test_a_nonfinite_frozen_tensor_is_an_error_never_a_value(tensor, variant, value):
    """The multi-head wrapper does not check the Q/K/V it projects; a NaN or
    inf in any frozen tensor the copy task reads still ends ``forward`` and
    ``train_step`` in an error (the kernel's output or gradient check, or
    the logits check), never in a non-finite value or a NumPy warning. The
    one call that returns is ``forward`` with an infinite ``w1`` entry:
    tanh saturates, so its logits are finite, and the feedforward VJP's
    0 * inf makes the attention VJP's ``dout`` NaN, which it names."""
    config = ModelConfig(variant=variant)
    batch, image_ids = make_copy_task(config)
    model = make_model(config, seed=0, known_images=image_ids)
    model.named_tensors()[tensor].flat[0] = value  # frozen arrays are shared: this edits the model
    with pytest.raises((ValueError, FloatingPointError)) as caught:
        train_step(model, batch, OptimState(total_steps=1))
    if value == math.inf and tensor == "block0.w1":
        assert str(caught.value) == "dout contains non-finite values"
        assert np.isfinite(forward(model, batch[0])).all()
    else:
        with pytest.raises((ValueError, FloatingPointError)):
            forward(model, batch[0])


@pytest.mark.filterwarnings("error")
def test_a_step_that_overflows_the_parameters_fails_the_next_step():
    """At learning rate 1e308 one copy-task step still returns finite
    parameters; the next step's first attention pass rejects what they
    project to, with no NumPy warning from the matmuls that overflow first."""
    config = ModelConfig()
    batch, image_ids = make_copy_task(config)
    model = make_model(config, seed=0, known_images=image_ids)
    opt = OptimState(total_steps=2, learning_rate=1e308)
    loss, model = train_step(model, batch, opt)
    assert math.isfinite(loss)
    assert all(np.isfinite(a).all() for a in model.trainable_params().values())
    with pytest.raises(ValueError, match="contains non-finite values"):
        train_step(model, batch, opt)


# ---------------------------------------------------------------------------
# Checkpoints


@pytest.mark.parametrize("num_layers", [1, 3])
@pytest.mark.parametrize("variant", [v.value for v in AttentionVariant])
def test_checkpoint_roundtrip(tmp_path, variant, num_layers):
    config = ModelConfig(**{**SMALL.__dict__, "variant": variant, "num_layers": num_layers})
    images = ("a", "img1")
    model = small_model(config, seed=4, images=images)
    sample = small_sample(config, images=images)
    path = tmp_path / "model"
    save_model(model, path)
    assert list(tmp_path.iterdir()) == [path]  # exactly the path given, no ".npz" added
    loaded = load_model(path)
    assert loaded.config == model.config and loaded.stub_seed == 4
    saved, restored = model.named_tensors(), loaded.named_tensors()
    assert list(restored) == list(saved)
    for name, array in saved.items():
        assert np.array_equal(restored[name], array), name
    assert frozen_fingerprint(loaded) == frozen_fingerprint(model)
    assert np.array_equal(forward(loaded, sample), forward(model, sample))


def single_array_file(path):
    with open(path, "wb") as handle:
        np.save(handle, np.zeros(3))


def truncated_checkpoint(path):
    save_model(small_model(), path)
    path.write_bytes(path.read_bytes()[:200])


@pytest.mark.parametrize(
    "write",
    [
        single_array_file,
        lambda path: path.write_bytes(b""),
        truncated_checkpoint,
        lambda path: path.write_text("not a checkpoint\n", encoding="utf-8"),
    ],
    ids=["npy", "empty", "truncated-npz", "text"],
)
def test_load_model_rejects_a_file_that_is_not_an_archive(tmp_path, write):
    path = tmp_path / "model.npz"
    with pytest.raises(FileNotFoundError):  # a missing file stays an OSError
        load_model(path)
    write(path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is not a checkpoint archive"):
        load_model(path)


@pytest.mark.parametrize(("where", "message"), [
    ("100", "Bad CRC"), ("middle", "Bad CRC"), ("end-300", "Bad CRC"), ("version", "zip file version"),
], ids=["100", "middle", "end-300", "version"])
def test_load_model_rejects_a_corrupt_member(tmp_path, where, message):
    """One flipped byte in a member's data fails that member's CRC when it
    is read, after the archive opened; one in the version a member needs
    fails the opening. Each is the same ``ValueError`` as a file that is no
    archive."""
    path = tmp_path / "model.npz"
    save_model(make_model(ModelConfig()), path)
    raw = bytearray(path.read_bytes())
    offsets = {"100": 100, "middle": len(raw) // 2, "end-300": len(raw) - 300,
               "version": raw.index(b"PK\x01\x02") + 6}  # the first directory entry's
    raw[offsets[where]] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is not a checkpoint archive: {message}"):
        load_model(path)


@pytest.mark.parametrize("back", [4, 3])
def test_load_model_rejects_a_directory_offset_before_the_file(tmp_path, back):
    """Bytes 4 and 3 from the end hold the high half of the directory's
    offset in the end-of-central-directory record; one flipped puts every
    member before the start of the file, whose seek fails with EINVAL. That
    is the same ``ValueError`` as any corrupt archive, while a missing file
    stays an ``OSError``."""
    path = tmp_path / "model.npz"
    with pytest.raises(FileNotFoundError):
        load_model(path)
    save_model(make_model(ModelConfig()), path)
    raw = bytearray(path.read_bytes())
    raw[-back] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is not a checkpoint archive: .*Invalid argument"):
        load_model(path)


def test_load_model_corruption_sweep_raises_only_value_error(tmp_path):
    """Every 20th byte of a checkpoint, and every byte of its 22-byte
    end-of-central-directory record, flipped one at a time: each load
    raises ``ValueError`` and nothing else, or returns the saved model
    (the flip hit a byte no check reads)."""
    path = tmp_path / "model.npz"
    saved = make_model(ModelConfig())
    save_model(saved, path)
    raw, expected = path.read_bytes(), saved.named_tensors()
    offsets = sorted({*range(0, len(raw), 20), *range(len(raw) - 22, len(raw))})
    rejected = 0
    for offset in offsets:
        flipped = bytearray(raw)
        flipped[offset] ^= 0xFF
        path.write_bytes(bytes(flipped))
        try:
            loaded = load_model(path)
        except ValueError:
            rejected += 1
            continue
        tensors = loaded.named_tensors()
        assert loaded.config == saved.config and loaded.stub_seed == saved.stub_seed
        assert all(np.array_equal(tensors[name], a) for name, a in expected.items())
    assert 0 < rejected < len(offsets)  # the sweep reaches both outcomes


def rewritten_checkpoint(tmp_path, change=None, encode=json.dumps):
    """A checkpoint of the small model whose manifest ``change`` edits in
    place and ``encode`` writes; with no ``change`` the manifest is
    dropped."""
    path = tmp_path / "model.npz"
    save_model(small_model(), path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    manifest = json.loads(bytes(arrays.pop("__manifest__")).decode("utf-8"))
    if change is not None:
        change(manifest)
        arrays["__manifest__"] = np.frombuffer(encode(manifest).encode("utf-8"), dtype=np.uint8)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    return bad


def test_checkpoint_version_check(tmp_path):
    bad = rewritten_checkpoint(tmp_path, lambda manifest: manifest.update(format_version=99))
    with pytest.raises(ValueError, match="unsupported checkpoint format"):
        load_model(bad)


def test_checkpoint_of_format_version_1_is_unsupported(tmp_path):
    # a version-1 manifest names normalize_dual_softmax, which ModelConfig lacks
    assert CHECKPOINT_FORMAT_VERSION == 2

    def version_1(manifest):
        manifest.update(format_version=1)
        manifest["config"]["normalize_dual_softmax"] = False

    with pytest.raises(ValueError, match="unsupported checkpoint format: 1"):
        load_model(rewritten_checkpoint(tmp_path, version_1))


def test_checkpoint_config_must_have_exactly_the_config_fields(tmp_path):
    unexpected = rewritten_checkpoint(
        tmp_path, lambda manifest: manifest["config"].update(normalize_dual_softmax=True)
    )
    with pytest.raises(
        ValueError, match=r"missing: \[\], unexpected: \['normalize_dual_softmax'\]"
    ):
        load_model(unexpected)
    missing = rewritten_checkpoint(tmp_path, lambda manifest: manifest["config"].pop("ffn_dim"))
    with pytest.raises(ValueError, match=r"missing: \['ffn_dim'\], unexpected: \[\]"):
        load_model(missing)


def test_checkpoint_without_a_manifest_rejected(tmp_path):
    with pytest.raises(ValueError, match="checkpoint has no __manifest__"):
        load_model(rewritten_checkpoint(tmp_path))
    for key in ("config", "known_images", "stub_seed"):
        bad = rewritten_checkpoint(tmp_path, lambda manifest: manifest.pop(key))
        with pytest.raises(ValueError, match=f"checkpoint manifest is missing: {key}$"):
            load_model(bad)


def test_checkpoint_manifest_must_be_an_object(tmp_path):
    bad = rewritten_checkpoint(tmp_path, lambda manifest: None, lambda m: json.dumps([m]))
    with pytest.raises(ValueError, match="checkpoint manifest must be an object, got list"):
        load_model(bad)


def test_checkpoint_manifest_nested_too_deeply_is_rejected(tmp_path):
    bad = rewritten_checkpoint(tmp_path, lambda manifest: None, lambda m: "[" * 200_000)
    with pytest.raises(ValueError, match="checkpoint manifest is nested too deeply"):
        load_model(bad)


@pytest.mark.parametrize(
    ("change", "message"),
    [
        (lambda manifest: manifest.update(config=[1]), "config must be an object, got list"),
        (lambda manifest: manifest.update(known_images=3), "known_images must be a list of strings"),
        (lambda manifest: manifest.update(known_images="ab"), "known_images must be a list of strings"),
        (lambda manifest: manifest.update(known_images=["a", 1]), "known_images must be a list"),
        (lambda manifest: manifest.update(stub_seed="x"), "stub_seed must be an integer >= 0"),
        (lambda manifest: manifest.update(stub_seed=True), "stub_seed must be an integer >= 0"),
        (lambda manifest: manifest.update(stub_seed=-1), "stub_seed must be an integer >= 0"),
        (lambda manifest: manifest["config"].update(num_heads=2.0), "num_heads must be an integer"),
    ],
    ids=["config-list", "known_images-int", "known_images-str", "known_images-mixed",
         "stub_seed-str", "stub_seed-bool", "stub_seed-negative", "num_heads-float"],
)
def test_checkpoint_manifest_types_validated(tmp_path, change, message):
    with pytest.raises(ValueError, match=message):
        load_model(rewritten_checkpoint(tmp_path, change))


@pytest.mark.parametrize(
    ("name", "corrupt", "message"),
    [
        ("projection", lambda a: np.zeros((3, 3)), r"shape \(3, 3\), expected \(8, 16\)"),
        ("embedding", lambda a: a * np.nan, "embedding contains non-finite"),
        ("block1.w1", lambda a: a.astype(np.float32), "block1.w1 has dtype float32"),
        ("block0.attn.wo", lambda a: None, "missing tensor block0.attn.wo"),
        ("stub.img0", lambda a: np.zeros((5, 8)), r"stub.img0 has shape \(5, 8\)"),
        ("block0.attn.wkx", lambda a: np.zeros((2, 16, 8)), "unexpected tensors: block0.attn.wkx"),
        ("cross:block0.attn.wvx", lambda a: None, "missing tensor block0.attn.wvx"),
    ],
)
def test_checkpoint_tensors_validated(tmp_path, name, corrupt, message):
    # a "variant:" prefix on the tensor name picks the model's variant (mmca by default)
    variant, _, name = name.rpartition(":")
    model = make_model(ModelConfig(variant=variant or "mmca"), seed=0, known_images=("img0",))
    path = tmp_path / "model.npz"
    save_model(model, path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    value = corrupt(arrays.pop(name, None))
    if value is not None:
        arrays[name] = value
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    with pytest.raises(ValueError, match=message):
        load_model(bad)


def test_checkpoint_config_sizes_checked_before_allocating(tmp_path):
    """A manifest naming a size far above its tensors' is rejected with the
    tensor's shape error before the model of that size is built."""
    path = tmp_path / "model.npz"
    save_model(make_model(ModelConfig(), seed=0), path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    manifest = json.loads(bytes(arrays["__manifest__"]).decode("utf-8"))
    manifest["config"]["vocab_size"] = 100000
    arrays["__manifest__"] = np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError, match=r"tensor embedding has shape \(32, 16\), expected \(100000, 16\)"
        ):
            load_model(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the model would take 12.8 MB for its embedding alone
