"""End-to-end acceptance suite.

One test per acceptance criterion, in order. Each prints a single
[PASS]/[FAIL] line to the real stdout (bypassing capture) so the verdicts
are visible in a plain ``pytest -v`` run, then asserts.
"""

import time

import numpy as np
import pytest

from mmchat.attn import (
    attention_weights,
    init_multi_head_params,
    segment_attention,
    variant_grad_check,
)
from mmchat.blend import (
    BlendSpec,
    Dataset,
    SourceRecord,
    concat_blend,
    filter_limits,
    llava_otter_blend,
    read_records,
    write_records,
)
from mmchat.cli import main
from mmchat.mask import AttentionVariant, build_layout, build_mask
from mmchat.modseq import LayoutConfig, TokenKind, build_sequence
from mmchat.template import Conversation, HashTokenizer, Round, parse, render, render_text
from mmchat.toy_model import (
    ModelConfig,
    OptimState,
    answer_loss,
    frozen_fingerprint,
    make_copy_task,
    make_model,
    train_step,
)

from oracles import (
    IdPool,
    join_oracle,
    llava_dial_record,
    llava_record,
    naive_mmca,
    otter_record,
    random_conversation,
    random_words,
    token_count,
)

I, T = TokenKind.IMAGE, TokenKind.TEXT


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_stream(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name} ({detail})"
    with _CAPSYS.disabled():
        print("\n" + line)
    assert ok, line


def _random_segments(rng, d, require_mixed=False):
    while True:
        segments, total = [], 0
        while total < d:
            size = int(rng.integers(1, min(5, d - total) + 1))
            kind = I if rng.random() < 0.4 else T
            segments.append((kind, size))
            total += size
        kinds = {kind for kind, _ in segments}
        if not require_mixed or len(kinds) == 2:
            return segments


def _random_instance(rng, d, h=4, require_mixed=False):
    seq = build_sequence(_random_segments(rng, d, require_mixed))
    q = rng.standard_normal((d, h))
    k = rng.standard_normal((d, h))
    v = rng.standard_normal((d, h))
    return seq, q, k, v, 1.0 / np.sqrt(h)


def test_criterion_01_mask_rule_suite():
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(500):
        d = int(rng.integers(1, 65))
        seq = build_sequence(_random_segments(rng, d))
        entries = build_mask(seq, "mmca").entries
        is_image = seq.is_image()
        block = np.array(seq.ids)
        # key-modality labeling: 1 only on text keys, 2 only on image keys
        if (entries[:, is_image] == 1).any() or (entries[:, ~is_image] == 2).any():
            violations += 1
            continue
        # text causality: text rows never attend to later positions
        text_rows = ~is_image
        if any(entries[i, i + 1 :].any() for i in np.flatnonzero(text_rows)):
            violations += 1
            continue
        # image-block isolation: image rows see exactly their own block
        bad = False
        for i in np.flatnonzero(is_image):
            want = is_image & (block == block[i])
            if not np.array_equal(entries[i] != 0, want):
                bad = True
        if bad:
            violations += 1
            continue
        # text-only collapse: no images -> identical to the causal mask
        if not is_image.any() and not np.array_equal(
            entries, build_mask(seq, "causal").entries
        ):
            violations += 1
    _report(1, "mask-rule suite", violations == 0,
            f"500 random layouts d<=64, {violations} violations")


def test_criterion_02_formula_fidelity():
    rng = np.random.default_rng(102)
    worst_sum, worst_out = 0.0, 0.0
    for _ in range(100):
        d = int(rng.integers(2, 17))
        seq, q, k, v, scale = _random_instance(rng, d)
        layout = build_layout(seq, AttentionVariant.MMCA)
        out, saved = segment_attention(layout, scale, q, k, v)
        a1, a2 = attention_weights(saved)
        for a in (a1, a2):
            sums = a.sum(axis=1)
            empty = ~(a != 0).any(axis=1)
            worst_sum = max(worst_sum, np.abs(np.where(empty, 0.0, sums - 1.0)).max())
        recomputed = (a1 + a2) @ v
        reference = naive_mmca(q, k, v, build_mask(seq, "mmca").entries, scale)
        worst_out = max(
            worst_out,
            np.abs(out - recomputed).max(),
            np.abs(out - reference).max(),
        )
    ok = worst_sum <= 1e-12 and worst_out <= 1e-12
    _report(2, "dual-softmax formula fidelity", ok,
            f"100 instances, row-sum err {worst_sum:.2e}, output err {worst_out:.2e}")


def test_criterion_03_text_only_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 17))
        seq = build_sequence([(T, d)])
        h = 4
        q, k, v, kx, vx = (rng.standard_normal((d, h)) for _ in range(5))
        scale = 1.0 / np.sqrt(h)
        out = {
            variant: segment_attention(build_layout(seq, variant), scale, q, k, v, kx, vx)[0]
            for variant in AttentionVariant
        }
        out_ca = out[AttentionVariant.CAUSAL_ONLY]
        worst = max(
            worst,
            np.abs(out[AttentionVariant.MMCA] - out_ca).max(),
            np.abs(out[AttentionVariant.CAUSAL_PLUS_CROSS] - out_ca).max(),
        )
    _report(3, "text-only variant equivalence", worst <= 1e-12,
            f"100 image-free instances, max deviation {worst:.2e}")


def test_criterion_04_zero_leak():
    rng = np.random.default_rng(104)
    exact_ok = True
    worst_fd = 0.0
    eps = 1e-3
    for _ in range(50):
        d = int(rng.integers(3, 13))
        seq, q, k, v, scale = _random_instance(rng, d, require_mixed=True)
        masked = build_mask(seq, "mmca").entries == 0
        layout = build_layout(seq, AttentionVariant.MMCA)

        def forward(values):
            return segment_attention(layout, scale, q, k, values)[0]

        base = forward(v)
        for j in range(d):
            rows = np.flatnonzero(masked[:, j])
            if rows.size == 0:
                continue
            bumped = v.copy()
            bumped[j] += 0.73
            if not (forward(bumped)[rows] == base[rows]).all():
                exact_ok = False
            for c in range(v.shape[1]):
                vp, vm = v.copy(), v.copy()
                vp[j, c] += eps
                vm[j, c] -= eps
                fd = (forward(vp)[rows] - forward(vm)[rows]) / (2 * eps)
                worst_fd = max(worst_fd, np.abs(fd).max())
    ok = exact_ok and worst_fd < 1e-10
    _report(4, "zero-leak across masked edges", ok,
            f"50 mixed instances, exact={exact_ok}, max numeric grad {worst_fd:.2e}")


def test_criterion_05_gradient_checks():
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    worst = 0.0
    for variant in AttentionVariant:
        for seed in range(20):
            d = int(rng.integers(4, 13))
            seq = build_sequence(_random_segments(rng, d, require_mixed=d >= 2))
            err = variant_grad_check(build_layout(seq, variant), head_dim=4, eps=1e-5, seed=seed)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    _report(5, "finite-difference gradient checks", ok,
            f"20 seeds x 3 variants, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_freeze_contract_and_copy_task():
    config = ModelConfig()
    samples, image_ids = make_copy_task(config)
    model = make_model(config, seed=0, known_images=image_ids)
    before = frozen_fingerprint(model)
    start = time.perf_counter()
    opt, losses = OptimState(total_steps=200), []
    for _ in range(200):
        loss, model = train_step(model, samples, opt)
        losses.append(loss)
    elapsed = time.perf_counter() - start
    frozen_ok = frozen_fingerprint(model) == before
    halved = losses[-1] < 0.5 * losses[0]
    ok = frozen_ok and halved and elapsed < 120.0
    _report(6, "freeze contract + copy-task learning", ok,
            f"200 steps, loss {losses[0]:.3f}->{losses[-1]:.3f}, "
            f"frozen unchanged={frozen_ok}, {elapsed:.1f}s")


def test_criterion_07_loss_masking():
    rng = np.random.default_rng(107)
    layout = LayoutConfig(image_token_count=2, max_sequence_length=4096)
    tokenizer = HashTokenizer(32)
    changed = 0
    for _ in range(100):
        sample = render(random_conversation(rng), tokenizer, layout)
        d = sample.d
        logits = rng.standard_normal((d, 32))
        base = answer_loss(logits, sample)
        targets = set(np.flatnonzero(np.asarray(sample.loss_mask[1:])).tolist())
        non_targets = [t for t in range(d) if t not in targets]
        row = int(rng.choice(non_targets))
        perturbed = logits.copy()
        perturbed[row] += rng.standard_normal(32) * 10.0
        if answer_loss(perturbed, sample) != base:
            changed += 1
    _report(7, "answer-only loss masking", changed == 0,
            f"100 non-answer perturbation trials, {changed} changed the loss")


def _multi_image_record(rng, pool, num_images, long_answer=False):
    ids = tuple(pool.next() for _ in range(num_images))
    rounds, remaining = [], list(ids)
    while remaining:
        take = min(len(remaining), int(rng.integers(1, 4)))
        images, remaining = tuple(remaining[:take]), remaining[take:]
        answer = random_words(rng, 150, 250) if long_answer else random_words(rng, 1, 5)
        rounds.append(Round(images, random_words(rng, 1, 5), answer))
        long_answer = False
    conv = Conversation(random_words(rng, 1, 3), tuple(rounds))
    return SourceRecord(Dataset.OTHER, ids, conv)


def test_criterion_08_blending_determinism_and_conservation(tmp_path):
    rng = np.random.default_rng(108)

    # concat: byte-reproducible across two independent runs from disk
    corpus = [llava_record(rng, f"img{i}") for i in range(1000)]
    src = tmp_path / "corpus.jsonl"
    write_records(corpus, src)
    spec = BlendSpec(min_group=1, max_group=3, seed=41)
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(concat_blend(read_records(src), spec), out_a)
    write_records(concat_blend(read_records(src), spec), out_b)
    deterministic = out_a.read_bytes() == out_b.read_bytes()

    # concat: conserves rounds, image slots, and the answer multiset
    blended = read_records(out_a)

    def totals(records):
        rounds = sum(len(r.conversation.rounds) for r in records)
        images = sum(len(r.image_ids) for r in records)
        answers = sorted(
            rnd.answer for r in records for rnd in r.conversation.rounds
        )
        return rounds, images, answers

    conserved = totals(blended) == totals(corpus)

    # join: matches the brute-force oracle record-for-record
    pool_ids = [f"join{i}" for i in range(700)]
    llava = [llava_record(rng, pool_ids[int(rng.integers(0, 700))]) for _ in range(500)]
    dial = [llava_dial_record(rng, pool_ids[int(rng.integers(0, 700))]) for _ in range(200)]
    otter = []
    for _ in range(300):
        a, b = (pool_ids[i] for i in rng.choice(700, size=2, replace=False))
        otter.append(otter_record(rng, a, b))
    join_ok = llava_otter_blend(llava, dial, otter) == join_oracle(llava, dial, otter)

    # filters: drop exactly the records an independent predicate flags
    pool = IdPool(np.random.default_rng(1080))
    mixed = []
    for _ in range(1000):
        roll = rng.random()
        num_images = int(rng.integers(9, 11)) if roll < 0.2 else int(rng.integers(1, 9))
        mixed.append(_multi_image_record(rng, pool, num_images, long_answer=roll > 0.8))
    filter_layout = LayoutConfig(image_token_count=8, max_sequence_length=160)
    kept, dropped = filter_limits(mixed, 8, filter_layout)
    expect_kept, expect_too_many, expect_long = [], 0, 0
    for record in mixed:
        if len(record.image_ids) > 8:
            expect_too_many += 1
        elif token_count(record.conversation, filter_layout) > 160:
            expect_long += 1
        else:
            expect_kept.append(record)
    filters_ok = (
        kept == expect_kept
        and dropped == {"too_many_images": expect_too_many, "over_length": expect_long}
        and expect_too_many > 0
        and expect_long > 0
    )

    ok = deterministic and conserved and join_ok and filters_ok
    _report(8, "blending determinism and conservation", ok,
            f"bytes={deterministic}, conserved={conserved}, join={join_ok}, "
            f"filters={filters_ok} (dropped {dropped})")


def test_criterion_09_template_round_trip():
    rng = np.random.default_rng(109)
    pool = IdPool(rng)
    failures = 0
    for _ in range(1000):
        conv = random_conversation(rng, pool)
        if parse(render_text(conv)) != conv:
            failures += 1
    _report(9, "template round-trip", failures == 0,
            f"1000 random conversations, {failures} failures")


def test_criterion_10_parameter_count_claim():
    rng = np.random.default_rng(0)
    counts = {
        variant.value: init_multi_head_params(variant, 2, 16, rng).param_count()
        for variant in AttentionVariant
    }
    ok = counts["mmca"] == counts["causal"] and counts["cross"] > counts["mmca"]
    _report(10, "parameter-count comparison", ok,
            f"causal={counts['causal']}, mmca={counts['mmca']}, cross={counts['cross']}")
    # cross adds Kx/Vx: 2 x heads x model_dim x head_dim = 512 per layer
    assert counts == {"causal": 1024, "mmca": 1024, "cross": 1536}
