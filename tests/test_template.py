import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmchat import template
from mmchat.modseq import LayoutConfig, ModalitySequence, image_blocks
from mmchat.template import (
    Conversation,
    HashTokenizer,
    OverLengthError,
    ParseError,
    RenderedSample,
    Round,
    count_tokens,
    parse,
    render,
    render_text,
)

from oracles import IdPool, random_conversation, token_count

TOK = HashTokenizer(32)
SMALL = LayoutConfig(image_token_count=2, max_sequence_length=4096)


def conv_1round(images=("a",), question="q", answer="x y", system="sys"):
    return Conversation(system=system, rounds=(Round(images, question, answer),))


# ---------------------------------------------------------------------------
# Tokenizer


def test_tokenizer_deterministic_and_bounded():
    tok = HashTokenizer(7)
    ids = tok.encode("one two one")
    assert ids == tok.encode("one two one")
    assert ids[0] == ids[2]
    assert all(0 <= i < 7 for i in ids)
    assert tok.encode("  spaced   out  ") == [tok.word_id("spaced"), tok.word_id("out")]
    with pytest.raises(ValueError):
        HashTokenizer(0)


def test_word_ids_match_the_formula_across_memo_eviction():
    vocab_sizes = (1, 7, 32, 2**61 - 1)
    tokenizers = [HashTokenizer(v) for v in vocab_sizes]

    def expected(word, vocab_size):
        digest = hashlib.blake2b(word.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") % vocab_size

    words = [f"w{i}-\u00e9" for i in range(5000)]  # more than the memo holds
    for i, word in enumerate(words + words[:100]):
        # Rotate which tokenizer sees a word first, so no vocab size owns
        # the memo entry.
        for k in range(len(tokenizers)):
            tok = tokenizers[(i + k) % len(tokenizers)]
            assert tok.word_id(word) == expected(word, tok.vocab_size)
    for start in range(0, len(words), 250):
        chunk = words[start : start + 250]
        for tok in reversed(tokenizers):
            assert tok.encode(" ".join(chunk)) == [expected(w, tok.vocab_size) for w in chunk]
    info = template._word_hash.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize <= 4096
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize("vocab_size", [2.5, 32.0, True, 0, -1, "32", None])
def test_tokenizer_rejects_non_integer_vocab_size(vocab_size):
    with pytest.raises(ValueError, match=r"^vocab_size must be an integer >= 1, got "):
        HashTokenizer(vocab_size)


# ---------------------------------------------------------------------------
# render (token form)


def test_render_structure_one_round():
    sample = render(conv_1round(), TOK, SMALL)
    # sys | ### Image 1: | <2 image tokens> | ### Question: q | ### Answer: | x y | eot
    expected_ids = [0] + [0] * 3 + [1] * 2 + [0] * 3 + [0] * 2 + [0] * 2 + [0]
    assert sample.tags.ids == tuple(expected_ids)
    assert sample.d == 14
    assert image_blocks(sample.tags) == [(1, 4, 6)]
    assert sample.image_count == 1
    assert sample.image_ids == ("a",)
    expected_loss = [False] * 11 + [True, True, True]
    assert list(sample.loss_mask) == expected_loss


def test_render_loss_mask_counts():
    conv = Conversation(
        system="sys here",
        rounds=(
            Round(("a",), "one question", "two word answer"),
            Round((), "next", "final reply here now"),
        ),
    )
    sample = render(conv, TOK, SMALL)
    answer_tokens = sum(len(r.answer.split()) for r in conv.rounds)
    assert sum(sample.loss_mask) == answer_tokens + len(conv.rounds)


def test_render_global_image_numbering():
    conv = Conversation(
        system="s",
        rounds=(
            Round(("a",), "q1", "a1"),
            Round(("b", "c"), "q2", "a2"),
            Round((), "q3", "a3"),
        ),
    )
    text = render_text(conv)
    assert "### Image 1: <image:a>" in text
    assert "### Image 2: <image:b>" in text
    assert "### Image 3: <image:c>" in text
    sample = render(conv, TOK, SMALL)
    assert [b[0] for b in image_blocks(sample.tags)] == [1, 2, 3]
    assert sample.image_ids == ("a", "b", "c")


def test_render_over_length_with_defaults():
    ids = tuple(f"im{i}" for i in range(17))
    conv = conv_1round(images=ids)
    with pytest.raises(OverLengthError, match="over_length"):
        render(conv, TOK, LayoutConfig())  # 17 * (3 + 256) tokens > 4096


def test_render_length_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        conv = random_conversation(rng)
        sample = render(conv, TOK, SMALL)
        assert sample.d == token_count(conv, SMALL)


def test_over_length_raises_before_hashing_a_word(monkeypatch):
    hashed = []
    monkeypatch.setattr(template, "_word_hash", lambda word: hashed.append(word) or 0)
    conv = conv_1round(images=("a", "b"), answer="fresh words never hashed")
    layout = LayoutConfig(image_token_count=4, max_sequence_length=10)
    with pytest.raises(OverLengthError, match=f"over_length: {token_count(conv, layout)} tokens"):
        render(conv, TOK, layout)
    assert hashed == []


def test_render_image_blocks_have_configured_width():
    conv = Conversation(
        system="s", rounds=(Round(("a", "b"), "q", "ans"),)
    )
    layout = LayoutConfig(image_token_count=5, max_sequence_length=100)
    sample = render(conv, TOK, layout)
    for _, start, end in image_blocks(sample.tags):
        assert end - start == 5


def test_monotone_length():
    conv = conv_1round()
    longer = Conversation(conv.system, conv.rounds + (Round((), "more", "words"),))
    assert render(longer, TOK, SMALL).d > render(conv, TOK, SMALL).d


# ---------------------------------------------------------------------------
# loss-mask spans


def loss_spans(sample):
    """Half-open index spans of the maximal true runs of the loss mask."""
    spans, pos = [], 0
    for flag, run in itertools.groupby(sample.loss_mask):
        size = len(list(run))
        if flag:
            spans.append((pos, pos + size))
        pos += size
    return spans


def test_loss_positions_span_counts():
    assert loss_spans(render(conv_1round(), TOK, SMALL)) == [(11, 14)]
    conv3 = Conversation(
        system="s",
        rounds=(
            Round(("a",), "q1", "a1"),
            Round((), "q2", "a2"),
            Round(("b",), "q3", "a3"),
        ),
    )
    sample = render(conv3, TOK, SMALL)
    spans = loss_spans(sample)
    assert len(spans) == 3  # one answer span per round, the last one ending the sample
    assert spans == sorted(spans) and spans[-1][1] == sample.d


def test_loss_spans_never_overlap_image_blocks():
    rng = np.random.default_rng(1)
    for _ in range(25):
        conv = random_conversation(rng)
        sample = render(conv, TOK, SMALL)
        image_positions = set(np.flatnonzero(sample.tags.is_image()).tolist())
        for start, end in loss_spans(sample):
            assert not image_positions.intersection(range(start, end))


@settings(max_examples=100)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_render_invariants_random_conversations(seed, image_tokens):
    conv = random_conversation(np.random.default_rng(seed))
    layout = LayoutConfig(image_tokens, 4096)
    sample = render(conv, TOK, layout)
    assert count_tokens(conv, layout) == sample.d == token_count(conv, layout)
    ids = sample.tags.ids
    assert not any(flag and bid for flag, bid in zip(sample.loss_mask, ids))
    runs = [(bid, len(list(run))) for bid, run in itertools.groupby(ids) if bid]
    image_count = len(conv.image_ids())
    assert [bid for bid, _ in runs] == list(range(1, image_count + 1))
    assert all(count == image_tokens for _, count in runs)
    assert sample.image_count == image_count
    assert sample.image_ids == conv.image_ids()
    loss_runs = [flag for flag, _ in itertools.groupby(sample.loss_mask) if flag]
    assert len(loss_runs) == len(conv.rounds)


# ---------------------------------------------------------------------------
# parse (text form inverse)


def test_parse_roundtrip_single_round_no_images():
    conv = conv_1round(images=(), question="only text", answer="reply")
    assert parse(render_text(conv)) == conv


def test_parse_roundtrip_two_rounds_fig_shape():
    conv = Conversation(
        system="Please describe.",
        rounds=(
            Round(("left",), "what is it", "a bird"),
            Round(("mid", "right"), "and these", "two more birds"),
        ),
    )
    assert parse(render_text(conv)) == conv


def test_parse_answer_before_question():
    text = "sys\n\n### Answer: x"
    with pytest.raises(ParseError, match="question header"):
        parse(text)


def test_parse_missing_blank_line():
    with pytest.raises(ParseError, match="blank line") as info:
        parse("sys\n### Question: q\n### Answer: a")
    assert info.value.line == 2


def test_parse_wrong_image_number():
    text = "sys\n\n### Image 2: <image:a>\n### Question: q\n### Answer: a"
    with pytest.raises(ParseError, match="expected 1"):
        parse(text)


def test_parse_malformed_image_line():
    text = "sys\n\n### Image 1: <image:>\n### Question: q\n### Answer: a"
    with pytest.raises(ParseError, match="malformed image line"):
        parse(text)


def test_parse_duplicate_image_ids():
    text = (
        "sys\n\n### Image 1: <image:a>\n### Question: q\n### Answer: a\n"
        "\n### Image 2: <image:a>\n### Question: q\n### Answer: a"
    )
    with pytest.raises(ParseError, match="introduced twice"):
        parse(text)


def test_parse_requires_a_round():
    with pytest.raises(ParseError):
        parse("sys")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse("sys\n\nnot a header")
    assert info.value.line == 3


@settings(max_examples=100)
@given(st.integers(0, 10**9))
def test_roundtrip_random_conversations(seed):
    conv = random_conversation(np.random.default_rng(seed))
    assert parse(render_text(conv)) == conv


# ---------------------------------------------------------------------------
# Validation


def test_round_validation():
    with pytest.raises(ValueError, match="question"):
        Round((), "", "a")
    with pytest.raises(ValueError, match="single line"):
        Round((), "q", "a\nb")
    with pytest.raises(ValueError, match="image id"):
        Round(("bad id",), "q", "a")
    with pytest.raises(ValueError, match="image id"):
        Round(("<x>",), "q", "a")
    with pytest.raises(ValueError, match="image id"):
        Round(("",), "q", "a")


def test_conversation_validation():
    with pytest.raises(ValueError, match="at least one round"):
        Conversation("s", ())
    with pytest.raises(ValueError, match="introduced twice"):
        Conversation(
            "s", (Round(("a",), "q", "x"), Round(("a",), "q", "x"))
        )
    with pytest.raises(ValueError, match="single line"):
        Conversation("two\nlines", (Round((), "q", "a"),))
    empty_system = Conversation("", (Round((), "q", "a"),))
    assert parse(render_text(empty_system)) == empty_system


def test_rendered_sample_validation():
    tags = ModalitySequence((0, 1))
    with pytest.raises(ValueError, match="equal length"):
        RenderedSample((1,), tags, (False,), ("a",))
    with pytest.raises(ValueError, match="text positions"):
        RenderedSample((1, 2), tags, (False, True), ("a",))
    for ids in (("a", "b"), ()):
        with pytest.raises(ValueError, match="one id per image block"):
            RenderedSample((1, 2), tags, (False, False), ids)
    ok = RenderedSample((1, 2), tags, (True, False), ("a",))
    assert ok.d == 2 and ok.image_count == 1


@st.composite
def edge_layouts(draw):
    """Block-id vectors of 1-24 tokens: text runs and image runs, image ids
    rising by 1-3 per block, so text-only, image-only, adjacent blocks,
    1-token blocks and d=1 all occur."""
    ids, block = [], 0
    runs = st.tuples(st.booleans(), st.integers(1, 4), st.integers(1, 3))
    for is_image, count, step in draw(st.lists(runs, min_size=1, max_size=6)):
        block += step if is_image else 0
        ids += [block if is_image else 0] * count
    return ids


def _with_mask_and_id_count(ids):
    mask = st.lists(st.booleans(), min_size=len(ids), max_size=len(ids))
    return st.tuples(st.just(ids), mask, st.integers(0, 6))


@given(edge_layouts().flatmap(_with_mask_and_id_count))
@example(([0], [True], 0))  # d=1, text
@example(([2], [True], 1))  # d=1, image, flagged
@example(([2], [False], 0))  # d=1, image, no id
@example(([0, 0, 0], [False, True, True], 0))  # text-only
@example(([1, 1, 2, 2, 2], [False] * 5, 2))  # image-only, adjacent blocks
@example(([1, 2, 3], [False] * 3, 4))  # 1-token blocks, one id too many
@example(([0, 0, 1, 0, 3, 3, 0], [True, False, False, True, False, False, True], 2))
def test_rendered_sample_rules_equal_explicit_loops(case):
    ids, mask, id_count = case
    tags = ModalitySequence(ids)
    flags_an_image = False
    for flag, bid in zip(mask, ids):
        if flag and bid != 0:
            flags_an_image = True
    block_count = len(image_blocks(tags))
    text_mask = [flag and bid == 0 for flag, bid in zip(mask, ids)]

    def check(loss_mask, image_count, message):
        image_ids = tuple(f"img{k}" for k in range(image_count))
        args = (tuple(range(len(ids))), tags, tuple(loss_mask), image_ids)
        if message is None:
            assert RenderedSample(*args).image_count == image_count
        else:
            with pytest.raises(ValueError, match=message):
                RenderedSample(*args)

    # Each rule alone, then both together (the mask rule is checked first).
    check(text_mask, id_count, "one id per image block" if id_count != block_count else None)
    check(mask, block_count, "text positions" if flags_an_image else None)
    if flags_an_image:
        check(mask, id_count, "text positions")
    else:
        check(mask, id_count, "one id per image block" if id_count != block_count else None)
