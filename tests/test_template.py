import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmchat.modseq import LayoutConfig, ModalitySequence, image_blocks
from mmchat.template import (
    Conversation,
    HashTokenizer,
    OverLengthError,
    ParseError,
    RenderedSample,
    Round,
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
    sample = render(conv, TOK, LayoutConfig(image_tokens, 4096))
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
