"""The conversation template: its records (``Conversation``, ``Round``),
the text form (``render_text``, ``parse``) and the token form (``render``,
``count_tokens``). docs/template-grammar.md states the grammar of both
forms; ``_pieces`` is the one statement in code of the token form's order.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .modseq import LayoutConfig, ModalitySequence, _check_int

_IMAGE_LINE = re.compile(r"### Image (\d+): <image:([^\s<>]+)>")
_ID_PATTERN = re.compile(r"[^\s<>]+")
_QUESTION_PREFIX = "### Question: "
_ANSWER_PREFIX = "### Answer: "
_IMAGE_PLACEHOLDER = "<image>"
END_OF_TURN = "\n"
_ANSWER_WORDS = tuple(_ANSWER_PREFIX.split())
_END_OF_TURN_WORDS = (END_OF_TURN,)

# (words, block_id, in_loss): one piece of the template walk (see _pieces)
_Piece = tuple[Sequence[str] | str, int, bool]


class OverLengthError(ValueError):
    """Rendered sample exceeds the configured maximum sequence length."""


class ParseError(ValueError):
    """Rendered text does not follow the template grammar."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_field(name: str, value: str, allow_empty: bool = False) -> None:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string")
    if not allow_empty and not value:
        raise ValueError(f"{name} must be non-empty")
    if "\n" in value:
        raise ValueError(f"{name} must be a single line")


@dataclass(frozen=True)
class Round:
    """One dialogue turn: the images it introduces (possibly none), a
    question, and an answer."""

    images: tuple[str, ...]
    question: str
    answer: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        for image_id in self.images:
            if not isinstance(image_id, str) or not _ID_PATTERN.fullmatch(image_id):
                raise ValueError(
                    f"image id {image_id!r} must be a non-empty string without "
                    "whitespace or angle brackets"
                )
        _check_field("question", self.question)
        _check_field("answer", self.answer)


@dataclass(frozen=True)
class Conversation:
    """Multi-round, multi-image dialogue record."""

    system: str
    rounds: tuple[Round, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds", tuple(self.rounds))
        _check_field("system", self.system, allow_empty=True)
        if not self.rounds:
            raise ValueError("conversation needs at least one round")
        seen: set[str] = set()
        for rnd in self.rounds:
            for image_id in rnd.images:
                if image_id in seen:
                    raise ValueError(f"image id {image_id!r} introduced twice")
                seen.add(image_id)

    def image_ids(self) -> tuple[str, ...]:
        """All image ids in order of introduction."""
        return tuple(i for rnd in self.rounds for i in rnd.images)


@dataclass(frozen=True)
class RenderedSample:
    """Token form of a conversation: token ids, per-token block ids
    (``tags``), loss mask, and the image ids backing each block (in block
    order)."""

    token_ids: tuple[int, ...]
    tags: ModalitySequence
    loss_mask: tuple[bool, ...]
    image_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "token_ids", tuple(self.token_ids))
        object.__setattr__(self, "loss_mask", tuple(self.loss_mask))
        object.__setattr__(self, "image_ids", tuple(self.image_ids))
        d = len(self.token_ids)
        if len(self.tags.ids) != d or len(self.loss_mask) != d:
            raise ValueError("token_ids, tags, and loss_mask must have equal length")
        if any(itertools.compress(self.tags.ids, self.loss_mask)):
            raise ValueError("loss mask may only cover text positions")
        # Blocks are contiguous (ModalitySequence), so distinct ids count them.
        if len(set(self.tags.ids) - {0}) != len(self.image_ids):
            raise ValueError("image_ids must hold one id per image block")

    @property
    def d(self) -> int:
        return len(self.token_ids)

    @property
    def image_count(self) -> int:
        return len(self.image_ids)


@functools.lru_cache(maxsize=1 << 12)
def _word_hash(word: str) -> int:
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashTokenizer:
    """Deterministic whitespace tokenizer: each word becomes
    blake2b(word) mod vocab_size, one id per word, so a text's token count
    is its word count (``count_tokens`` relies on this). Word hashes are
    memoised process-wide for the 4,096 most recent words (~0.7 MB)."""

    def __init__(self, vocab_size: int = 32) -> None:
        _check_int("vocab_size", vocab_size)
        self.vocab_size = vocab_size

    def word_id(self, word: str) -> int:
        return _word_hash(word) % self.vocab_size

    def encode(self, text: str) -> list[int]:
        return self.encode_words(text.split())

    def encode_words(self, words: Iterable[str]) -> list[int]:
        """Ids of already split words; ``encode(text)`` is
        ``encode_words(text.split())``."""
        vocab_size = self.vocab_size
        return [_word_hash(word) % vocab_size for word in words]


def render_text(conv: Conversation) -> str:
    """Text form of the template; ``parse`` inverts it."""
    lines = [conv.system]
    image_number = 0
    for rnd in conv.rounds:
        lines.append("")
        for image_id in rnd.images:
            image_number += 1
            lines.append(f"### Image {image_number}: <image:{image_id}>")
        lines.append(_QUESTION_PREFIX + rnd.question)
        lines.append(_ANSWER_PREFIX + rnd.answer)
    return "\n".join(lines)


def _pieces(conv: Conversation) -> Iterator[_Piece]:
    """The template's pieces in order, as ``(words, block_id, in_loss)``:
    the system line; per image its ``### Image k:`` header and its slot; per
    round the question line, the answer prefix, the answer and the
    end-of-turn token. A text piece holds its whitespace-separated words,
    one token each; the end-of-turn piece is the single word END_OF_TURN.
    An image slot has ``block_id`` k > 0 and holds its image id instead."""
    yield conv.system.split(), 0, False
    image_number = 0
    for rnd in conv.rounds:
        for image_id in rnd.images:
            image_number += 1
            yield f"### Image {image_number}:".split(), 0, False
            yield image_id, image_number, False
        yield (_QUESTION_PREFIX + rnd.question).split(), 0, False
        yield _ANSWER_WORDS, 0, False
        yield rnd.answer.split(), 0, True
        yield _END_OF_TURN_WORDS, 0, True


def _length(pieces: Iterable[_Piece], image_token_count: int) -> int:
    return sum(image_token_count if block_id else len(words) for words, block_id, _ in pieces)


def count_tokens(conv: Conversation, layout: LayoutConfig) -> int:
    """Length of ``render(conv, tokenizer, layout)`` for any vocabulary
    size, summed over ``_pieces`` without hashing a word."""
    return _length(_pieces(conv), layout.image_token_count)


def render(
    conv: Conversation, tokenizer: HashTokenizer, layout: LayoutConfig
) -> RenderedSample:
    """The token form of ``conv``: ``_pieces`` tokenized, each image slot
    ``layout.image_token_count`` tokens of its block id. Raises
    OverLengthError, before it hashes a word, when the length exceeds
    ``layout.max_sequence_length``."""
    pieces = list(_pieces(conv))
    d = _length(pieces, layout.image_token_count)
    if d > layout.max_sequence_length:
        raise OverLengthError(
            f"over_length: {d} tokens exceed the {layout.max_sequence_length} cap"
        )
    # The count sizes every list: image slots keep the placeholder ids and
    # only text pieces write token ids.
    token_ids = [tokenizer.word_id(_IMAGE_PLACEHOLDER)] * d
    block_ids = [0] * d
    loss_mask = [False] * d
    image_ids: list[str] = []
    start = 0
    for words, block_id, in_loss in pieces:
        if block_id:
            end = start + layout.image_token_count
            block_ids[start:end] = [block_id] * layout.image_token_count
            image_ids.append(words)
        else:
            end = start + len(words)
            token_ids[start:end] = tokenizer.encode_words(words)
            if in_loss:
                loss_mask[start:end] = [True] * len(words)
        start = end
    return RenderedSample(
        token_ids=tuple(token_ids),
        tags=ModalitySequence(tuple(block_ids)),
        loss_mask=tuple(loss_mask),
        image_ids=tuple(image_ids),
    )


def parse(text: str) -> Conversation:
    """Invert render_text. Raises ParseError with a 1-based line number on
    grammar violations."""
    lines = text.split("\n")
    system = lines[0]
    rounds: list[Round] = []
    image_number = 0
    pos = 1
    if pos >= len(lines):
        raise ParseError(pos + 1, "expected a blank line and at least one round")
    while pos < len(lines):
        if lines[pos] != "":
            raise ParseError(pos + 1, f"expected blank line before round, got {lines[pos]!r}")
        pos += 1
        images: list[str] = []
        while pos < len(lines) and lines[pos].startswith("### Image "):
            match = _IMAGE_LINE.fullmatch(lines[pos])
            if not match:
                raise ParseError(pos + 1, f"malformed image line {lines[pos]!r}")
            image_number += 1
            if int(match.group(1)) != image_number:
                raise ParseError(
                    pos + 1,
                    f"image numbered {match.group(1)}, expected {image_number}",
                )
            images.append(match.group(2))
            pos += 1
        if pos >= len(lines) or not lines[pos].startswith(_QUESTION_PREFIX):
            raise ParseError(pos + 1, "expected a question header")
        question = lines[pos][len(_QUESTION_PREFIX) :]
        pos += 1
        if pos >= len(lines) or not lines[pos].startswith(_ANSWER_PREFIX):
            raise ParseError(pos + 1, "expected an answer header")
        answer = lines[pos][len(_ANSWER_PREFIX) :]
        pos += 1
        try:
            rounds.append(Round(tuple(images), question, answer))
        except ValueError as exc:
            raise ParseError(pos, str(exc)) from exc
    try:
        return Conversation(system, tuple(rounds))
    except ValueError as exc:
        raise ParseError(len(lines), str(exc)) from exc
