"""Print two sha256s over the toy model's numerics, to show that a change
keeps them bit-identical: run it on both trees and compare the hashes.

    PYTHONPATH=src python tests/numerics_digest.py

For each attention variant and each ``image_self`` rule, on the copy task
(seed 0), it hashes the loss of four ``train_step``s at learning rate 1e-2
and, after each step, every sample's ``forward`` logits, ``answer_loss``
and ``loss_and_param_grads`` loss and gradients; then the ``forward``
logits, ``answer_loss`` and gradients of the trained model on
``oracles.random_conversation`` chats, and the loss of one ``train_step``
on those chats as one batch; then the same for one long text-only chat
(``long_chat``: over 1,000 words in four answered rounds), so that a large
text triangle and its restriction to the target rows are hashed too. The
first line is that digest; the second is the same digest with
``attn._SCRATCH_SIZE`` set to 16, so that every VJP term runs in row
chunks. The file name keeps pytest from collecting it: it is a tool, not a
test.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import IdPool, random_conversation  # noqa: E402

from mmchat import attn  # noqa: E402
from mmchat.mask import AttentionVariant  # noqa: E402
from mmchat.template import Conversation, HashTokenizer, Round, render  # noqa: E402
from mmchat.toy_model import (  # noqa: E402
    ModelConfig,
    OptimState,
    answer_loss,
    forward,
    loss_and_param_grads,
    make_copy_task,
    make_model,
    train_step,
)

STEPS = 4
LEARNING_RATE = 1e-2
CHATS = 6


def long_chat(rng: np.random.Generator) -> Conversation:
    """A text-only chat of 1,120 words: a 40-word system line, then four
    rounds of a 150-word question and a 120-word answer."""

    def words(count: int) -> str:
        return " ".join(f"w{i}" for i in rng.integers(0, 1000, count))

    return Conversation(words(40), tuple(Round((), words(150), words(120)) for _ in range(4)))


def numerics_digest() -> str:
    digest = hashlib.sha256()

    def put(*values) -> None:
        for value in values:
            digest.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())

    def score(model, samples) -> None:
        for sample in samples:
            logits = forward(model, sample)
            loss, grads = loss_and_param_grads(model, sample)
            put(logits, answer_loss(logits, sample), loss, grads["projection"], grads["embedding"])

    for variant in AttentionVariant:
        for image_self in ("block", "diagonal"):
            config = ModelConfig(variant=variant, image_self=image_self)
            batch, image_ids = make_copy_task(config)
            rng = np.random.default_rng(0)
            chats = [random_conversation(rng, IdPool(rng)) for _ in range(CHATS)]
            tokenizer = HashTokenizer(config.vocab_size)
            chats = [render(chat, tokenizer, config.layout()) for chat in chats]
            known = image_ids + tuple(i for sample in chats for i in sample.image_ids)
            model = make_model(config, seed=0, known_images=known)
            opt = OptimState(total_steps=STEPS, learning_rate=LEARNING_RATE)
            for _ in range(STEPS):
                loss, model = train_step(model, batch, opt)
                put(loss)
                score(model, batch)
            for samples in (chats, [render(long_chat(rng), tokenizer, config.layout())]):
                score(model, samples)
                put(train_step(model, samples, OptimState(total_steps=1, learning_rate=LEARNING_RATE))[0])
    return digest.hexdigest()


if __name__ == "__main__":
    print(numerics_digest())
    default = attn._SCRATCH_SIZE
    attn._SCRATCH_SIZE = 16  # every VJP term runs in row chunks
    try:
        print(numerics_digest())
    finally:
        attn._SCRATCH_SIZE = default
