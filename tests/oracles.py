"""Independent reference implementations used to cross-check the package.

Everything here is written as direct rule evaluation with explicit Python
loops (or an independently structured pipeline), deliberately avoiding the
vectorized code paths under test.
"""

from __future__ import annotations

import math

import numpy as np

from mmchat.blend import Dataset, SourceRecord
from mmchat.modseq import LayoutConfig, ModalitySequence
from mmchat.template import Conversation, Round

# ---------------------------------------------------------------------------
# Mask rule evaluator


def rule_mask(seq: ModalitySequence, variant: str, image_self: str = "block") -> np.ndarray:
    """Evaluate the mask rules entry by entry from the block-id vector
    (0 = text, k = image block k)."""
    ids = seq.ids
    d = len(ids)
    out = np.zeros((d, d), dtype=np.int8)
    for i in range(d):
        for j in range(d):
            if variant == "causal":
                out[i, j] = 1 if j <= i else 0
            elif ids[i] != 0:
                if image_self == "block":
                    same = ids[j] == ids[i]
                else:
                    same = i == j
                out[i, j] = 2 if same else 0
            else:
                if j <= i:
                    out[i, j] = 2 if ids[j] != 0 else 1
    return out


# ---------------------------------------------------------------------------
# Naive attention evaluators (scalar loops)


def naive_masked_softmax(scores: np.ndarray, allow: np.ndarray) -> np.ndarray:
    d, n = scores.shape
    out = np.zeros((d, n))
    for i in range(d):
        cols = [j for j in range(n) if allow[i, j]]
        if not cols:
            continue
        m = max(scores[i, j] for j in cols)
        weights = {j: math.exp(scores[i, j] - m) for j in cols}
        total = sum(weights.values())
        for j in cols:
            out[i, j] = weights[j] / total
    return out


def _naive_scores(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    d, h = q.shape
    s = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            s[i, j] = scale * sum(q[i, c] * k[j, c] for c in range(h))
    return s


def _naive_weighted_values(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    d, h = v.shape
    out = np.zeros((d, h))
    for i in range(d):
        for j in range(d):
            for c in range(h):
                out[i, c] += w[i, j] * v[j, c]
    return out


def naive_mmca(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    entries: np.ndarray,
    scale: float,
) -> np.ndarray:
    s = _naive_scores(q, k, scale)
    a1 = naive_masked_softmax(s, entries == 1)
    a2 = naive_masked_softmax(s, entries == 2)
    return _naive_weighted_values(a1 + a2, v)


def naive_causal(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, entries: np.ndarray, scale: float
) -> np.ndarray:
    s = _naive_scores(q, k, scale)
    a = naive_masked_softmax(s, entries != 0)
    return _naive_weighted_values(a, v)


def naive_cross(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    kx: np.ndarray,
    vx: np.ndarray,
    entries: np.ndarray,
    scale: float,
) -> np.ndarray:
    d = entries.shape[0]
    image_row = np.array([entries[i, i] == 2 for i in range(d)])
    m1 = entries == 1
    m2_image = (entries == 2) & image_row[:, None]
    m2_text = (entries == 2) & ~image_row[:, None]
    s = _naive_scores(q, k, scale)
    sx = _naive_scores(q, kx, scale)
    w_self = naive_masked_softmax(s, m1) + naive_masked_softmax(s, m2_image)
    w_cross = naive_masked_softmax(sx, m2_text)
    return _naive_weighted_values(w_self, v) + _naive_weighted_values(w_cross, vx)


def naive_multi_head(config, x: np.ndarray, params, seq: ModalitySequence) -> np.ndarray:
    """Head loop over the naive single-head evaluators, then the output
    projection. ``config`` is a ``ModelConfig``; only its fields are read,
    and the 1/sqrt(head_dim) score scale is computed here."""
    variant = config.variant.value
    entries = rule_mask(seq, variant, config.image_self)
    scale = 1.0 / math.sqrt(config.model_dim // config.num_heads)
    heads = []
    for h in range(config.num_heads):
        q, k, v = x @ params.wq[h], x @ params.wk[h], x @ params.wv[h]
        if variant == "mmca":
            heads.append(naive_mmca(q, k, v, entries, scale))
        elif variant == "causal":
            heads.append(naive_causal(q, k, v, entries, scale))
        else:
            kx, vx = x @ params.wkx[h], x @ params.wvx[h]
            heads.append(naive_cross(q, k, v, kx, vx, entries, scale))
    return np.concatenate(heads, axis=1) @ params.wo


def naive_model_logits(model, sample) -> np.ndarray:
    """Layer-by-layer reference evaluation of the toy model."""
    ids = sample.tags.ids
    d = len(ids)
    x = np.zeros((d, model.config.model_dim))
    spans: list[list[int]] = []  # half-open [start, end) per image block, in order
    for t in range(d):
        if ids[t] == 0:
            x[t] = model.embedding[sample.token_ids[t]]
        elif t > 0 and ids[t - 1] == ids[t]:
            spans[-1][1] = t + 1
        else:
            spans.append([t, t + 1])
    for index, (start, end) in enumerate(spans):
        feats = model.vision_stub[sample.image_ids[index]]
        x[start:end] = feats @ model.projection
    for block in model.blocks:
        x = x + naive_multi_head(model.config, x, block.attn, sample.tags)
        x = x + np.tanh(x @ block.w1 + block.b1) @ block.w2 + block.b2
    return x @ model.embedding.T


# ---------------------------------------------------------------------------
# Template length oracle


def token_count(conv: Conversation, layout: LayoutConfig) -> int:
    """Independent count of the tokens render would emit: whitespace words
    for text, image_token_count per image slot, 3 header words per image,
    plus one end-of-turn token per round."""
    total = len(conv.system.split())
    for rnd in conv.rounds:
        for _ in rnd.images:
            total += 3 + layout.image_token_count
        total += 2 + len(rnd.question.split())
        total += 2 + len(rnd.answer.split())
        total += 1
    return total


# ---------------------------------------------------------------------------
# Brute-force join oracle


def join_oracle(llava, llava_dial, otter) -> list[SourceRecord]:
    """Restated join rule: for each image pair, scan every single-image
    record (llava corpus first, then the dialogue corpus, each in input
    order) for an id match on the first then the second image; emit their
    rounds, then the pair's round; introduce each image id at its first
    mention only; unmatched pairs pass through."""
    out = []
    for pair in otter:
        matched = []
        for image in pair.image_ids:
            for record in llava:
                if record.image_ids[0] == image:
                    matched.append(record)
            for record in llava_dial:
                if record.image_ids[0] == image:
                    matched.append(record)
        matched.sort(
            key=lambda r: (
                pair.image_ids.index(r.image_ids[0]),
                0 if r.dataset is Dataset.LLAVA else 1,
            )
        )
        if not matched:
            out.append(pair)
            continue
        all_rounds = []
        for record in matched:
            all_rounds.extend(record.conversation.rounds)
        all_rounds.extend(pair.conversation.rounds)
        seen: set[str] = set()
        rounds = []
        for rnd in all_rounds:
            images = []
            for image in rnd.images:
                if image not in seen:
                    seen.add(image)
                    images.append(image)
            rounds.append(Round(tuple(images), rnd.question, rnd.answer))
        out.append(
            SourceRecord(
                Dataset.OTHER,
                pair.image_ids,
                Conversation(matched[0].conversation.system, tuple(rounds)),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Random data generators

_WORDS = (
    "the cat sat on a mat river deep blue sky stone tree bird runs fast "
    "slow red green dog with near tall shore light dark cloud happy"
).split()

_ID_PREFIXES = ("img", "coco/2017-", "pic_", "x-", "42v", "a.b.")


def random_words(rng: np.random.Generator, low: int, high: int) -> str:
    n = int(rng.integers(low, high + 1))
    return " ".join(rng.choice(_WORDS) for _ in range(n))


class IdPool:
    """Unique image-id factory with varied id shapes."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.counter = 0

    def next(self) -> str:
        prefix = _ID_PREFIXES[int(self.rng.integers(0, len(_ID_PREFIXES)))]
        self.counter += 1
        return f"{prefix}{self.counter}"


def random_conversation(
    rng: np.random.Generator,
    ids: IdPool | None = None,
    max_rounds: int = 4,
    max_images_per_round: int = 3,
) -> Conversation:
    ids = ids or IdPool(rng)
    system = "" if rng.random() < 0.25 else random_words(rng, 1, 5)
    rounds = []
    for _ in range(int(rng.integers(1, max_rounds + 1))):
        images = tuple(ids.next() for _ in range(int(rng.integers(0, max_images_per_round + 1))))
        rounds.append(
            Round(
                images=images,
                question=random_words(rng, 1, 6),
                answer=random_words(rng, 1, 6),
            )
        )
    return Conversation(system=system, rounds=tuple(rounds))


def llava_record(rng: np.random.Generator, image_id: str) -> SourceRecord:
    conv = Conversation(
        system=random_words(rng, 1, 3),
        rounds=(
            Round((image_id,), random_words(rng, 1, 5), random_words(rng, 1, 5)),
        ),
    )
    return SourceRecord(Dataset.LLAVA, (image_id,), conv)


def llava_dial_record(rng: np.random.Generator, image_id: str) -> SourceRecord:
    first = Round((image_id,), random_words(rng, 1, 5), random_words(rng, 1, 5))
    extra = tuple(
        Round((), random_words(rng, 1, 5), random_words(rng, 1, 5))
        for _ in range(int(rng.integers(1, 3)))
    )
    conv = Conversation(system=random_words(rng, 1, 3), rounds=(first,) + extra)
    return SourceRecord(Dataset.LLAVA_DIAL, (image_id,), conv)


def otter_record(rng: np.random.Generator, a: str, b: str) -> SourceRecord:
    conv = Conversation(
        system=random_words(rng, 1, 3),
        rounds=(Round((a, b), random_words(rng, 1, 5), random_words(rng, 1, 5)),),
    )
    return SourceRecord(Dataset.OTTER_CGD, (a, b), conv)
