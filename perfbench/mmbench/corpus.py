"""Seeded benchmark inputs, built without the package under test.

The seed picks the words and image ids; the shapes (image counts, rounds,
words per field, records per corpus) are fixed, so every seed costs the
same amount of work and seeds differ only in content.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

VOCABULARY = (
    "a the red blue green small large round square dog cat bird car tree house "
    "person table chair window door street sky water field road left right top "
    "bottom near far next behind front under over what which where how many is "
    "are there this that these those image picture photo scene show shows see "
    "color shape count object objects animal people sitting standing holding "
    "looking wearing old new bright dark wooden metal glass open closed"
).split()

SYSTEM_WORDS = 8
QUESTION_WORDS = 10
ANSWER_WORDS = 8

# Images per conversation in the paper-shaped batches. With 256 tokens per
# image these give d = 290, 572, 1136 and 2264, and MMCA allowed-edge
# fractions of about 0.86, 0.46, 0.26 and 0.15 of d*d.
PAPER_IMAGE_COUNTS = (1, 2, 4, 8)


def _words(rng: random.Random, count: int) -> str:
    return " ".join(rng.choice(VOCABULARY) for _ in range(count))


def _conversation(rng: random.Random, image_ids: list[list[str]], answer_words: int) -> dict:
    """One conversation as plain data; round k introduces image_ids[k]."""
    return {
        "system": _words(rng, SYSTEM_WORDS),
        "rounds": [
            {
                "images": list(images),
                "question": _words(rng, QUESTION_WORDS),
                "answer": _words(rng, answer_words),
            }
            for images in image_ids
        ],
    }


def paper_conversations(seed: int) -> dict[str, list[dict]]:
    """Training batch and held-out scoring set, one multi-round conversation
    per entry of PAPER_IMAGE_COUNTS, each round introducing one image."""
    rng = random.Random(f"paper:{seed}")
    out: dict[str, list[dict]] = {}
    for split in ("train", "heldout"):
        out[split] = [
            _conversation(
                rng,
                [[f"s{seed}-{split}-{n}-{k}"] for k in range(n)],
                ANSWER_WORDS,
            )
            for n in PAPER_IMAGE_COUNTS
        ]
    return out


def _record(dataset: str, image_ids: list[str], conversation: dict) -> dict:
    return {"dataset": dataset, "image_ids": list(image_ids), **conversation}


def data_corpus(seed: int) -> dict[str, list[dict]]:
    """Records for the data pipeline, as JSON-ready dicts.

    * llava: one single-round record per image.
    * llava_dial: one 4-round record for each of the first half of the
      images, plus six 6-round records for each of the first 8 ("popular")
      images.
    * otter_cgd: image pairs. Pairs of two popular images join so much
      dialogue that the rendering passes 4096 tokens and is dropped; the
      rest mix one popular image, ordinary images, and ids no single-image
      record has (those pass through unjoined).
    """
    rng = random.Random(f"data:{seed}")
    pool = [f"c{seed}-{i:03d}" for i in range(96)]
    popular = pool[:8]

    def single(dataset: str, image_id: str, rounds: int, answer_words: int) -> dict:
        ids = [[image_id]] + [[] for _ in range(rounds - 1)]
        return _record(dataset, [image_id], _conversation(rng, ids, answer_words))

    llava = [single("llava", image_id, 1, 15) for image_id in pool]
    llava_dial = [single("llava_dial", image_id, 4, 20) for image_id in pool[:48]]
    llava_dial += [single("llava_dial", image_id, 6, 30) for image_id in popular for _ in range(6)]
    pairs = [(popular[i], popular[i + 1]) for i in range(0, len(popular), 2)]
    pairs += [(popular[i % len(popular)], pool[8 + i]) for i in range(16)]
    pairs += [(pool[24 + 2 * i], pool[25 + 2 * i]) for i in range(20)]
    pairs += [(f"u{seed}-{i}a", f"u{seed}-{i}b") for i in range(8)]
    otter = [
        _record("otter_cgd", [a, b], _conversation(rng, [[a, b]], 12)) for a, b in pairs
    ]
    return {"llava": llava, "llava_dial": llava_dial, "otter": otter}


def write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


def write_data_corpus(directory: Path, seed: int, limit: int | None = None) -> dict[str, int]:
    """Write llava.jsonl, llava_dial.jsonl, otter.jsonl and mixed.jsonl (all
    three together, the concat blend's input), keeping at most ``limit``
    records per corpus. Returns record counts."""
    directory.mkdir(parents=True, exist_ok=True)
    corpus = {name: records[:limit] for name, records in data_corpus(seed).items()}
    for name, records in corpus.items():
        write_jsonl(directory / f"{name}.jsonl", records)
    mixed = [record for records in corpus.values() for record in records]
    write_jsonl(directory / "mixed.jsonl", mixed)
    counts = {name: len(records) for name, records in corpus.items()}
    counts["mixed"] = len(mixed)
    return counts
