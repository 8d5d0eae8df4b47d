"""Golden bytes of the data pipeline.

A small seeded corpus, holding records with too many images and records
too long to keep, goes through ``mmchat blend`` in both modes and through
``mmchat render``. The sha256 of every output and stats file must equal
its digest in GOLDEN, so an optimisation of the data path that changes
one byte of any output fails here.
"""

import hashlib
import json

import numpy as np

from mmchat.blend import Dataset, SourceRecord, write_records
from mmchat.cli import main
from mmchat.template import Conversation, Round

from oracles import llava_dial_record, llava_record, otter_record
from test_blend import tagged_corpus

GOLDEN = {
    "concat.jsonl": "6ef19400f1c7cf6221808dd882b630e3d25c4490677c3a4525bd4988f60ae96e",
    "concat.stats.json": "71c9b54bd603111f961cc393524f9f7488606215375076361fef2632efa8b805",
    "llava_otter.jsonl": "ccaf266c0aca32fae27a2b8966bff71a4bb0cc0e82b919cc626b3dec1aa6bbd4",
    "llava_otter.stats.json": "565a790b3865f0f18ab3106b5cc2296399d2f745a7093dc9c82746bda8033a56",
    "render.jsonl": "e7da9718803ec225fb18f8035665c3aa34d78b09439bded9869d9102cce9074e",
    "render.stats.json": "6aac15937db55a11cbf96b841175e9d81003caf3a8018b4fba8ba99a5f4ede14",
}


def _corpus_files(tmp_path):
    rng = np.random.default_rng(19)
    records = tagged_corpus(19, 24)
    many = tuple(f"many{i}" for i in range(9))
    records.append(
        SourceRecord(Dataset.OTHER, many, Conversation("s", (Round(many, "q", "a"),)))
    )
    long_answer = " ".join(["word"] * 80)
    records.append(
        SourceRecord(
            Dataset.LLAVA, ("long",), Conversation("s", (Round(("long",), "q", long_answer),))
        )
    )
    ids = [f"c{i}" for i in range(10)]
    llava = [llava_record(rng, ids[i]) for i in (0, 1, 2, 4, 6)]
    llava.append(
        SourceRecord(
            Dataset.LLAVA, (ids[8],), Conversation("s", (Round((ids[8],), "q", long_answer),))
        )
    )
    dial = [llava_dial_record(rng, ids[i]) for i in (1, 3, 5, 0)]
    otter = [otter_record(rng, ids[i], ids[i + 1]) for i in range(0, 10, 2)]
    paths = {}
    for name, corpus in (
        ("in", records), ("llava", llava), ("dial", dial), ("otter", otter)
    ):
        paths[name] = str(tmp_path / f"{name}.jsonl")
        write_records(corpus, paths[name])
    return paths


def pipeline_outputs(tmp_path):
    """Run the three pipeline commands on the corpus; map each output
    file's name to its bytes."""
    src = _corpus_files(tmp_path)
    limits = ["--image-tokens", "6", "--max-seq-len", "90"]
    runs = {
        "concat": [
            "blend", "--mode", "concat", "--input", src["in"], "--seed", "5", *limits,
        ],
        "llava_otter": [
            "blend", "--mode", "llava-otter", "--llava", src["llava"],
            "--llava-dial", src["dial"], "--otter", src["otter"], *limits,
        ],
        "render": ["render", "--input", src["in"], "--vocab-size", "97", *limits],
    }
    outputs = {}
    for name, argv in runs.items():
        out, stats = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.stats.json"
        assert main([*argv, "--out", str(out), "--stats-out", str(stats)]) == 0
        outputs[out.name] = out.read_bytes()
        outputs[stats.name] = stats.read_bytes()
    return outputs


def test_pipeline_outputs_match_golden_digests(tmp_path):
    outputs = pipeline_outputs(tmp_path)
    for name in ("concat", "llava_otter", "render"):
        dropped = json.loads(outputs[f"{name}.stats.json"])["dropped"]
        assert outputs[f"{name}.jsonl"] and dropped["over_length"] > 0
        if name != "llava_otter":  # joined records carry two images at most
            assert dropped["too_many_images"] > 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == GOLDEN
