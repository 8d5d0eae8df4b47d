import json
from collections import Counter

import numpy as np
import pytest

from mmchat.blend import (
    BlendSpec,
    Dataset,
    SourceRecord,
    concat_blend,
    dataset_stats,
    filter_limits,
    llava_otter_blend,
    read_records,
    record_from_dict,
    record_to_dict,
    write_records,
)
from mmchat.modseq import LayoutConfig
from mmchat.template import Conversation, HashTokenizer, Round, render

from oracles import join_oracle, llava_dial_record, llava_record, otter_record

TOK = HashTokenizer(32)


def small_spec(min_group=1, max_group=3, seed=0, max_images=8):
    return BlendSpec(
        min_group=min_group,
        max_group=max_group,
        seed=seed,
        max_images=max_images,
        layout=LayoutConfig(image_token_count=4, max_sequence_length=4096),
    )


def make_llava_corpus(n, seed=0):
    rng = np.random.default_rng(seed)
    return [llava_record(rng, f"img{i}") for i in range(n)]


# ---------------------------------------------------------------------------
# SourceRecord / BlendSpec validation


def test_source_record_validation():
    conv = Conversation("s", (Round(("a",), "q", "x"),))
    with pytest.raises(ValueError, match="exactly 1"):
        SourceRecord(Dataset.LLAVA, ("a", "b"), conv)
    with pytest.raises(ValueError, match="exactly 2"):
        SourceRecord(Dataset.OTTER_CGD, ("a",), conv)
    with pytest.raises(ValueError, match="distinct"):
        SourceRecord(
            Dataset.OTTER_CGD,
            ("a", "a"),
            Conversation("s", (Round(("a",), "q", "x"),)),
        )
    with pytest.raises(ValueError, match="introduce exactly"):
        SourceRecord(Dataset.LLAVA, ("b",), conv)
    ok = SourceRecord(Dataset.LLAVA, ("a",), conv)
    assert ok.image_ids == ("a",)


def test_blend_spec_validation():
    with pytest.raises(ValueError, match="min_group"):
        BlendSpec(min_group=3, max_group=2, seed=0)
    with pytest.raises(ValueError, match="min_group"):
        BlendSpec(min_group=0, max_group=2, seed=0)
    with pytest.raises(ValueError, match="max_images"):
        BlendSpec(min_group=1, max_group=1, seed=0, max_images=0)


# ---------------------------------------------------------------------------
# concat_blend


def test_concat_identity_groups_is_permutation():
    records = make_llava_corpus(10)
    out = concat_blend(records, small_spec(1, 1, seed=7))
    assert len(out) == len(records)
    assert sorted(r.image_ids for r in out) == sorted(r.image_ids for r in records)
    # size-1 groups pass through untouched, dataset tag included
    for rec in out:
        assert rec in records
        assert rec.dataset is Dataset.LLAVA
    assert out != records  # seeded shuffle actually permutes 10 records


def test_concat_deterministic():
    records = make_llava_corpus(30)
    a = concat_blend(records, small_spec(1, 3, seed=5))
    b = concat_blend(records, small_spec(1, 3, seed=5))
    assert a == b
    c = concat_blend(records, small_spec(1, 3, seed=6))
    assert a != c


def test_concat_conservation():
    records = make_llava_corpus(6)
    out = concat_blend(records, small_spec(1, 3, seed=1))
    total_rounds = sum(len(r.conversation.rounds) for r in out)
    total_images = sum(len(r.image_ids) for r in out)
    assert total_rounds == sum(len(r.conversation.rounds) for r in records)
    assert total_images == 6
    answers = Counter(
        rnd.answer for r in out for rnd in r.conversation.rounds
    )
    assert answers == Counter(
        rnd.answer for r in records for rnd in r.conversation.rounds
    )


def test_concat_merged_records_renumbered():
    records = make_llava_corpus(6)
    out = concat_blend(records, small_spec(2, 2, seed=3))
    assert len(out) == 3
    for rec in out:
        assert rec.dataset is Dataset.OTHER
        assert rec.image_ids == ("1", "2")
        assert rec.conversation.image_ids() == ("1", "2")


def test_concat_trailing_short_group_kept():
    records = make_llava_corpus(5)
    out = concat_blend(records, small_spec(2, 2, seed=0))
    assert len(out) == 3
    sizes = sorted(len(r.image_ids) for r in out)
    assert sizes == [1, 2, 2]


def test_concat_empty_error():
    with pytest.raises(ValueError, match="non-empty"):
        concat_blend([], small_spec())


# ---------------------------------------------------------------------------
# llava_otter_blend


def test_join_single_match():
    rng = np.random.default_rng(0)
    single = llava_record(rng, "a")
    pair = otter_record(rng, "a", "b")
    out = llava_otter_blend([single], [], [pair])
    assert len(out) == 1
    rec = out[0]
    assert rec.dataset is Dataset.OTHER
    assert rec.image_ids == ("a", "b")
    rounds = rec.conversation.rounds
    assert rounds[:-1] == single.conversation.rounds
    last = rounds[-1]
    pair_round = pair.conversation.rounds[0]
    assert (last.question, last.answer) == (pair_round.question, pair_round.answer)
    assert last.images == ("b",)  # "a" already introduced by the single record
    assert rec.conversation.image_ids() == ("a", "b")


def test_join_passthrough_without_match():
    rng = np.random.default_rng(1)
    pair = otter_record(rng, "x", "y")
    single = llava_record(rng, "unrelated")
    out = llava_otter_blend([single], [], [pair])
    assert out == [pair]


def test_join_order_llava_before_dial_and_a_before_b():
    rng = np.random.default_rng(2)
    la = llava_record(rng, "a")
    lb = llava_record(rng, "b")
    da = llava_dial_record(rng, "a")
    pair = otter_record(rng, "a", "b")
    out = llava_otter_blend([lb, la], [da], [pair])
    rounds = out[0].conversation.rounds
    expected_sources = (
        la.conversation.rounds + da.conversation.rounds + lb.conversation.rounds
    )
    assert len(rounds) == len(expected_sources) + 1
    for got, src in zip(rounds, expected_sources):
        assert (got.question, got.answer) == (src.question, src.answer)
    assert out[0].conversation.system == la.conversation.system


def test_join_rejects_non_pair_third_argument():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="image-pair"):
        llava_otter_blend([], [], [llava_record(rng, "a")])


def test_join_matches_oracle_on_synthetic_corpus():
    rng = np.random.default_rng(4)
    ids = [f"c{i}" for i in range(6)]
    llava = [llava_record(rng, ids[i]) for i in (0, 1, 2, 0)]
    dial = [llava_dial_record(rng, ids[i]) for i in (1, 3)]
    otter = [
        otter_record(rng, ids[0], ids[1]),
        otter_record(rng, ids[2], ids[3]),
        otter_record(rng, ids[4], ids[5]),
    ]
    assert llava_otter_blend(llava, dial, otter) == join_oracle(llava, dial, otter)


# ---------------------------------------------------------------------------
# filter_limits / dataset_stats


def test_filter_too_many_images():
    rng = np.random.default_rng(5)
    ids = tuple(f"z{i}" for i in range(9))
    conv = Conversation("s", (Round(ids, "q", "a"),))
    big = SourceRecord(Dataset.OTHER, ids, conv)
    ok = llava_record(rng, "fine")
    kept, dropped, samples = filter_limits([big, ok], small_spec(max_images=8), TOK)
    assert kept == [ok]
    assert samples == [render(ok.conversation, TOK, small_spec().layout)]
    assert dropped == {"too_many_images": 1, "over_length": 0}


def test_filter_over_length():
    rng = np.random.default_rng(6)
    ok = llava_record(rng, "fine")
    long_answer = " ".join(["w"] * 50)
    conv = Conversation("s", (Round(("v",), "q", long_answer),))
    spec = BlendSpec(
        min_group=1,
        max_group=1,
        seed=0,
        layout=LayoutConfig(image_token_count=4, max_sequence_length=30),
    )
    kept, dropped, samples = filter_limits(
        [SourceRecord(Dataset.LLAVA, ("v",), conv), ok], spec, TOK
    )
    assert kept == [ok]
    assert samples == [render(ok.conversation, TOK, spec.layout)]
    assert dropped == {"too_many_images": 0, "over_length": 1}


def test_filter_empty_and_idempotent():
    empty = ([], {"too_many_images": 0, "over_length": 0}, [])
    assert filter_limits([], small_spec(), TOK) == empty
    records = make_llava_corpus(5)
    kept, _, samples = filter_limits(records, small_spec(), TOK)
    again, dropped, again_samples = filter_limits(kept, small_spec(), TOK)
    assert again == kept
    assert again_samples == samples
    assert dropped == {"too_many_images": 0, "over_length": 0}


def test_dataset_stats():
    assert dataset_stats([]) == {
        "total": 0,
        "per_dataset": {},
        "image_count_hist": {},
        "round_count_hist": {},
    }
    records = make_llava_corpus(10)
    stats = dataset_stats(records)
    assert stats["total"] == 10
    assert stats["per_dataset"] == {"llava": 10}
    assert stats["image_count_hist"] == {1: 10}

    merged = concat_blend(make_llava_corpus(6), small_spec(2, 2, seed=1))
    stats = dataset_stats(merged)
    assert stats["total"] == 3
    assert stats["image_count_hist"] == {2: 3}


# ---------------------------------------------------------------------------
# JSON-lines serialization


def test_jsonl_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    records = [
        llava_record(rng, "a"),
        llava_dial_record(rng, "b"),
        otter_record(rng, "c", "d"),
    ]
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    assert read_records(path) == records


def test_jsonl_write_is_byte_deterministic(tmp_path):
    records = make_llava_corpus(5)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(records, p1)
    write_records(records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_jsonl_malformed_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(record_to_dict(make_llava_corpus(1)[0]))
    path.write_text(good + "\n{not json}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        read_records(path)


def test_jsonl_semantic_error_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    payload = {
        "dataset": "llava",
        "image_ids": ["a", "b"],
        "system": "s",
        "rounds": [{"images": ["a", "b"], "question": "q", "answer": "x"}],
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        read_records(path)


def test_jsonl_normalizes_integer_ids():
    payload = {
        "dataset": "llava",
        "image_ids": [5],
        "system": "s",
        "rounds": [{"images": [5], "question": "q", "answer": "x"}],
    }
    record = record_from_dict(payload)
    assert record.image_ids == ("5",)
    assert record.conversation.rounds[0].images == ("5",)
