import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from oracles import (
    IdPool,
    join_oracle,
    llava_dial_record,
    llava_record,
    otter_record,
    random_conversation,
    token_count,
)

TOK = HashTokenizer(32)


SMALL_LAYOUT = LayoutConfig(image_token_count=4, max_sequence_length=4096)


def small_spec(min_group=1, max_group=3, seed=0):
    return BlendSpec(min_group=min_group, max_group=max_group, seed=seed)


def rendering(samples, layout=SMALL_LAYOUT):
    """A ``filter_limits`` emit that renders each record into ``samples``."""
    return lambda record: samples.append(render(record.conversation, TOK, layout))


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"min_group": 1.5}, "min_group must be an integer >= 1, got 1.5"),
        ({"max_group": 2.0}, "max_group must be an integer >= 1, got 2.0"),
        ({"seed": 0.5}, "seed must be an integer >= 0, got 0.5"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"max_group": 2**63}, "max_group must be below 2**63, got 9223372036854775808"),
        ({"max_group": 10**20}, "max_group must be below 2**63, got 100000000000000000000"),
    ],
)
def test_blend_spec_rejects_non_integer_fields(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BlendSpec(**{"min_group": 1, "max_group": 2, "seed": 0, **kwargs})


def test_concat_blend_draws_the_largest_group_size_below_2_63():
    records = make_llava_corpus(3)
    out = concat_blend(records, BlendSpec(min_group=2**63 - 2, max_group=2**63 - 1, seed=0))
    assert len(out) == 1 and sorted(out[0].image_ids) == ["1", "2", "3"]


@pytest.mark.parametrize("max_images", [0, True, 1.5])
def test_filter_limits_rejects_a_max_images_below_one_or_not_an_integer(max_images):
    message = f"max_images must be an integer >= 1, got {max_images!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        filter_limits([], max_images, SMALL_LAYOUT)


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


def test_join_rejects_pair_record_in_first_argument():
    rng = np.random.default_rng(3)
    pair = otter_record(rng, "a", "b")
    with pytest.raises(ValueError, match=r"first argument \(llava\) must contain single-image"):
        llava_otter_blend([pair], [], [pair])


def test_join_rejects_multi_image_record_in_second_argument():
    rng = np.random.default_rng(3)
    ids = ("a", "b", "c")
    three = SourceRecord(Dataset.OTHER, ids, Conversation("s", (Round(ids, "q", "x"),)))
    with pytest.raises(ValueError, match=r"second argument \(llava_dial\) must contain single-image"):
        llava_otter_blend([], [three], [otter_record(rng, "a", "d")])


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
    samples = []
    kept, dropped = filter_limits([big, ok], 8, SMALL_LAYOUT, rendering(samples))
    assert kept == [ok]
    assert samples == [render(ok.conversation, TOK, SMALL_LAYOUT)]
    assert dropped == {"too_many_images": 1, "over_length": 0}


def test_filter_over_length():
    rng = np.random.default_rng(6)
    ok = llava_record(rng, "fine")
    long_answer = " ".join(["w"] * 50)
    conv = Conversation("s", (Round(("v",), "q", long_answer),))
    layout = LayoutConfig(image_token_count=4, max_sequence_length=30)
    samples = []
    kept, dropped = filter_limits(
        [SourceRecord(Dataset.LLAVA, ("v",), conv), ok], 8, layout, rendering(samples, layout)
    )
    assert kept == [ok]
    assert samples == [render(ok.conversation, TOK, layout)]
    assert dropped == {"too_many_images": 0, "over_length": 1}


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), image_tokens=st.integers(1, 4))
def test_filter_keeps_a_record_at_the_cap_and_drops_one_past_it(seed, image_tokens):
    conv = random_conversation(np.random.default_rng(seed))
    record = SourceRecord(Dataset.OTHER, conv.image_ids(), conv)
    length = token_count(conv, LayoutConfig(image_tokens, 4096))
    for cap, outcome in ((length, ([record], {"too_many_images": 0, "over_length": 0})),
                         (length - 1, ([], {"too_many_images": 0, "over_length": 1}))):
        layout = LayoutConfig(image_token_count=image_tokens, max_sequence_length=cap)
        samples = []
        assert filter_limits([record], 12, layout) == outcome
        assert filter_limits([record], 12, layout, rendering(samples, layout)) == outcome
        assert [s.d for s in samples] == [length] * len(outcome[0])


def test_filter_empty_and_idempotent():
    empty = ([], {"too_many_images": 0, "over_length": 0})
    assert filter_limits([], 8, SMALL_LAYOUT) == empty
    records = make_llava_corpus(5)
    samples, again_samples = [], []
    kept, _ = filter_limits(records, 8, SMALL_LAYOUT, rendering(samples))
    again, dropped = filter_limits(kept, 8, SMALL_LAYOUT, rendering(again_samples))
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
    for bad in ("{not json}", "[" * 200_000):  # nesting too deep to parse is malformed too
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
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


@pytest.mark.parametrize(
    "ids", ["img12", {"img12": 1}, [None], [["img12"]], [True]],
    ids=["string", "object", "null-item", "array-item", "bool-item"],
)
@pytest.mark.parametrize("key", ["image_ids", "images"])
def test_jsonl_image_ids_must_be_arrays_of_ids(tmp_path, key, ids):
    # a string or an object there would otherwise be iterated into ids, and
    # any other item would be stringified into one
    payload = {
        "dataset": "llava",
        "image_ids": ["img12"],
        "system": "s",
        "rounds": [{"images": ["img12"], "question": "q", "answer": "x"}],
    }
    record_from_dict(payload)  # the well-formed record loads
    (payload if key == "image_ids" else payload["rounds"][0])[key] = ids
    path = tmp_path / "bad.jsonl"
    good = json.dumps(record_to_dict(make_llava_corpus(1)[0]))
    path.write_text(good + "\n" + json.dumps(payload) + "\n", encoding="utf-8")
    message = f"line 2: {key} must be a JSON array of strings or integers, got {re.escape(repr(ids))}$"
    with pytest.raises(ValueError, match=message):
        read_records(path)


# ---------------------------------------------------------------------------
# Properties over random corpora


def tagged_corpus(seed, size):
    """``size`` records of every source shape (llava, llava_dial, otter_cgd
    and multi-round multi-image conversations). Each round's question starts
    with its record and round number, so blended rounds trace back."""
    rng = np.random.default_rng(seed)
    pool = IdPool(rng)
    records = []
    for index in range(size):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            record = llava_record(rng, pool.next())
        elif kind == 1:
            record = llava_dial_record(rng, pool.next())
        elif kind == 2:
            record = otter_record(rng, pool.next(), pool.next())
        else:
            conv = random_conversation(rng, pool)
            record = SourceRecord(Dataset.OTHER, conv.image_ids(), conv)
        rounds = tuple(
            Round(rnd.images, f"{index} {number} {rnd.question}", rnd.answer)
            for number, rnd in enumerate(record.conversation.rounds)
        )
        conv = Conversation(record.conversation.system, rounds)
        records.append(SourceRecord(record.dataset, record.image_ids, conv))
    return records


_blend_cases = given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 25),
    min_group=st.integers(1, 4),
    spread=st.integers(0, 3),
    blend_seed=st.integers(0, 2**16),
)


@settings(max_examples=40, deadline=None)
@_blend_cases
def test_concat_blend_is_byte_deterministic(
    tmp_path_factory, seed, size, min_group, spread, blend_seed
):
    spec = small_spec(min_group, min_group + spread, blend_seed)
    work = tmp_path_factory.mktemp("concat")
    write_records(tagged_corpus(seed, size), work / "in.jsonl")
    for name in ("a.jsonl", "b.jsonl"):
        write_records(concat_blend(read_records(work / "in.jsonl"), spec), work / name)
    assert (work / "a.jsonl").read_bytes() == (work / "b.jsonl").read_bytes()


@settings(max_examples=100, deadline=None)
@_blend_cases
def test_concat_blend_partitions_and_conserves_the_input(
    seed, size, min_group, spread, blend_seed
):
    records = tagged_corpus(seed, size)
    spec = small_spec(min_group, min_group + spread, blend_seed)
    out = concat_blend(records, spec)
    seen = []
    for position, merged in enumerate(out):
        tags = [tuple(map(int, rnd.question.split()[:2])) for rnd in merged.conversation.rounds]
        group = [index for index, number in tags if number == 0]
        # the rounds are whole source records, one after another
        assert tags == [(i, n) for i in group for n in range(len(records[i].conversation.rounds))]
        last = position == len(out) - 1
        assert len(group) <= spec.max_group and (last or len(group) >= spec.min_group)
        seen.extend(tags)
        if len(group) == 1:
            assert merged == records[group[0]]
            continue
        assert merged.dataset is Dataset.OTHER
        assert merged.conversation.system == records[group[0]].conversation.system
        renumbered = {}
        for (index, number), rnd in zip(tags, merged.conversation.rounds):
            source = records[index].conversation.rounds[number]
            assert (rnd.question, rnd.answer) == (source.question, source.answer)
            assert len(rnd.images) == len(source.images)
            for old, new in zip(source.images, rnd.images):
                assert renumbered.setdefault((index, old), new) == new
        numbers = tuple(str(i) for i in range(1, len(renumbered) + 1))
        assert merged.image_ids == merged.conversation.image_ids() == numbers
    # every input round lands in exactly one output record
    assert sorted(seen) == [
        (i, n) for i, record in enumerate(records) for n in range(len(record.conversation.rounds))
    ]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 25),
    max_images=st.integers(1, 4),
    max_len=st.integers(20, 120),
)
def test_filter_limits_is_idempotent(seed, size, max_images, max_len):
    layout = LayoutConfig(image_token_count=4, max_sequence_length=max_len)
    records = tagged_corpus(seed, size)
    kept, dropped = filter_limits(records, max_images, layout)
    assert len(kept) + sum(dropped.values()) == len(records)
    assert filter_limits(kept, max_images, layout) == (kept, {"too_many_images": 0, "over_length": 0})
