import json
import weakref

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import mmchat.attn as attn_module
import mmchat.cli as cli_module
import mmchat.template as template_module
from mmchat.blend import Dataset, SourceRecord, read_records, write_records
from mmchat.cli import _sample_line, main, parse_seq_spec
from mmchat.mask import build_mask, render_mask
from mmchat.modseq import ModalitySequence, TokenKind, build_sequence
from mmchat.template import Conversation, RenderedSample, Round, parse, render_text

from oracles import join_oracle, llava_dial_record, llava_record, otter_record
from test_template import edge_layouts

I, T = TokenKind.IMAGE, TokenKind.TEXT


def test_parse_seq_spec():
    assert parse_seq_spec("i3,t7") == build_sequence([(I, 3), (T, 7)])
    assert parse_seq_spec("t4") == build_sequence([(T, 4)])
    assert parse_seq_spec(" i2 , t1 ") == build_sequence([(I, 2), (T, 1)])
    assert parse_seq_spec("i96,t4000").d == 4096
    for bad in ("x9", "", "i0", "i3 t7", "i", "t4097", "i96,t4001"):
        with pytest.raises(ValueError):
            parse_seq_spec(bad)


def test_mask_command_mmca(capsys):
    assert main(["mask", "i3,t7"]) == 0
    out = capsys.readouterr().out
    assert out.strip("\n") == render_mask(build_mask(build_sequence([(I, 3), (T, 7)]), "mmca"))


def test_mask_command_causal(capsys):
    assert main(["mask", "t4", "--variant", "causal"]) == 0
    out = capsys.readouterr().out
    assert out.strip("\n") == render_mask(build_mask(build_sequence([(T, 4)]), "causal"))
    assert out.splitlines()[0] == "1···"


def test_mask_command_bad_spec(capsys):
    assert main(["mask", "x9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_mask_command_rejects_a_layout_past_the_sequence_cap(monkeypatch, capsys):
    """``i3,t4094`` is 4,097 tokens, one past the cap: the segment counts
    are summed and rejected before a block id list or a mask is built."""

    def not_reached(*args, **kwargs):
        raise AssertionError("built a layout past the cap")

    monkeypatch.setattr(cli_module, "build_sequence", not_reached)
    monkeypatch.setattr(cli_module, "build_mask", not_reached)
    assert main(["mask", "i3,t4094"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seq-spec has 4097 tokens, more than the 4096-token cap\n"
    assert captured.out == ""


def test_mask_command_writes_file(tmp_path):
    out = tmp_path / "grid.txt"
    assert main(["mask", "i2,t2", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").strip() == render_mask(
        build_mask(build_sequence([(I, 2), (T, 2)]), "mmca")
    )


def _write_corpus(path, records):
    write_records(records, path)
    return str(path)


def test_blend_concat_deterministic(tmp_path):
    rng = np.random.default_rng(0)
    records = [llava_record(rng, f"img{i}") for i in range(20)]
    src = _write_corpus(tmp_path / "in.jsonl", records)
    out1, out2 = tmp_path / "o1.jsonl", tmp_path / "o2.jsonl"
    args = ["blend", "--mode", "concat", "--input", src, "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _track_renders(monkeypatch):
    """Count ``render`` calls made by the CLI and ``template._word_hash``
    calls, and record how many rendered samples are alive after each render."""
    alive = weakref.WeakSet()
    most = []
    hashes = []
    real_render, real_hash = cli_module.render, template_module._word_hash

    def tracked_render(*args, **kwargs):
        sample = real_render(*args, **kwargs)
        alive.add(sample)
        most.append(len(alive))
        return sample

    def tracked_hash(word):
        hashes.append(word)
        return real_hash(word)

    monkeypatch.setattr(cli_module, "render", tracked_render)
    monkeypatch.setattr(template_module, "_word_hash", tracked_hash)
    return most, hashes


def test_blend_renders_nothing_and_hashes_no_word(tmp_path, monkeypatch):
    most, hashes = _track_renders(monkeypatch)
    rng = np.random.default_rng(2)
    llava = _write_corpus(tmp_path / "l.jsonl", [llava_record(rng, f"img{i}") for i in range(12)])
    dial = _write_corpus(tmp_path / "d.jsonl", [llava_dial_record(rng, "img1")])
    otter = _write_corpus(
        tmp_path / "p.jsonl", [otter_record(rng, "img0", "img1"), otter_record(rng, "img2", "x")]
    )
    out = str(tmp_path / "o.jsonl")
    for mode in (["--mode", "concat", "--input", llava],
                 ["--mode", "llava-otter", "--llava", llava, "--llava-dial", dial, "--otter", otter]):
        assert main(["blend", *mode, "--out", out]) == 0
        assert read_records(out)
    assert most == [] and hashes == []


def test_render_holds_one_rendered_sample_at_a_time(tmp_path, monkeypatch):
    most, hashes = _track_renders(monkeypatch)
    rng = np.random.default_rng(2)
    records = [llava_record(rng, f"img{i}") for i in range(12)]
    records.insert(5, SourceRecord(
        Dataset.LLAVA, ("long",), Conversation("s", (Round(("long",), "q", "w " * 40),))
    ))
    src = _write_corpus(tmp_path / "in.jsonl", records)
    out, stats = tmp_path / "o.jsonl", tmp_path / "s.json"
    argv = ["render", "--input", src, "--out", str(out), "--stats-out", str(stats),
            "--image-tokens", "4", "--max-seq-len", "40"]
    assert main(argv) == 0
    assert json.loads(stats.read_text(encoding="utf-8"))["dropped"]["over_length"] == 1
    assert len(most) == 12 and max(most) == 1  # each kept record rendered once
    assert hashes


def test_blend_concat_identity_grouping_is_permutation(tmp_path):
    rng = np.random.default_rng(1)
    records = [llava_record(rng, f"img{i}") for i in range(10)]
    src = _write_corpus(tmp_path / "in.jsonl", records)
    out = tmp_path / "out.jsonl"
    stats = tmp_path / "stats.json"
    assert (
        main(
            [
                "blend", "--mode", "concat", "--input", src,
                "--min-group", "1", "--max-group", "1",
                "--out", str(out), "--stats-out", str(stats), "--seed", "3",
            ]
        )
        == 0
    )
    blended = read_records(out)
    assert sorted(r.image_ids for r in blended) == sorted(r.image_ids for r in records)
    payload = json.loads(stats.read_text(encoding="utf-8"))
    assert payload["kept"]["total"] == 10
    assert payload["dropped"] == {"too_many_images": 0, "over_length": 0}


def test_blend_llava_otter_matches_oracle(tmp_path):
    rng = np.random.default_rng(2)
    ids = [f"c{i}" for i in range(8)]
    llava = [llava_record(rng, ids[i]) for i in (0, 1, 2)]
    dial = [llava_dial_record(rng, ids[i]) for i in (1, 4)]
    otter = [
        otter_record(rng, ids[0], ids[1]),
        otter_record(rng, ids[4], ids[5]),
        otter_record(rng, ids[6], ids[7]),
    ]
    out = tmp_path / "out.jsonl"
    assert (
        main(
            [
                "blend", "--mode", "llava-otter",
                "--llava", _write_corpus(tmp_path / "l.jsonl", llava),
                "--llava-dial", _write_corpus(tmp_path / "d.jsonl", dial),
                "--otter", _write_corpus(tmp_path / "o.jsonl", otter),
                "--out", str(out),
            ]
        )
        == 0
    )
    assert read_records(out) == join_oracle(llava, dial, otter)


def test_blend_concat_requires_input(tmp_path, capsys):
    assert main(["blend", "--mode", "concat", "--out", str(tmp_path / "x")]) == 2
    assert "requires --input" in capsys.readouterr().err


def test_blend_llava_otter_rejects_a_pair_record_as_llava(tmp_path, capsys):
    rng = np.random.default_rng(5)
    pair = _write_corpus(tmp_path / "p.jsonl", [otter_record(rng, "a", "b")])
    empty = _write_corpus(tmp_path / "d.jsonl", [])
    argv = ["blend", "--mode", "llava-otter", "--llava", pair, "--llava-dial", empty,
            "--otter", pair, "--out", str(tmp_path / "o.jsonl")]
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: first argument (llava) must contain single-image records")


@pytest.mark.parametrize("argv, message", [
    (["render", "--input", "{llava}", "--max-images", "0"],
     "max_images must be an integer >= 1, got 0"),
    (["blend", "--mode", "concat", "--input", "{llava}", "--max-images", "0"],
     "max_images must be an integer >= 1, got 0"),
    (["blend", "--mode", "llava-otter", "--llava", "{llava}", "--llava-dial", "{llava}",
      "--otter", "{otter}", "--min-group", "0"], "min_group must be an integer >= 1, got 0"),
    (["blend", "--mode", "concat", "--input", "{llava}", "--max-group", "100000000000000000000"],
     "max_group must be below 2**63, got 100000000000000000000"),
])
def test_a_bad_limit_or_group_flag_exits_2_naming_it(tmp_path, capsys, argv, message):
    rng = np.random.default_rng(3)
    paths = {"llava": _write_corpus(tmp_path / "l.jsonl", [llava_record(rng, "img0")]),
             "otter": _write_corpus(tmp_path / "p.jsonl", [otter_record(rng, "img0", "img1")])}
    assert main([arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def assert_malformed_input_reports_line(tmp_path, capsys, command):
    """``command`` exits 2 on a broken line 1 and on one nested too deeply
    to parse, with one ``error:`` line that names line 1 and no traceback."""
    src = tmp_path / "in.jsonl"
    for bad in ("{broken", "[" * 200_000):
        src.write_text(bad + "\n", encoding="utf-8")
        assert main([*command, "--input", str(src), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "line 1" in line


def test_blend_malformed_input_reports_line(tmp_path, capsys):
    assert_malformed_input_reports_line(tmp_path, capsys, ["blend", "--mode", "concat"])


def test_render_malformed_input_reports_line(tmp_path, capsys):
    assert_malformed_input_reports_line(tmp_path, capsys, ["render"])


_GOOD_RECORD = {"dataset": "llava", "image_ids": ["a"], "system": "s",
                "rounds": [{"images": ["a"], "question": "q", "answer": "x"}]}


@pytest.mark.parametrize(("line", "message"), [
    (b"[1, 2]", "record must be a JSON object, got an array"),
    (json.dumps({k: v for k, v in _GOOD_RECORD.items() if k != "rounds"}).encode(), "rounds is missing"),
    (json.dumps({**_GOOD_RECORD, "rounds": 3}).encode(), "rounds must be a JSON array, got a number"),
    (json.dumps({**_GOOD_RECORD, "rounds": [3]}).encode(), "rounds[0] must be a JSON object, got a number"),
    (json.dumps({**_GOOD_RECORD, "rounds": [{"images": [], "question": "q"}]}).encode(),
     "rounds[0].answer is missing"),
    (json.dumps({**_GOOD_RECORD, "dataset": "coco"}).encode(),
     "dataset must be one of llava, llava_dial, otter_cgd, other, got 'coco'"),
    (b'{"dataset": "ll\xffava"}', "not valid UTF-8 (byte 0xff)"),
], ids=["not-an-object", "missing-key", "rounds-not-an-array", "round-not-an-object",
        "round-missing-key", "unknown-dataset", "undecodable-byte"])
@pytest.mark.parametrize("command", [["render"], ["blend", "--mode", "concat"]], ids=["render", "blend"])
def test_malformed_record_names_the_field(tmp_path, capsys, command, line, message):
    """A record that is no object, lacks a field or has one of the wrong
    type, or a line that is not UTF-8, exits 2 with one ``error:`` line
    naming the path, the line and the field, not Python's own message."""
    src = tmp_path / "in.jsonl"
    src.write_bytes(json.dumps(_GOOD_RECORD).encode() + b"\n" + line + b"\n")
    assert main([*command, "--input", str(src), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {src}: malformed record on line 2: {message}\n"


def test_every_byte_flip_of_a_record_exits_0_or_2_with_one_error_line(tmp_path, capsys):
    """Each byte of a good record's line set to NUL, a quote, 0xff or its
    own value with the low bit flipped: ``mmchat render`` and ``mmchat
    blend --mode concat`` exit 0 with nothing on stderr, or 2 with exactly
    one ``error:`` line, never a traceback."""
    good = json.dumps(_GOOD_RECORD).encode()
    assert len(good) == 118
    src, out = tmp_path / "in.jsonl", str(tmp_path / "o")
    exits = []
    for at, byte in enumerate(good):
        for value in sorted({0x00, ord('"'), 0xFF, byte ^ 1} - {byte}):
            src.write_bytes(good[:at] + bytes([value]) + good[at + 1:] + b"\n")
            for command in (["render"], ["blend", "--mode", "concat"]):
                code = main([*command, "--input", str(src), "--out", out])
                err = capsys.readouterr().err
                one_error = err.startswith("error: ") and err.count("\n") == 1
                assert (code, err) == (0, "") or (code == 2 and one_error), (at, value, command, err)
                exits.append(code)
    assert exits.count(2) > exits.count(0) > 0  # most flips break the record, some do not


def test_render_command(tmp_path):
    rng = np.random.default_rng(3)
    ok = llava_record(rng, "fine")
    long_question = " ".join(["w"] * 5000)
    from mmchat.blend import Dataset, SourceRecord
    from mmchat.template import Conversation, Round

    too_long = SourceRecord(
        Dataset.LLAVA,
        ("big",),
        Conversation("s", (Round(("big",), long_question, "a"),)),
    )
    src = _write_corpus(tmp_path / "in.jsonl", [ok, too_long])
    out = tmp_path / "out.jsonl"
    stats = tmp_path / "stats.json"
    assert (
        main(["render", "--input", src, "--out", str(out), "--stats-out", str(stats)])
        == 0
    )
    payload = json.loads(stats.read_text(encoding="utf-8"))
    assert payload == {"rendered": 1, "dropped": {"too_many_images": 0, "over_length": 1}}
    lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 1
    sample = lines[0]
    assert len(sample["token_ids"]) == len(sample["kinds"]) == len(sample["loss_mask"])
    assert sample["image_count"] == 1
    assert sample["kinds"].count("I") == 256
    # the kept record's text form round-trips
    assert parse(render_text(ok.conversation)) == ok.conversation


def test_render_command_empty_input(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    stats = tmp_path / "stats.json"
    assert main(["render", "--input", str(src), "--out", str(out), "--stats-out", str(stats)]) == 0
    assert out.read_text(encoding="utf-8") == ""
    payload = json.loads(stats.read_text(encoding="utf-8"))
    assert payload == {"rendered": 0, "dropped": {"too_many_images": 0, "over_length": 0}}


def test_render_command_rejects_a_string_of_image_ids(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    record = {"dataset": "llava", "image_ids": "img12", "system": "s",
              "rounds": [{"images": "img12", "question": "q", "answer": "x"}]}
    src.write_text(json.dumps(record) + "\n", encoding="utf-8")
    out, stats = tmp_path / "out.jsonl", tmp_path / "stats.json"
    assert main(["render", "--input", str(src), "--out", str(out), "--stats-out", str(stats)]) == 2
    assert "line 1: images must be a JSON array of strings or integers, got 'img12'" in capsys.readouterr().err
    assert not stats.exists()


# Text-only, 1-image, 3-image and over-length (41+ tokens) records.
_GOLDEN_CORPUS = [
    '{"dataset": "other", "image_ids": [], "rounds": [{"answer": "hello", "images": [], "question": "hi there"}], "system": "be brief"}',
    '{"dataset": "llava", "image_ids": ["cat"], "rounds": [{"answer": "a cat", "images": ["cat"], "question": "what is it"}], "system": "sys"}',
    '{"dataset": "other", "image_ids": ["a", "b", "c"], "rounds": [{"answer": "same", "images": ["a", "b"], "question": "compare"}, {"answer": "different one", "images": ["c"], "question": "and this"}], "system": "s"}',
    '{"dataset": "other", "image_ids": [], "rounds": [{"answer": "no", "images": [], "question": "w w w w w w w w w w w w w w w w w w w w w w w w w w w w w w w w w w w w w w w w"}], "system": "s"}',
]

# `mmchat render` output for _GOLDEN_CORPUS with --image-tokens 2
# --max-seq-len 40 --vocab-size 16, one JSON object per kept record.
_GOLDEN_RENDERED = [
    '{"block_ids": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "image_count": 0, "image_ids": [], "kinds": "TTTTTTTTTT", "loss_mask": [0, 0, 0, 0, 0, 0, 0, 0, 1, 1], "token_ids": [8, 4, 0, 14, 6, 15, 0, 7, 13, 6]}',
    '{"block_ids": [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "image_count": 1, "image_ids": ["cat"], "kinds": "TTTTIITTTTTTTTTT", "loss_mask": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1], "token_ids": [2, 0, 11, 5, 0, 0, 0, 14, 15, 2, 2, 0, 7, 15, 15, 6]}',
    '{"block_ids": [0, 0, 0, 0, 1, 1, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0], "image_count": 3, "image_ids": ["a", "b", "c"], "kinds": "TTTTIITTTIITTTTTTTTTTIITTTTTTTTT", "loss_mask": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1], "token_ids": [14, 0, 11, 5, 0, 0, 0, 11, 8, 0, 0, 0, 14, 8, 0, 7, 13, 6, 0, 11, 0, 0, 0, 0, 14, 3, 5, 0, 7, 13, 9, 6]}',
]

_GOLDEN_STATS = '{\n  "dropped": {\n    "over_length": 1,\n    "too_many_images": 0\n  },\n  "rendered": 3\n}\n'


def test_render_command_golden_bytes(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text("".join(line + "\n" for line in _GOLDEN_CORPUS), encoding="utf-8")
    out, stats = tmp_path / "out.jsonl", tmp_path / "stats.json"
    argv = [
        "render", "--input", str(src), "--out", str(out), "--stats-out", str(stats),
        "--image-tokens", "2", "--max-seq-len", "40", "--vocab-size", "16",
    ]
    assert main(argv) == 0
    assert out.read_bytes() == "".join(line + "\n" for line in _GOLDEN_RENDERED).encode()
    assert stats.read_bytes() == _GOLDEN_STATS.encode()


def _text_sample(ids):
    d = len(ids)
    tokens = st.lists(st.integers(0, 2**31), min_size=d, max_size=d)
    mask = st.lists(st.booleans(), min_size=d, max_size=d)
    blocks = len(set(ids) - {0})
    names = st.lists(st.text(max_size=4), min_size=blocks, max_size=blocks)
    return st.tuples(st.just(ids), tokens, mask, names)


@given(edge_layouts().flatmap(_text_sample))
@example(([0], [5], [True], []))  # d=1, text
@example(([3], [5], [False], ["x"]))  # d=1, image
@example(([0, 0, 0], [1, 2, 3], [False, True, True], []))  # text-only, loss to the end
@example(([0, 0, 0], [77, 77, 77], [True, True, True], []))  # text run of one id
@example(([1, 1, 2, 2, 2], [4] * 5, [False] * 5, ["a", "b"]))  # image-only, adjacent blocks
@example(([1, 2, 3], [4] * 3, [False] * 3, ["a", "b", "c"]))  # 1-token blocks
@example(([0, 0, 1, 0, 3, 3, 0], list(range(7)), [True] * 7, ["p", "q"]))  # text first
@example(([1, 1, 0, 2, 2, 0, 3], [31999, 31999, 12, 31999, 31999, 405, 31999], [True] * 7,
          ['say "hi"', "back\\slash", "ü图"]))  # 1-token text runs, escaped ids
@example(([0, 1, 1, 0, 0, 0], [2**31, 7, 7, 123456, 98, 2**31], [False] * 4 + [True] * 2,
          ["ü"]))  # multi-digit ids, loss to the last position
def test_sample_line_fields_follow_the_sample(case):
    ids, token_ids, mask, image_ids = case
    mask = [flag and bid == 0 for flag, bid in zip(mask, ids)]
    tags = ModalitySequence(ids)
    sample = RenderedSample(tuple(token_ids), tags, tuple(mask), tuple(image_ids))
    # the payload as a dict, written out here as the oracle of the line's bytes
    payload = {
        "token_ids": list(token_ids),
        "kinds": "".join("I" if bid != 0 else "T" for bid in ids),
        "block_ids": list(ids),
        "loss_mask": [int(flag) for flag in mask],
        "image_count": len(image_ids),
        "image_ids": list(image_ids),
    }
    line = _sample_line(sample)
    assert line == json.dumps(payload, sort_keys=True) + "\n"
    assert json.loads(line) == payload


def test_missing_input_file_exits_2_without_traceback(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.jsonl")
    out = str(tmp_path / "out.jsonl")
    assert main(["render", "--input", missing, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "nonexistent.jsonl" in err
    assert main(["blend", "--mode", "concat", "--input", missing, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_output_exits_2(tmp_path, capsys):
    assert main(["mask", "i2,t2", "--out", str(tmp_path / "no-such-dir" / "grid.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck", "--variant", "mmca", "--seeds", "2", "--d", "6"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert out.count("ok") == 2


def test_gradcheck_command_detects_corruption(monkeypatch, capsys):
    real_vjp = attn_module.segment_attention_vjp

    def corrupted_vjp(*args, **kwargs):
        grads = real_vjp(*args, **kwargs)
        grads["q"] = grads["q"] + 1.0
        return grads

    monkeypatch.setattr(attn_module, "segment_attention_vjp", corrupted_vjp)
    assert main(["gradcheck", "--variant", "mmca", "--seeds", "1", "--d", "6"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("head_dim", ["0", "-2"])
def test_gradcheck_rejects_a_head_dim_below_one(capsys, head_dim):
    assert main(["gradcheck", "--seeds", "1", "--d", "5", "--head-dim", head_dim]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: head_dim must be >= 1\n" and "PASS" not in captured.out


def test_gradcheck_rejects_no_seeds(capsys):
    assert main(["gradcheck", "--seeds", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seeds must be >= 1\n" and captured.out == ""


@pytest.mark.parametrize("d", ["0", "99999999999999999999999"])
def test_gradcheck_rejects_a_length_outside_the_sequence_cap(capsys, d):
    """``--d`` is checked against the package's own sequence cap before any
    segment is drawn, so a huge value fails at once instead of growing the
    random layout until memory runs out."""
    assert main(["gradcheck", "--seeds", "1", "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --d must lie in [1, 4096]\n" and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["mask", "i3,t99999999999999999"],
    ["mask", "i3,t999999999999999999999"],
    ["gradcheck", "--d", "2", "--seeds", "1", "--head-dim", "100000000000000000"],
])
def test_sizes_too_large_to_allocate_exit_2_without_traceback(capsys, argv):
    """Each command asks for more than any address space holds, so it fails
    at once without touching memory: the two mask layouts (1e17 and 1e21
    tokens) stop at the 4096-token sequence cap before any block id is
    built, and gradcheck's 2 x 1e17 float64 array fails to allocate."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.strip() != "error:" and len(err.strip().splitlines()) == 1


def test_gradcheck_all_variants_small(capsys):
    assert main(["gradcheck", "--seeds", "1", "--d", "5"]) == 0
    out = capsys.readouterr().out
    for name in ("causal", "cross", "mmca"):
        assert name in out


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["mask", "i2", "--bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense"])
