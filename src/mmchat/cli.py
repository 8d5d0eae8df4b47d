"""Command-line surface: ``mask``, ``blend``, ``render`` and ``gradcheck``.

Every command is deterministic for fixed flags and seed. It exits 0 on
success, 1 when a check fails, and 2 with one ``error:`` line on a data or
file error (bad value, unreadable input, unwritable output, a size too
large to allocate).
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np

from .attn import variant_grad_check
from .blend import (
    BlendSpec,
    concat_blend,
    dataset_stats,
    filter_limits,
    llava_otter_blend,
    read_records,
    write_records,
)
from .mask import AttentionVariant, build_layout, build_mask, render_mask
from .modseq import LayoutConfig, ModalitySequence, TokenKind, build_sequence
from .template import HashTokenizer, RenderedSample, render

_SEQ_SEGMENT = re.compile(r"([it])([0-9]+)")

GRADCHECK_TOLERANCE = 1e-4


def parse_seq_spec(spec: str) -> ModalitySequence:
    """Mini-grammar for modality layouts: comma-separated segments, each
    'iN' (an image block of N tokens) or 'tN' (N text tokens). Example:
    "i3,t7" is a 3-token image block followed by 7 text tokens. A layout
    longer than the package's sequence cap is rejected before any block id
    is built."""
    segments = []
    for part in spec.split(","):
        match = _SEQ_SEGMENT.fullmatch(part.strip())
        if match is None:
            raise ValueError(
                f"bad seq-spec segment {part.strip()!r}: expected 'iN' or 'tN'"
            )
        kind = TokenKind.IMAGE if match.group(1) == "i" else TokenKind.TEXT
        count = int(match.group(2))
        if count < 1:
            raise ValueError(f"segment {part.strip()!r} must have count >= 1")
        segments.append((kind, count))
    longest = LayoutConfig().max_sequence_length
    total = sum(count for _, count in segments)
    if total > longest:
        raise ValueError(f"seq-spec has {total} tokens, more than the {longest}-token cap")
    return build_sequence(segments)


def _write_text(path: str | None, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_json(path: str | None, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def cmd_mask(args: argparse.Namespace) -> int:
    seq = parse_seq_spec(args.seq)
    mask = build_mask(seq, AttentionVariant(args.variant), args.image_self)
    _write_text(args.out, render_mask(mask))
    return 0


def cmd_blend(args: argparse.Namespace) -> int:
    layout = LayoutConfig(args.image_tokens, args.max_seq_len)
    spec = BlendSpec(args.min_group, args.max_group, args.seed)
    if args.mode == "concat":
        if args.input is None:
            raise ValueError("--mode concat requires --input")
        blended = concat_blend(read_records(args.input), spec)
    else:
        if None in (args.llava, args.llava_dial, args.otter):
            raise ValueError("--mode llava-otter requires --llava, --llava-dial, and --otter")
        blended = llava_otter_blend(
            read_records(args.llava),
            read_records(args.llava_dial),
            read_records(args.otter),
        )
    kept, dropped = filter_limits(blended, args.max_images, layout)
    write_records(kept, args.out)
    _write_json(args.stats_out, {"kept": dataset_stats(kept), "dropped": dropped})
    return 0


_LOSS_FLAG = {False: "0, ", True: "1, "}


def _sample_line(sample: RenderedSample) -> str:
    """One ``mmchat render`` line, byte for byte the ``json.dumps`` line
    that docs/template-grammar.md states, for a sample as ``render`` makes
    it (``int`` token ids, ``bool`` loss flags). It is written per run of
    block ids, not per token: a run of n equal token ids (an image block's
    placeholder) is one string repeated n times."""
    tokens, mask = sample.token_ids, sample.loss_mask
    token_text, block_text, loss_text, kinds = [], [], [], []
    start = 0
    for bid, run in itertools.groupby(sample.tags.ids):
        n = len(list(run))
        chunk = tokens[start : start + n]
        if chunk.count(chunk[0]) == n:
            token_text.append(f"{chunk[0]}, " * n)
        else:
            token_text.append(", ".join(map(str, chunk)) + ", ")
        block_text.append(f"{bid}, " * n)
        if bid:  # RenderedSample rejects loss on an image token
            loss_text.append("0, " * n)
            kinds.append("I" * n)
        else:
            loss_text.append("".join(map(_LOSS_FLAG.__getitem__, mask[start : start + n])))
            kinds.append("T" * n)
        start += n
    return (
        f'{{"block_ids": [{"".join(block_text)[:-2]}], '
        f'"image_count": {sample.image_count}, '
        f'"image_ids": {json.dumps(sample.image_ids)}, '
        f'"kinds": "{"".join(kinds)}", '
        f'"loss_mask": [{"".join(loss_text)[:-2]}], '
        f'"token_ids": [{"".join(token_text)[:-2]}]}}\n'
    )


def cmd_render(args: argparse.Namespace) -> int:
    layout = LayoutConfig(args.image_tokens, args.max_seq_len)
    tokenizer = HashTokenizer(args.vocab_size)
    records = read_records(args.input)
    with open(args.out, "w", encoding="utf-8") as handle:
        kept, dropped = filter_limits(
            records, args.max_images, layout,
            lambda record: handle.write(_sample_line(render(record.conversation, tokenizer, layout))),
        )
    _write_json(args.stats_out, {"rendered": len(kept), "dropped": dropped})
    return 0


def _random_segments(rng: np.random.Generator, d: int) -> list[tuple[TokenKind, int]]:
    """Random mixed layout of exactly d tokens with at least one image
    block and one text token when d >= 2."""
    segments: list[tuple[TokenKind, int]] = []
    total = 0
    while total < d:
        size = int(rng.integers(1, min(4, d - total) + 1))
        kind = TokenKind.IMAGE if rng.random() < 0.4 else TokenKind.TEXT
        segments.append((kind, size))
        total += size
    kinds = {kind for kind, _ in segments}
    if d >= 2 and len(kinds) == 1:
        only = kinds.pop()
        flipped = TokenKind.TEXT if only is TokenKind.IMAGE else TokenKind.IMAGE
        last_kind, last_size = segments[-1]
        if last_size > 1:
            segments[-1] = (last_kind, last_size - 1)
            segments.append((flipped, 1))
        else:
            segments[-1] = (flipped, last_size)
    return segments


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    longest = LayoutConfig().max_sequence_length
    if not 1 <= args.d <= longest:
        raise ValueError(f"--d must lie in [1, {longest}]")
    variants = (
        [AttentionVariant(args.variant)]
        if args.variant != "all"
        else list(AttentionVariant)
    )
    lines = []
    worst = 0.0
    for variant in variants:
        for seed in range(args.seeds):
            rng = np.random.default_rng(1000 + seed)
            seq = build_sequence(_random_segments(rng, args.d))
            layout = build_layout(seq, variant)
            err = variant_grad_check(layout, head_dim=args.head_dim, eps=args.eps, seed=seed)
            worst = max(worst, err)
            status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
            lines.append(f"{variant.value} seed={seed} max_rel_err={err:.3e} {status}")
    passed = worst < GRADCHECK_TOLERANCE
    lines.append(
        f"worst={worst:.3e} tolerance={GRADCHECK_TOLERANCE:.0e} "
        f"{'PASS' if passed else 'FAIL'}"
    )
    _write_text(args.out, "\n".join(lines))
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmchat",
        description="Modality-aware attention masks, dual-softmax attention, "
        "conversation templates, and data blending.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mask = sub.add_parser("mask", help="print an attention mask as a text grid")
    p_mask.add_argument("seq", help="layout spec, e.g. 'i3,t7' (image block of 3, then 7 text tokens)")
    p_mask.add_argument("--variant", choices=[v.value for v in AttentionVariant], default="mmca")
    p_mask.add_argument("--image-self", choices=["block", "diagonal"], default="block")
    p_mask.add_argument("--out", default=None)
    p_mask.set_defaults(func=cmd_mask)

    # the output files and admission limits that blend and render share
    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--out", required=True)
    limits.add_argument("--stats-out", default=None)
    limits.add_argument("--max-images", type=int, default=8)
    limits.add_argument("--image-tokens", type=int, default=256)
    limits.add_argument("--max-seq-len", type=int, default=4096)

    p_blend = sub.add_parser("blend", parents=[limits], help="synthesize multi-round multi-image records")
    p_blend.add_argument("--mode", choices=["concat", "llava-otter"], required=True)
    p_blend.add_argument("--input", default=None, help="records for --mode concat")
    p_blend.add_argument("--llava", default=None)
    p_blend.add_argument("--llava-dial", default=None)
    p_blend.add_argument("--otter", default=None)
    p_blend.add_argument("--seed", type=int, default=0)
    p_blend.add_argument("--min-group", type=int, default=1)
    p_blend.add_argument("--max-group", type=int, default=3)
    p_blend.set_defaults(func=cmd_blend)

    p_render = sub.add_parser("render", parents=[limits], help="tokenize records into rendered samples")
    p_render.add_argument("--input", required=True)
    p_render.add_argument("--vocab-size", type=int, default=32)
    p_render.set_defaults(func=cmd_render)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument(
        "--variant", choices=[v.value for v in AttentionVariant] + ["all"], default="all"
    )
    p_grad.add_argument("--seeds", type=int, default=20)
    p_grad.add_argument("--d", type=int, default=12)
    p_grad.add_argument("--head-dim", type=int, default=4)
    p_grad.add_argument("--eps", type=float, default=1e-5)
    p_grad.add_argument("--out", default=None)
    p_grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
