"""The three benchmark workloads, their correctness gates and their metrics.

Each workload has the same life cycle:

1. ``generate``: the benchmark's own seeded inputs, excluded from set-up.
2. ``setup``: the program's one-time calls (``import mmchat``, building
   models, rendering the fixed batches, warm-up). ``setup_s`` times this in
   fresh processes (see run.py).
3. ``gate_before``: correctness checks that must pass before a number
   counts, untimed.
4. ``run_round`` repeated for the timed phase; every step, scoring call and
   CLI command is one operation, and one that raises is a failed one. A
   ``calibration.Meter`` times each operation.
5. ``gate_after``: checks on what the timed phase produced, untimed.

Only the standard library is imported at module level, so that a set-up
probe starts its clock before numpy is first imported.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import statistics
import struct
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from . import corpus
from .calibration import Meter, Timing

ORACLE_TOLERANCE = 1e-10
VARIANTS = ("causal", "cross", "mmca")
# Losses hashed into the determinism fingerprint: the first this many
# training steps of the timed phase (fewer if the run made fewer).
LOSS_DIGEST_STEPS = 12


def load_program() -> SimpleNamespace:
    """Import the package under test and return its layer modules."""
    names = ("modseq", "mask", "attn", "toy_model", "template", "blend", "cli")
    return SimpleNamespace(**{name: importlib.import_module(f"mmchat.{name}") for name in names})


class Ops:
    """Counts attempted and failed operations. A gate check is an operation
    too, so that ``failed <= attempted`` always holds."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def call(self, label: str, fn: Callable, *args: Any) -> Any:
        """Run one operation; on an exception count it failed, return None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # an operation's failure is data, not a crash
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(f"gate {label} failed{': ' + detail if detail else ''}")
        return ok

    def fail(self, message: str) -> None:
        """Mark the operation last counted as failed."""
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)


def loss_digest(losses: list[float]) -> str:
    return hashlib.sha256(struct.pack(f"<{len(losses)}d", *losses)).hexdigest()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for label, share in (("p90", 0.9), ("p99", 0.99), ("p999", 0.999)):
        if len(values) * (1.0 - share) >= 10:
            cuts = statistics.quantiles(values, n=round(1 / (1 - share)), method="inclusive")
            best = (label, cuts[-1])
    return best


def _units(ops: list[tuple[str, int, Timing]]) -> int:
    return sum(units for _, units, _ in ops)


def _wall_s(ops: list[tuple[str, int, Timing]]) -> float:
    return sum(timing.wall_s for _, _, timing in ops)


def end_to_end(rounds: list[dict], meter: Meter) -> dict[str, float]:
    """The gated end-to-end figures of a timed phase: medians over rounds
    of calibrated times (see calibration.py).

    Every round reports three lists of (key, units, Timing) operations:
    ``steps`` (one train step per model, or the three commands of a
    pipeline pass), ``primary`` (train steps, or the two blends) and
    ``secondary`` (scoring calls, or the render). ``step_s`` is the
    median calibrated time of a round's steps, so that a change to any one
    model's step, or any one command, moves it; the rates divide a kind's
    units by its calibrated time in each round. The wall-time medians are
    printed too, under the workload's own metric names.
    """

    def cal_s(ops: list[tuple[str, int, Timing]]) -> float:
        return sum(meter.calibrated_s(timing) for _, _, timing in ops)

    return {
        "step_s": median([cal_s(r["steps"]) for r in rounds]),
        "primary_per_s": median([_units(r["primary"]) / cal_s(r["primary"]) for r in rounds]),
        "secondary_per_s": median([_units(r["secondary"]) / cal_s(r["secondary"]) for r in rounds]),
    }


def median_rows(rounds: list[dict], primary: str, secondary: str, step: str) -> list:
    """Wall-time medians of a timed phase under the workload's own names."""
    steps = [t for r in rounds for t in r["step_times"]]
    rows = [
        (primary, "1/s", median([_units(r["primary"]) / _wall_s(r["primary"]) for r in rounds]),
         "median over rounds"),
        (secondary, "1/s", median([_units(r["secondary"]) / _wall_s(r["secondary"]) for r in rounds]),
         "median over rounds"),
        (f"{step}_p50", "s", median(steps), f"median of {len(steps)}"),
    ]
    tail = tail_percentile(steps)
    if tail:
        rows.append((f"{step}_{tail[0]}", "s", tail[1], f"{len(steps)} samples"))
    else:
        rows.append((f"{step}_p90", "s", "n/a", f"{len(steps)} samples; needs 100"))
    return rows


def _allowed_edges(program, sample, config) -> int:
    """Allowed (query, key) pairs of the sample's attention mask."""
    mask = program.mask.build_mask(sample.tags, config.variant, config.image_self)
    return int(mask.allowed().sum())


@dataclass
class Arm:
    """One model being trained: its batch, state and loss history."""

    variant: str
    config: Any
    batch: list
    initial: Any
    model: Any
    opt: Any
    fingerprint: str = ""
    losses: list[float] = field(default_factory=list)
    score_losses: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Training workloads


class TrainingWorkload:
    """Shared loop of copy_train and paper_train: per round, one full-batch
    ``train_step`` per arm, then forward-only scoring (``forward`` plus
    ``answer_loss``) of each arm's scoring set."""

    def scoring_set(self, state, arm) -> list:
        raise NotImplementedError

    def oracle_samples(self, state, arm) -> list:
        raise NotImplementedError

    def run_round(self, state, ops: Ops, meter: Meter, tracer=None) -> dict:
        tm = state.program.toy_model
        steps, scores = [], []
        for arm in state.arms:
            if tracer is not None:
                tracer.tag = arm.variant
            result, timing = meter.time(
                ops.call, f"train_step[{arm.variant}]", tm.train_step, arm.model, arm.batch, arm.opt
            )
            steps.append((arm.variant, sum(s.d for s in arm.batch), timing))
            if result is not None:
                loss, arm.model = result
                arm.losses.append(loss)
        for arm in state.arms:
            if tracer is not None:
                tracer.tag = arm.variant
            for index, sample in enumerate(self.scoring_set(state, arm)):
                loss, timing = meter.time(ops.call, f"score[{arm.variant}]", _score, tm, arm.model, sample)
                scores.append((f"{arm.variant}/{index}", sample.d, timing))
                if loss is not None:
                    arm.score_losses.append(loss)
        return {
            "step_times": [timing.wall_s for _, _, timing in steps],
            "steps": steps,
            "primary": steps,
            "secondary": scores,
            "op_s": _wall_s(steps + scores),
        }

    def gate_before(self, state, ops: Ops) -> None:
        import numpy as np

        oracles = importlib.import_module("oracles")
        tm = state.program.toy_model
        for arm in state.arms:
            label = f"step0_logits_vs_oracle[{arm.variant}]"
            try:
                gaps = [
                    float(np.max(np.abs(
                        tm.forward(arm.initial, sample) - oracles.naive_model_logits(arm.initial, sample)
                    )))
                    for sample in self.oracle_samples(state, arm)
                ]
            except Exception as exc:  # a kernel that raises fails the gate
                ops.check(label, False, f"{type(exc).__name__}: {exc}")
            else:
                # written so that a NaN gap fails
                ops.check(label, all(gap <= ORACLE_TOLERANCE for gap in gaps),
                          f"max abs diffs {gaps} exceed {ORACLE_TOLERANCE:.0e}")
            arm.fingerprint = tm.frozen_fingerprint(arm.initial)

    def gate_after(self, state, ops: Ops) -> None:
        tm = state.program.toy_model
        for arm in state.arms:
            ops.check(
                f"frozen_fingerprint[{arm.variant}]",
                tm.frozen_fingerprint(arm.model) == arm.fingerprint,
                "frozen parameters changed during training",
            )
            bad = [x for x in arm.losses + arm.score_losses if not math.isfinite(x)]
            ops.check(f"finite_losses[{arm.variant}]", not bad, f"{len(bad)} non-finite losses")
            ops.check(f"trained[{arm.variant}]", bool(arm.losses), "no training step completed")

    def report_rows(self, rounds: list[dict], state) -> list[tuple[str, str, Any, str]]:
        rows = median_rows(rounds, "train_tokens_per_s", "score_tokens_per_s", "step_s")
        if len(state.arms) > 1:
            for i, arm in enumerate(state.arms):
                own = [r["step_times"][i] for r in rounds]
                rows.append((f"step_s_p50.{arm.variant}", "s", median(own), ""))
        return rows

    def fingerprints(self, state) -> dict:
        out = {}
        for arm in state.arms:
            head = arm.losses[:LOSS_DIGEST_STEPS]
            out[f"loss_digest.{arm.variant}"] = loss_digest(head)
            out[f"loss_digest_steps.{arm.variant}"] = len(head)
            out[f"frozen_fingerprint.{arm.variant}"] = arm.fingerprint
        return out

    def trace_statics(self, state) -> dict:
        """Allowed attention edges per round and the allowed share of d*d,
        taken from the masks the round's models use."""
        program = state.program
        edges = 0
        allowed_total = square_total = 0
        for arm in state.arms:
            cfg = arm.config
            per_pass = cfg.num_heads * cfg.num_layers
            for sample in arm.batch:
                allowed = _allowed_edges(program, sample, cfg)
                allowed_total += allowed
                square_total += sample.d * sample.d
                edges += 2 * per_pass * allowed  # forward pass and VJP pass
            for sample in self.scoring_set(state, arm):
                edges += per_pass * _allowed_edges(program, sample, cfg)
        return {"edges_per_round": edges, "allowed_edge_frac": allowed_total / square_total}


def _score(tm, model, sample) -> float:
    return tm.answer_loss(tm.forward(model, sample), sample)


class CopyTrain(TrainingWorkload):
    """The paper's ablation at desk scale: the built-in copy task trained
    with each attention variant from the same seed."""

    name = "copy_train"
    calibrated = True

    def generate(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed}

    def setup(self, program, inputs: dict) -> SimpleNamespace:
        tm, mask = program.toy_model, program.mask
        arms = []
        for variant in VARIANTS:
            config = tm.ModelConfig(variant=mask.AttentionVariant(variant))
            batch, image_ids = tm.make_copy_task(config)
            model = tm.make_model(config, seed=inputs["seed"], known_images=image_ids)
            warm, opt = model, tm.OptimState(total_steps=200)
            for _ in range(2):
                _, warm = tm.train_step(warm, batch, opt)
            for sample in batch:
                _score(tm, warm, sample)
            arms.append(Arm(variant, config, batch, model, model, tm.OptimState(total_steps=200)))
        return SimpleNamespace(program=program, arms=arms)

    def scoring_set(self, state, arm) -> list:
        return arm.batch

    def oracle_samples(self, state, arm) -> list:
        return arm.batch


class PaperTrain(TrainingWorkload):
    """Paper-shaped multi-image conversations (256 tokens per image) on the
    MMCA toy model: d*d attention dominates."""

    name = "paper_train"
    # Steps of several seconds in NumPy: see calibration.py.
    calibrated = False

    def generate(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, **corpus.paper_conversations(seed)}

    def setup(self, program, inputs: dict) -> SimpleNamespace:
        tm, template = program.toy_model, program.template
        config = tm.ModelConfig(image_token_count=256)
        tokenizer = template.HashTokenizer(config.vocab_size)
        layout = config.layout()

        def render(conv: dict):
            rounds = tuple(
                template.Round(tuple(r["images"]), r["question"], r["answer"]) for r in conv["rounds"]
            )
            return template.render(template.Conversation(conv["system"], rounds), tokenizer, layout)

        batch = [render(conv) for conv in inputs["train"]]
        heldout = [render(conv) for conv in inputs["heldout"]]
        image_ids = tuple(i for s in batch + heldout for i in s.image_ids)
        model = tm.make_model(config, seed=inputs["seed"], known_images=image_ids)
        smallest = min(batch, key=lambda s: s.d)
        tm.train_step(model, [smallest], tm.OptimState(total_steps=200))
        _score(tm, model, min(heldout, key=lambda s: s.d))
        arm = Arm("mmca", config, batch, model, model, tm.OptimState(total_steps=200))
        return SimpleNamespace(program=program, arms=[arm], heldout=heldout)

    def scoring_set(self, state, arm) -> list:
        return state.heldout

    def oracle_samples(self, state, arm) -> list:
        # The oracle is scalar-loop code; only the smallest sample is affordable.
        return [min(arm.batch, key=lambda s: s.d)]

    def report_rows(self, rounds, state) -> list:
        rows = super().report_rows(rounds, state)
        arm = state.arms[0]
        for sample in arm.batch:
            allowed = _allowed_edges(state.program, sample, arm.config)
            rows.append(
                (f"mask.allowed_edge_frac.{sample.image_count}img", "ratio",
                 allowed / (sample.d * sample.d), f"d={sample.d}")
            )
        return rows


# ---------------------------------------------------------------------------
# Data pipeline


@dataclass
class PipelineFiles:
    corpus: Path
    out: Path

    def commands(self) -> list[tuple[str, list[str]]]:
        c, o = self.corpus, self.out
        return [
            ("blend_concat", [
                "blend", "--mode", "concat", "--input", str(c / "mixed.jsonl"),
                "--min-group", "2", "--max-group", "6", "--seed", "0",
                "--out", str(o / "concat.jsonl"), "--stats-out", str(o / "concat.stats.json"),
            ]),
            ("blend_llava_otter", [
                "blend", "--mode", "llava-otter", "--llava", str(c / "llava.jsonl"),
                "--llava-dial", str(c / "llava_dial.jsonl"), "--otter", str(c / "otter.jsonl"),
                "--out", str(o / "llava_otter.jsonl"), "--stats-out", str(o / "llava_otter.stats.json"),
            ]),
            ("render", [
                "render", "--input", str(o / "concat.jsonl"),
                "--out", str(o / "rendered.jsonl"), "--stats-out", str(o / "rendered.stats.json"),
            ]),
        ]

    def outputs(self) -> list[Path]:
        names = ("concat.jsonl", "concat.stats.json", "llava_otter.jsonl",
                 "llava_otter.stats.json", "rendered.jsonl", "rendered.stats.json")
        return [self.out / name for name in names]


def _run_commands(program, files: PipelineFiles, ops: Ops, meter: Meter) -> dict[str, Timing]:
    """One pipeline pass through ``cli.main``; returns per-command timings."""
    timings = {}
    for label, argv in files.commands():
        code, timings[label] = meter.time(ops.call, label, program.cli.main, argv)
        if code is not None and code != 0:
            ops.fail(f"{label}: exit code {code}")
    return timings


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _line_count(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


class DataPipeline:
    """``mmchat.cli.main`` run in-process for ``blend --mode concat``,
    ``blend --mode llava-otter`` and ``render`` on a synthetic JSONL corpus.
    No attention runs; rendering dominates."""

    name = "data_pipeline"
    calibrated = True

    def generate(self, seed: int, workdir: Path) -> dict:
        counts = corpus.write_data_corpus(workdir / "corpus", seed)
        corpus.write_data_corpus(workdir / "warm", seed + 1, limit=8)
        return {"seed": seed, "workdir": workdir, "counts": counts}

    def setup(self, program, inputs: dict) -> SimpleNamespace:
        workdir = inputs["workdir"]
        warm = PipelineFiles(workdir / "warm", workdir / "warm_out")
        warm.out.mkdir(exist_ok=True)
        for label, argv in warm.commands():
            code = program.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{label} exited with {code} during warm-up")
        files = PipelineFiles(workdir / "corpus", workdir / "out")
        files.out.mkdir(exist_ok=True)
        counts = inputs["counts"]
        return SimpleNamespace(
            program=program,
            files=files,
            blend_inputs={
                "blend_concat": counts["mixed"],
                "blend_llava_otter": counts["llava"] + counts["llava_dial"] + counts["otter"],
            },
            render_inputs=None,
            hashes=None,
        )

    def run_round(self, state, ops: Ops, meter: Meter, tracer=None) -> dict:
        failed_before = ops.failed
        timings = _run_commands(state.program, state.files, ops, meter)
        # Untimed: the first pass is checked in full, later passes must
        # reproduce its bytes.
        if ops.failed == failed_before:
            self._check_outputs(state, ops)
        primary = [(label, state.blend_inputs[label], timings[label])
                   for label in ("blend_concat", "blend_llava_otter")]
        secondary = [("render", state.render_inputs or 0, timings["render"])]
        times = {label: timing.wall_s for label, timing in timings.items()}
        return {
            "step_times": [sum(times.values())],
            "steps": primary + secondary,
            "primary": primary,
            "secondary": secondary,
            "op_s": sum(times.values()),
            "times": times,
        }

    def _check_outputs(self, state, ops: Ops) -> None:
        paths = state.files.outputs()
        hashes = {p.name: _sha256(p) for p in paths}
        if state.hashes is not None:
            ops.check("outputs_reproduce", hashes == state.hashes, "a pass wrote different bytes")
            return
        state.hashes = hashes
        out = state.files.out
        for name in ("concat", "llava_otter"):
            stats = json.loads((out / f"{name}.stats.json").read_text(encoding="utf-8"))
            lines = _line_count(out / f"{name}.jsonl")
            ops.check(f"{name}_count_matches_stats", lines == stats["kept"]["total"],
                      f"{lines} lines vs stats {stats['kept']['total']}")
        stats = json.loads((out / "rendered.stats.json").read_text(encoding="utf-8"))
        rendered = _line_count(out / "rendered.jsonl")
        ops.check("render_count_matches_stats", rendered == stats["rendered"],
                  f"{rendered} lines vs stats {stats['rendered']}")
        state.render_inputs = _line_count(out / "concat.jsonl")
        problems = []
        with open(out / "rendered.jsonl", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                problem = check_rendered_line(json.loads(line))
                if problem:
                    problems.append(f"line {number}: {problem}")
        ops.check("rendered_lines_valid", not problems, "; ".join(problems[:3]))

    def gate_before(self, state, ops: Ops) -> None:
        pass

    def gate_after(self, state, ops: Ops) -> None:
        ops.check("pipeline_ran", state.hashes is not None, "no pass completed")

    def report_rows(self, rounds: list[dict], state) -> list:
        rows = median_rows(rounds, "blend_records_per_s", "render_records_per_s", "pass_s")
        for label in ("blend_concat", "blend_llava_otter", "render"):
            rows.append((f"{label}_s_p50", "s", median([r["times"][label] for r in rounds]), ""))
        return rows

    def fingerprints(self, state) -> dict:
        return {f"sha256.{name}": digest for name, digest in (state.hashes or {}).items()}

    def trace_statics(self, state) -> dict:
        return {"edges_per_round": 0, "allowed_edge_frac": 0.0}


def check_rendered_line(payload: dict, max_images: int = 8, max_tokens: int = 4096) -> str:
    """Empty when one line of ``mmchat render`` output is well formed."""
    d = len(payload["token_ids"])
    kinds, blocks, loss = payload["kinds"], payload["block_ids"], payload["loss_mask"]
    if not (len(kinds) == len(blocks) == len(loss) == d):
        return "token_ids, kinds, block_ids and loss_mask differ in length"
    if any(flag and kind != "T" for flag, kind in zip(loss, kinds)):
        return "loss mask covers a non-text position"
    if any((kind == "I") != (block > 0) for kind, block in zip(kinds, blocks)):
        return "block ids disagree with kinds"
    images = len(set(blocks) - {0})
    if images != payload["image_count"] or images > max_images:
        return f"{images} image blocks for image_count {payload['image_count']} (max {max_images})"
    if d > max_tokens:
        return f"d={d} exceeds {max_tokens}"
    return ""


WORKLOADS: dict[str, Any] = {w.name: w for w in (CopyTrain(), PaperTrain(), DataPipeline())}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def per_layer_metrics(summary, rounds: int, statics: dict, traced_s: float, untraced_s: float) -> dict:
    """Per-layer figures from a traced phase of ``rounds`` rounds. Self
    times are seconds per round; ``*_per_step`` and ``*_per_record`` are
    exact counts; rates divide work by the layer's self time."""
    per_round = 1.0 / rounds
    steps = summary.count(name="toy_model.train_step")
    in_step = "toy_model.train_step"
    attn_s = summary.self_s(layer="attn")
    template_s = summary.self_s(layer="template")
    rendered_records = sum(offered for _, offered in summary.extras("blend.filter_limits", "cli.cmd_render"))
    filtered = summary.extras("blend.filter_limits", "cli.cmd_blend")
    offered = sum(o for _, o in filtered)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {
        "modseq.self_s": summary.self_s(layer="modseq") * per_round,
        "modseq.calls": summary.count(layer="modseq") * per_round,
        "mask.self_s": summary.self_s(layer="mask") * per_round,
        "mask.build_calls_per_step": ratio(summary.count(name="mask.build_mask", within=in_step), steps),
        "mask.allowed_edge_frac": statics["allowed_edge_frac"],
        "attn.self_s": attn_s * per_round,
        **{f"attn.self_s.{v}": summary.self_s(layer="attn", tag=v) * per_round for v in VARIANTS},
        "attn.forward.self_s": summary.self_s(layer="attn", within="attn.multi_head_forward") * per_round,
        "attn.vjp.self_s": summary.self_s(layer="attn", within="attn.multi_head_input_vjp") * per_round,
        "attn.masked_softmax.calls_per_step": ratio(
            summary.count(name="attn.masked_softmax", within=in_step), steps
        ),
        "attn.allowed_edges_per_s": ratio(statics["edges_per_round"] * rounds, attn_s),
        "toy_model.self_s": summary.self_s(layer="toy_model") * per_round,
        "toy_model.train_step.self_s": summary.self_s(name="toy_model.train_step") * per_round,
        "toy_model.forward.self_s": summary.self_s(name="toy_model.forward") * per_round,
        "template.self_s": template_s * per_round,
        "template.tokens_per_s": ratio(sum(summary.extras("template.render")), template_s),
        "template.render_calls_per_record": ratio(
            summary.count(name="template.render", within="cli.cmd_render"), rendered_records
        ),
        "blend.self_s": summary.self_s(layer="blend") * per_round,
        **{
            f"blend.{fn}.self_s": summary.self_s(name=f"blend.{fn}") * per_round
            for fn in ("read_records", "write_records", "filter_limits", "concat_blend", "llava_otter_blend")
        },
        "blend.kept_frac": ratio(sum(k for k, _ in filtered), offered),
        "cli.self_s": summary.self_s(layer="cli") * per_round,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    return metrics


PER_LAYER_UNITS = {
    "modseq.calls": "count",
    "mask.build_calls_per_step": "count",
    "mask.allowed_edge_frac": "ratio",
    "attn.masked_softmax.calls_per_step": "count",
    "attn.allowed_edges_per_s": "1/s",
    "template.tokens_per_s": "1/s",
    "template.render_calls_per_record": "count",
    "blend.kept_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "s")
