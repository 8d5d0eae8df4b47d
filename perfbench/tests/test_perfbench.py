"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import gzip
import importlib.util
import inspect
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mmbench import calibration, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
EXACT_COUNTS = (
    "mask.build_calls_per_step",
    "attn.masked_softmax.calls_per_step",
    "template.render_calls_per_record",
    "modseq.calls",
)


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return done.returncode, result, done.stdout + done.stderr


def check_result_shape(result: dict, names: set[str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float)


def check_spans_file(output: str) -> None:
    """The traced run wrote every span it counted, with valid parents."""
    extra = json.loads(next(line for line in output.splitlines() if line.startswith("extra "))[6:])
    with gzip.open(ROOT / extra["spans_file"], "rt", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle]
    assert header["fields"] == ["name", "tag", "parent", "start", "end", "extra"]
    assert len(spans) == extra["spans"] > 0
    for index, (name, _, parent, start, end, _) in enumerate(spans):
        assert name.split(".")[0] in tracing.LAYERS
        assert -1 <= parent < index and start <= end
        if parent >= 0:
            assert spans[parent][3] <= start and end <= spans[parent][4]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    code, result, output = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2")
    assert code == 0, output
    check_result_shape(result, END_TO_END)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate" in output and "fingerprints " in output and "environment " in output


@pytest.mark.parametrize("workload", ["copy_train", "data_pipeline"])
def test_traced_exact_counts_repeat(workload):
    runs = []
    for _ in range(2):
        code, result, output = run_bench("--workload", workload, "--seed", "5",
                                         "--seconds", "0.4", "--trace", "1")
        assert code == 0, output
        check_result_shape(result, PER_LAYER)
        runs.append(result["metrics"])
        check_spans_file(output)
    for name in EXACT_COUNTS:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    if workload == "copy_train":
        assert runs[0]["mask.build_calls_per_step"]["value"] == 32.0
        assert runs[0]["attn.masked_softmax.calls_per_step"]["value"] == 128.0
    else:
        assert runs[0]["template.render_calls_per_record"]["value"] == 2.0


def _public_callables() -> dict[tuple[str, str], object]:
    """Identity of every function-valued attribute of the package's modules
    and of the traced classes."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "mmchat" or name.startswith("mmchat."):
            for attr, value in vars(module).items():
                if callable(value):
                    snapshot[(name, attr)] = value
                if inspect.isclass(value) and value.__module__ == name:
                    for key, member in vars(value).items():
                        if inspect.isfunction(member):
                            snapshot[(f"{name}.{attr}", key)] = member
    return snapshot


def _copy_state():
    program = workloads.load_program()
    wl = workloads.WORKLOADS["copy_train"]
    return wl, wl.setup(program, wl.generate(0, Path()))


def test_tracer_wraps_every_import_site_and_restores_them():
    wl, state = _copy_state()
    from mmchat import attn, blend, cli, template, toy_model

    before = _public_callables()
    with tracing.Tracer() as tracer:
        assert toy_model.multi_head_forward is attn.multi_head_forward
        assert toy_model.multi_head_forward is not before[("mmchat.attn", "multi_head_forward")]
        assert attn.build_mask is not before[("mmchat.attn", "build_mask")]
        assert blend.render is template.render is not before[("mmchat.template", "render")]
        assert cli.filter_limits is not before[("mmchat.blend", "filter_limits")]
        wl.run_round(state, workloads.Ops(), calibration.Meter(calibrated=False), tracer)
    after = _public_callables()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert tracer.spans


def test_tracer_restores_after_an_exception():
    before = _public_callables()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    after = _public_callables()
    assert all(after[key] is before[key] for key in before)


def test_layer_self_times_sum_to_no_more_than_wall_time():
    wl, state = _copy_state()
    with tracing.Tracer() as tracer:
        start = time.perf_counter()
        for _ in range(3):
            wl.run_round(state, workloads.Ops(), calibration.Meter(calibrated=False), tracer)
        wall = time.perf_counter() - start
    summary = tracing.Summary(tracer.spans)
    per_layer = [summary.self_s(layer=layer) for layer in tracing.LAYERS]
    assert all(t >= 0 for t in summary.self_time)
    assert sum(per_layer) == pytest.approx(summary.top_level_s())
    assert sum(per_layer) <= wall
    assert summary.self_s(layer="attn") > 0 and summary.self_s(layer="mask") > 0


def test_wrong_kernel_fails_the_gate(monkeypatch, capsys):
    from mmchat import attn

    correct = attn.masked_softmax

    def wrong(scores, allow):
        return correct(scores * 1.001, allow)

    monkeypatch.setattr(attn, "masked_softmax", wrong)
    run = load_run_module()
    code = run.main(["--workload", "copy_train", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_end_to_end_calibrates_every_step_of_a_round():
    ref = calibration.REFERENCE_S
    meter = calibration.Meter(calibrated=True)
    # Loops before and after each round: the machine runs at full speed
    # around round 0 and at half speed around round 1.
    meter.loops, meter.closed = [ref, ref, 2 * ref, 2 * ref], True
    T = calibration.Timing
    rounds = [
        {"steps": [("causal", 20, T(1.0, 0)), ("mmca", 20, T(4.0, 0))],
         "primary": [("a", 10, T(2.0, 0))], "secondary": [("b", 5, T(1.0, 0))]},
        {"steps": [("causal", 20, T(2.0, 2)), ("mmca", 20, T(8.0, 2))],
         "primary": [("a", 10, T(4.0, 2))], "secondary": [("b", 5, T(2.0, 2))]},
    ]
    metrics = workloads.end_to_end(rounds, meter)
    assert metrics["step_s"] == pytest.approx(5.0)
    assert metrics["primary_per_s"] == pytest.approx(5.0)
    assert metrics["secondary_per_s"] == pytest.approx(5.0)


def test_meter_brackets_each_operation_with_loops():
    meter = calibration.Meter(calibrated=True)
    result, first = meter.time(sum, [1, 2])
    _, second = meter.time(time.sleep, calibration.INTERVAL_S)
    _, third = meter.time(sum, [])
    with pytest.raises(RuntimeError):
        meter.calibrated_s(third)
    meter.close()
    assert result == 3
    assert (first.loop_index, second.loop_index, third.loop_index) == (0, 0, 1)
    assert len(meter.loops) == 3
    loop = (meter.loops[0] + meter.loops[1]) / 2
    assert meter.calibrated_s(second) == pytest.approx(second.wall_s * calibration.REFERENCE_S / loop)


def test_uncalibrated_meter_reports_wall_time():
    meter = calibration.Meter(calibrated=False)
    _, timing = meter.time(sum, [1, 2])
    meter.close()
    assert meter.loops == []
    assert meter.calibrated_s(timing) == timing.wall_s


def test_rendered_line_check_rejects_bad_lines():
    good = {"token_ids": [1, 2, 3], "kinds": "TIT", "block_ids": [0, 1, 0],
            "loss_mask": [0, 0, 1], "image_count": 1}
    assert workloads.check_rendered_line(good) == ""
    assert workloads.check_rendered_line({**good, "loss_mask": [0, 1, 1]})
    assert workloads.check_rendered_line({**good, "kinds": "TI"})
    assert workloads.check_rendered_line({**good, "image_count": 2})
    assert workloads.check_rendered_line(good, max_tokens=2)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, result, _ = run_bench("--workload", "copy_train", "--seconds", "1", cwd=tmp_path)
    assert code != 0 and result is None
