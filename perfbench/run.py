#!/usr/bin/env python3
"""Benchmark for the mmchat package.

Run from the root of a checkout:

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload paper_train --seed 3 --seconds 30
    python3 perfbench/run.py --workload copy_train --trace 1  # per-layer run

With ``--workload all`` (the default) each workload runs in its own
process. A run prints one human-readable line per metric, a fingerprint
line and an environment line, and as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The exit status is 1 when a correctness gate or an
operation failed, 2 when the package sources are missing.

See perfbench/README.md for the workloads, metrics and noise figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("copy_train", "paper_train", "data_pipeline")
END_TO_END_UNITS = {
    "setup_s": "s",
    "step_s": "s",
    "primary_per_s": "1/s",
    "secondary_per_s": "1/s",
    "peak_rss_mb": "MB",
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: steadier than two on a 2-CPU machine, and never more
# than the CPU count.
BLAS_THREADS = 1
# Fresh processes whose median calibrated set-up time is setup_s. They are
# spread evenly over the timed phase.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120
SPANS_DIR = ".perfbench_spans"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase (the traced run splits it in two)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas_threads() -> None:
    """Set the BLAS thread count before numpy is imported."""
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def run_setup_probe(args: argparse.Namespace) -> int:
    """Child process: time the program's set-up from a cold interpreter,
    between two runs of the calibration loop."""
    from mmbench import calibration, workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.generate(args.seed, Path(args.setup_probe))
    before = calibration.loop_s()
    start = time.perf_counter()
    wl.setup(workloads.load_program(), inputs)
    wall = time.perf_counter() - start
    after = calibration.loop_s()
    print(json.dumps({"wall_s": wall, "loop_s": (before + after) / 2}))
    return 0


def measure_setup(args: argparse.Namespace, probe_dir: Path) -> dict:
    """Set-up wall time of one fresh process and its calibration loop time."""
    probe_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up probe exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace) -> dict:
    """One workload in this process: set-up, gates, timed (or traced) phase."""
    from mmbench import calibration, tracing, workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = wl.generate(args.seed, workdir)
        state = wl.setup(workloads.load_program(), inputs)
        ops = workloads.Ops()
        wl.gate_before(state, ops)

        # The timed phase lasts `budget` seconds of operations; calibration
        # loops and the set-up probes, which run between rounds, one every
        # budget / SETUP_PROBES of operation time, do not count towards it.
        budget = args.seconds / 2 if args.trace else args.seconds
        probes = 0 if args.trace else SETUP_PROBES
        meter = calibration.Meter(wl.calibrated)
        rounds, probed, elapsed = [], [], 0.0
        while not rounds or elapsed < budget or len(probed) < probes:
            if len(probed) < probes and elapsed >= len(probed) * budget / probes:
                probed.append(measure_setup(args, workdir / f"probe{len(probed)}"))
            else:
                rounds.append(wl.run_round(state, ops, meter))
                elapsed += rounds[-1]["op_s"]
        meter.close()
        if args.trace:
            statics = wl.trace_statics(state)
            traced_meter = calibration.Meter(calibrated=False)
            with tracing.Tracer() as tracer:
                traced = [wl.run_round(state, ops, traced_meter, tracer) for _ in rounds]
            summary = tracing.Summary(tracer.spans)
            metrics = workloads.per_layer_metrics(
                summary, len(traced), statics,
                traced_s=sum(r["op_s"] for r in traced),
                untraced_s=sum(r["op_s"] for r in rounds),
            )
            units = {name: workloads.per_layer_unit(name) for name in metrics}
            rows = [(name, units[name], value, "") for name, value in metrics.items()]
            spans_file = ROOT / SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write_spans(spans_file)
            extra = {"spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT)),
                     "traced_rounds": len(traced), "wrapped_self_s": summary.top_level_s()}
        else:
            metrics = workloads.end_to_end(rounds, meter)
            setup_cal = [calibration.calibrate(p["wall_s"], p["loop_s"]) for p in probed]
            metrics["setup_s"] = statistics.median(setup_cal)
            units = END_TO_END_UNITS
            rows = [("setup_s", "s", metrics["setup_s"],
                     f"gated; calibrated, median of {len(probed)} processes"),
                    ("setup_s_wall", "s", statistics.median(p["wall_s"] for p in probed), "")]
            timing = "calibrated" if wl.calibrated else "wall time"
            rows += [(name, units[name], metrics[name], f"gated; {timing}, median of {len(rounds)} rounds")
                     for name in ("step_s", "primary_per_s", "secondary_per_s")]
            rows += wl.report_rows(rounds, state)
            if meter.loops:
                rows.append(("calibration_loop_s_p50", "s", statistics.median(meter.loops),
                             f"{len(meter.loops)} loops; reference {calibration.REFERENCE_S} s"))
            extra = {"setup_s_samples": probed, "rounds": len(rounds)}
        wl.gate_after(state, ops)
        if not args.trace:
            # ru_maxrss is in KiB on Linux.
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rows.append(("peak_rss_mb", "MB", metrics["peak_rss_mb"], "gated; process ru_maxrss"))
        error_rate = ops.failed / ops.attempted
        rows.append(("error_rate", "ratio", error_rate, f"{ops.failed} failed / {ops.attempted} attempted"))
        return {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "rows": rows,
            "fingerprints": wl.fingerprints(state),
            "environment": environment(),
            "extra": extra,
            "result": {
                "correct": ops.failed == 0,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def print_report(report: dict) -> None:
    print(f"# workload={report['workload']} seed={report['seed']} trace={report['trace']}")
    for name, unit, value, note in report["rows"]:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<36} {shown:>14} {unit:<6} {note}")
    print("fingerprints " + json.dumps(report["fingerprints"], sort_keys=True))
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print("extra " + json.dumps(report["extra"], sort_keys=True))
    print(json.dumps(report["result"]), flush=True)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; a combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, done.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    source = ROOT / "src"
    if not (source / "mmchat" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} has no src/mmchat package or tests/oracles.py to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT / "tests"), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe is not None:
        return run_setup_probe(args)
    report = run_workload(args)
    print_report(report)
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
