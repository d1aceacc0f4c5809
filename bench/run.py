#!/usr/bin/env python3
"""Benchmark of the intreg library and CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload cv-lasso --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 18 --trace 1

For one workload this process (which never imports ``intreg``)
generates the input files from ``--seed`` and starts one worker process
(``worker.py``) that runs the pre-flight fixture gate and then repeats the
workload's operation in a closed loop for ``--seconds`` seconds, one
operation at a time, with BLAS pinned to one thread.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is the result object; the line before it is
the full report (seed, sizes, environment, output digest, tail percentile,
failures, measured values).  ``--tiny`` shrinks every input for the smoke
test.  The result is correct only if the gate passes and no operation
raises, times out or fails its output check.  The report also gives the
outcome of the zero-spread probe, a known defect of the program that the
measured samples avoid (see ``workloads.py``).  The run fails (no result,
nonzero exit) when the checkout has no ``src/intreg``.

Times of calibrated workloads are normalized for machine speed.  The host
this was tuned on drifts by tens of percent over minutes, so before every
operation the worker times a fixed interpreter loop that does not touch the
program (``calibrate`` in ``worker.py``).  Every metric in seconds is
reported as measured seconds times ``CALIBRATION_REF_S`` over the run's
median probe time, and every rate inversely; the report line keeps the
measured values and the speed factor.  On ten-seed sets this narrowed the
spread of cv-lasso, cv-lasso-ir and ingest-large times but widened that of
ls-large, whose time is dominated by memory traffic the probe does not
follow, so ls-large reports measured times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import (PROBE_INPUTS, PROBE_N, PROBE_SEED, PROBE_SPREAD_NOISE, VARIANT, WORKLOADS, generate,
                       write_csv)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OP_TIMEOUT_S = 30.0  # an operation is stopped past this and counts as failed
RUN_LIMIT_S = 170.0  # the worker is killed, and the run fails, past this
HARD_STOP_S = 120.0  # the worker cuts its pass short past this
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10
# the calibration probe's time on the reference machine; every time metric is
# scaled by this over the run's median probe time.  Never change it: it would
# shift every reported time against earlier runs.
CALIBRATION_REF_S = 0.003


class RunFailed(Exception):
    """The run could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({name: "1" for name in BLAS_ENV})
    return env


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns ``(value, percentile, samples beyond)``; with too few samples
    for any such percentile, the maximum with 0 samples beyond.
    """
    xs = sorted(values)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    index = len(xs) - TAIL_BEYOND - 1
    return xs[index], 100.0 * (index + 1) / len(xs), TAIL_BEYOND


def run_worker(spec: dict, work: Path, env, started: float) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    # a session of its own, so a kill also ends the worker's set-up probes
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    err = ""
    try:
        _, err = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunFailed(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(Path(spec["result_path"]).read_text())


def is_correct(raw: dict) -> bool:
    """The gate passed and every operation ran and passed its output check."""
    return not raw["gate_problems"] and not raw["wrong_outputs"] and raw["failed"] == 0


def normalized(value: float, unit: str, speed: float) -> float:
    """A measured time or rate restated at the reference machine speed."""
    if unit == "s":
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def run_one(name: str, seed: int, seconds: int, trace: bool, tiny: bool) -> tuple[dict, dict]:
    """Run one workload; returns (full report, result object)."""
    started = time.monotonic()
    workload = WORKLOADS[name]
    n = workload.tiny_n if tiny else workload.n
    env = child_env()
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        work = Path(tmp)
        input_paths = [str(work / f"{name}-{i}.csv") for i in range(workload.inputs)]
        for i, path in enumerate(input_paths):
            write_csv(path, generate(seed, i, n, workload.k), workload.fmt)
        probe_paths = [str(work / f"zero-spread-probe-{i}.csv") for i in range(PROBE_INPUTS)]
        for i, path in enumerate(probe_paths):
            write_csv(path, generate(PROBE_SEED, i, PROBE_N, 3, PROBE_SPREAD_NOISE), "midspr")
        raw = run_worker({
            "workload": name, "input_paths": input_paths, "probe_paths": probe_paths, "root": str(ROOT),
            "seconds": seconds, "trace": trace, "op_timeout_s": OP_TIMEOUT_S, "hard_stop_s": HARD_STOP_S,
            "result_path": str(work / "result.json"),
        }, work, env, started)
    setup = raw["setup_s"]
    ops = raw["ops"]
    untraced = [o for o in ops if not o["traced"]]
    # a failed operation counts with its measured time; a timed-out one took
    # at least the timeout
    wall = [o["wall"] for o in untraced]
    tail_value, tail_pct, tail_beyond = tail(wall)
    attempted, failed = raw["attempted"], raw["failed"]
    probe_speed = CALIBRATION_REF_S / statistics.median(o["calibration"] for o in ops)
    speed = probe_speed if workload.calibrated else 1.0
    if trace:
        section = "per_layer"
        traced = [o["wall"] for o in ops if o["traced"]]
        measured = dict(raw["layers"], **raw["alloc"])
        measured["trace.overhead_s"] = statistics.median(traced) - statistics.median(wall)
    else:
        section = "end_to_end"
        measured = {
            "op_s_p50": statistics.median(wall),
            "op_s_tail": tail_value,
            "cpu_s_p50": statistics.median(o["cpu"] for o in untraced),
            "peak_rss_mb": raw["first_op_rss_kib"] / 1024.0,
            "setup_s": statistics.median(setup),
        }
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in config[section]}
    metrics = {key: {"value": normalized(measured[key], unit, speed), "unit": unit} for key, unit in units.items()}
    result = {"correct": is_correct(raw), "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": name,
        "why": next(w["why"] for w in config["workloads"] if w["name"] == name),
        "seed": seed,
        "n": n,
        "k": workload.k,
        "inputs": workload.inputs,
        "variant": VARIANT,
        "method": workload.method or "library ingest + build_design",
        "input_format": workload.fmt,
        "tiny": tiny,
        "seconds": seconds,
        "trace": trace,
        "clients": 1,
        "loop": "closed",
        "op_timeout_s": OP_TIMEOUT_S,
        "ops_measured": len(untraced),
        "ops_traced": len(ops) - len(untraced),
        "op_s_tail_percentile": tail_pct,
        "op_s_tail_samples_beyond": tail_beyond,
        "fail_ratio": failed / attempted,
        "full_passes": raw["passes"],
        "pass_cut_short": raw["cut_short"],
        "calibrated": workload.calibrated,
        "machine_speed": probe_speed,
        "measured": measured,
        "setup_s_samples": setup,
        "gate": {"passed": not raw["gate_problems"], "problems": raw["gate_problems"]},
        "errors": raw["errors"],
        "wrong_outputs": raw["wrong_outputs"],
        "zero_spread_probe": raw["zero_spread_probe"],
        "output_digest": raw["input_digests"][0],
        "run_peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
        "input_digests": raw["input_digests"],
        "trace_missing_boundaries": raw["trace_missing"],
        "environment": raw["environment"],
        "metrics": metrics,
    }
    for key, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            raise RunFailed(f"metric {key} is not finite")
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "intreg" / "__init__.py").is_file():
        print(f"error: no intreg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            report, result = run_one(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        except RunFailed as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"report": report}, sort_keys=True))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
