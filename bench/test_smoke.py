"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from workloads import PROBE_INPUTS, WORKLOADS  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result_lines(done):
    assert done.returncode == 0, done.stderr
    *_, report_line, result_line = done.stdout.strip().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    report, result = result_lines(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                        "--trace", str(trace), "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = CONFIG["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    assert report["gate"]["passed"] and report["trace_missing_boundaries"] == []
    probe = report["zero_spread_probe"]
    assert probe["inputs"] == PROBE_INPUTS
    assert probe["fitted_and_checked"] + sum(probe["raised"].values()) == PROBE_INPUTS
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_ls_sees_one_lcp_of_full_dimension():
    report, result = result_lines(bench("--workload", "ls-large", "--seed", "4", "--seconds", "1",
                                        "--trace", "1", "--tiny"))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    w = WORKLOADS["ls-large"]
    assert metrics["lcp.dim_max"] == w.tiny_n + 2 * w.k
    assert metrics["lcp.lemke_calls"] == 1 and metrics["lcp.pivots"] > 0
    assert metrics["lasso.cd_calls"] == 0 and metrics["lasso_ir.fit_calls"] == 0


def test_same_seed_gives_same_outputs():
    digests = [result_lines(bench("--workload", "cv-lasso-ir", "--seed", "5", "--seconds", "1", "--tiny"))[0]
               ["output_digest"] for _ in range(2)]
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "ls-large", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(40)]) == (29.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_timeout_counts_as_failed_operation():
    import time

    import worker

    class Hang:
        def __call__(self):
            time.sleep(5)

    client = worker.Client([Hang()], op_timeout_s=0.2)
    ok, wall, _ = client.attempt(0)
    assert not ok and wall < 2.0
    assert client.errors == {"timeout after 0.2 s": 1}


def test_raising_operation_counts_as_failed_and_makes_the_run_incorrect():
    import worker

    class Raise:
        def __call__(self):
            raise ArithmeticError("ray termination")

    client = worker.Client([Raise()], op_timeout_s=5.0)
    ok, _, _ = client.attempt(0)
    assert not ok and client.errors == {"raised ArithmeticError: ray termination": 1}
    clean = {"gate_problems": [], "wrong_outputs": {}, "failed": 0}
    assert run.is_correct(clean)
    assert not run.is_correct(dict(clean, failed=1))
    assert not run.is_correct(dict(clean, wrong_outputs={"negative spread coefficient": 1}))
    assert not run.is_correct(dict(clean, gate_problems=["fixture ls_full: b1 off by 1"]))


def test_measured_samples_keep_spreads_positive_and_probe_samples_do_not():
    from workloads import PROBE_N, PROBE_SEED, PROBE_SPREAD_NOISE, generate

    assert generate(11, 0, 20_000, 3)[1].min() > 0.0
    probe = [generate(PROBE_SEED, i, PROBE_N, 3, PROBE_SPREAD_NOISE)[1] for i in range(PROBE_INPUTS)]
    assert min(spr_y.min() for spr_y in probe) == 0.0


def test_tracer_restores_the_program():
    import intreg.cli
    import intreg.lasso
    import tracing

    originals = (intreg.lasso.fit_lasso, intreg.cli.fit_lasso, intreg.lasso.cross_validate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert intreg.cli.fit_lasso.__wrapped__ is originals[1]
        assert not hasattr(intreg.lasso.soft_threshold, "__wrapped__")
    finally:
        tracer.uninstall()
    assert (intreg.lasso.fit_lasso, intreg.cli.fit_lasso, intreg.lasso.cross_validate) == originals
