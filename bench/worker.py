"""The measured workload process: one closed-loop client.

Run by ``run.py`` as ``python3 bench/worker.py SPEC.json`` with ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread.  The first statement times
``import intreg`` (numpy and scipy included), the set-up every CLI call
pays; a few fresh processes time it again between operations.  Then it runs
the pre-flight fixture gate, one warm-up operation, the measured loop of
whole passes over the inputs and the zero-spread probe, and writes raw
per-operation records to the result path named in the spec.
Each operation starts when the previous one returns, after a short
machine-speed probe, and each is checked: a raise, a timeout or a failed
output check counts as a failed operation.
"""

import time

_T0 = time.perf_counter()
import intreg  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

# the program imports scipy.optimize (about 20 MiB) only when a Lemke solve
# fails; importing it here keeps peak_rss_mb from depending on whether the
# warm-up input is one of those
import scipy.optimize  # noqa: E402,F401
from intreg import cli  # noqa: E402

import tracing  # noqa: E402
from workloads import VARIANT, WORKLOADS, read_csv  # noqa: E402

GATE_TOL = 1e-9
# feasibility and certificate tolerances, relative to 1 + the data scale
FEAS_TOL = 1e-9
KKT_TOL = 1e-8
# the lasso-ir flags use this absolute threshold on fitted spreads
FLAG_TOL = 1e-9
# fresh processes timing ``import intreg``, besides this one; they run between
# operations, spread over the run, because machine speed drifts over seconds
SETUP_PROBES = 6
SETUP_PROBE = "import time; t = time.perf_counter(); import intreg; print(time.perf_counter() - t)"


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def preflight(root: Path) -> list[str]:
    """Reproduce the frozen fixture through the CLI for all three methods."""
    fixtures = root / "tests" / "fixtures"
    expected = json.loads((fixtures / "synthetic59_expected.json").read_text())
    problems = []
    for key, entry in sorted(expected["fits"].items()):
        method, variant = key.split("_", 1)
        argv = ["--input-path", str(fixtures / "synthetic59.csv"), "--method", method,
                "--variant", variant, "--tau", repr(expected["tau"]), "--output-format", "json"]
        if method == "lasso":
            argv += ["--lambda-mid", repr(entry["lambda_mid"]), "--lambda-spr", repr(entry["lambda_spr"])]
        elif method == "lasso-ir":
            argv += ["--t-budget", repr(entry["t"])]
        code, out, err = run_cli(argv)
        if code != 0:
            problems.append(f"fixture {key}: exit {code}: {err.strip()}")
            continue
        report = json.loads(out)
        got = dict(report["coefficients"], delta_mid=report["delta"]["mid"],
                   delta_spr=report["delta"]["spr"], mse=report["mse"])
        for name in ("b1", "b2", "b3", "b4", "delta_mid", "delta_spr", "mse"):
            diff = float(np.max(np.abs(np.asarray(entry[name]) - np.asarray(got[name]))))
            if not diff <= GATE_TOL:
                problems.append(f"fixture {key}: {name} off by {diff:.3g}")
    return problems


class CliOp:
    """``intreg --method M --variant full --output-format json`` on one file."""

    def __init__(self, workload, path: Path):
        self.method = workload.method
        self.path = str(path)
        self.argv = ["--input-path", str(path), "--method", self.method, "--variant", VARIANT,
                     "--output-format", "json"]
        self.data = read_csv(path, workload.fmt)

    def __call__(self) -> str:
        code, out, err = run_cli(self.argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.strip()}")
        return out

    def check(self, out: str) -> tuple[str, list[str]]:
        report = json.loads(out)
        mid_y, spr_y, mid_x, spr_x = self.data
        coefs = report["coefficients"]
        b2, b3 = np.asarray(coefs["b2"]), np.asarray(coefs["b3"])
        fitted = spr_x @ b2 + np.abs(mid_x) @ b3
        diag = report["diagnostics"]
        scale = 1.0 + float(np.max(np.abs(spr_y)))
        problems = []
        if self.method == "lasso-ir":
            fitted = fitted + diag["delta_spr_raw"]
            flags = {"fitted_spr_nonneg": bool(np.all(fitted >= -FLAG_TOL)),
                     "hukuhara_residuals_exist": bool(np.all(spr_y - fitted >= -FLAG_TOL))}
            for flag, value in flags.items():
                if bool(diag[flag]) != value:
                    problems.append(f"flag {flag}={diag[flag]} but the data give {value}")
        else:
            if min(b2.min(), b3.min()) < 0.0:
                problems.append("negative spread coefficient")
            excess = float(np.max(fitted - spr_y))
            if excess > FEAS_TOL * scale:
                problems.append(f"fitted spread exceeds observed spread by {excess:.3g}")
        kkt = {k: v for k, v in diag.items() if "kkt" in k}
        if not kkt:
            problems.append("report carries no KKT diagnostics")
        kkt_tol = KKT_TOL * (1.0 + mid_y.size)
        for key, value in sorted(kkt.items()):
            if not abs(value) <= kkt_tol:
                problems.append(f"{key}={value:.3g} exceeds {kkt_tol:.3g}")
        # the report echoes the input path, which names a per-run directory
        return hashlib.sha256(out.replace(self.path, "<input>").encode()).hexdigest(), problems


class IngestOp:
    """Library ``ingest(path, fmt)`` then ``build_design(sample, "full")``."""

    def __init__(self, workload, path: Path):
        self.path, self.fmt = path, workload.fmt
        mid_y, spr_y, mid_x, spr_x = self.data = read_csv(path, workload.fmt)
        mid_side = np.hstack([mid_x, spr_x])
        spr_side = np.hstack([spr_x, np.abs(mid_x)])
        self.fm = mid_side - mid_side.mean(axis=0)
        self.fs = spr_side - spr_side.mean(axis=0)

    def __call__(self):
        sample = intreg.ingest(self.path, self.fmt)
        return sample, intreg.build_design(sample, VARIANT)

    def check(self, output) -> tuple[str, list[str]]:
        sample, design = output
        problems = []
        for name, want in zip(("mid_y", "spr_y", "mid_x", "spr_x"), self.data):
            if not np.array_equal(getattr(sample, name), want):
                problems.append(f"ingested {name} differs from the file")
        for name, want in (("fm", self.fm), ("fs", self.fs)):
            got = getattr(design, name)
            if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=1e-12 * (1.0 + np.abs(want).max())):
                problems.append(f"design {name} differs from independent centering")
        digest = hashlib.sha256()
        for array in (sample.mid_y, sample.spr_y, sample.mid_x, sample.spr_x,
                      design.fm, design.fs, design.vm, design.vs):
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest(), problems


def calibrate(repeats: int = 3) -> float:
    """Fastest of a few timings of a fixed, cache-resident interpreter loop.

    The loop does not touch the program, so its time moves only with the
    machine's speed, which on a shared host drifts by tens of percent over
    minutes.  It runs before every measured operation; taking the fastest
    repeat drops the cache refill after a memory-heavy operation.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def probe_setup() -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


class Client:
    """Runs and checks operations one at a time, tallying failures.

    ``ops[i]`` is the operation on input ``i``; each input's outputs must be
    byte-identical across the run.
    """

    def __init__(self, ops, op_timeout_s: float):
        self.ops = ops
        self.op_timeout_s = op_timeout_s
        self.tracer = tracing.Tracer()
        self.errors: dict[str, int] = {}  # operations that raised or timed out
        self.wrong: dict[str, int] = {}  # operations whose output failed a check
        self.digests: list = [None] * len(ops)  # first checked output per input
        signal.signal(signal.SIGALRM, _on_alarm)

    def attempt(self, index: int, traced=False, memory=False) -> tuple[bool, float, float]:
        """Run and check one operation on input ``index``; returns (ok, wall s, cpu s).

        A traced operation leaves its spans in ``self.tracer``.
        """
        op = self.ops[index]
        if traced:
            self.tracer.install()
            self.tracer.begin_op(memory=memory)
        c0, w0 = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.op_timeout_s)
        try:
            output = op()
            error = None
        except OpTimeout:
            error = f"timeout after {self.op_timeout_s} s"
        except Exception as exc:  # every failure of the program counts, whatever its type
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if traced:
                self.tracer.uninstall()
        if error:
            self.errors[error] = self.errors.get(error, 0) + 1
            return False, wall, cpu
        try:
            digest, found = op.check(output)
        except Exception as exc:  # a malformed output is a wrong output
            digest, found = None, [f"output check raised {type(exc).__name__}: {exc}"]
        if self.digests[index] is None:
            self.digests[index] = digest
        elif digest != self.digests[index]:
            found.append("output differs from the first operation's on the same input")
        for problem in found:
            self.wrong[problem] = self.wrong.get(problem, 0) + 1
        return not found, wall, cpu


def zero_spread_probe(paths: list[str], op_timeout_s: float) -> tuple[dict, dict]:
    """Fit ``ls`` once on each probe sample, whose rows include spreads of 0.

    The program raises on some of these samples (see ``workloads.py``); a
    raise is reported, not counted as a failed operation.  An output that
    comes back must pass the checks of a measured operation.  Returns
    (report, wrong outputs).
    """
    # the ls-large operation (CLI ls on a midspr file), on the probe files
    client = Client([CliOp(WORKLOADS["ls-large"], Path(p)) for p in paths], op_timeout_s)
    fitted = sum(client.attempt(index)[0] for index in range(len(paths)))
    report = {"inputs": len(paths), "fitted_and_checked": fitted, "raised": client.errors}
    return report, {f"zero-spread probe: {k}": v for k, v in client.wrong.items()}


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    workload = WORKLOADS[spec["workload"]]
    op_type = CliOp if workload.method else IngestOp
    client = Client([op_type(workload, Path(p)) for p in spec["input_paths"]], spec["op_timeout_s"])
    gate = preflight(Path(spec["root"]))
    results = [client.attempt(0)]  # warm-up: fills caches and lazy imports
    # the high-water mark after one operation; the run's maximum would move
    # from seed to seed with the largest transient among the run's samples
    first_op_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops, layer_rows, setup = [], [], [SETUP_S]
    # traced runs take each input twice in a row, untraced then traced
    schedule = [(index, traced) for index in range(len(client.ops))
                for traced in ((False, True) if spec["trace"] else (False,))]
    start = time.perf_counter()
    passes, cut_short = 0, False
    # whole passes over the inputs, so each input weighs the same in every
    # run whatever the speed of the machine or the program: a pass starts
    # only while the time left is at least the mean pass time so far
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= spec["seconds"]:
        for index, traced in schedule:
            if time.perf_counter() - start > spec["hard_stop_s"]:
                cut_short = True
                break
            calibration = calibrate()
            ok, wall, cpu = client.attempt(index, traced=traced)
            ops.append({"ok": ok, "wall": wall, "cpu": cpu, "traced": traced, "calibration": calibration})
            if traced:
                layer_rows.append(tracing.op_metrics(client.tracer.end_op()))
            if len(setup) <= SETUP_PROBES and time.perf_counter() - start >= spec["seconds"] * len(setup) / (SETUP_PROBES + 1):
                setup.append(probe_setup())
        if cut_short:
            break
        passes += 1
    while len(setup) <= SETUP_PROBES:
        setup.append(probe_setup())
    probe, probe_wrong = zero_spread_probe(spec["probe_paths"], spec["op_timeout_s"])
    alloc = {}
    if spec["trace"]:
        tracemalloc.start()
        try:
            results.append(client.attempt(0, traced=True, memory=True))
            alloc = tracing.alloc_metrics(client.tracer.end_op())
        finally:
            tracemalloc.stop()
    attempted = len(results) + len(ops)
    failed = sum(1 for ok, _, _ in results if not ok) + sum(1 for o in ops if not o["ok"])
    layers = {}
    for key in layer_rows[0] if layer_rows else ():
        values = [row[key] for row in layer_rows]
        # exceptions are rare: report the run's total, not a typical operation's
        layers[key] = sum(values) if key.endswith(".errors") else statistics.median(values)
    Path(spec["result_path"]).write_text(json.dumps({
        "setup_s": setup,
        "gate_problems": gate,
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "errors": client.errors,
        "wrong_outputs": dict(client.wrong, **probe_wrong),
        "zero_spread_probe": probe,
        "input_digests": client.digests,
        "passes": passes,
        "cut_short": cut_short,
        "first_op_rss_kib": first_op_rss_kib,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
        "alloc": alloc,
        "trace_missing": client.tracer.missing,
        "environment": environment(),
    }))


if __name__ == "__main__":
    main()
