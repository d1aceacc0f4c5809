"""Workload definitions: sizes, methods and seeded input generation.  The
operation each workload repeats is in ``worker.py``.

This module imports numpy only, never ``intreg``: inputs are generated by the
parent process (``run.py``) before the measured worker process starts.

Synthetic samples follow the split interval model with sparse planted
coefficients, a zero spread intercept and symmetric spread noise clipped at
0.  With symmetric noise roughly half of the rows sit above their planted
spread, so the domination rows ``spr_x b2 + |mid_x| b3 <= spr_y`` bind and
every fit runs the Lemke pivoting layer.  (One-sided noise, as in
``intreg.oracle.simulate``, leaves the planted coefficients strictly feasible
and Lemke makes 0 pivots.)

The measured samples keep every observed spread positive: the noise
amplitude is just below the smallest planted spread, so the clip never acts.
A sample with rows of spread exactly 0 makes ``ls`` (and ``lasso`` cross
validation) raise ``ArithmeticError`` on some samples, a defect of the
program, and a workload's operations must not fail.  That defect is kept in
view by the zero-spread probe instead: a fixed set of samples with a noise
amplitude above the smallest planted spread, fitted once per run outside the
measured loop and reported (``PROBE_*`` below, ``zero_spread_probe`` in
``worker.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANT = "full"

# uniform spread noise on [-SPREAD_NOISE, SPREAD_NOISE], clipped at 0.  The
# smallest planted spread is 0.2 * (0.8 + 0.3 + 0.5) = 0.32, so observed
# spreads stay above 0.02; an n = 2000 least-squares fit takes about 14 pivots.
SPREAD_NOISE = 0.3
MID_NOISE = 0.5

# the zero-spread probe: PROBE_INPUTS samples of PROBE_N rows, the same in
# every run, whose noise amplitude gives a few rows of spread exactly 0
PROBE_SEED = 0
PROBE_INPUTS = 16
PROBE_N = 300
PROBE_SPREAD_NOISE = 1.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``method`` is the CLI estimator, or None for the library ingest +
    design operation.  A run draws ``inputs`` samples from its seed and makes
    whole passes over them: the cost of one fit depends on how many pivots
    its sample needs, and a median over many samples moves much less from
    seed to seed than the cost of a single sample.  ``calibrated`` workloads
    report times at the reference machine speed (see ``run.py``).
    ``tiny_n`` is the size the smoke test uses.
    """

    name: str
    method: str | None
    n: int
    k: int
    fmt: str
    inputs: int
    calibrated: bool
    tiny_n: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cv-lasso", "lasso", n=100, k=3, fmt="midspr", inputs=20, calibrated=True, tiny_n=30),
        Workload("ls-large", "ls", n=2000, k=3, fmt="midspr", inputs=36, calibrated=False, tiny_n=40),
        Workload("cv-lasso-ir", "lasso-ir", n=150, k=3, fmt="midspr", inputs=34, calibrated=True, tiny_n=30),
        Workload("ingest-large", None, n=50_000, k=3, fmt="infsup", inputs=2, calibrated=True, tiny_n=200),
    )
}


def planted(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sparse planted blocks ``(b1, b2, b3, b4)`` for ``k >= 3`` regressors."""
    b1, b2, b3, b4 = (np.zeros(k) for _ in range(4))
    b1[:3] = [1.5, -1.0, 0.5]
    b2[:3] = [0.8, 0.3, 0.5]
    b3[:2] = [0.2, 0.4]
    b4[:2] = [0.4, -0.3]
    return b1, b2, b3, b4


def generate(seed: int, index: int, n: int, k: int,
             spread_noise: float = SPREAD_NOISE) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sample number ``index`` of a run seeded with ``seed``, as ``(mid_y, spr_y, mid_x, spr_x)``."""
    rng = np.random.default_rng([seed, index])
    b1, b2, b3, b4 = planted(k)
    mid_x = rng.normal(0.0, 1.0, (n, k))
    spr_x = rng.uniform(0.2, 1.2, (n, k))
    mid_y = mid_x @ b1 + spr_x @ b4 + 0.5 + rng.normal(0.0, MID_NOISE, n)
    spr_y = np.maximum(spr_x @ b2 + np.abs(mid_x) @ b3 + rng.uniform(-spread_noise, spread_noise, n), 0.0)
    return mid_y, spr_y, mid_x, spr_x


def header(k: int, fmt: str) -> list[str]:
    pre = ("mid", "spr") if fmt == "midspr" else ("inf", "sup")
    names = ["y"] + [f"x{i}" for i in range(1, k + 1)]
    return [f"{p}_{v}" for v in names for p in pre]


def write_csv(path, sample, fmt: str) -> None:
    """Write a sample in the CLI's column layout with round-trip precision."""
    mid_y, spr_y, mid_x, spr_x = sample
    mid = np.column_stack([mid_y, mid_x])
    spr = np.column_stack([spr_y, spr_x])
    first, second = (mid, spr) if fmt == "midspr" else (mid - spr, mid + spr)
    cells = np.empty((mid.shape[0], 2 * mid.shape[1]))
    cells[:, 0::2] = first
    cells[:, 1::2] = second
    np.savetxt(path, cells, fmt="%.17g", delimiter=",", header=",".join(header(mid.shape[1] - 1, fmt)),
               comments="")


def read_csv(path, fmt: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read a file written by :func:`write_csv` back as ``(mid_y, spr_y, mid_x, spr_x)``.

    The endpoint layout is converted the same way the ingest layer documents
    it, ``mid = (inf + sup) / 2`` and ``spr = (sup - inf) / 2``.
    """
    cells = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    first, second = cells[:, 0::2], cells[:, 1::2]
    if fmt == "midspr":
        mid, spr = first, second
    else:
        mid, spr = (first + second) / 2.0, (second - first) / 2.0
    return mid[:, 0], spr[:, 0], mid[:, 1:], spr[:, 1:]
