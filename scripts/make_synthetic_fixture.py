#!/usr/bin/env python3
"""Regenerate the frozen synthetic fixture and its expected results.

The sample is seeded and committed as CSV; the expected coefficient vectors
are produced here once and cross-checked against solver-independent
optimality certificates before being written:

* least-squares spread blocks against active-set enumeration,
* midpoint Lasso against sign-pattern enumeration,
* spread Lasso against active-set enumeration of the penalized QP,
* the budgeted-offset fit against its KKT certificate.

Run from the repository root:  python scripts/make_synthetic_fixture.py

With ``--check`` nothing under ``tests/fixtures`` is written: the fixture is
regenerated in a temporary directory, the CSV must equal the committed one
byte for byte, and the expected results must carry the same fits, keys and
settings (seed, noise, penalties, budget).  Their fitted numbers are left to
the acceptance suite's 1e-9 gate: the committed file was written by older
code, and regenerating it moves their last digits by about 1e-15.  Exits 1
otherwise.
"""

import argparse
import json
import sys
import tempfile
from itertools import product
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# the brute-force oracle and the generator live beside the tests
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from intreg import (  # noqa: E402
    Coefficients,
    FORMAT_MIDSPR,
    Interval,
    build_design,
    fit_lasso_ir,
    fit_ls,
    write_sample,
)
from intreg.lasso import fit_lasso_mid, fit_lasso_spr, lambda_grid  # noqa: E402
from intreg.least_squares import spread_qp  # noqa: E402
from oracle import active_set_optimum, simulate  # noqa: E402

SEED = 20260810
N, K = 59, 2
NOISE = 0.35
TAU = 0.5
LAMBDA_MID = 2.0
LAMBDA_SPR = 0.35
T_BUDGET = 0.10

FIXTURE_DIR = ROOT / "tests" / "fixtures"
CSV_PATH = FIXTURE_DIR / "synthetic59.csv"
CSV_NAME = "synthetic59.csv"
EXPECTED_NAME = "synthetic59_expected.json"
# per-fit numbers that the acceptance suite checks to 1e-9
FITTED_FIELDS = ("b1", "b2", "b3", "b4", "delta_mid", "delta_spr", "mse")


def sign_pattern_lasso(F, v, lam):
    """Exact Lasso minimizer by enumerating sign patterns (small widths only)."""
    w = F.shape[1]
    best, best_obj = None, np.inf
    for signs in product((-1, 0, 1), repeat=w):
        signs = np.array(signs, dtype=float)
        active = np.flatnonzero(signs != 0)
        a = np.zeros(w)
        if active.size:
            FA = F[:, active]
            try:
                a[active] = np.linalg.solve(FA.T @ FA, FA.T @ v - lam * signs[active])
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(a[active]) != signs[active]):
                continue
        grad = F.T @ (v - F @ a)
        zero = np.flatnonzero(signs == 0)
        if zero.size and np.max(np.abs(grad[zero])) > lam + 1e-10:
            continue
        obj = 0.5 * np.sum((v - F @ a) ** 2) + lam * np.sum(np.abs(a))
        if obj < best_obj:
            best, best_obj = a, obj
    return best


def check(label, a, b, tol):
    gap = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    status = "ok" if gap <= tol else "MISMATCH"
    print(f"  {label:<38} gap {gap:.3e}  [{status}]")
    if gap > tol:
        raise SystemExit(f"verification failed for {label}")


def generate(out_dir: Path) -> None:
    """Write the sample and its verified expected results under ``out_dir``."""
    csv_path, expected_path = out_dir / CSV_NAME, out_dir / EXPECTED_NAME
    b_true = Coefficients(
        b1=[1.3, -0.6],
        b2=[0.9, 0.25],
        b3=[0.15, 0.45],
        b4=[-0.5, 0.8],
        delta=Interval(0.4, 0.3),
    )
    sample = simulate(N, K, b_true, noise=NOISE, seed=SEED)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sample(sample, csv_path, FORMAT_MIDSPR)
    print(f"wrote {csv_path}")

    expected = {
        "seed": SEED,
        "n": N,
        "k": K,
        "noise": NOISE,
        "tau": TAU,
        "mse_convention": "dtau",
        "fits": {},
    }

    def record(name, result, extra=None):
        coefs = result.coefficients
        entry = {
            "b1": [float(x) for x in coefs.b1],
            "b2": [float(x) for x in coefs.b2],
            "b3": [float(x) for x in coefs.b3],
            "b4": [float(x) for x in coefs.b4],
            "delta_mid": coefs.delta.mid,
            "delta_spr": coefs.delta.spr,
            "mse": result.mse,
        }
        if extra:
            entry.update(extra)
        expected["fits"][name] = entry

    for variant in ("model-m", "full"):
        design = build_design(sample, variant)
        ls = fit_ls(design, TAU)
        oracle_spread = active_set_optimum(spread_qp(design, TAU))
        check(f"ls {variant}: spread vs enumeration", ls.coefficients.spread_stack(variant),
              np.maximum(oracle_spread, 0.0), 1e-9)
        normal_eq = np.linalg.solve(design.fm.T @ design.fm, design.fm.T @ design.vm)
        check(f"ls {variant}: mid vs normal equations", ls.coefficients.mid_stack(variant),
              normal_eq, 1e-9)
        record(f"ls_{variant}", ls)

    design_m = build_design(sample, "model-m")
    a_mid = fit_lasso_mid(design_m, LAMBDA_MID)
    check("lasso mid vs sign enumeration", a_mid,
          sign_pattern_lasso(design_m.fm, design_m.vm, LAMBDA_MID), 1e-9)
    a_spr = fit_lasso_spr(design_m, LAMBDA_SPR, TAU)
    pen_qp = spread_qp(design_m, TAU, LAMBDA_SPR)
    check("lasso spread vs enumeration", a_spr,
          np.maximum(active_set_optimum(pen_qp), 0.0), 1e-9)
    from intreg import fit_lasso

    lasso = fit_lasso(design_m, TAU, lambda_mid=LAMBDA_MID, lambda_spr=LAMBDA_SPR)
    record("lasso_model-m", lasso, {"lambda_mid": LAMBDA_MID, "lambda_spr": LAMBDA_SPR})
    print(f"  grid anchors: mid lam_max {lambda_grid(design_m, 2, 0.5, 'mid')[0]:.4f}, "
          f"spr lam_max {lambda_grid(design_m, 2, 0.5, 'spr')[0]:.4f}")

    ir = fit_lasso_ir(design_m, TAU, T_BUDGET)
    stat = ir.diagnostics["kkt_stationarity"]
    comp = ir.diagnostics["kkt_complementarity"]
    print(f"  budgeted offset: kkt stationarity {stat:.3e}, complementarity {comp:.3e}")
    if stat > 1e-8 or comp > 1e-8:
        raise SystemExit("budgeted-offset fit failed its optimality certificate")
    if ir.diagnostics["budget_used"] > T_BUDGET + 1e-10:
        raise SystemExit("budget certificate violated")
    record("lasso-ir_model-m", ir, {"t": T_BUDGET})

    expected_path.write_text(json.dumps(expected, sort_keys=True, indent=2) + "\n")
    print(f"wrote {expected_path}")


def settings(expected: dict) -> dict:
    """The expected results with each fit's fitted numbers blanked (keys kept)."""
    fits = {name: {key: None if key in FITTED_FIELDS else value for key, value in fit.items()}
            for name, fit in expected["fits"].items()}
    return {**expected, "fits": fits}


def check_committed() -> int:
    """Regenerate in a temporary directory and compare with the committed fixture."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        generate(out_dir)
        failures = []
        if (out_dir / CSV_NAME).read_bytes() != (FIXTURE_DIR / CSV_NAME).read_bytes():
            failures.append(f"{CSV_NAME} differs from the committed file")
        got = json.loads((out_dir / EXPECTED_NAME).read_text())
        want = json.loads((FIXTURE_DIR / EXPECTED_NAME).read_text())
        if settings(got) != settings(want):
            failures.append(f"{EXPECTED_NAME}: fits, keys or settings differ from the committed file")
    for failure in failures:
        print(f"MISMATCH {failure}")
    print(f"fixture check: {'FAILED' if failures else 'ok'} ({CSV_NAME} byte for byte, "
          f"{EXPECTED_NAME} fits and settings)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare a regenerated fixture with the committed one; write nothing")
    if parser.parse_args().check:
        return check_committed()
    generate(FIXTURE_DIR)
    return 0


if __name__ == "__main__":
    sys.exit(main())
