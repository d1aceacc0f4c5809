#!/usr/bin/env python3
"""Compare the CLI reports of two source trees on a fixed set of 960 runs.

The run set:

* ``ls``, ``lasso``, ``lasso-ir``, ``lasso --lambda-mid 0.05`` and ``lasso
  --lambda-spr 0.05`` (the two single-block cross-validations) x ``full``
  and ``model-m`` on both fixtures, ``tests/fixtures/synthetic59.csv`` and
  ``zero_spread20.csv``;
* the same ten configurations on ``generate(s, i, n, 3)`` from
  ``bench/workloads.py``, for s in {1, 7}, i < 6 and n in {30, 60, 100, 150,
  400};
* the same ten configurations on ``generate(77, i, 60, 3,
  spread_noise=1.0)``, i < 6, at ``--tau`` 0.5 and 0.3;
* the same ten configurations on the wide designs ``generate(7, i, n, 20)``,
  for i < 3 and n in {300, 2000};
* the same ten configurations on the bench's zero-spread probe inputs,
  ``generate(PROBE_SEED, i, PROBE_N, 3, spread_noise=PROBE_SPREAD_NOISE)``
  for i < ``PROBE_INPUTS``, whose few rows of spread exactly 0 make the
  degenerate programs that a warm-started working set must not break.

The samples are written once to a temporary directory, so both trees read
identical input paths.  Each tree runs every report (JSON output) in its own
Python process, with ``<tree>/src`` first on the import path, and counts its
Lemke calls and pivots: the QP calls (spread block and ``lasso-ir``) and the
midpoint block's one-run paths (``lasso._lemke_path``).  It counts the
working-set Lemke solves (``qp_solve_qp_full_calls``, calls of
``lcp._solve_qp_full``): each single fit, a restart from an empty working
set, and each point where a homotopy hands its grid to Lemke.  Of the
homotopy walks (``lcp._qp_homotopy``, as ``least_squares`` and
``lasso_ir`` import it: spread and budget grids, and the ``t = 0`` programs
of budget paths, walked down from where no row binds), it counts the calls
(``hom_qp_homotopy_calls``: one per grid fitter call, or per budget path's
``t = 0`` programs, the folds walking in lockstep), the programs a walk
starts from an empty set (``hom_walks_from_empty``: the ``t = 0``
programs), the segments (``hom_segments``: the walking folds in each call
of the reduced segment solve ``lcp._segment_solve``), the steps
(``hom_steps``: the calls of that solve) and the grid points a walk solves
by Lemke itself (``hom_fallback_points``: calls of ``lcp._solve_qp``
inside a walk), after each of which it walks on.  The segment solves of a
single fit's polish or of a fallback's are no segments.

Prints every report field that moved, with its relative size
``|new - old| / max(|old|, |new|)``, every run whose exit code or stderr
moved, how many runs now fail (exit 0 -> nonzero) and how many now fit
(nonzero -> 0), both trees' Lemke and homotopy totals, overall and
per method (``ls``, ``lasso``, ``lasso-ir``), and the runs whose QP Lemke
calls or pivots, midpoint Lemke calls or midpoint pivots differ.  Exits 2
when runs that now fit are the only difference; 1 when anything else moved
beyond the ``--allow FIELD=REL`` tolerances (a field is named by its last
key), any other move of an exit code or stderr included; 0 otherwise, so
never on a moved exit code.

Run from the repository root, for example against a checkout of the parent
commit made with ``git archive``:

    python scripts/report_diff.py ../parent . --allow cv_mid_min_error=1e-12
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# each method with its default selection, and the Lasso with one block's
# penalty fixed, so that only the other block is cross-validated
METHODS = (("ls",), ("lasso",), ("lasso-ir",),
           ("lasso", "--lambda-mid", "0.05"), ("lasso", "--lambda-spr", "0.05"))
VARIANTS = ("full", "model-m")


def run_set(workdir: Path) -> list[tuple[str, list[str]]]:
    """Write the generated samples under ``workdir``; return ``(label, argv)`` per run."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import PROBE_INPUTS, PROBE_N, PROBE_SEED, PROBE_SPREAD_NOISE, generate, write_csv

    inputs = [(path.stem, str(path), ()) for path in
              (ROOT / "tests/fixtures/synthetic59.csv", ROOT / "tests/fixtures/zero_spread20.csv")]
    for s in (1, 7):
        for i in range(6):
            for n in (30, 60, 100, 150, 400):
                path = workdir / f"gen_{s}_{i}_{n}.csv"
                write_csv(path, generate(s, i, n, 3), "midspr")
                inputs.append((path.stem, str(path), ()))
    for i in range(6):
        path = workdir / f"gen_77_{i}_60.csv"
        write_csv(path, generate(77, i, 60, 3, spread_noise=1.0), "midspr")
        for tau in ("0.5", "0.3"):
            inputs.append((f"{path.stem}_tau{tau}", str(path), ("--tau", tau)))
    for i in range(3):
        for n in (300, 2000):
            path = workdir / f"gen_7_{i}_{n}_k20.csv"
            write_csv(path, generate(7, i, n, 20), "midspr")
            inputs.append((path.stem, str(path), ()))
    for i in range(PROBE_INPUTS):
        path = workdir / f"probe_{PROBE_SEED}_{i}_{PROBE_N}.csv"
        write_csv(path, generate(PROBE_SEED, i, PROBE_N, 3, spread_noise=PROBE_SPREAD_NOISE), "midspr")
        inputs.append((path.stem, str(path), ()))
    return [(f"{label}/{'/'.join(method)}/{variant}",
             ["--input-path", path, "--method", *method, "--variant", variant, "--output-format", "json", *extra])
            for label, path, extra in inputs for method in METHODS for variant in VARIANTS]


def worker(runs_path: str, out_path: str) -> None:
    """Run every report of ``runs_path`` in this process and write the results."""
    import intreg.cli
    import intreg.lasso as lasso
    import intreg.lasso_ir as lasso_ir
    import intreg.lcp as lcp
    import intreg.least_squares as least_squares

    counts: Counter = Counter()
    block = ["qp"]
    pivot = lcp._pivot

    def counted_pivot(*args):
        counts[f"{block[0]}_pivots"] += 1
        return pivot(*args)

    def count_calls(module, name, which):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[f"{which}_{name.strip('_')}_calls"] += 1
            outer, block[0] = block[0], which
            try:
                return fn(*args, **kwargs)
            finally:
                block[0] = outer

        setattr(module, name, counted)

    lcp._pivot = counted_pivot
    count_calls(lcp, "lemke_solve", "qp")
    count_calls(lcp, "_solve_qp_full", "qp")
    segment_solve, solve_qp = lcp._segment_solve, lcp._solve_qp

    def segment(*args):
        if block[0] == "hom":
            # the walking folds' Hessians come as one stack
            counts["hom_segments"] += len(args[0])
            counts["hom_steps"] += 1
        return segment_solve(*args)

    def fallback(*args):
        # the Lemke solve's own polish is no segment
        if block[0] == "hom":
            counts["hom_fallback_points"] += 1
        outer, block[0] = block[0], "qp"
        try:
            return solve_qp(*args)
        finally:
            block[0] = outer

    lcp._segment_solve, lcp._solve_qp = segment, fallback
    for module in (least_squares, lasso_ir):
        count_calls(module, "_qp_homotopy", "hom")
        walk = module._qp_homotopy

        def listed_walk(*args, walk=walk):
            counts["hom_fallback_points"] += 0  # listed also when no point falls back
            counts["hom_walks_from_empty"] += sum(len(start) == 0 for start in args[7])
            return walk(*args)

        module._qp_homotopy = listed_walk
    count_calls(lasso, "_lemke_path", "mid")
    results = {}
    for label, argv in json.loads(Path(runs_path).read_text()):
        counts.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = intreg.cli.main(argv)
        results[label] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "counts": dict(counts)}
    Path(out_path).write_text(json.dumps(results))


def leaves(value, prefix=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{prefix}[{i}]")
    else:
        yield prefix, value


def relative(old, new) -> float:
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        return abs(new - old) / max(abs(old), abs(new))
    return float("inf")


def compare(old: dict, new: dict, allow: dict[str, float]) -> int:
    moved = refused = now_fit = now_fail = 0
    for label in old:
        a, b = old[label], new[label]
        if a["code"] != b["code"] or a["stderr"] != b["stderr"]:
            print(f"{label}: exit {a['code']} -> {b['code']}, stderr {a['stderr']!r} -> {b['stderr']!r}")
            fits = a["code"] != 0 and b["code"] == 0
            now_fit += fits
            now_fail += a["code"] == 0 and b["code"] != 0
            refused += not fits
        if a["stdout"] == b["stdout"]:
            continue
        moved += 1
        if a["code"] != b["code"]:
            continue  # only one tree has a report
        fields_a = dict(leaves(json.loads(a["stdout"]))) if a["stdout"] else {}
        fields_b = dict(leaves(json.loads(b["stdout"]))) if b["stdout"] else {}
        for field in sorted(fields_a.keys() | fields_b.keys()):
            va, vb = fields_a.get(field), fields_b.get(field)
            if va != vb:
                rel = relative(va, vb)
                name = field.rsplit(".", 1)[-1].split("[")[0]
                refused += rel > allow.get(name, -1.0)
                print(f"{label}: {field} {va!r} -> {vb!r} (relative {rel:.2g})")
    print(f"{len(old)} runs: {len(old) - moved} byte-identical, {moved} moved, {refused} moves beyond tolerance; "
          f"nonzero exits {sum(r['code'] != 0 for r in old.values())} -> {sum(r['code'] != 0 for r in new.values())}, "
          f"{now_fail} now fail (exit 0 -> nonzero), {now_fit} now fit (nonzero -> 0)")
    methods = sorted({label.split("/")[1] for label in old})
    for tree, results in (("old", old), ("new", new)):
        for method in (None, *methods):
            runs = [r["counts"] for label, r in results.items() if method in (None, label.split("/")[1])]
            totals = sum(map(Counter, runs), Counter())
            print(f"{tree} tree{'' if method is None else f' {method}'}: "
                  + ", ".join(f"{key} {totals[key]}" for key in sorted(set().union(*runs))))
    for what, keys in (("QP Lemke calls or pivots", ("qp_solve_qp_full_calls", "qp_lemke_solve_calls", "qp_pivots")),
                       ("midpoint Lemke calls", ("mid_lemke_path_calls",)),
                       ("midpoint pivots", ("mid_pivots",))):
        differ = [label for label in old if any(old[label]["counts"].get(k, 0) != new[label]["counts"].get(k, 0)
                                                for k in keys)]
        print(f"runs whose {what} differ: {len(differ)}", *differ[:20])
    return 1 if refused else 2 if now_fit else 0


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        worker(sys.argv[2], sys.argv[3])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree of the reference reports")
    parser.add_argument("new", type=Path, help="source tree of the reports under test")
    parser.add_argument("--allow", action="append", default=[], metavar="FIELD=REL",
                        help="tolerate moves of FIELD up to REL relative (repeatable)")
    args = parser.parse_args()
    allow = {name: float(rel) for name, rel in (item.split("=", 1) for item in args.allow)}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        runs = workdir / "runs.json"
        runs.write_text(json.dumps(run_set(workdir)))
        results = []
        for tree in (args.old, args.new):
            out = workdir / f"{len(results)}.json"
            env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"), "PYTHONHASHSEED": "0",
                   "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
            subprocess.run([sys.executable, __file__, "--worker", str(runs), str(out)], check=True, env=env)
            results.append(json.loads(out.read_text()))
    return compare(*results, allow)


if __name__ == "__main__":
    sys.exit(main())
