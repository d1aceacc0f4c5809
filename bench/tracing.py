"""Run-time spans around the public functions of each ``intreg`` module.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each traced
function, in every ``intreg`` module namespace that binds it, with a wrapper
that records a span (layer, function, start, end, parent, error flag, and a
few counters read from arguments or results).  :meth:`Tracer.uninstall`
puts the originals back, so traced and untraced operations can alternate in
one process.

A layer is one module.  A span's self time is its duration minus the
durations of its direct child spans.  An exception crosses a layer's
boundary when it leaves a span of that layer whose parent span belongs to
another layer (or to no layer).  With ``tracemalloc`` running, each span
also records the peak traced allocation above its entry level.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("io", "design", "least_squares", "lcp", "lasso", "lasso_ir", "cli")

# private functions whose boundaries the per-layer metrics need
PRIVATE_TRACED = {"lcp": ("_solve_qp_full",), "cli": ("_execute",)}

# per-coordinate kernel called inside lasso_cd's innermost loop; a span per
# call would time the wrapper rather than the layer
NOT_TRACED = {"lasso": ("soft_threshold",)}

MIB = float(1 << 20)


def tableau_bytes(dim: int) -> int:
    """Bytes of the dense Lemke tableau, ``d x (2d + 2)`` float64 entries."""
    return dim * (2 * dim + 2) * 8


def _observe_lemke(args, kwargs, result):
    lcp = args[0] if args else kwargs["lcp"]
    return {"dim": lcp.dim, "pivots": result.pivots}


def _observe_ingest(args, kwargs, result):
    return {"rows": result.n}


OBSERVERS = {("lcp", "lemke_solve"): _observe_lemke, ("io", "ingest"): _observe_ingest}

# boundaries the per-layer metrics read; one that the program no longer has
# is listed in the report instead of silently reading 0
METRIC_BOUNDARIES = (
    ("io", "ingest"), ("design", "build_design"), ("least_squares", "ols_mid"),
    ("least_squares", "solve_spread_block"), ("lcp", "lemke_solve"), ("lcp", "_solve_qp_full"),
    ("lasso", "cross_validate"), ("lasso", "lasso_cd"), ("lasso", "fit_lasso_mid"),
    ("lasso", "fit_lasso_spr"), ("lasso_ir", "select_budget"), ("lasso_ir", "fit_lasso_ir"),
    ("cli", "run"), ("cli", "_execute"),
)


@dataclass
class Span:
    layer: str
    name: str
    parent: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: bool = False
    counters: dict = field(default_factory=dict)
    alloc_base: int = 0
    alloc_peak: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Span recorder for one process; one span list per traced operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.memory = False

    # -- installation -----------------------------------------------------

    @staticmethod
    def _targets():
        for layer in LAYERS:
            module = sys.modules.get(f"intreg.{layer}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE_TRACED.get(layer, ()):
                    continue
                if name in NOT_TRACED.get(layer, ()):
                    continue
                yield layer, name, obj

    def install(self) -> None:
        """Wrap every traced function wherever an ``intreg`` module binds it."""
        if self._originals:
            return
        targets = list(self._targets())
        found = {(layer, name) for layer, name, _ in targets}
        self.missing = [f"{layer}.{name}" for layer, name in METRIC_BOUNDARIES if (layer, name) not in found]
        wrappers = {id(fn): self._wrap(layer, name, fn) for layer, name, fn in targets}
        originals = {id(fn): fn for _, _, fn in targets}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "intreg" and not mod_name.startswith("intreg."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers and value is originals[id(value)]:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in self._originals:
            setattr(module, attr, value)
        self._originals.clear()

    def _wrap(self, layer, name, fn):
        observe = OBSERVERS.get((layer, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(span, error=True)
                raise
            if observe is not None:
                self.spans[span].counters = observe(args, kwargs, result)
            self._exit(span, error=False)
            return result

        return wrapper

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, layer, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        span = Span(layer, name, parent, 0.0)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            self._raise_open_peaks(peak)
            tracemalloc.reset_peak()
            span.alloc_base = span.alloc_peak = current
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        span.start = time.perf_counter()
        return index

    def _exit(self, index, error) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span.end = end
        span.error = error
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            self._raise_open_peaks(peak)
            tracemalloc.reset_peak()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def _raise_open_peaks(self, peak) -> None:
        for open_index in self._stack:
            open_span = self.spans[open_index]
            open_span.alloc_peak = max(open_span.alloc_peak, peak)

    def begin_op(self, memory: bool = False) -> None:
        self.spans = []
        self._stack = []
        self.memory = memory

    def end_op(self) -> list[Span]:
        spans, self.spans = self.spans, []
        self.memory = False
        return spans


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced operation (timings in seconds)."""

    def sel(layer, name=None):
        return [s for s in spans if s.layer == layer and (name is None or s.name == name)]

    def total(layer, name):
        return sum(s.duration for s in sel(layer, name))

    def self_total(layer, name):
        return sum(s.self_s for s in sel(layer, name))

    lemke = sel("lcp", "lemke_solve")
    dims = [s.counters["dim"] for s in lemke if s.counters]
    pivots = [s.counters["pivots"] for s in lemke if s.counters]
    ingest_s = total("io", "ingest")
    rows = sum(s.counters.get("rows", 0) for s in sel("io", "ingest"))
    out = {
        "io.ingest_s": ingest_s,
        "io.rows_per_s": rows / ingest_s if ingest_s > 0.0 else 0.0,
        "design.build_design_s": total("design", "build_design"),
        "design.build_design_calls": len(sel("design", "build_design")),
        "least_squares.ols_mid_s": total("least_squares", "ols_mid"),
        "least_squares.spread_block_s": total("least_squares", "solve_spread_block"),
        "lcp.lemke_s": total("lcp", "lemke_solve"),
        "lcp.lemke_calls": len(lemke),
        "lcp.pivots": sum(pivots),
        "lcp.dim_max": max(dims, default=0),
        "lcp.dim_mean": sum(dims) / len(dims) if dims else 0.0,
        "lcp.qp_overhead_s": self_total("lcp", "_solve_qp_full"),
        "lcp.tableau_mb_max": tableau_bytes(max(dims, default=0)) / MIB,
        "lcp.bytes_moved_computed": float(sum(p * tableau_bytes(d) for d, p in zip(dims, pivots))),
        "lasso.cv_self_s": self_total("lasso", "cross_validate"),
        "lasso.cd_s": total("lasso", "lasso_cd"),
        "lasso.cd_calls": len(sel("lasso", "lasso_cd")),
        "lasso.mid_fit_calls": len(sel("lasso", "fit_lasso_mid")),
        "lasso.spr_fit_calls": len(sel("lasso", "fit_lasso_spr")),
        "lasso_ir.select_budget_self_s": self_total("lasso_ir", "select_budget"),
        "lasso_ir.fit_s": total("lasso_ir", "fit_lasso_ir"),
        "lasso_ir.fit_calls": len(sel("lasso_ir", "fit_lasso_ir")),
        "cli.report_s": total("cli", "run") - total("cli", "_execute"),
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(
            1 for s in spans
            if s.layer == layer and s.error and (s.parent < 0 or spans[s.parent].layer != layer)
        )
    return out


def alloc_metrics(spans: list[Span]) -> dict[str, float]:
    """Largest tracemalloc peak above entry level of any span, per layer."""
    out = {f"{layer}.peak_alloc_mb": 0.0 for layer in LAYERS}
    for s in spans:
        key = f"{s.layer}.peak_alloc_mb"
        out[key] = max(out[key], (s.alloc_peak - s.alloc_base) / MIB)
    return out
