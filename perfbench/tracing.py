"""Spans around the calls the pipeline makes into each geothermo module.

The tracer replaces module attributes (and one method) with thin wrappers
for the duration of a traced pass and restores them afterwards; the package
source is not modified.  Functions that a module imported by name are
wrapped in every namespace that calls them (``curvature_at`` is reached
through ``analysis`` and ``cli`` as well as ``geometry``).

Each span is ``[name, parent, start, end, op]``: ``parent`` indexes the
enclosing span (-1 for a root) and ``op`` identifies the query, grid point
or Ising point the span belongs to.  Self time is a span's duration minus
the time its children cover.
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import defaultdict

# (module, attribute, span name, starts a new point)
WRAPS = (
    ("geothermo.dsl", "parse_relation", "dsl.parse_relation", False),
    ("geothermo.dsl", "parse_predicate", "dsl.parse_predicate", False),
    ("geothermo.dsl", "compile_relation", "dsl.compile_relation", False),
    ("geothermo.jets", "jet_poly", "jets.propagate", False),
    ("geothermo.transforms", "jet_poly", "jets.propagate", False),
    ("geothermo.geometry", "jet_eval", "jets.eval", False),
    ("geothermo.transforms", "jet_eval", "jets.eval", False),
    ("geothermo.cli", "jet_eval", "jets.eval", False),
    ("geothermo.systems", "domain_check", "systems.domain", False),
    ("geothermo.geometry", "domain_check", "systems.domain", False),
    ("geothermo.transforms", "domain_check", "systems.domain", False),
    ("geothermo.systems", "get_system", "systems.get_system", False),
    ("geothermo.cli", "get_system", "systems.get_system", False),
    ("geothermo.analysis", "get_system", "systems.get_system", False),
    ("geothermo.systems", "evaluate", "systems.evaluate", False),
    ("geothermo.cli", "evaluate", "systems.evaluate", False),
    ("geothermo.transforms", "evaluate", "systems.evaluate", False),
    ("geothermo.geometry", "curvature_at", "geometry.curvature_at", False),
    ("geothermo.analysis", "curvature_at", "geometry.curvature_at", False),
    ("geothermo.cli", "curvature_at", "geometry.curvature_at", False),
    ("geothermo.geometry", "natural_metric", "geometry.natural_metric", False),
    ("geothermo.geometry", "ricci_scalar", "geometry.ricci_scalar", False),
    ("geothermo.transforms", "_ImplicitField.solve_base_point",
     "transforms.solve", False),
    ("geothermo.transforms", "u_from_vP", "transforms.u_from_vP", False),
    ("geothermo.analysis", "u_from_vP", "transforms.u_from_vP", False),
    ("geothermo.analysis", "singularity_scan", "analysis.singularity_scan",
     False),
    ("geothermo.analysis", "scan_vdw_vP", "analysis.scan_vdw_vP", False),
    ("geothermo.analysis", "_scan_eval", "analysis.scan_eval", True),
    ("geothermo.analysis", "_refine_segment", "analysis.refine", False),
    ("geothermo.analysis", "ising_curvature", "analysis.ising_curvature",
     True),
    ("geothermo.analysis", "_mp_ising_R", "analysis.mp_ising_R", False),
    ("geothermo.analysis", "ising_dps", "analysis.ising_dps", False),
    ("mpmath", "diff", "analysis.mp_diff", False),
    ("geothermo.cli", "main", "cli.main", False),
    ("geothermo.cli", "cmd_scan", "cli.cmd_scan", False),
    ("geothermo.cli", "cmd_figure", "cli.cmd_figure", False),
    ("geothermo.cli", "_write_scan", "cli.write", False),
    ("geothermo.cli", "_vdw_figure_rows", "cli.rows", False),
)

# spans whose return value is kept, reduced to a number
RECORD_VALUES = {
    "analysis.ising_dps": int,
    "analysis.singularity_scan": lambda report: len(report.detections),
}

def _resolve(module, attr):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.values = defaultdict(list)
        self.op = 0
        self._next_op = 0
        self._stack = []
        self._saved = []

    def new_op(self):
        """Start a new query or point; later spans carry its id."""
        self._next_op += 1
        self.op = self._next_op

    def _wrap(self, fn, name, point):
        spans, stack = self.spans, self._stack
        record = RECORD_VALUES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer_op = self.op
            if point:
                self.new_op()
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if record is not None:
                    self.values[name].append(record(out))
                return out
            finally:
                span[3] = clock()
                stack.pop()
                self.op = outer_op

        return traced

    def _wrap_map(self, fn):
        # cli._map runs one figure row per item: give each row its own op
        row = self._wrap(lambda f, item: f(item), "cli.row", True)

        def traced_map(f, items):
            return fn(lambda item: row(f, item), items)

        return traced_map

    def install(self):
        for module, attr, name, point in WRAPS:
            owner, key = _resolve(module, attr)
            orig = getattr(owner, key)
            self._saved.append((owner, key, orig))
            setattr(owner, key, self._wrap(orig, name, point))
        owner, key = _resolve("geothermo.cli", "_map")
        orig = getattr(owner, key)
        self._saved.append((owner, key, orig))
        setattr(owner, key, self._wrap_map(orig))

    def uninstall(self):
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    def write(self, path):
        """Spans as gzip CSV: name,parent,start_us,end_us,op."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("name,parent,start_us,end_us,op\n")
            for name, parent, a, b, op in self.spans:
                fh.write(f"{name},{parent},{(a - t0) * 1e6:.3f},"
                         f"{(b - t0) * 1e6:.3f},{op}\n")


class SpanStats:
    """Inclusive and self time, and counts, per span name."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, parent, a, b, _ in spans:
            if parent >= 0:
                child[parent] += b - a
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.root_time = 0.0
        for i, (name, parent, a, b, _) in enumerate(spans):
            self.total[name] += b - a
            self.self_time[name] += b - a - child[i]
            self.count[name] += 1
            if parent < 0:
                self.root_time += b - a

    def under(self, name, ancestor):
        """Spans called ``name`` with an ``ancestor`` span above them."""
        spans = self.spans
        out = []
        for span in spans:
            if span[0] != name:
                continue
            p = span[1]
            while p >= 0 and spans[p][0] != ancestor:
                p = spans[p][1]
            if p >= 0:
                out.append(span)
        return out

    def layer_self(self):
        by_layer = defaultdict(float)
        for name, t in self.self_time.items():
            by_layer[name.split(".", 1)[0]] += t
        return by_layer


def layer_metrics(tracer, st, ops, traced_wall, untraced_wall):
    """Per-layer figures of a traced pass (``st`` its SpanStats), per op
    where the unit says so."""
    ms = 1e3 / ops
    ising_pts = st.count["analysis.ising_curvature"]
    dps = tracer.values["analysis.ising_dps"]
    refine_evals = len(st.under("analysis.scan_eval", "analysis.refine"))
    detections = sum(tracer.values["analysis.singularity_scan"])
    # an op that solves at all evaluates a derived spec
    solving_ops = {op for name, _, _, _, op in st.spans
                   if name == "transforms.solve"}
    grid_evals = st.count["analysis.scan_eval"] - refine_evals
    rows = st.total["cli.rows"] + sum(
        b - a for name, parent, a, b, _ in st.spans
        if name in ("analysis.singularity_scan", "analysis.scan_vdw_vP")
        and parent >= 0 and st.spans[parent][0].startswith("cli."))
    dsl = sum(t for name, t in st.self_time.items()
              if name.startswith("dsl."))
    return {
        "dsl.compile_ms": dsl * ms,
        "jets.propagate_ms": st.self_time["jets.propagate"] * ms,
        "jets.scatter_ms": st.self_time["jets.eval"] * ms,
        "jets.eval_calls": st.count["jets.eval"] / ops,
        "systems.domain_ms": st.self_time["systems.domain"] * ms,
        "systems.domain_calls": st.count["systems.domain"] / ops,
        "geometry.metric_ms": st.self_time["geometry.natural_metric"] * ms,
        "geometry.curvature_ms": st.self_time["geometry.ricci_scalar"] * ms,
        "geometry.evals": st.count["geometry.curvature_at"] / ops,
        "transforms.solve_ms": st.total["transforms.solve"] * ms,
        "transforms.solves_per_eval": (
            st.count["transforms.solve"] / len(solving_ops)
            if solving_ops else 0.0),
        "analysis.grid_evals": grid_evals / ops,
        "analysis.refine_evals": refine_evals / ops,
        "analysis.refine_ms": st.total["analysis.refine"] * ms,
        "analysis.refine_evals_per_detection": (
            refine_evals / detections if detections else 0.0),
        "analysis.ising_point_ms": (
            st.total["analysis.ising_curvature"] * 1e3 / ising_pts
            if ising_pts else 0.0),
        "analysis.mp_diff_calls": (
            st.count["analysis.mp_diff"] / ising_pts if ising_pts else 0.0),
        "analysis.ising_dps": sum(dps) / len(dps) if dps else 0.0,
        "cli.rows_ms": rows * ms,
        "cli.write_ms": (st.total["cli.write"]
                         + st.self_time["cli.cmd_figure"]) * ms,
        "trace.uncovered_ms": (traced_wall - st.root_time) * ms,
        "trace.overhead_ms": (traced_wall - untraced_wall) * ms,
    }
