"""Span tracing of hbv from outside the package.

Wrappers are installed on the public functions and methods of each hbv
module for the traced repetitions only, and removed afterwards, so the
untraced repetitions run the program unmodified.  A module-level function
is replaced in every hbv module that bound the same object (``cyclic``
imports ``connes_b_dual`` by name, ``cli`` imports ``emit``); a method is
replaced on its class.

Spans are kept in memory as ``(name, start, end, parent, case)`` tuples and
written out when the run ends.  Self time (a span's duration minus its
direct child spans) and the per-layer counters are accumulated as the spans
close.

The memory of a layer is measured apart, by ``MemoryProbe`` in one
repetition of its own under ``tracemalloc``, so that neither the span list
nor tracemalloc's cost reaches the timed repetitions.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from functools import wraps

# (module, attribute or Class.method, span name).  A span name maps to the
# per-layer metric ``<name>_s``, its self time; layers that mostly call other
# layers say so in the name, ``<name>_self_s``.
SPANS = [
    ("hbv.algebra", "group_algebra", "algebra.construct"),
    ("hbv.algebra", "exterior_algebra", "algebra.construct"),
    ("hbv.algebra", "group_frobenius", "algebra.construct"),
    ("hbv.algebra", "lie_pairing", "algebra.construct"),
    ("hbv.hochschild", "BarComplex.__init__", "hochschild.bar_build"),
    ("hbv.hochschild", "hochschild_dims", "hochschild.dims"),
    ("hbv.hochschild", "centralizer_oracle", "hochschild.oracle"),
    ("hbv.hochschild", "HochschildCohomology.project", "hochschild.project"),
    ("hbv.hochschild", "cup", "hochschild.cochain_ops"),
    ("hbv.hochschild", "gerstenhaber_bracket", "hochschild.cochain_ops"),
    ("hbv.hochschild", "connes_b_dual", "hochschild.cochain_ops"),
    ("hbv.hochschild", "BVStructure.to_self", "hochschild.cochain_ops"),
    ("hbv.hochschild", "BVStructure.to_dual", "hochschild.cochain_ops"),
    ("hbv.hochschild", "bv_check", "hochschild.bv_suite"),
    ("hbv.linalg", "Complex.__init__", "linalg.square_zero"),
    ("hbv.linalg", "sparse_rank", "linalg.rank"),
    ("hbv.linalg", "sparse_kernel_basis", "linalg.kernel"),
    ("hbv.linalg", "EchelonStore.insert", "linalg.echelon_insert"),
    ("hbv.linalg", "Complex.cohomology_at", "linalg.cohomology"),
    ("hbv.linalg", "CohomologyData.project", "linalg.project"),
    ("hbv.linalg", "SparseMatrix.apply_sparse", "linalg.apply"),
    ("hbv.linalg", "SparseMatrix.columns", "linalg.columns"),
    ("hbv.linalg", "Matrix.__mul__", "linalg.dense"),
    ("hbv.linalg", "Matrix.__eq__", "linalg.dense"),
    ("hbv.linalg", "rank", "linalg.dense"),
    ("hbv.linalg", "inverse", "linalg.dense"),
    ("hbv.cyclic", "CyclicComplex.__init__", "cyclic.total_build"),
    ("hbv.cyclic", "connes_maps", "cyclic.connes_maps"),
    ("hbv.cyclic", "CyclicCohomology.connecting", "cyclic.connecting"),
    ("hbv.cyclic", "StringBracket.bracket", "cyclic.bracket"),
    ("hbv.cyclic", "StringBracket.morphism_check", "cyclic.bracket_suite"),
    ("hbv.cyclic", "StringBracket.antisymmetry_jacobi_check", "cyclic.bracket_suite"),
    ("hbv.cobordism", "Cobordism.__init__", "cobordism.normal_form"),
    ("hbv.cobordism", "Cobordism.__eq__", "cobordism.normal_form"),
    ("hbv.cobordism", "Cobordism.compose", "cobordism.compose"),
    ("hbv.cobordism", "Cobordism.tensor", "cobordism.compose"),
    ("hbv.cobordism", "FrobeniusTQFT.__init__", "cobordism.tqft_build"),
    ("hbv.cobordism", "FrobeniusTQFT.evaluate", "cobordism.evaluate"),
    ("hbv.cobordism", "TQFTMap.compose", "cobordism.map_compose"),
    ("hbv.cobordism", "pants_decomposition", "cobordism.pants"),
    ("hbv.reports", "emit", "reports.emit"),
    ("hbv.cli", "main", "cli.main"),
]

# (module, attribute, metric): layers whose peak heap growth MemoryProbe
# reports
MEMORY_SPANS = [
    ("hbv.hochschild", "BarComplex.__init__", "hochschild.bar_rss_mb"),
    ("hbv.linalg", "Complex.cohomology_at", "linalg.cohomology_rss_mb"),
    ("hbv.cobordism", "FrobeniusTQFT.evaluate", "cobordism.evaluate_rss_mb"),
]

# the case root span: harness work between layer spans inside a case
CASE = "bench.case"

SELF_NAMES = {
    "hochschild.bar_build": "hochschild.bar_build_self_s",
    "hochschild.oracle": "hochschild.oracle_self_s",
    "hochschild.bv_suite": "hochschild.bv_suite_self_s",
    "hochschild.dims": "hochschild.dims_self_s",
    "cyclic.total_build": "cyclic.total_build_self_s",
    "cyclic.bracket_suite": "cyclic.bracket_suite_self_s",
    "cobordism.tqft_build": "cobordism.tqft_build_self_s",
    "cli.main": "cli.main_self_s",
    CASE: "trace.unattributed_s",
}

SPAN_NAMES = sorted(({name for _, _, name in SPANS} - {"linalg.rank"})
                    | {"linalg.rank_f2", "linalg.rank_fp", "linalg.rank_q", CASE})

COUNTERS = [
    "hochschild.bar_builds", "hochschild.bar_nnz", "hochschild.bar_dim",
    "linalg.rank_nnz", "linalg.echelon_inserts", "linalg.project_errors",
    "hochschild.project_calls", "linalg.apply_calls", "linalg.columns_calls",
    "hochschild.cochain_ops_calls", "cyclic.connecting_calls",
    "cyclic.bracket_calls", "cobordism.evaluate_calls",
    "cobordism.eval_entries", "reports.bytes",
]


def time_metric(span_name):
    return SELF_NAMES.get(span_name, span_name + "_s")


def patch(hbv_modules, entries, wrap):
    """Replace each ``(module, attribute or Class.method, tag)`` of
    ``entries`` by ``wrap(original, tag)``: a method on its class, a function
    in every hbv module that bound the same object.  ``hbv_modules`` maps
    module name to module for the whole package.  Returns what ``unpatch``
    needs to put the originals back."""
    undo = []
    for modname, attr, tag in entries:
        mod = hbv_modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            orig = owner.__dict__[meth]
            undo.append((owner, meth, orig))
            setattr(owner, meth, wrap(orig, tag))
            continue
        orig = getattr(mod, attr)
        wrapper = wrap(orig, tag)
        for other in hbv_modules.values():
            if vars(other).get(attr) is orig:
                undo.append((other, attr, orig))
                setattr(other, attr, wrapper)
    return undo


def unpatch(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def _lift(field, v):
    """A structure constant as a field-free key: the signed integer (or
    rational) it reduces from."""
    p = getattr(field, "char", 0)
    if p:
        return v if v <= p // 2 else v - p
    return v.numerator if v.denominator == 1 else str(v)


def structure_key(alg):
    return (alg.dim, tuple(alg.degrees),
            tuple(tuple(sorted((k, _lift(alg.field, c))
                               for k, c in alg.mul_basis(i, j).items()))
                  for i in range(alg.dim) for j in range(alg.dim)))


class Tracer:
    """Collects spans and counters for one traced repetition at a time."""

    def __init__(self):
        self.spans = []          # every span of the run
        self.rep_stats = []      # one dict of metric -> value per repetition
        self._stack = []         # [name, start, child_time, index, parent]
        self._case = None
        self._installed = []
        self.fingerprint = {"bar": [], "ranks": []}
        self.begin_rep()

    # -- repetition and case bookkeeping ---------------------------------------

    def begin_rep(self):
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_width = 0
        self.bar_keys = set()
        self.echelon_stored = 0
        self.column_sources = {}
        self.column_distinct = 0

    def end_rep(self, scale=1.0):
        """Close the repetition; times are multiplied by ``scale``, the
        machine-speed factor the repetition's wall time was scaled by."""
        stats = {time_metric(n): self.times.get(n, 0.0) * scale for n in SPAN_NAMES}
        stats.update({c: self.counts.get(c, 0) for c in COUNTERS})
        builds = self.counts.get("hochschild.bar_builds", 0)
        inserts = self.counts.get("linalg.echelon_inserts", 0)
        cols = self.counts.get("linalg.columns_calls", 0)
        stats["hochschild.bar_distinct_ratio"] = (
            len(self.bar_keys) / builds if builds else 0.0)
        stats["linalg.echelon_useful_ratio"] = (
            self.echelon_stored / inserts if inserts else 0.0)
        stats["linalg.columns_distinct_ratio"] = (
            self.column_distinct / cols if cols else 0.0)
        stats["cobordism.max_width"] = self.max_width
        self.rep_stats.append(stats)

    def begin_case(self, case_id):
        self._case = case_id
        self.fingerprint = {"bar": [], "ranks": []}
        self.open(CASE)

    def end_case(self):
        """Close the case span; returns the sizes the case's layers saw, as
        sorted lists (the oracle visits conjugacy classes in label order)."""
        self.close()
        self.column_sources = {}
        self._case = None
        return {k: sorted(v) for k, v in self.fingerprint.items()}

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append(None)
        self._stack.append([name, time.perf_counter(), 0.0,
                            len(self.spans) - 1, parent])

    def close(self):
        end = time.perf_counter()
        name, start, child, idx, parent = self._stack.pop()
        dur = end - start
        self.times[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        self.spans[idx] = (name, start, end, parent, self._case)

    # -- installation ------------------------------------------------------

    def install(self, hbv_modules):
        self._installed = patch(hbv_modules, SPANS, self._wrap)

    def uninstall(self):
        unpatch(self._installed)
        self._installed = []

    def _wrap(self, fn, span):
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        tracer = self

        if span == "linalg.rank":
            @wraps(fn)
            def rank_wrapper(sm):
                f = sm.field
                p = getattr(f, "char", 0)
                tracer.open("linalg.rank_q" if not p else
                            "linalg.rank_f2" if p == 2 else "linalg.rank_fp")
                try:
                    out = fn(sm)
                finally:
                    tracer.close()
                nnz = sm.nnz()
                tracer.counts["linalg.rank_nnz"] += nnz
                tracer.fingerprint["ranks"].append(out)
                return out
            return rank_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.open(span)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.close()
                if span == "linalg.project":
                    tracer.counts["linalg.project_errors"] += 1
                raise
            tracer.close()
            if after is not None:
                after(args, out)
            return out
        return wrapper

    # -- counters read at the layer boundaries ---------------------------------

    def _after_hochschild_bar_build(self, args, _):
        bar = args[0]
        nnz = sum(d.nnz() for d in bar.complex.diffs.values())
        dim = sum(bar.complex.dims.values())
        self.counts["hochschild.bar_builds"] += 1
        self.counts["hochschild.bar_nnz"] += nnz
        self.counts["hochschild.bar_dim"] += dim
        self.bar_keys.add((structure_key(bar.alg), bar.coeff, bar.max_degree))
        self.fingerprint["bar"].append([bar.coeff, dim, nnz])

    def _after_linalg_echelon_insert(self, args, out):
        self.counts["linalg.echelon_inserts"] += 1
        if out is not None:
            self.echelon_stored += 1

    def _after_hochschild_project(self, args, out):
        self.counts["hochschild.project_calls"] += 1

    def _after_linalg_apply(self, args, out):
        self.counts["linalg.apply_calls"] += 1

    def _after_linalg_columns(self, args, out):
        self.counts["linalg.columns_calls"] += 1
        sm = args[0]
        if id(sm) not in self.column_sources:
            self.column_sources[id(sm)] = sm  # keeps the id unique in the case
            self.column_distinct += 1

    def _after_hochschild_cochain_ops(self, args, out):
        self.counts["hochschild.cochain_ops_calls"] += 1

    def _after_cyclic_connecting(self, args, out):
        self.counts["cyclic.connecting_calls"] += 1

    def _after_cyclic_bracket(self, args, out):
        self.counts["cyclic.bracket_calls"] += 1

    def _after_cobordism_evaluate(self, args, out):
        cob = args[1]
        self.counts["cobordism.evaluate_calls"] += 1
        self.counts["cobordism.eval_entries"] += out.matrix.nrows * out.matrix.ncols
        self.max_width = max(self.max_width, cob.p, cob.q)

    def _after_reports_emit(self, args, out):
        self.counts["reports.bytes"] += len(out)

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "case"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class MemoryProbe:
    """Peak heap growth of the MEMORY_SPANS layers over one repetition.

    ``tracemalloc`` runs only while a measured span is open, so it counts
    the Python memory the layer allocates, not what was there before.  A
    layer's figure is the largest peak over its spans.  ``ru_maxrss`` cannot
    give a layer's share, since it is one high-water mark for the whole
    process.  The three layers never run inside one another (the bar build
    ranks nothing, and evaluation builds no complex), so each span has
    tracemalloc to itself; a nested span would stop it for the outer one,
    and raises instead.
    """

    def __init__(self):
        self.peak_mb = {metric: 0.0 for _, _, metric in MEMORY_SPANS}

    def run(self, hbv_modules, fn):
        undo = patch(hbv_modules, MEMORY_SPANS, self._wrap)
        try:
            return fn()
        finally:
            unpatch(undo)

    def _wrap(self, fn, metric):
        peak_mb = self.peak_mb

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                raise RuntimeError(f"{metric}: memory spans nested")
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peak_mb[metric] = max(peak_mb[metric], peak / 2**20)
        return wrapper
