"""Span recorder and exact counters for the traced benchmark passes.

`Tracer.install()` replaces every public function of the quiverlab layers
with a recording wrapper, in every module namespace that holds it: the
defining module and each module that imported it by name (so a call from
`covariants` to `det` is seen as `covariants.det`).  `Mat._matmul` is patched
on the class, since matrix products are reached through `Mat.__mul__`.

A span is (id, name, start, end, parent id, op): `op` numbers the benchmark
op that caused it, so the spans of one op share it.  Spans stay in memory and
are written when the run ends; self time is a span's duration minus the time its
child spans cover.  The counting pass runs the same wrappers without clocks
and also counts every `FpScalar` operation and object, which would swamp
span times if it ran during the timed pass.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter

LAYERS = ("fields", "linalg", "quiver", "repspace", "paths", "covariants",
          "reflection", "strata", "cli")

# Functions whose metrics are split by the field of their first matrix.
BY_FIELD = {"linalg.rref", "linalg.det", "linalg.matmul"}

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__eq__")

ORBIT_PATHS = {
    "invariant mismatch": "invariant_no",
    "no intertwiner": "hom_no",
    "hom dimensions differ": "hom_no",
    "single singular point": "hom_no",
    "particular solution": "particular",
    "all fibers are zero": "particular",
    "deterministic scan": "scan",
    "random combination": "random",
}


def orbit_path(decision):
    if decision.kind == "unknown":
        return "unknown"
    for prefix, path in ORBIT_PATHS.items():
        if decision.reason.startswith(prefix):
            return path
    raise ValueError(f"unclassified orbit decision reason {decision.reason!r}")


class Tracer:
    """Records spans (when `timed`) and exact counts (always) while `on`."""

    def __init__(self, ql):
        self.ql = ql
        self.on = False
        self.timed = False
        self.counting_scalars = False
        self.op = -1             # index of the benchmark op in progress
        self.stack = []          # (span id, canonical name) of open calls
        self.names = []          # span name table; spans store indices
        self.metric_of = []      # canonical metric name of each span name
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = Counter()
        self._patches = []       # (namespace dict or class, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {name: getattr(self.ql, name) for name in LAYERS}
        modules["quiverlab"] = self.ql
        originals = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        for site, mod in modules.items():
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    fn, canon = hit
                    self._patch(ns, attr, self._wrap(fn, canon, f"{site}.{attr}"))
        mat = self.ql.linalg.Mat
        self._patch(mat, "_matmul", self._wrap(mat._matmul, "linalg.matmul", "linalg.Mat._matmul"))
        self._install_scalars()

    def _patch(self, target, attr, new):
        if isinstance(target, dict):
            self._patches.append((target, attr, target[attr]))
            target[attr] = new
        else:
            self._patches.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, new)

    def uninstall(self):
        for target, attr, old in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = old
            else:
                setattr(target, attr, old)
        self._patches.clear()

    def _install_scalars(self):
        fields = self.ql.fields
        for op in SCALAR_OPS:
            self._patch(fields.FpScalar, op,
                        self._count_scalar(fields.FpScalar.__dict__[op], "fields.fp_ops"))
        self._patch(fields.FpScalar, "__init__",
                    self._count_scalar(fields.FpScalar.__dict__["__init__"], "fields.fp_objects"))

    def _count_scalar(self, fn, key):
        tracer = self
        counts = self.counts

        def counted(*args):
            if tracer.counting_scalars:
                counts[key] += 1
            return fn(*args)

        return counted

    # -- the wrapper --------------------------------------------------------

    def _name_id(self, name, metric):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.metric_of.append(metric)
        return nid

    def _wrap(self, fn, canon, site):
        tracer = self
        counts = self.counts
        by_field = canon in BY_FIELD
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            metric = canon
            if by_field:
                metric = f"{canon}.{args[0].field.kind}"
                counts[f"{metric}.cells"] += args[0].rows * args[0].cols
            counts[f"{metric}.calls"] += 1
            stack = tracer.stack
            parent = stack[-1] if stack else (-1, "")
            tracer._count_edges(canon, parent[1], args)
            if tracer.timed:
                sid = len(tracer.span_name)
                span = f"{site}.{args[0].field.kind}" if by_field else site
                tracer.span_name.append(tracer._name_id(span, metric))
                tracer.span_parent.append(parent[0])
                tracer.span_op.append(tracer.op)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            else:
                sid = -1
            stack.append((sid, canon))
            try:
                if sid >= 0:
                    tracer.span_start[sid] = clock()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        tracer.span_end[sid] = clock()
                else:
                    result = fn(*args, **kwargs)
            finally:
                stack.pop()
            tracer._count_result(canon, site, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_edges(self, canon, parent, args):
        c = self.counts
        if canon == "linalg.solve_right" and parent == "repspace.sample_fiber":
            c["repspace.sample_fiber.solves"] += 1
        elif canon == "paths.hom_space":
            s, t = args[0], args[1]
            q = s.quiver
            c["paths.hom_space.unknowns"] += sum(
                s.dims.v_of(q, v) * t.dims.v_of(q, v) for v in q.vertices)

    def _count_result(self, canon, site, result):
        c = self.counts
        if site == "strata.moment_matches":
            c["strata.moment_checks"] += 1
        elif canon == "paths.orbit_equivalent":
            c[f"paths.orbit_equivalent.path.{orbit_path(result)}"] += 1
        elif canon == "strata.count_points_Fq":
            c["strata.space_points"] += result.p ** result.space_dimension
            c["strata.hits"] += result.total

    # -- derived figures ----------------------------------------------------

    def self_times(self):
        """Self seconds per canonical metric name, from the recorded spans."""
        n = len(self.span_name)
        child = [0.0] * n
        for k in range(n):
            p = self.span_parent[k]
            if p >= 0:
                child[p] += self.span_end[k] - self.span_start[k]
        out = Counter()
        for k in range(n):
            metric = self.metric_of[self.span_name[k]]
            out[metric] += self.span_end[k] - self.span_start[k] - child[k]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for k in range(len(self.span_name)):
                fh.write(f"{k}\t{self.names[self.span_name[k]]}\t{self.span_start[k]!r}\t"
                         f"{self.span_end[k]!r}\t{self.span_parent[k]}\t{self.span_op[k]}\n")

