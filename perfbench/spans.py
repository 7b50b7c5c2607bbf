"""Spans around calls into stratakit, installed from outside the program.

``Recorder.install`` replaces every public function of the traced
modules, and a few named methods, with a wrapper that records one span
per call; a generator function gets one span per resumption.  The
wrapper is also bound wherever another module imported the function by
name (``from .space import apply_phi``), so every call path is traced.
Nothing in ``src/`` is edited.

A span is (name, start, end, parent).  Spans stay in memory and are
written out by ``dump`` when the run ends; spans of one command share
the command's index.  ``layer_metrics`` turns them into the per-layer
metrics.  "Self" time is a span's duration minus its child spans.
"""

from __future__ import annotations

import array
import functools
import inspect
import time
import types
from collections import defaultdict

LAYERS = ("gf", "linalg", "space", "strata", "latcalc", "charts", "weyl", "cli")

# Methods traced besides the module-level public functions; a traced
# constructor's span is named after its class.
METHODS = {
    "gf": (("FieldCtx", "__init__"),),
    "latcalc": (("TruncRing", "mul"), ("HermSpace", "tau")),
}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        # yields per (generator span name, parent span name)
        self.yields: dict[tuple[int, int], int] = defaultdict(int)
        # (a, b, q) of every brute_rank1_count call
        self.chart_shapes: list[tuple[int, int, int]] = []
        self.command_first_span: list[int] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_command(self) -> None:
        self.command_first_span.append(len(self.name))

    def _wrap_call(self, nid: int, fn):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def _wrap_generator(self, nid: int, fn):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        yields = self.yields
        clock = time.perf_counter

        def resumptions(gen):
            try:
                while True:
                    i = len(name)
                    up = stack[-1]
                    name.append(nid)
                    parent.append(up)
                    end.append(0.0)
                    stack.append(i)
                    start.append(clock())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end[i] = clock()
                        stack.pop()
                    yields[nid, name[up] if up >= 0 else -1] += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return resumptions(fn(*args, **kwargs))

        return wrapper

    def _wrap(self, span_name: str, fn):
        nid = self._id(span_name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(nid, fn)
        wrapped = self._wrap_call(nid, fn)
        if span_name == "charts.brute_rank1_count":
            shapes = self.chart_shapes

            @functools.wraps(fn)
            def counted(a, b, q, *args, **kwargs):
                shapes.append((a, b, q))
                return wrapped(a, b, q, *args, **kwargs)

            return counted
        return wrapped

    def install(self, package) -> None:
        """Wrap the public functions of every traced module of ``package``."""
        modules = [getattr(package, layer) for layer in LAYERS]
        replaced: dict[int, object] = {}
        for mod, layer in zip(modules, LAYERS):
            for attr, fn in list(vars(mod).items()):
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    replaced[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                span = cls_name if meth == "__init__" else f"{cls_name}.{meth}"
                setattr(cls, meth, self._wrap(f"{layer}.{span}", getattr(cls, meth)))
        for mod in list(vars(package).values()):
            if isinstance(mod, types.ModuleType) and mod.__name__.startswith(package.__name__):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, attr, replaced[id(obj)])

    # -- output --------------------------------------------------------------

    def command_of_spans(self) -> array.array:
        """Index of the command each span belongs to."""
        out = array.array("i", [0]) * len(self.name)
        bounds = self.command_first_span + [len(self.name)]
        for c in range(len(self.command_first_span)):
            for i in range(bounds[c], bounds[c + 1]):
                out[i] = c
        return out

    def dump(self, path: str) -> None:
        """Write every span as one record of a numpy ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            command=np.frombuffer(self.command_of_spans(), dtype=np.int32),
        )

    # -- metrics -------------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, inclusive and self seconds; plus the
        inclusive seconds of each (parent name, child name) pair."""
        n_names = len(self.names)
        calls = [0] * n_names
        incl = [0.0] * n_names
        self_s = [0.0] * n_names
        pair: dict[tuple[int, int], float] = defaultdict(float)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        child = [0.0] * len(name)
        roots = 0.0
        for i in range(len(name) - 1, -1, -1):
            dur = end[i] - start[i]
            nid = name[i]
            calls[nid] += 1
            incl[nid] += dur
            self_s[nid] += dur - child[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
                pair[name[p], nid] += dur
            else:
                roots += dur
        return calls, incl, self_s, pair, roots


# Per-layer metrics: name -> (unit, which direction is better).
METRICS = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "gf.ctx_builds": ("count", "lower"),
    "gf.ctx_build_s": ("s", "lower"),
    "linalg.rref.calls": ("count", "lower"),
    "linalg.rref.self_s": ("s", "lower"),
    "linalg.rref.us_per_call": ("us", "lower"),
    "linalg.rref.calls_per_member": ("ratio", "lower"),
    "linalg.intersect.calls": ("count", "lower"),
    "linalg.intersect.self_s": ("s", "lower"),
    "linalg.enumerate_echelon.self_s": ("s", "lower"),
    "space.apply_phi.calls": ("count", "lower"),
    "space.apply_phi.self_s": ("s", "lower"),
    "space.is_isotropic.calls": ("count", "lower"),
    "space.is_isotropic.self_s": ("s", "lower"),
    "space.sum_spaces.self_s": ("s", "lower"),
    "space.intersect.self_s": ("s", "lower"),
    "space.enumerate_subspaces.yielded": ("count", "lower"),
    "space.enumerate_subspaces.self_s": ("s", "lower"),
    "strata.enumerate_members.yielded": ("count", "higher"),
    "strata.enumerate_members.self_s": ("s", "lower"),
    "strata.classify_flag.calls": ("count", "lower"),
    "strata.classify_flag.us_per_call": ("us", "lower"),
    "strata.classify_flag.self_s": ("s", "lower"),
    "strata.kr_class.us_per_call": ("us", "lower"),
    "strata.member.calls": ("count", "lower"),
    "strata.checks_s": ("s", "lower"),
    "strata.scan_yield_ratio": ("ratio", "higher"),
    "latcalc.column_hnf.calls": ("count", "lower"),
    "latcalc.column_hnf.self_s": ("s", "lower"),
    "latcalc.column_hnf.us_per_call": ("us", "lower"),
    "latcalc.TruncRing.mul.calls": ("count", "lower"),
    "latcalc.TruncRing.mul.self_s": ("s", "lower"),
    "latcalc.dual_sharp.us_per_call": ("us", "lower"),
    "latcalc.contains.self_s": ("s", "lower"),
    "latcalc.HermSpace.tau.us_per_call": ("us", "lower"),
    "latcalc.crucial_dichotomy.calls": ("count", "higher"),
    "latcalc.crucial_dichotomy.us_per_call": ("us", "lower"),
    "latcalc.hypothesis_accept_ratio": ("ratio", "higher"),
    "latcalc.inconclusive": ("count", "lower"),
    "charts.brute_rank1_count.calls": ("count", "lower"),
    "charts.brute_rank1_count.matrices": ("count", "lower"),
    "charts.brute_rank1_count.ns_per_matrix": ("ns", "lower"),
    "charts.brute_rank1_count.bytes_computed": ("B", "lower"),
    "weyl.length.calls": ("count", "lower"),
    "weyl.length.us_per_call": ("us", "lower"),
    "weyl.symplectic_audit.self_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.glue_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics(rec: Recorder, run_s: float, inconclusive: int) -> dict:
    """Per-layer metrics of one traced repeat, as name -> value.

    ``inconclusive`` is the guard-trip count read from the command
    reports.  A metric whose layer the workload never reached is absent,
    and so is ``trace.overhead_ratio``, which needs an untraced repeat.
    """
    calls, incl, self_s, pair, roots = rec.aggregate()
    ids = rec._ids

    def c(n):
        return calls[ids[n]] if n in ids else 0

    def inc(n):
        return incl[ids[n]] if n in ids else 0.0

    def slf(n):
        return self_s[ids[n]] if n in ids else 0.0

    def per_call_us(n):
        return inc(n) / c(n) * 1e6 if c(n) else 0.0

    def yielded(n, under=None):
        nid = ids.get(n, -2)
        return sum(v for (g, p), v in rec.yields.items()
                   if g == nid and (under is None or p == ids.get(under, -2)))

    m: dict[str, float] = {}

    def put(key, value, reached):
        if reached:
            m[key] = value

    for layer in LAYERS:
        own = [i for i, n in enumerate(rec.names) if n.startswith(layer + ".") and calls[i]]
        put(f"{layer}.self_s", sum(self_s[i] for i in own), own)

    ctx = "gf.FieldCtx"
    put("gf.ctx_builds", c(ctx), c(ctx))
    put("gf.ctx_build_s", inc(ctx), c(ctx))

    em, cf, kr, vd = ("strata.enumerate_members", "strata.classify_flag",
                      "strata.kr_class", "strata.verify_decomposition")
    members = yielded(em)
    rref = "linalg.rref"
    put(f"{rref}.calls", c(rref), c(rref))
    put(f"{rref}.self_s", slf(rref), c(rref))
    put(f"{rref}.us_per_call", per_call_us(rref), c(rref))
    put(f"{rref}.calls_per_member", members and c(rref) / members, members)
    put("linalg.intersect.calls", c("linalg.intersect"), c("linalg.intersect"))
    put("linalg.intersect.self_s", slf("linalg.intersect"), c("linalg.intersect"))
    # the echelon scan behind enumerate_subspaces, isotropy filter included
    echelon = "linalg.enumerate_echelon"
    put(f"{echelon}.self_s", slf(echelon), c(echelon))

    for n in ("space.apply_phi", "space.is_isotropic"):
        put(f"{n}.calls", c(n), c(n))
        put(f"{n}.self_s", slf(n), c(n))
    for n in ("space.sum_spaces", "space.intersect"):
        put(f"{n}.self_s", slf(n), c(n))
    enum = "space.enumerate_subspaces"
    put(f"{enum}.yielded", yielded(enum), c(enum))
    put(f"{enum}.self_s", slf(enum), c(enum))

    put(f"{em}.yielded", members, c(em))
    put(f"{em}.self_s", slf(em), c(em))
    put(f"{cf}.calls", c(cf), c(cf))
    put(f"{cf}.us_per_call", per_call_us(cf), c(cf))
    put(f"{cf}.self_s", slf(cf), c(cf))
    put(f"{kr}.us_per_call", per_call_us(kr), c(kr))
    put("strata.member.calls", c("strata.member"), c(em))
    # verify_decomposition minus member enumeration and classification
    v = ids.get(vd, -2)
    put("strata.checks_s",
        inc(vd) - sum(pair.get((v, ids[n]), 0.0) for n in (em, cf, kr) if n in ids), c(vd))
    # candidates drawn by the generic scan, i.e. subspaces that
    # enumerate_members pulls itself; the k <= 2 paths draw none
    candidates = yielded(enum, under=em)
    put("strata.scan_yield_ratio", candidates and members / candidates, candidates)

    hnf, mul = "latcalc.column_hnf", "latcalc.TruncRing.mul"
    put(f"{hnf}.calls", c(hnf), c(hnf))
    put(f"{hnf}.self_s", slf(hnf), c(hnf))
    put(f"{hnf}.us_per_call", per_call_us(hnf), c(hnf))
    put(f"{mul}.calls", c(mul), c(mul))
    put(f"{mul}.self_s", slf(mul), c(mul))
    for n in ("latcalc.dual_sharp", "latcalc.HermSpace.tau"):
        put(f"{n}.us_per_call", per_call_us(n), c(n))
    put("latcalc.contains.self_s", slf("latcalc.contains"), c("latcalc.contains"))
    cd, hyp = "latcalc.crucial_dichotomy", "latcalc.check_hypotheses"
    put(f"{cd}.calls", c(cd), c(hyp))
    put(f"{cd}.us_per_call", per_call_us(cd), c(cd))
    put("latcalc.hypothesis_accept_ratio", c(hyp) and c(cd) / c(hyp), c(hyp))
    put("latcalc.inconclusive", inconclusive, c(hyp))

    brute = "charts.brute_rank1_count"
    matrices = sum(q ** (a * b) for a, b, q in rec.chart_shapes)
    put(f"{brute}.calls", c(brute), c(brute))
    put(f"{brute}.matrices", matrices, c(brute))
    put(f"{brute}.ns_per_matrix", matrices and inc(brute) / matrices * 1e9, matrices)
    # computed from array sizes, not measured: per matrix the kernel
    # materialises an int64 code, a row of int64 digits and a bool flag
    put(f"{brute}.bytes_computed",
        sum(q ** (a * b) * (8 * (a * b + 1) + 1) for a, b, q in rec.chart_shapes), c(brute))

    put("weyl.length.calls", c("weyl.length"), c("weyl.length"))
    put("weyl.length.us_per_call", per_call_us("weyl.length"), c("weyl.length"))
    put("weyl.symplectic_audit.self_s", slf("weyl.symplectic_audit"),
        c("weyl.symplectic_audit"))

    put("trace.run_s", run_s, True)
    put("trace.glue_s", run_s - roots, True)
    put("trace.spans", len(rec.name), True)
    return m
