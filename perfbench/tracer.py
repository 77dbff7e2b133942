"""Spans around the program's public functions, for the traced run.

``install`` replaces each traced function by a wrapper at every place a
caller reaches it: the defining module and every ``qclrc`` module that
imported the name, or the class attribute for methods.  A wrapper
records one span (name, start, end, parent) in memory.  Counts marked
*computed* are derived from a call's arguments and result, never from
inside the program.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from math import comb

import numpy as np

# layer metric prefix -> (module, attribute path) of each traced callable
TARGETS = {
    "algebra.factor_unity": [("qclrc.algebra", "factor_unity")],
    "codes.rref": [("qclrc.codes", "rref")],
    "codes.from_rows": [("qclrc.codes", "LinearCode.from_rows")],
    "codes.min_distance": [("qclrc.codes", "min_distance")],
    "codes.subcode_distance": [("qclrc.codes", "subcode_distance")],
    "codes.min_weight_codeword": [("qclrc.codes", "min_weight_codeword")],
    "qc.generator_matrix": [("qclrc.qc", "generator_matrix")],
    "qc.evaluate_constituents": [("qclrc.qc", "evaluate_constituents")],
    "qc.constituent_distance": [
        ("qclrc.qc", "ConstituentDecomposition.constituent_distance")],
    "bounds.go_bound": [("qclrc.bounds", "go_bound")],
    "bounds.prefix_bound": [("qclrc.bounds", "prefix_bound")],
    "bounds.locality_upper": [("qclrc.bounds", "locality_upper")],
    "bounds.full_report": [("qclrc.bounds", "full_report")],
    "bounds.recover_symbol": [("qclrc.bounds", "recover_symbol")],
    "construct.exact_code": [("qclrc.construct", "exact_code")],
    "construct.from_base": [("qclrc.construct", "FamilySpec.from_base")],
    "construct.scan": [("qclrc.construct", "scan")],
    "specfile.parse": [("qclrc.specfile", "parse"),
                       ("qclrc.specfile", "parse_matrix")],
    "specfile.to_decomposition": [("qclrc.specfile", "to_decomposition")],
    "specfile.to_code": [("qclrc.specfile", "to_code")],
    "cli.main": [("qclrc.cli", "main")],
    "reference.reference_case": [("qclrc.reference", "reference_case")],
}

# computed counts, each keyed by the layer metric it belongs to
COUNTS = ("codes.min_distance.space", "codes.min_distance.subsets",
          "codes.subcode_distance.hits", "qc.constituent_distance.hits")


class Tracer:
    """Spans in flat arrays; ``stack`` holds the open span indices."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)

    def wrap(self, name: str, fn, pre=None, post=None):
        """``pre(args, kwargs)`` returns the arguments to call with;
        ``post(args, result)`` runs after the span closes."""
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def summary(self) -> dict[str, float]:
        """Calls and self time per name, plus the computed counts."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = np.bincount(name, weights=dur - child,
                                minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        out = {}
        for nid, nm in enumerate(self.names):
            out[f"{nm}.calls"] = int(calls[nid])
            out[f"{nm}.self_s"] = float(self_time[nid])
        out.update(self.counts)
        busy = out.get("codes.min_distance.self_s", 0.0)
        out["codes.min_distance.space_per_s"] = (
            out["codes.min_distance.space"] / busy if busy else 0.0)
        out["trace.spans"] = len(self.span_name)
        return out

    def write(self, path) -> None:
        """Every span, start times relative to the first span."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        origin = start[0] if len(start) else 0.0
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=start - origin,
                 end=np.frombuffer(self.span_end, dtype=np.float64) - origin)


def _min_distance_post(tracer: Tracer):
    counts = tracer.counts

    def post(args, result):
        code = args[0]
        counts["codes.min_distance.space"] += float(code.field.order ** code.k)
        counts["codes.min_distance.subsets"] += float(
            sum(comb(code.n, w) for w in range(1, result + 1)))
    return post


def _subcode_distance_pre(tracer: Tracer):
    counts = tracer.counts

    def pre(args, kwargs):
        fact, index_set, *rest = args
        index_set = tuple(index_set)
        if frozenset(index_set) in fact._subcode_cache:
            counts["codes.subcode_distance.hits"] += 1
        return (fact, index_set, *rest), kwargs
    return pre


def _constituent_distance_pre(tracer: Tracer):
    counts = tracer.counts

    def pre(args, kwargs):
        if args[1] in args[0]._dcache:
            counts["qc.constituent_distance.hits"] += 1
        return args, kwargs
    return pre


_HOOKS = {
    "codes.min_distance": (None, _min_distance_post),
    "codes.subcode_distance": (_subcode_distance_pre, None),
    "qc.constituent_distance": (_constituent_distance_pre, None),
}


def install(tracer: Tracer) -> None:
    """Wrap every target wherever the ``qclrc`` modules reach it."""
    modules = [m for name, m in sys.modules.items()
               if name == "qclrc" or name.startswith("qclrc.")]
    for layer, places in TARGETS.items():
        pre_of, post_of = _HOOKS.get(layer, (None, None))
        pre = pre_of(tracer) if pre_of else None
        post = post_of(tracer) if post_of else None
        for module_name, attr in places:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(
                        tracer.wrap(layer, raw.__func__, pre, post)))
                else:
                    setattr(cls, meth, tracer.wrap(layer, raw, pre, post))
                continue
            orig = getattr(owner, attr)
            wrapped = tracer.wrap(layer, orig, pre, post)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
