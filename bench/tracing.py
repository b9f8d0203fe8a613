"""Spans around the calls into each ltlt module, recorded from outside.

The tracer replaces every module-level binding of a traced function with a
wrapper that records one span per call, then restores the originals.  A
function imported by name into several modules (``solve_lp`` is bound in
both ``ltlt.lpcert`` and ``ltlt.cli``) is wrapped at every binding, so calls
made inside the package are counted too.  The ``__post_init__`` of the four
matcore types is wrapped on the classes and reported as ``matcore.validate``.

A span is ``[name, start_ns, end_ns, parent_id, op_id, n]``; its id is its
index in ``Tracer.spans``.  ``n`` is the matrix dimension for the functions
reported per size and ``None`` elsewhere.  While ``Tracer.op`` is ``None``
the wrappers call straight through and record nothing, which keeps input
generation and output checks out of the trace.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

MODULES = ("matcore", "aasen", "growth", "lpcert", "extremal", "search", "cli")

# (module, function, size of the call or None, counter fed from the result)
TRACED = (
    ("search", "maximize_growth", None, ("search.evals", lambda out: out.evaluations)),
    ("aasen", "factorize", lambda args: args[0].n, None),
    ("aasen", "solve", None, None),
    ("growth", "growth_factor", None, None),
    ("growth", "growth_certificate", lambda args: args[0].n, None),
    ("matcore", "residual", None, None),
    ("lpcert", "build_program", None, None),
    ("lpcert", "solve_lp", None, ("lpcert.iterations", lambda out: out.iterations)),
    ("extremal", "extremal_matrix", None, None),
    ("extremal", "verify_example", None, None),
    ("cli", "main", None, None),
    ("cli", "read_matrix", None, None),
)
VALIDATED = ("SymmetricMatrix", "PermutationVector", "UnitLowerTriangular", "SymmetricTridiagonal")
SPAN_NAMES = tuple(f"{m}.{f}" for m, f, _, _ in TRACED) + ("matcore.validate",)
SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op", "n")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op = None
        self._stack: list = []

    def wrap(self, fn, name, size=None, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.op, size(args) if size else None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if counter:
                tracer.counters[counter[0]] += counter[1](out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        pkg = importlib.import_module("ltlt")
        mods = [pkg] + [importlib.import_module(f"ltlt.{m}") for m in MODULES]
        undo = []
        try:
            for mod_name, fn_name, size, counter in TRACED:
                orig = getattr(importlib.import_module(f"ltlt.{mod_name}"), fn_name)
                wrapped = self.wrap(orig, f"{mod_name}.{fn_name}", size, counter)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
            matcore = importlib.import_module("ltlt.matcore")
            for cls_name in VALIDATED:
                cls = getattr(matcore, cls_name)
                undo.append((cls, "__post_init__", cls.__post_init__))
                cls.__post_init__ = self.wrap(cls.__post_init__, "matcore.validate")
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def layer_totals(self) -> dict:
        """Per span name: calls, total and self milliseconds.

        Self time is a span's duration minus the durations of its direct
        children; on one thread the children of a span never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _op, _n in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: [0, 0, 0] for name in SPAN_NAMES}
        for i, (name, start, end, _parent, _op, _n) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child_ns[i]
        return {name: (c, tot / 1e6, slf / 1e6) for name, (c, tot, slf) in out.items()}

    def ms_per_call(self, name: str, n: int) -> float:
        """Mean span duration of ``name`` at dimension ``n``; 0 when never called."""
        durs = [e - s for nm, s, e, _p, _o, sz in self.spans if nm == name and sz == n]
        return sum(durs) / len(durs) / 1e6 if durs else 0.0

    def write(self, path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": SPAN_FIELDS}) + "\n")
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps([i, *rec]) + "\n")
