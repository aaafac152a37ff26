"""Span tracing for lexval, installed from outside the package.

`Tracer.install()` replaces every public function of the lexval modules with
a wrapper that records one span per call: layer name, start, end and the
span that was open when it was called.  The replacement is made in every
namespace that bound the original at import time (`valuation.w_expand`,
`witness.value`, `ratfunc.poly_gcd`, the `lexval` package itself, ...), so
calls between modules are seen too.  The `RatFunc` constructor and its
arithmetic operators are wrapped on the class.  `uninstall()` puts every
original back.  Nothing under `src/` is modified.

Spans stay in memory in flat integer arrays until `summary()`; a layer's
self time is its span durations minus the time its child spans cover, and
its total time counts its spans with their children, leaving out spans
called directly from a span of the same layer.
Counts that need a call's result (useful gcds, expansion cells, coefficient
bit sizes, reduction steps) are taken by hooks that run after the span has
closed.  A hook runs in a span of its own, `trace.hook`, so its cost is
charged to neither the traced call nor its caller.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
from time import perf_counter_ns

MODULES = ("cli", "presets", "exprs", "valuation", "witness", "valgroup", "ypoly", "ratfunc")

RATFUNC_OPS = (
    "__init__", "__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
)

# Calls into these are the questions a caller asks of the valuation layer.
QUESTIONS = ("valuation.value", "valuation.lead_term", "valuation.cancel_lambda", "valuation.value_fraction")

HOOK = "trace.hook"
ROOT = -1


def layer_name(module: str, func: str) -> str:
    """The layer a public function's spans are counted under."""
    if module == "valgroup":
        return "valgroup"
    if module == "witness" and func.startswith("random_"):
        return "witness.corpus"
    return f"{module}.{func}"


class Tracer:
    """Spans and counts of one traced pass: install(), run the pass, uninstall(), summary()."""

    def __init__(self, lexval_pkg):
        self._pkg = lexval_pkg
        self._mods = {name: getattr(lexval_pkg, name) for name in MODULES}
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._hook_id = self._id(HOOK)
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current = ROOT
        self.gcd_useful = 0
        self.cells = 0
        self.max_coeff_bits = 0
        self.rows_built = 0
        self.rows_needed: dict[object, int] = {}
        self.reduce_steps = 0

    # -- recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _wrap(self, fn, layer: str, hook=None):
        sid = self._id(layer)
        hook_id = self._hook_id
        tr = self

        def traced(*args, **kwargs):
            names = tr.name
            idx = len(names)
            caller = tr.current
            names.append(sid)
            tr.parent.append(caller)
            tr.end.append(0)
            tr.current = idx
            tr.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter_ns()
                tr.current = caller
            if hook is not None:
                h = len(names)
                names.append(hook_id)
                tr.parent.append(caller)
                tr.end.append(0)
                tr.start.append(perf_counter_ns())
                hook(result, args)
                tr.end[h] = perf_counter_ns()
            return result

        return traced

    # -- hooks: counts that need the call's result

    def _on_gcd(self, g, args) -> None:
        if g.degree > 0:
            self.gcd_useful += 1

    def _on_expand(self, exp, args) -> None:
        self.cells += len(exp.rows) * exp.m
        bits = self.max_coeff_bits
        for row in exp.rows:
            for c in row:
                for poly in (c.num, c.den):
                    for q in poly.coeffs:
                        b = max(q.numerator.bit_length(), q.denominator.bit_length())
                        if b > bits:
                            bits = b
        self.max_coeff_bits = bits

    def _on_ypower(self, table, args) -> None:
        rows = table.e_max + 1
        self.rows_built += rows
        w = table.w
        if rows > self.rows_needed.get(w, 0):
            self.rows_needed[w] = rows

    def _on_reduce(self, result, args) -> None:
        self.reduce_steps += len(result[1])

    # -- installing

    def _replace(self, orig, wrapper) -> None:
        """Rebind every lexval namespace entry that holds `orig`."""
        for ns in (self._pkg, *self._mods.values()):
            for key, val in list(vars(ns).items()):
                if val is orig:
                    self._saved.append((ns, key, orig))
                    setattr(ns, key, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {
            "ratfunc.poly_gcd": self._on_gcd,
            "ypoly.w_expand": self._on_expand,
            "ypoly.ypower_table": self._on_ypower,
            "witness.reduce_past_chain": self._on_reduce,
        }
        for short, mod in self._mods.items():
            for key, fn in list(vars(mod).items()):
                if key.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                layer = layer_name(short, key)
                self._replace(fn, self._wrap(fn, layer, hooks.get(layer)))
        cls = self._mods["ratfunc"].RatFunc
        for op in RATFUNC_OPS:
            orig = cls.__dict__[op]
            self._saved.append((cls, op, orig))
            setattr(cls, op, self._wrap(orig, "ratfunc.ratfunc_ops"))

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._saved):
            setattr(ns, key, orig)
        self._saved.clear()

    # -- results

    def summary(self) -> dict:
        """Per-layer calls and self time, plus the hook counts, of the spans recorded."""
        n = len(self.name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p != ROOT:
                child[p] += end[i] - start[i]
        calls = [0] * len(self._names)
        self_ns = [0] * len(self._names)
        total_ns = [0] * len(self._names)
        for i in range(n):
            sid = name[i]
            calls[sid] += 1
            self_ns[sid] += end[i] - start[i] - child[i]
            p = parent[i]
            if p == ROOT or name[p] != sid:
                total_ns[sid] += end[i] - start[i]

        # A question is a valuation call not made from inside another question.
        # Every expansion counts against the questions except those the
        # command line asks for itself (`expand`), which answer no question.
        question_ids = {self._ids[q] for q in QUESTIONS if q in self._ids}
        expand_id = self._ids.get("ypoly.w_expand")
        cli_id = self._ids.get("cli.main")
        in_question = bytearray(n)
        questions = expansions = 0
        for i in range(n):
            p = parent[i]
            if p != ROOT and in_question[p]:
                in_question[i] = 1
            elif name[i] in question_ids:
                in_question[i] = 1
                questions += 1
            if name[i] == expand_id and (p == ROOT or name[p] != cli_id):
                expansions += 1

        layers = {
            self._names[sid]: {"calls": calls[sid], "self_s": self_ns[sid] / 1e9, "total_s": total_ns[sid] / 1e9}
            for sid in range(len(self._names))
            if calls[sid]
        }
        return {
            "spans": n,
            "layers": layers,
            "gcd_useful": self.gcd_useful,
            "cells": self.cells,
            "max_coeff_bits": self.max_coeff_bits,
            "rows_built": self.rows_built,
            "rows_needed": sum(self.rows_needed.values()),
            "reduce_steps": self.reduce_steps,
            "questions": questions,
            "question_expansions": expansions,
        }

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped TSV: index, parent, layer, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tparent\tlayer\tstart_ns\tend_ns\n")
            names = self._names
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n")
