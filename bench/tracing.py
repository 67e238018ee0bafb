"""Spans around calls into contsem's public functions, for the traced run.

The tracer replaces each listed function wherever a `contsem` module binds
it (`cli` imports most of them by name), records one span per call, and
restores the originals afterwards.  A call that re-enters the function it
is directly inside, such as `compose` or `formula_json` recursing through
their module globals, stays inside the outer span.

Counts such as node totals are taken at the span's boundary, after the
span has ended; the time spent counting is subtracted from the enclosing
span, so self times cover contsem's work only.  Spans stay in memory; the
worker process hands them to the run, which writes them out at its end.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "contsem"
LAYERS = ("syntax", "discourse", "lexicon", "terms", "logic", "resolver", "cli")


def _tree_sum(root, children: Callable, weight: Callable) -> int:
    """Sum of `weight` over the nodes of a tree that may share subtrees,
    each shared subtree counted once per occurrence, in time linear in the
    number of distinct nodes."""
    sums: dict[int, int] = {}         # by id: every node is reachable from root
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        key = id(node)
        if key in sums:
            continue
        kids = children(node)
        if done:
            sums[key] = weight(node) + sum(sums[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in sums)
    return sums[id(root)]


def _term_children(t) -> tuple:
    kind = type(t).__name__
    if kind == "Lam":
        return (t.body,)
    if kind == "App":
        return (t.fn, t.arg)
    return ()


def _formula_children(f) -> tuple:
    kind = type(f).__name__
    if kind in ("Not", "Exists"):
        return (f.body,)
    if kind in ("And", "Or", "UnionE"):
        return (f.left, f.right)
    if kind == "Atom":
        return f.args
    if kind == "SelOf":
        return (f.env,)
    if kind == "ConsE":
        return (f.head, f.tail)
    return ()


def term_nodes(t) -> int:
    return _tree_sum(t, _term_children, lambda node: 1)


def formula_nodes(f) -> int:
    return _tree_sum(f, _formula_children, lambda node: 1)


def _sites(f) -> int:
    return _tree_sum(f, _formula_children, lambda node: type(node).__name__ == "SelOf")


# Public functions traced, with the counts taken at each boundary.
TARGETS: dict[str, Optional[Callable]] = {
    "cli.main": None,
    "lexicon.default_lexicon": None,
    "discourse.parse_discourse": None,
    "discourse.compose": lambda a, r: {"out_nodes": term_nodes(r)},
    "terms.typecheck": None,
    "terms.normalize": lambda a, r: {"in_nodes": term_nodes(a[0]),
                                     "out_nodes": term_nodes(r)},
    "logic.reify": lambda a, r: {"out_nodes": formula_nodes(r), "sites": _sites(r)},
    "logic.simplify": lambda a, r: {"in_nodes": formula_nodes(a[0]),
                                    "out_nodes": formula_nodes(r)},
    "resolver.report": lambda a, r: {"sites": len(r),
                                     "candidates": sum(len(x.candidates) for x in r)},
    "resolver.resolve": None,
    "syntax.pretty": None,
    "logic.formula_text": None,
    "logic.formula_json": None,
}


@dataclass
class Span:
    name: str
    fn: Callable
    sid: int
    parent: int
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0      # time covered by child spans
    instr: float = 0.0      # counting done by the tracer inside this span
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child - self.instr


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for qualname, measure in TARGETS.items():
            module_name, attr = qualname.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            fn = getattr(home, attr, None)
            if fn is None:
                raise TraceError(f"{PACKAGE}.{qualname} does not exist")
            wrapper = self._wrap(qualname, fn, measure)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, name, fn))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        for m, name, fn in reversed(self._saved):
            setattr(m, name, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn: Callable, measure: Optional[Callable]):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1].fn is fn:
                return fn(*args, **kwargs)
            c0 = clock()
            span = Span(name, fn, len(spans), stack[-1].sid if stack else -1)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child += span.end - span.start
                    stack[-1].instr += span.start - c0
            if measure is not None:
                span.counts = measure(args, result)
            if stack:
                stack[-1].instr += clock() - span.end
            return result

        return traced

    def totals(self) -> dict[str, float]:
        """Self time (ms), calls, errors and counts per function, summed
        over every span recorded."""
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[f"{s.name}.self_ms"] += s.self_time * 1000
            totals[f"{s.name}.calls"] += 1
            totals[f"{s.name}.errors"] += s.error
            for key, value in s.counts.items():
                totals[f"{s.name}.{key}"] += value
        for name in TARGETS:
            for key in ("self_ms", "calls", "errors"):
                totals[f"{name}.{key}"] += 0
        return dict(totals)

    def records(self) -> list[dict]:
        return [{"id": s.sid, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end, "self": s.self_time,
                 "error": s.error, **s.counts} for s in self.spans]


def check_layers(totals: dict[str, float]) -> None:
    """Fail when a layer recorded no span: a refactor moved or renamed the
    functions the benchmark measures."""
    seen = {name.split(".", 1)[0] for name in TARGETS if totals.get(f"{name}.calls")}
    missing = [layer for layer in LAYERS if layer not in seen]
    if missing:
        raise TraceError(f"no spans recorded for layer(s) {', '.join(missing)}")
