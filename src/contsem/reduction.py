"""Normal-order reduction by substitution, one step at a time.  Only `--trace`
runs it, and only then does the CLI import it."""
from __future__ import annotations

from .node import Node
from .terms import MAX_STEPS, App, Lam, StepBudgetExceeded, Term, Var


def shift(term: Term, d: int, cutoff: int = 0) -> Term:
    """Shift free variable indices >= cutoff by d."""
    if isinstance(term, Var):
        return Var(term.index + d) if term.index >= cutoff else term
    if isinstance(term, Lam):
        return Lam(term.ty, shift(term.body, d, cutoff + 1))
    if isinstance(term, App):
        return App(shift(term.fn, d, cutoff), shift(term.arg, d, cutoff))
    return term


def _subst(term: Term, j: int, repl: Term) -> Term:
    if isinstance(term, Var):
        return repl if term.index == j else term
    if isinstance(term, Lam):
        return Lam(term.ty, _subst(term.body, j + 1, shift(repl, 1)))
    if isinstance(term, App):
        return App(_subst(term.fn, j, repl), _subst(term.arg, j, repl))
    return term


def beta(lam: Lam, arg: Term) -> Term:
    """Contract the redex App(lam, arg)."""
    return shift(_subst(lam.body, 0, shift(arg, 1)), -1)


def reduce_once(term: Term) -> tuple[Term, tuple[str, ...]] | None:
    """One leftmost-outermost beta step, or None if the term is normal.

    Returns the reduced term together with the redex position (a path of
    'fn'/'arg'/'body' steps).
    """
    return _step(term, ())


def _step(t, path):
    if isinstance(t, App):
        if isinstance(t.fn, Lam):
            return beta(t.fn, t.arg), path
        r = _step(t.fn, path + ("fn",))
        if r is not None:
            return App(r[0], t.arg), r[1]
        r = _step(t.arg, path + ("arg",))
        return None if r is None else (App(t.fn, r[0]), r[1])
    if isinstance(t, Lam):
        r = _step(t.body, path + ("body",))
        return None if r is None else (Lam(t.ty, r[0]), r[1])
    return None


class TraceStep(Node):
    __slots__ = {"step": "int", "position": "tuple[str, ...]", "term": "Term"}


def trace(term: Term, max_steps: int = MAX_STEPS) -> list[TraceStep]:
    """Normal-order reduction sequence; empty for a term already normal.

    The final entry's term is the normal form of the input.
    """
    out: list[TraceStep] = []
    current = term
    for i in range(max_steps):
        r = reduce_once(current)
        if r is None:
            return out
        current, pos = r
        out.append(TraceStep(i, pos, current))
    if reduce_once(current) is None:
        return out
    raise StepBudgetExceeded(max_steps)
