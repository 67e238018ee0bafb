"""Simply typed lambda-calculus kernel.

Terms use De Bruijn indices (0 = nearest binder), so alpha-equivalence is
plain structural equality.  Binders carry mandatory type annotations, which
makes typechecking decidable without inference.  All values are immutable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from .errors import ContsemError


# ---------------------------------------------------------------------------
# Semantic types

@dataclass(frozen=True)
class Base:
    name: str

    def __repr__(self):
        return f"Base({self.name!r})"


@dataclass(frozen=True)
class Arrow:
    dom: "SemType"
    cod: "SemType"

    def __repr__(self):
        return f"Arrow({self.dom!r}, {self.cod!r})"


SemType = Union[Base, Arrow]

E = Base("e")   # entities
T = Base("t")   # propositions
G = Base("g")   # referent environments


def arrow(*types: SemType) -> SemType:
    """Right-associated function type: arrow(a, b, c) == a -> (b -> c)."""
    if not types:
        raise ValueError("arrow() needs at least one type")
    result = types[-1]
    for ty in reversed(types[:-1]):
        result = Arrow(ty, result)
    return result


def type_text(ty: SemType) -> str:
    """Render a type in the concrete syntax (`>` is right-associative)."""
    if isinstance(ty, Base):
        return ty.name
    dom = type_text(ty.dom)
    if isinstance(ty.dom, Arrow):
        dom = f"({dom})"
    return f"{dom}>{type_text(ty.cod)}"


# Connective type used by the dual-environment calculus (profile B) and the
# combinator type used by the right-frontier calculus (profile C).
KAPPA_B = arrow(T, T, T)
KAPPA_C = arrow(G, G, G)

# Continuation and sentence types per profile.
CONT_A = arrow(G, T)
SENT_A = arrow(G, CONT_A, T)
CONT_B = arrow(KAPPA_B, G, G, T)
SENT_B = arrow(KAPPA_B, G, G, CONT_B, T)
CONT_C = arrow(KAPPA_C, G, G, T)
SENT_C = arrow(KAPPA_C, G, G, CONT_C, T)


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Lam:
    ty: SemType
    body: "Term"


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Const:
    name: str
    ty: SemType


Term = Union[Var, Lam, App, Const]


def app(fn: Term, *args: Term) -> Term:
    """Left-associated application: app(f, a, b) == App(App(f, a), b)."""
    for a in args:
        fn = App(fn, a)
    return fn


# Built-in constants.
NOT = Const("~", arrow(T, T))
AND = Const("&", KAPPA_B)
OR = Const("|", KAPPA_B)
TOP = Const("top", T)
BOT = Const("bot", T)
EXISTS = Const("Ex", arrow(arrow(E, T), T))
CONS = Const("::", arrow(E, G, G))
UNION = Const("++", KAPPA_C)
NIL = Const("nil", G)
SEL = Const("sel", arrow(G, E))

BUILTINS = {c.name: c for c in (NOT, AND, OR, TOP, BOT, EXISTS, CONS, UNION, NIL, SEL)}

# Environment combinators for the right-frontier calculus.  Coordination
# closes off the local environment, subordination keeps it open.
COORD = Lam(G, Lam(G, Var(0)))
SUB = Lam(G, Lam(G, app(UNION, Var(1), Var(0))))


# ---------------------------------------------------------------------------
# Errors

class UnboundVariable(ContsemError):
    def __init__(self, index: int, position: tuple = ()):
        self.index = index
        self.position = position
        super().__init__(f"unbound variable #{index} at {_path_text(position)}")


class TypeMismatch(ContsemError):
    def __init__(self, expected, found, position: tuple = ()):
        self.expected = expected
        self.found = found
        self.position = position
        super().__init__(
            f"type mismatch at {_path_text(position)}: expected "
            f"{_ty_or_desc(expected)}, found {_ty_or_desc(found)}"
        )


class StepBudgetExceeded(ContsemError):
    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        super().__init__(f"normalization exceeded {max_steps} steps")


def _path_text(path: tuple) -> str:
    return ".".join(path) if path else "root"


def path_steps(path) -> tuple[str, ...]:
    """The steps, root first, of a path linked as (parent, step) pairs that
    end in None.  Traversals extend a path in O(1) per node this way and
    flatten it only for an error."""
    steps = []
    while path is not None:
        path, step = path
        steps.append(step)
    return tuple(reversed(steps))


def _ty_or_desc(x) -> str:
    if isinstance(x, (Base, Arrow)):
        return type_text(x)
    return str(x)


# ---------------------------------------------------------------------------
# Structural helpers

def shift(term: Term, d: int, cutoff: int = 0) -> Term:
    """Shift free variable indices >= cutoff by d."""
    if isinstance(term, Var):
        if term.index >= cutoff:
            return Var(term.index + d)
        return term
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


def subst_consts(term: Term, mapping: dict[str, Term]) -> Term:
    """Replace named constants by closed terms, simultaneously."""
    if isinstance(term, Const) and term.name in mapping:
        return mapping[term.name]
    if isinstance(term, Lam):
        return Lam(term.ty, subst_consts(term.body, mapping))
    if isinstance(term, App):
        return App(subst_consts(term.fn, mapping), subst_consts(term.arg, mapping))
    return term


def constants(term: Term) -> dict[str, SemType]:
    """All constants occurring in the term, by name."""
    return {t.name: t.ty for t in subterms(term) if isinstance(t, Const)}


def is_closed(term: Term, depth: int = 0) -> bool:
    if isinstance(term, Var):
        return term.index < depth
    if isinstance(term, Lam):
        return is_closed(term.body, depth + 1)
    if isinstance(term, App):
        return is_closed(term.fn, depth) and is_closed(term.arg, depth)
    return True


def size(term: Term) -> int:
    if isinstance(term, Lam):
        return 1 + size(term.body)
    if isinstance(term, App):
        return 1 + size(term.fn) + size(term.arg)
    return 1


# ---------------------------------------------------------------------------
# Typechecking

def typecheck(term: Term, ctx: tuple[SemType, ...] = ()) -> SemType:
    """Type of `term` under `ctx` (innermost binder first).

    Raises UnboundVariable or TypeMismatch; positions are paths of
    'fn'/'arg'/'body' steps from the root.
    """
    return _typecheck(term, tuple(ctx), None)


def _typecheck(term, ctx, path):
    if isinstance(term, Var):
        if term.index < 0 or term.index >= len(ctx):
            raise UnboundVariable(term.index, path_steps(path))
        return ctx[term.index]
    if isinstance(term, Const):
        return term.ty
    if isinstance(term, Lam):
        body_ty = _typecheck(term.body, (term.ty,) + ctx, (path, "body"))
        return Arrow(term.ty, body_ty)
    fn_ty = _typecheck(term.fn, ctx, (path, "fn"))
    arg_ty = _typecheck(term.arg, ctx, (path, "arg"))
    if not isinstance(fn_ty, Arrow):
        raise TypeMismatch("a function type", fn_ty, path_steps((path, "fn")))
    if fn_ty.dom != arg_ty:
        raise TypeMismatch(fn_ty.dom, arg_ty, path_steps((path, "arg")))
    return fn_ty.cod


# ---------------------------------------------------------------------------
# Normalization by evaluation (Berger & Schwichtenberg 1991)

@dataclass(slots=True)
class _Closure:
    """A lambda value: its binder type and the body awaiting an argument."""
    ty: SemType
    fn: Callable


@dataclass(slots=True)
class _Neutral:
    """A head applied to a spine of argument values.  The head is a Const or
    a variable's De Bruijn level: 0 for the outermost binder, -1 - i for the
    term's free index i, so open terms read back unchanged."""
    head: Union[Const, int]
    spine: tuple = ()


def normalize(term: Term, max_steps: int = 100_000) -> Term:
    """Beta-normal form of a well-typed term, by normalization by evaluation.

    Lambdas evaluate to closures over a linked environment, arguments before
    the call, and the value is read back as a De Bruijn term.  Each closure
    application is one beta contraction; more than `max_steps` of them raise
    StepBudgetExceeded.  By confluence the result is normal order's (`trace`).
    """
    steps = 0

    def ev(t, env):
        nonlocal steps
        kind = type(t)
        if kind is App:
            fn, arg = ev(t.fn, env), ev(t.arg, env)
            if type(fn) is _Neutral:
                return _Neutral(fn.head, fn.spine + (arg,))
            steps += 1
            if steps > max_steps:
                raise StepBudgetExceeded(max_steps)
            return fn.fn(arg)
        if kind is Lam:
            return _Closure(t.ty, lambda v, body=t.body, env=env: ev(body, (v, env)))
        if kind is Var:
            i = t.index
            while env is not None:
                if i == 0:
                    return env[0]
                i, env = i - 1, env[1]
            return _Neutral(-1 - i)
        return _Neutral(t)

    def quote(v, lvl):
        if type(v) is _Closure:
            return Lam(v.ty, quote(v.fn(_Neutral(lvl)), lvl + 1))
        out = v.head if type(v.head) is Const else Var(lvl - v.head - 1)
        for arg in v.spine:
            out = App(out, quote(arg, lvl))
        return out

    return quote(ev(term, None), 0)


# ---------------------------------------------------------------------------
# Normal-order reduction, one step at a time (for --trace)

def reduce_once(term: Term) -> Optional[tuple[Term, tuple[str, ...]]]:
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
        if r is not None:
            return App(t.fn, r[0]), r[1]
        return None
    if isinstance(t, Lam):
        r = _step(t.body, path + ("body",))
        if r is not None:
            return Lam(t.ty, r[0]), r[1]
        return None
    return None


@dataclass(frozen=True)
class TraceStep:
    step: int
    position: tuple[str, ...]
    term: Term


def trace(term: Term, max_steps: int = 100_000) -> list[TraceStep]:
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


def alpha_eq(t1: Term, t2: Term) -> bool:
    """With De Bruijn terms alpha-equivalence is structural equality,
    including binder type annotations."""
    return t1 == t2


def subterms(term: Term) -> Iterator[Term]:
    """All subterms, preorder."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Lam):
            stack.append(t.body)
        elif isinstance(t, App):
            stack.append(t.arg)
            stack.append(t.fn)
