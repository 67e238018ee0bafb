"""Simply typed lambda-calculus kernel.

Terms use De Bruijn indices (0 = nearest binder), so alpha-equivalence is
plain structural equality.  Binders carry mandatory type annotations, which
makes typechecking decidable without inference.  All values are immutable.
"""
from __future__ import annotations

import gc
from operator import attrgetter

from .errors import ContsemError
from .node import Node


# ---------------------------------------------------------------------------
# Semantic types

# A type's `text` is its concrete syntax (`>` is right-associative), built from its parts'
# with a short type, and on its first read for a long one: a deep type's parts keep none.

class Base(Node):
    __slots__ = {"name": "str"}
    _keywords = False
    text = property(attrgetter("name"))


class Arrow(Node):
    __slots__ = {"dom": "SemType", "cod": "SemType", "text": "str"}
    _fields = ("dom", "cod")
    _keywords = False

    def __init__(self, dom: SemType, cod: SemType):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        try:
            text = f"({_read_text(dom)})>" if type(dom) is Arrow else f"{dom.name}>"
            text += _read_text(cod) if type(cod) is Arrow else cod.name
            if len(text) < 256:
                object.__setattr__(self, "text", text)
        except AttributeError:      # a part without text: this type is long too
            pass

    def __getattr__(self, name):    # only for a slot not yet set
        if name != "text":
            raise AttributeError(name)
        out, todo = [], [self]      # pending types and text, last first
        while todo:
            ty = todo.pop()
            if type(ty) is Arrow:
                todo += (ty.cod, ">", ")", ty.dom, "(") if type(ty.dom) is Arrow \
                    else (ty.cod, ">", ty.dom)
            else:
                out.append(ty if type(ty) is str else ty.name)
        text = "".join(out)
        object.__setattr__(self, "text", text)
        return text


SemType = Base | Arrow
_read_text = Arrow.text.__get__     # the slot only: no __getattr__

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

class Var(Node):
    __slots__ = {"index": "int"}


class Lam(Node):
    __slots__ = {"ty": "SemType", "body": "Term"}


class App(Node):
    __slots__ = {"fn": "Term", "arg": "Term"}


class Const(Node):
    __slots__ = {"name": "str", "ty": "SemType"}


Term = Var | Lam | App | Const


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
            f"{getattr(expected, 'text', expected)}, "
            f"found {getattr(found, 'text', found)}"
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


def chosen(name: str, prefix: str, first: int, count: int) -> bool:
    """Whether `name` is one of `count` fresh names prefix<k> from k = `first` on,
    prefix alone for k = 0 (`pretty`'s x1, x2, ...; the formula printers' y, y1,
    ...): read off the name, so the test costs the same whatever `count` is."""
    k, end = name[len(prefix):], first + count
    if not name.startswith(prefix) or len(k) > len(str(end)):  # int() refuses 4301 digits
        return False
    return (k.isascii() and k.isdigit() and k[0] != "0" and first <= int(k) < end
            if k else first == 0 < end)


# ---------------------------------------------------------------------------
# Typechecking

def typecheck(term: Term, ctx: tuple[SemType, ...] = ()) -> SemType:
    """Type of `term` under `ctx` (innermost binder first).

    Raises UnboundVariable or TypeMismatch; positions are paths of
    'fn'/'arg'/'body' steps from the root.  One loop over an explicit stack
    visits each subterm, and leaves a Lam or App (depth None) once its parts
    are typed; binder types are kept by depth.
    """
    types, done = list(ctx)[::-1], []   # binder types by depth; the subterms' types
    work: list = [(term, len(types), None)]
    while work:
        t, depth, path = work.pop()
        kind = type(t)
        if kind is App and depth is not None:
            work += ((t, None, path), (t.arg, depth, (path, "arg")), (t.fn, depth, (path, "fn")))
        elif kind is Var:
            if not 0 <= t.index < depth:
                raise UnboundVariable(t.index, path_steps(path))
            done.append(types[depth - 1 - t.index])
        elif kind is Const:
            done.append(t.ty)
        elif kind is Lam and depth is not None:
            types[depth:] = (t.ty,)
            work += ((t, None, path), (t.body, depth + 1, (path, "body")))
        elif kind is Lam:
            done[-1] = Arrow(t.ty, done[-1])
        elif type(done[-2]) is not Arrow:
            raise TypeMismatch("a function type", done[-2], path_steps((path, "fn")))
        elif done[-2].dom.text != done[-1].text:
            raise TypeMismatch(done[-2].dom, done[-1], path_steps((path, "arg")))
        else:
            done[-2:] = (done[-2].cod,)
    return done[0]


# ---------------------------------------------------------------------------
# Normalization by evaluation (Berger & Schwichtenberg 1991)

MAX_STEPS = 100_000     # the default step budget, of `--max-steps` and every reducer


class paused_collector:
    """A `with` block: the cyclic collector is off in it, and after it as the caller had it."""
    def __new__(cls):
        enabled = gc.isenabled()
        gc.disable()                # first: making this object could start a collection
        self = object.__new__(cls)
        self.enabled = enabled
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.enabled:
            gc.enable()


def normalize(term: Term, max_steps: int = MAX_STEPS) -> Term:
    """Beta-normal form of a well-typed term, by normalization by evaluation.

    Lambdas evaluate to closures over a linked environment, arguments before
    the call, and the value is read back as a De Bruijn term.  Each closure
    application is one beta contraction; more than `max_steps` of them raise
    StepBudgetExceeded.  By confluence the result is normal order's (`trace`).
    Neutrals are (head, *spine) tuples, a head a Const or a De Bruijn level
    (-1 - i for the free index i).  A closure [binder type, body, env, last
    argument, its value, its steps, read-back level, its Lam, its steps] is
    not evaluated again when applied to the same value (`is`) or read back
    at the same level: the result is shared, and its steps count again.  The
    cyclic collector is paused during the call, and what the closures
    remember is dropped on return, so a call leaves it nothing to collect.
    """
    steps = 0
    neutrals: list = []     # neutrals[lvl]: the variable bound at level lvl
    remembered: list = []   # closures that hold an argument and its value

    def ev(t, env):
        nonlocal steps
        kind = type(t)
        if kind is App:
            fn, arg = ev(t.fn, env), ev(t.arg, env)
            if type(fn) is tuple:
                return fn + (arg,)
            steps += 1 + fn[5] if fn[3] is arg else 1
            if steps > max_steps:
                raise StepBudgetExceeded(max_steps)
            if fn[3] is not arg:    # its steps are read after it has run
                before = steps
                fn[3], fn[4], fn[5] = arg, ev(fn[1], (arg, fn[2])), steps - before
                remembered.append(fn)
            return fn[4]
        if kind is Lam:
            return [t.ty, t.body, env, None, None, 0, None, None, 0]
        if kind is Var:
            i = t.index
            while env is not None:
                if i == 0:
                    return env[0]
                i, env = i - 1, env[1]
            return (-1 - i,)
        return (t,)

    def quote(v, lvl):      # its applications are no steps
        nonlocal steps
        if type(v) is tuple:
            out = v[0] if type(v[0]) is Const else Var(lvl - v[0] - 1)
            for arg in v[1:]:
                out = App(out, quote(arg, lvl))
            return out
        if v[6] != lvl:
            if lvl == len(neutrals):
                neutrals.append((lvl,))
            before = steps
            body = quote(ev(v[1], (neutrals[lvl], v[2])), lvl + 1)
            v[6], v[7], v[8] = lvl, Lam(v[0], body), steps - before
        else:
            steps += v[8]
        return v[7]

    with paused_collector():
        try:
            normal = quote(ev(term, None), 0)
        finally:    # cycles: a value can hold its own closure, ev and quote hold themselves
            for c in remembered:
                c[3] = c[4] = None
            ev = quote = None
    if steps > max_steps:   # reuse since the last step
        raise StepBudgetExceeded(max_steps)
    return normal
