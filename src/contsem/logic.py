"""First-order logical forms.

Normal-form terms of type t are reified into Formula trees; a fixed set of
equivalence-preserving rewrites cleans them up, and a brute-force model
checker over small entity domains serves as the equivalence oracle.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .errors import ContsemError
from . import terms as tm
from .terms import App, Const, Lam, Term, Var


# ---------------------------------------------------------------------------
# Formula syntax

@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple["EntityTerm", ...] = ()


Formula = Union[Top, Bot, Not, And, Or, Exists, Atom]


@dataclass(frozen=True)
class EntConst:
    name: str


@dataclass(frozen=True)
class EntVar:
    name: str


@dataclass(frozen=True)
class NilE:
    pass


@dataclass(frozen=True)
class ConsE:
    head: "EntityTerm"
    tail: "EnvExpr"


@dataclass(frozen=True)
class UnionE:
    left: "EnvExpr"
    right: "EnvExpr"


EnvExpr = Union[NilE, ConsE, UnionE]


@dataclass(frozen=True)
class SelOf:
    env: EnvExpr
    site_id: int


EntityTerm = Union[EntConst, EntVar, SelOf]

NIL_E = NilE()


class NotReifiable(ContsemError):
    def __init__(self, position: tuple = (), reason: str = ""):
        self.position = position
        self.reason = reason
        where = ".".join(position) if position else "root"
        super().__init__(f"term is not reifiable at {where}: {reason}")


class SignatureTooLarge(ContsemError):
    pass


# ---------------------------------------------------------------------------
# Environment evaluation

def env_entries(env: EnvExpr) -> tuple[EntityTerm, ...]:
    """Referent entries of an environment, most recent first.

    Cons order is newest-at-the-head.  A union lists its right operand's
    entries before its left operand's: at selection sites the right argument
    carries the more recently introduced referents.  A referent present on
    both sides keeps the position of its left-operand (older) occurrence.
    """
    entries = []
    stack = [env]
    while stack:
        e = stack.pop()
        if isinstance(e, ConsE):
            entries.append(e.head)
            stack.append(e.tail)
        elif isinstance(e, UnionE):
            stack += (e.left, e.right)
    keep_last: dict[EntityTerm, None] = dict.fromkeys(reversed(entries))
    return tuple(reversed(keep_last))


def env_from_entries(entries) -> EnvExpr:
    out: EnvExpr = NIL_E
    for entry in reversed(list(entries)):
        out = ConsE(entry, out)
    return out


# ---------------------------------------------------------------------------
# Reification

def reify(term: Term) -> Formula:
    """Read a closed beta-normal term of type t as a Formula.

    Quantified variables get fresh names (y, y1, y2, ... in textual order)
    and every occurrence of the selection operator gets a fresh site id,
    numbered left to right.
    """
    const_names = set(tm.constants(term))
    fresh_counter = [0]
    site_counter = [0]

    def fresh_var():
        while True:
            n = fresh_counter[0]
            fresh_counter[0] += 1
            name = "y" if n == 0 else f"y{n}"
            if name not in const_names:
                return name

    def fail(path, reason):
        return NotReifiable(tm.path_steps(path), reason)

    def spine(t):
        args = []
        while isinstance(t, App):
            args.append(t.arg)
            t = t.fn
        return t, list(reversed(args))

    def go(t, bound, path) -> Formula:
        head, args = spine(t)
        if head == tm.TOP and not args:
            return Top()
        if head == tm.BOT and not args:
            return Bot()
        if head == tm.NOT and len(args) == 1:
            return Not(go(args[0], bound, (path, "arg")))
        if head in (tm.AND, tm.OR) and len(args) == 2:
            ctor = And if head == tm.AND else Or
            return ctor(go(args[0], bound, ((path, "fn"), "arg")),
                        go(args[1], bound, (path, "arg")))
        if head == tm.EXISTS and len(args) == 1:
            body = args[0]
            if not isinstance(body, Lam) or body.ty != tm.E:
                raise fail(path, "quantifier not applied to an entity property")
            name = fresh_var()
            return Exists(name, go(body.body, (name,) + bound, ((path, "arg"), "body")))
        if isinstance(head, Const) and head.name not in tm.BUILTINS:
            ent_args = tuple(entity(a, bound, (path, "arg")) for a in args)
            if _pred_arity_ok(head.ty, len(args)):
                return Atom(head.name, ent_args)
        raise fail(path, "not in the reifiable fragment")

    def entity(t, bound, path) -> EntityTerm:
        if isinstance(t, Var):
            if t.index >= len(bound):
                raise fail(path, "entity variable escapes its quantifier")
            return EntVar(bound[t.index])
        if isinstance(t, Const) and t.ty == tm.E and t.name not in tm.BUILTINS:
            return EntConst(t.name)
        head, args = spine(t)
        if head == tm.SEL and len(args) == 1:
            site = site_counter[0]
            site_counter[0] += 1
            return SelOf(environment(args[0], bound, (path, "arg")), site)
        raise fail(path, "not an entity term")

    def environment(t, bound, path) -> EnvExpr:
        if t == tm.NIL:
            return NIL_E
        head, args = spine(t)
        if head == tm.CONS and len(args) == 2:
            h = entity(args[0], bound, ((path, "fn"), "arg"))
            if isinstance(h, SelOf):
                raise fail(path, "selection result used as an environment entry")
            return ConsE(h, environment(args[1], bound, (path, "arg")))
        if head == tm.UNION and len(args) == 2:
            return UnionE(environment(args[0], bound, ((path, "fn"), "arg")),
                          environment(args[1], bound, (path, "arg")))
        raise fail(path, "not an environment expression")

    return go(term, (), None)


def _pred_arity_ok(ty, n):
    for _ in range(n):
        if not (isinstance(ty, tm.Arrow) and ty.dom == tm.E):
            return False
        ty = ty.cod
    return ty == tm.T


# ---------------------------------------------------------------------------
# Formula utilities

def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Exists):
        return free_vars(f.body) - {f.var}
    return frozenset(itertools.chain.from_iterable(_ent_vars(a) for a in f.args))


def _ent_vars(e: EntityTerm):
    if isinstance(e, EntVar):
        yield e.name
    elif isinstance(e, SelOf):
        yield from _env_vars(e.env)


def _env_vars(env: EnvExpr):
    if isinstance(env, ConsE):
        yield from _ent_vars(env.head)
        yield from _env_vars(env.tail)
    elif isinstance(env, UnionE):
        yield from _env_vars(env.left)
        yield from _env_vars(env.right)


def alpha_eq(f1: Formula, f2: Formula) -> bool:
    """Equality up to renaming of bound variables and selection site ids."""
    return _aeq(f1, f2, {})


def _aeq(f1, f2, ren):
    if type(f1) is not type(f2):
        return False
    if isinstance(f1, (Top, Bot)):
        return True
    if isinstance(f1, Not):
        return _aeq(f1.body, f2.body, ren)
    if isinstance(f1, (And, Or)):
        return _aeq(f1.left, f2.left, ren) and _aeq(f1.right, f2.right, ren)
    if isinstance(f1, Exists):
        return _aeq(f1.body, f2.body, {**ren, f1.var: f2.var})
    return f1.pred == f2.pred and len(f1.args) == len(f2.args) and all(
        _ent_aeq(a, b, ren) for a, b in zip(f1.args, f2.args)
    )


def _ent_aeq(a, b, ren):
    if type(a) is not type(b):
        return False
    if isinstance(a, EntConst):
        return a.name == b.name
    if isinstance(a, EntVar):
        return ren.get(a.name, a.name) == b.name
    return _env_aeq(a.env, b.env, ren)


def _env_aeq(a, b, ren):
    if type(a) is not type(b):
        return False
    if isinstance(a, NilE):
        return True
    if isinstance(a, ConsE):
        return _ent_aeq(a.head, b.head, ren) and _env_aeq(a.tail, b.tail, ren)
    return _env_aeq(a.left, b.left, ren) and _env_aeq(a.right, b.right, ren)


# ---------------------------------------------------------------------------
# Simplification

_SIMPLIFY_PASS_CAP = 1000


def simplify(f: Formula) -> Formula:
    """Apply the cleanup rewrites to a fixed point, innermost first.

    Rules: connective unit laws (including ~top / ~bot), double negation,
    De Morgan on negated conjunctions/disjunctions (negation is never pushed
    through a quantifier), extraction of quantifier-free conjuncts and
    disjuncts out of an existential's scope, fusion of a shared continuation
    tail (A op K) and (B op K) into (A and B) op K, and evaluation of union
    environments under selection sites.  Every rule preserves logical
    equivalence; the result is a fixed point of the rule set.
    """
    for _ in range(_SIMPLIFY_PASS_CAP):
        nxt = _simplify_pass(f)
        if nxt == f:
            return f
        f = nxt
    raise RuntimeError("simplify failed to reach a fixed point")


def _simplify_pass(f: Formula) -> Formula:
    if isinstance(f, Not):
        body = _simplify_pass(f.body)
        if isinstance(body, Top):
            return Bot()
        if isinstance(body, Bot):
            return Top()
        if isinstance(body, Not):
            return body.body
        if isinstance(body, And):
            return Or(Not(body.left), Not(body.right))
        if isinstance(body, Or):
            return And(Not(body.left), Not(body.right))
        return Not(body)
    if isinstance(f, And):
        left = _simplify_pass(f.left)
        right = _simplify_pass(f.right)
        if isinstance(left, Top):
            return right
        if isinstance(right, Top):
            return left
        if isinstance(left, Bot) or isinstance(right, Bot):
            return Bot()
        fused = _fuse(left, right)
        if fused is not None:
            return fused
        return And(left, right)
    if isinstance(f, Or):
        left = _simplify_pass(f.left)
        right = _simplify_pass(f.right)
        if isinstance(left, Bot):
            return right
        if isinstance(right, Bot):
            return left
        if isinstance(left, Top) or isinstance(right, Top):
            return Top()
        return Or(left, right)
    if isinstance(f, Exists):
        body = _simplify_pass(f.body)
        if isinstance(body, (And, Or)):
            ctor = type(body)
            if f.var not in free_vars(body.right):
                return ctor(Exists(f.var, body.left), body.right)
            if f.var not in free_vars(body.left):
                return ctor(body.left, Exists(f.var, body.right))
        return Exists(f.var, body)
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(_simplify_entity(a) for a in f.args))
    return f


def _fuse(left: Formula, right: Formula) -> Optional[Formula]:
    # (A op K) and (B op K) == (A and B) op K when the two tails agree up to
    # bound renaming and selection site ids.
    for ctor in (Or, And):
        if isinstance(left, ctor) and isinstance(right, ctor):
            if alpha_eq(left.right, right.right):
                return ctor(And(left.left, right.left), left.right)
    return None


def _simplify_entity(e: EntityTerm) -> EntityTerm:
    if isinstance(e, SelOf):
        canonical = env_from_entries(env_entries(e.env))
        return SelOf(canonical, e.site_id)
    return e


# ---------------------------------------------------------------------------
# Brute-force equivalence oracle

_EXHAUSTIVE_MAX_ARITY = 2
_EXHAUSTIVE_MAX_ATOMS = 6
_EXHAUSTIVE_MAX_INTERPS = 4_000_000


def logically_equiv(f1: Formula, f2: Formula, domain_size: int,
                    method: str = "auto", samples: int = 10_000,
                    seed: int = 0) -> bool:
    """True iff no interpretation over a domain of the given size separates
    the two formulas.

    Selection sites are frozen to entity constants first; sites whose
    environments evaluate to the same referent sequence share a constant.
    All interpretations are enumerated when every predicate has arity <= 2
    and the formulas mention at most 6 distinct atoms (and the model space is
    small enough to walk); otherwise `samples` random interpretations are
    checked.  method='exhaustive' insists on enumeration and raises
    SignatureTooLarge beyond those bounds; method='sampled' always samples.
    """
    if not 1 <= domain_size <= 4:
        raise ValueError("domain_size must be between 1 and 4")
    if method not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown method {method!r}")

    frozen: dict[tuple, str] = {}
    f1 = _freeze_sels(f1, frozen)
    f2 = _freeze_sels(f2, frozen)

    preds: dict[str, int] = {}
    consts: set[str] = set()
    atoms: set[tuple] = set()
    for f in (f1, f2):
        _signature(f, preds, consts, atoms)
    const_names = sorted(consts)
    pred_names = sorted(preds)

    n = domain_size
    cells = [n ** preds[p] for p in pred_names]
    total = float(n) ** len(const_names)
    for c in cells:
        total *= float(2) ** c

    within_bounds = (
        all(preds[p] <= _EXHAUSTIVE_MAX_ARITY for p in pred_names)
        and len(atoms) <= _EXHAUSTIVE_MAX_ATOMS
        and total <= _EXHAUSTIVE_MAX_INTERPS
    )
    if method == "exhaustive" and not within_bounds:
        raise SignatureTooLarge(
            f"{len(atoms)} atoms, max arity "
            f"{max((preds[p] for p in pred_names), default=0)}, "
            f"{total:.3g} interpretations"
        )
    exhaustive = within_bounds if method == "auto" else method == "exhaustive"

    const_index = {c: i for i, c in enumerate(const_names)}
    pred_index = {p: i for i, p in enumerate(pred_names)}
    eval1 = _compile(f1, const_index, pred_index, preds, {}, n)
    eval2 = _compile(f2, const_index, pred_index, preds, {}, n)

    if exhaustive:
        factors = [range(n)] * len(const_names) + [range(2 ** c) for c in cells]
        split = len(const_names)
        for point in itertools.product(*factors):
            cvals, masks = point[:split], point[split:]
            if eval1(cvals, masks, ()) != eval2(cvals, masks, ()):
                return False
        return True

    rng = random.Random(seed)
    for _ in range(samples):
        cvals = tuple(rng.randrange(n) for _ in const_names)
        masks = tuple(rng.randrange(2 ** c) for c in cells)
        if eval1(cvals, masks, ()) != eval2(cvals, masks, ()):
            return False
    return True


def _freeze_sels(f: Formula, frozen: dict[tuple, str]) -> Formula:
    def fm(g):
        if isinstance(g, Not):
            return Not(fm(g.body))
        if isinstance(g, (And, Or)):
            return type(g)(fm(g.left), fm(g.right))
        if isinstance(g, Exists):
            return Exists(g.var, fm(g.body))
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(ent(a) for a in g.args))
        return g

    def ent(a):
        if isinstance(a, SelOf):
            key = env_entries(a.env)
            if key not in frozen:
                frozen[key] = f"_sel{len(frozen)}"
            return EntConst(frozen[key])
        return a

    return fm(f)


def _signature(f, preds, consts, atoms):
    if isinstance(f, Not):
        _signature(f.body, preds, consts, atoms)
    elif isinstance(f, (And, Or)):
        _signature(f.left, preds, consts, atoms)
        _signature(f.right, preds, consts, atoms)
    elif isinstance(f, Exists):
        _signature(f.body, preds, consts, atoms)
    elif isinstance(f, Atom):
        arity = len(f.args)
        if preds.setdefault(f.pred, arity) != arity:
            raise ValueError(f"predicate {f.pred!r} used at inconsistent arities")
        atoms.add((f.pred, f.args))
        for a in f.args:
            if isinstance(a, EntConst):
                consts.add(a.name)
            elif isinstance(a, SelOf):
                raise ValueError("selection sites must be frozen before evaluation")


def _compile(f, const_index, pred_index, preds, venv, n) -> Callable:
    """Compile a formula into a closure over (const values, pred masks, var
    values).  Predicate tables are bitmasks over domain tuples."""
    if isinstance(f, Top):
        return lambda C, M, V: True
    if isinstance(f, Bot):
        return lambda C, M, V: False
    if isinstance(f, Not):
        body = _compile(f.body, const_index, pred_index, preds, venv, n)
        return lambda C, M, V: not body(C, M, V)
    if isinstance(f, And):
        left = _compile(f.left, const_index, pred_index, preds, venv, n)
        right = _compile(f.right, const_index, pred_index, preds, venv, n)
        return lambda C, M, V: left(C, M, V) and right(C, M, V)
    if isinstance(f, Or):
        left = _compile(f.left, const_index, pred_index, preds, venv, n)
        right = _compile(f.right, const_index, pred_index, preds, venv, n)
        return lambda C, M, V: left(C, M, V) or right(C, M, V)
    if isinstance(f, Exists):
        inner = dict(venv)
        inner[f.var] = len(venv)
        body = _compile(f.body, const_index, pred_index, preds, inner, n)
        return lambda C, M, V: any(body(C, M, V + (d,)) for d in range(n))
    pi = pred_index[f.pred]
    arg_fns = []
    for a in f.args:
        if isinstance(a, EntConst):
            ci = const_index[a.name]
            arg_fns.append(lambda C, V, ci=ci: C[ci])
        elif isinstance(a, EntVar):
            if a.name not in venv:
                raise ValueError(f"free entity variable {a.name!r}")
            slot = venv[a.name]
            arg_fns.append(lambda C, V, slot=slot: V[slot])
        else:
            raise ValueError("selection sites must be frozen before evaluation")

    def atom(C, M, V):
        idx = 0
        for g in reversed(arg_fns):
            idx = idx * n + g(C, V)
        return bool((M[pi] >> idx) & 1)

    return atom


# ---------------------------------------------------------------------------
# Rendering

def formula_text(f: Formula) -> str:
    """Concrete rendering: `~`, `&`, `|`, `Ex y.`, `sel(...)`, `::`, `++`."""
    return _ftext(f)


def _right_open(f: Formula) -> bool:
    # Renders with an unbounded right edge (an existential body), so it needs
    # parentheses anywhere more input follows on the same level.
    if isinstance(f, Exists):
        return True
    if isinstance(f, Not):
        return _right_open(f.body)
    if isinstance(f, (And, Or)):
        return _right_open(f.right)
    return False


def _ftext(f: Formula) -> str:
    if isinstance(f, Top):
        return "top"
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, Atom):
        parts = [f.pred]
        for a in f.args:
            if isinstance(a, SelOf):
                parts[-1] = parts[-1] + f"({entity_text(a)})"
            else:
                parts.append(entity_text(a))
        return " ".join(parts)
    if isinstance(f, Not):
        body = _ftext(f.body)
        if isinstance(f.body, (And, Or)):
            body = f"({body})"
        return f"~ {body}"
    if isinstance(f, Exists):
        body = _ftext(f.body)
        if isinstance(f.body, (And, Or)):
            body = f"({body})"
        return f"Ex {f.var}. {body}"
    op = "&" if isinstance(f, And) else "|"
    left = _ftext(f.left)
    if isinstance(f.left, type(f)) or isinstance(f.left, Or) or _right_open(f.left):
        left = f"({left})"
    right = _ftext(f.right)
    if isinstance(f, And) and isinstance(f.right, Or):
        right = f"({right})"
    return f"{left} {op} {right}"


def entity_text(e: EntityTerm) -> str:
    if isinstance(e, EntConst) or isinstance(e, EntVar):
        return e.name
    return f"sel({env_text(e.env)})"


def env_text(env: EnvExpr) -> str:
    if isinstance(env, NilE):
        return "nil"
    if isinstance(env, ConsE):
        return f"{entity_text(env.head)}::{env_text(env.tail)}"
    left = env_text(env.left)
    if isinstance(env.left, (ConsE, UnionE)):
        left = f"({left})"
    right = env_text(env.right)
    if isinstance(env.right, (ConsE, UnionE)):
        right = f"({right})"
    return f"{left}++{right}"


def formula_json(f: Formula) -> dict:
    """Structured rendering with explicit node tags and selection site ids."""
    if isinstance(f, Top):
        return {"node": "top"}
    if isinstance(f, Bot):
        return {"node": "bot"}
    if isinstance(f, Not):
        return {"node": "not", "body": formula_json(f.body)}
    if isinstance(f, (And, Or)):
        tag = "and" if isinstance(f, And) else "or"
        return {"node": tag, "left": formula_json(f.left),
                "right": formula_json(f.right)}
    if isinstance(f, Exists):
        return {"node": "exists", "var": f.var, "body": formula_json(f.body)}
    return {"node": "atom", "pred": f.pred,
            "args": [entity_json(a) for a in f.args]}


def entity_json(e: EntityTerm) -> dict:
    if isinstance(e, EntConst):
        return {"entity": "const", "name": e.name}
    if isinstance(e, EntVar):
        return {"entity": "var", "name": e.name}
    return {"entity": "sel", "site": e.site_id, "env": env_json(e.env)}


def env_json(env: EnvExpr) -> dict:
    if isinstance(env, NilE):
        return {"env": "nil"}
    if isinstance(env, ConsE):
        return {"env": "cons", "head": entity_json(env.head),
                "tail": env_json(env.tail)}
    return {"env": "union", "left": env_json(env.left),
            "right": env_json(env.right)}
