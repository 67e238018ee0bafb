"""First-order logical forms.

Normal-form terms of type t are reified into Formula trees; a fixed set of
equivalence-preserving rewrites cleans them up, and a brute-force model
checker over small entity domains serves as the equivalence oracle.
"""
from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterator
from operator import attrgetter

from .errors import ContsemError
from .node import Node
from . import terms as tm
from .terms import App, Const, Lam, Term, Var


# ---------------------------------------------------------------------------
# Formula syntax

class Top(Node):
    __slots__ = ()


class Bot(Node):
    __slots__ = ()


class Not(Node):
    __slots__ = {"body": "Formula"}


class And(Node):
    __slots__ = {"left": "Formula", "right": "Formula"}


class Or(Node):
    __slots__ = {"left": "Formula", "right": "Formula"}


class Exists(Node):
    __slots__ = {"var": "str", "body": "Formula"}


class Atom(Node):
    __slots__ = {"pred": "str", "args": "tuple[EntityTerm, ...]"}
    _defaults = {"args": ()}


Formula = Top | Bot | Not | And | Or | Exists | Atom


class EntConst(Node):
    __slots__ = {"name": "str"}


class EntVar(Node):
    __slots__ = {"name": "str"}


class NilE(Node):
    __slots__ = ()


class ConsE(Node):
    __slots__ = {"head": "EntityTerm", "tail": "EnvExpr"}


class UnionE(Node):
    __slots__ = {"left": "EnvExpr", "right": "EnvExpr"}


EnvExpr = NilE | ConsE | UnionE


class SelOf(Node):
    __slots__ = {"env": "EnvExpr", "site_id": "int"}


EntityTerm = EntConst | EntVar | SelOf

NIL_E = NilE()

_OPEN = object()     # see `_FORMS`


def _form(tag_key: str, tag: str, *pieces, **scalars) -> tuple:
    """A row of `_FORMS`: the tag key and tag, the scalars and the children
    as (JSON key, getter), and the text pieces last first, as a stack takes
    them: literal text, a scalar's getter, or (getter, classes, open?)."""
    kids = [p for p in pieces if type(p) is tuple and p[0] not in scalars.values()]
    text = [p if type(p) is str else attrgetter(p[0]) if p not in kids
            else (attrgetter(p[0]), frozenset(p[1:]) - {_OPEN}, _OPEN in p) for p in pieces]
    return (tag_key, tag, [(k, attrgetter(f)) for k, f in scalars.items()],
            [(p[0], attrgetter(p[0])) for p in kids], text[::-1])


# The syntax of formulas, entity terms and environments, read by
# `formula_text`, `formula_json` and `alpha_eq`.  Per class: the JSON tag key
# and tag, the text pieces in order, and the scalar fields by JSON key.  A
# piece is literal text or a field.  A scalar field prints its value; a child
# prints in parentheses when its class is listed with the field, or, with
# _OPEN, when its text is right-open.  Of an atom's `args`, each prints
# after a space, but a selection is glued on in parentheses.
_FORMS = {
    Top: _form("node", "top", "top"),
    Bot: _form("node", "bot", "bot"),
    Not: _form("node", "not", "~ ", ("body", And, Or)),
    And: _form("node", "and", ("left", And, Or, _OPEN), " & ", ("right", Or)),
    Or: _form("node", "or", ("left", Or, _OPEN), " | ", ("right",)),
    Exists: _form("node", "exists", "Ex ", ("var",), ". ", ("body", And, Or), var="var"),
    Atom: _form("node", "atom", ("pred",), ("args",), pred="pred"),
    EntConst: _form("entity", "const", ("name",), name="name"),
    EntVar: _form("entity", "var", ("name",), name="name"),
    SelOf: _form("entity", "sel", "sel(", ("env",), ")", site="site_id"),
    NilE: _form("env", "nil", "nil"),
    ConsE: _form("env", "cons", ("head",), "::", ("tail",)),
    UnionE: _form("env", "union", ("left", ConsE, UnionE), "++", ("right", ConsE, UnionE)),
}


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

# The builtins as `reify` reads them, by name: the builtin, its class, and
# the sorts its type gives its result and its arguments, the last argument
# first.  A sort is a type's text: `t` a formula, `e` an entity term, `g` an
# environment, and `Ex`'s `e>t` a binder.
def _reading(builtin: Const, cls: type) -> tuple:
    sorts, ty = [], builtin.ty
    while type(ty) is tm.Arrow:
        sorts, ty = [ty.dom.text, *sorts], ty.cod
    return builtin, cls, ty.text, sorts


_READINGS = {b.name: _reading(b, cls) for b, cls in (
    (tm.TOP, Top), (tm.BOT, Bot), (tm.NOT, Not), (tm.AND, And), (tm.OR, Or), (tm.EXISTS, Exists),
    (tm.SEL, SelOf), (tm.NIL, NilE), (tm.CONS, ConsE), (tm.UNION, UnionE))}
_NOT_A = {"t": "not in the reifiable fragment", "e": "not an entity term",
          "g": "not an environment expression"}     # the rejection at each sort


def _entity(t: Term, names: list[str], depth: int, used: set[str]) -> EntityTerm | None:
    """A bound variable's or an entity constant's reading; None for other terms."""
    if type(t) is Var:
        return EntVar(names[depth - 1 - t.index]) if 0 <= t.index < depth else None
    if type(t) is Const and t.ty.text == "e" and t.name not in _READINGS:
        used.add(t.name)
        return EntConst(t.name)
    return None


def reify(term: Term) -> Formula:
    """Read a closed beta-normal term of type t as a Formula.

    Quantified variables get fresh names (y, y1, y2, ... in textual order,
    skipping constants' names) and every occurrence of the selection operator
    gets a fresh site id, numbered left to right.  A second walk runs only
    when a name the first chose turns out to be a constant's.  A walk is one
    loop over a stack of visits, (sort, term, binder depth, path), and of
    builds, (class, field, atom arity, path), which make a node of the
    results on top or, of class NotReifiable, reject what was just read.
    """
    avoid = ()
    while True:
        names, used, fresh, sites, done = [], set(), 0, 0, []   # names: by binder depth
        work: list = [("t", term, 0, None)]
        while work:
            sort, t, depth, path = work.pop()
            if type(sort) is str:
                head, args = t, []
                while type(head) is App:
                    args.append(head.arg)
                    head = head.fn
                reading = _READINGS.get(head.name) if type(head) is Const else None
                if reading:
                    builtin, cls, result, sorts = reading
                    if (head is not builtin and head != builtin or result != sort
                            or len(args) != len(sorts)):
                        raise NotReifiable(tm.path_steps(path), _NOT_A[sort])
                    if cls is Exists:
                        (body,), binder = args, builtin.ty.dom
                        if type(body) is not Lam or body.ty.text != binder.dom.text:
                            raise NotReifiable(tm.path_steps(path),
                                               "quantifier not applied to an entity property")
                        name, fresh = f"y{fresh}" if fresh else "y", fresh + 1
                        while name in avoid:
                            name, fresh = f"y{fresh}", fresh + 1
                        names[depth:] = (name,)
                        done.append(name)           # under the body, for the build
                        work += ((Exists, None, None, path),
                                 (binder.cod.text, body.body, depth + 1, ((path, "arg"), "body")))
                        continue
                    if cls is ConsE:    # the entry, args[1], is read here if _entity can
                        if read := _entity(args[1], names, depth, used):
                            done.append(read)       # under the tail, for the build
                            work += ((ConsE, None, None, path),
                                     (sorts[0], args[0], depth, (path, "arg")))
                        else:   # any other is rejected, by its visit or as a selection
                            reason = "selection result used as an environment entry"
                            work += ((NotReifiable, reason, None, path),
                                     (sorts[1], args[1], depth, ((path, "fn"), "arg")))
                        continue
                    if not args:
                        done.append(cls())
                        continue
                    while cls is Not and type(args[0]) is App and args[0].fn is tm.NOT:
                        work.append((Not, None, None, None))    # a run of negations
                        args, path = [args[0].arg], (path, "arg")
                    work.append((cls, sites, None, path))      # a selection's site id
                    sites += cls is SelOf
                elif type(head) is Const and sort == "t":   # an atom: arguments, then head type
                    work.append((Atom, head, len(args), path))
                    sorts = ("e",) * len(args)
                elif sort == "e" and not args and (read := _entity(head, names, depth, used)):
                    done.append(read)
                    continue
                else:
                    raise NotReifiable(tm.path_steps(path), (
                        "entity variable escapes its quantifier"
                        if sort == "e" and not args and type(head) is Var else _NOT_A[sort]))
                for arg, arg_sort in zip(args, sorts):      # the last argument first
                    work.append((arg_sort, arg, depth, (path, "arg")))
                    path = (path, "fn")
            elif sort is Not or sort is SelOf:
                done[-1] = Not(done[-1]) if sort is Not else SelOf(done[-1], t)
            elif sort is Atom and t.ty.text == "e>" * depth + "t":  # an `e` per argument
                used.add(t.name)
                k = len(done) - depth
                done[k:] = [Atom(t.name, tuple(done[k:]))]
            elif sort is Atom or sort is NotReifiable:
                raise NotReifiable(tm.path_steps(path), _NOT_A["t"] if sort is Atom else t)
            else:                                           # And, Or, Exists, ConsE, UnionE
                right = done.pop()
                done[-1] = sort(done[-1], right)
        if avoid or used.isdisjoint(f"y{i}" if i else "y" for i in range(fresh)):
            return done[0]
        avoid = used


# ---------------------------------------------------------------------------
# Formula utilities

def iter_atoms(f: Formula) -> Iterator[Atom]:
    """The atoms of a formula, left to right."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Not, Exists)):
            stack.append(g.body)
        elif isinstance(g, (And, Or)):
            stack += (g.right, g.left)
        elif isinstance(g, Atom):
            yield g


def map_atoms(f: Formula, fn: Callable[[Atom], Formula]) -> Formula:
    """The formula with each atom replaced by fn(atom), called left to right;
    rebuilt bottom-up over an explicit stack."""
    done: list[Formula] = []
    work: list = [f]
    while work:
        g = work.pop()
        if isinstance(g, tuple):            # (class, bound name): rebuild
            kind, var = g
            right = done.pop()
            if kind is Exists:
                done.append(Exists(var, right))
            else:
                done.append(Not(right) if kind is Not else kind(done.pop(), right))
        elif isinstance(g, (And, Or)):
            work += ((type(g), None), g.right, g.left)
        elif isinstance(g, (Not, Exists)):
            work += ((type(g), g.var if isinstance(g, Exists) else None), g.body)
        else:
            done.append(fn(g) if isinstance(g, Atom) else g)
    return done[0]


def alpha_eq(f1: Formula, f2: Formula) -> bool:
    """Equality up to renaming of bound variables and selection site ids."""
    ren: dict[str, str] = {}
    stack: list = [(f1, f2)]
    while stack:
        a, b = stack.pop()
        if a is None:                   # leaving a binder: b is (var, shadowed)
            var, shadowed = b
            if shadowed is None:
                del ren[var]
            else:
                ren[var] = shadowed
        elif type(a) is not type(b):
            return False
        elif isinstance(a, Exists):
            stack.append((None, (a.var, ren.get(a.var))))
            ren[a.var] = b.var
            stack.append((a.body, b.body))
        elif isinstance(a, Atom):
            if a.pred != b.pred or len(a.args) != len(b.args):
                return False
            stack += zip(a.args, b.args)
        elif isinstance(a, EntVar):
            if ren.get(a.name, a.name) != b.name:
                return False
        elif isinstance(a, EntConst):
            if a.name != b.name:
                return False
        else:                           # children only: site ids are ignored
            stack += [(get(a), get(b)) for _, get in _FORMS[type(a)][3]]
    return True


def _atom_vars(f: Atom) -> frozenset[str]:
    names = []
    stack: list = list(f.args)
    while stack:
        e = stack.pop()
        if isinstance(e, EntVar):
            names.append(e.name)
        elif isinstance(e, SelOf):
            stack += env_entries(e.env)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Simplification

# `simplify`'s work-stack instructions, besides the connective classes that
# rebuild a node from simplified operands: visit an input node, push a result.
_VISIT, _PUSH = object(), object()


def simplify(f: Formula) -> Formula:
    """Apply the cleanup rewrites in one bottom-up pass.

    Rules: connective unit laws (including ~top / ~bot), double negation,
    De Morgan on negated conjunctions/disjunctions (negation is never pushed
    through a quantifier), extraction of quantifier-free conjuncts and
    disjuncts out of an existential's scope, fusion of a shared continuation
    tail (A op K) and (B op K) into (A and B) op K, and evaluation of union
    environments under selection sites.  Every rule preserves logical
    equivalence.  Each node is rebuilt from its simplified children by the
    rules at that node; the nodes a rule builds go back on the work stack,
    so the result is a fixed point of the rule set and deep formulas do not
    recurse.  Free variables are computed only where extraction asks.
    """
    free: dict[int, tuple[Formula, frozenset[str]]] = {}   # id -> (node, vars)

    def free_vars(g: Formula) -> frozenset[str]:
        todo, stack = [], [g]
        while stack:                        # nodes not yet known, parents first
            h = stack.pop()
            if id(h) not in free:
                todo.append(h)
                if isinstance(h, (Not, Exists)):
                    stack.append(h.body)
                elif isinstance(h, (And, Or)):
                    stack += (h.left, h.right)
        for h in reversed(todo):
            if isinstance(h, (And, Or)):
                names = free[id(h.left)][1] | free[id(h.right)][1]
            elif isinstance(h, Not):
                names = free[id(h.body)][1]
            elif isinstance(h, Exists):
                names = free[id(h.body)][1] - {h.var}
            else:
                names = _atom_vars(h) if isinstance(h, Atom) else frozenset()
            free[id(h)] = (h, names)
        return free[id(g)][1]

    done: list[Formula] = []
    work: list = [(_VISIT, f)]
    while work:
        op, arg = work.pop()
        if op is _VISIT:
            kind = type(arg)
            if kind is Not:
                if type(arg.body) is Not:           # double negation
                    work.append((_VISIT, arg.body.body))
                else:
                    work += ((Not, None), (_VISIT, arg.body))
            elif kind is And or kind is Or:
                work += ((kind, None), (_VISIT, arg.right), (_VISIT, arg.left))
            elif kind is Exists:
                work += ((Exists, arg.var), (_VISIT, arg.body))
            elif kind is Atom and any(type(a) is SelOf for a in arg.args):
                done.append(Atom(arg.pred, tuple(
                    SelOf(env_from_entries(env_entries(a.env)), a.site_id)
                    if type(a) is SelOf else a for a in arg.args)))
            else:
                done.append(arg)
        elif op is _PUSH:
            done.append(arg)
        elif op is Not:
            body = done.pop()
            kind = type(body)
            if kind is And or kind is Or:           # De Morgan
                work += ((Or if kind is And else And, None),
                         (Not, None), (_PUSH, body.right),
                         (Not, None), (_PUSH, body.left))
            else:
                done.append(Bot() if kind is Top else Top() if kind is Bot
                            else body.body if kind is Not else Not(body))
        elif op is Exists:
            body = done.pop()
            kind = type(body)
            if kind is not And and kind is not Or:
                done.append(Exists(arg, body))
            elif arg not in free_vars(body.right):
                work += ((kind, None), (_PUSH, body.right),
                         (Exists, arg), (_PUSH, body.left))
            elif arg not in free_vars(body.left):
                work += ((kind, None), (Exists, arg),
                         (_PUSH, body.right), (_PUSH, body.left))
            else:
                done.append(Exists(arg, body))
        else:                                       # And or Or
            right = done.pop()
            left = done.pop()
            unit, zero = (Top, Bot) if op is And else (Bot, Top)
            kind = type(left)
            if kind is unit:
                done.append(right)
            elif type(right) is unit:
                done.append(left)
            elif kind is zero or type(right) is zero:
                done.append(zero())
            elif (op is And and kind is type(right) and (kind is And or kind is Or)
                  and alpha_eq(left.right, right.right)):
                # (A op K) and (B op K) == (A and B) op K when the two tails
                # agree up to bound renaming and selection site ids.
                work += ((kind, None), (_PUSH, left.right), (And, None),
                         (_PUSH, right.left), (_PUSH, left.left))
            else:
                done.append(op(left, right))
    return done[0]


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
        raise ContsemError("domain_size must be between 1 and 4")
    if method not in ("auto", "exhaustive", "sampled"):
        raise ContsemError(f"unknown method {method!r}")

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
    def ent(a):
        if isinstance(a, SelOf):
            key = env_entries(a.env)
            if key not in frozen:
                frozen[key] = f"_sel{len(frozen)}"
            return EntConst(frozen[key])
        return a

    return map_atoms(f, lambda g: Atom(g.pred, tuple(ent(a) for a in g.args)))


def _signature(f, preds, consts, atoms):
    for g in iter_atoms(f):
        arity = len(g.args)
        if preds.setdefault(g.pred, arity) != arity:
            raise ContsemError(f"predicate {g.pred!r} used at inconsistent arities")
        atoms.add((g.pred, g.args))
        for a in g.args:
            if isinstance(a, EntConst):
                consts.add(a.name)


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
                raise ContsemError(f"free entity variable {a.name!r}")
            slot = venv[a.name]
            arg_fns.append(lambda C, V, slot=slot: V[slot])

    def atom(C, M, V):
        idx = 0
        for g in reversed(arg_fns):
            idx = idx * n + g(C, V)
        return bool((M[pi] >> idx) & 1)

    return atom


# ---------------------------------------------------------------------------
# Rendering

def formula_text(x: Formula | EntityTerm | EnvExpr) -> str:
    """Concrete rendering of a formula, entity term or environment: `~`,
    `&`, `|`, `Ex y.`, `sel(...)`, `::`, `++`.  One pass over an explicit
    stack, so depth is not limited by Python's recursion limit."""
    out: list[str] = []
    stack: list = [x]       # pending text, or a node
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is str:
            out.append(node)
        elif kind is EntConst or kind is EntVar:    # leaves: their one piece
            out.append(node.name)
        else:
            for piece in _FORMS[kind][4]:
                if type(piece) is not tuple:        # literal text, or a scalar's
                    stack.append(piece if type(piece) is str else piece(node))
                    continue
                get, parens, open_ = piece
                child = get(node)
                if type(child) is tuple:            # an atom's arguments
                    for a in reversed(child):
                        stack += (")", a, "(") if type(a) is SelOf else (a, " ")
                elif type(child) in parens or open_ and _right_open(child):
                    stack += (")", child, "(")
                else:
                    stack.append(child)
    return "".join(out)


def _right_open(f: Formula) -> bool:
    # Whether the text ends in an existential's body.  Only left operands
    # are asked, and a node is on the right spine of at most one of them.
    while type(f) is Not or type(f) is And or type(f) is Or:
        f = f.body if type(f) is Not else f.right
    return type(f) is Exists


def formula_json(x: Formula | EntityTerm | EnvExpr) -> dict:
    """Structured rendering of a formula, entity term or environment, with
    explicit node tags and selection site ids.  Built over explicit stacks:
    a child's dict is made empty under its key when the parent is filled,
    and gets its own keys, in table order, when its node is taken."""
    root: dict = {}
    nodes, docs = [x], [root]       # each pending node, and the dict it fills
    while nodes:
        node, doc = nodes.pop(), docs.pop()
        tag_key, tag, scalars, children, _ = _FORMS[type(node)]
        doc[tag_key] = tag
        for key, get in scalars:
            doc[key] = get(node)
        for key, get in children:
            child = get(node)
            if type(child) is tuple:                # an atom's arguments
                doc[key] = args = [{} for _ in child]
                nodes += child
                docs += args
            else:
                doc[key] = sub = {}
                nodes.append(child)
                docs.append(sub)
    return root
