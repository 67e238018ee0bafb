"""First-order logical forms.

Normal-form terms of type t are reified into Formula trees; a fixed set of
equivalence-preserving rewrites cleans them up.
"""
from __future__ import annotations

from collections.abc import Callable
from operator import attrgetter

from .errors import ContsemError
from .node import Node, _rebuild, rows
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


class Shifted(Node):
    """A shifted copy, made by `reify`, written out by `expand`: `body` (no copy)
    with site ids raised by `sites`, each bound name y<k> moved by each (base,
    by) of `shifts` in turn to y<k + by> if k >= base.  Every base is above the
    body's free names: a copy reads like its body but for bound names and ids."""
    __slots__ = {"body": "Formula", "shifts": "tuple[tuple[int, int], ...]", "sites": "int"}


Formula = Top | Bot | Not | And | Or | Exists | Atom | Shifted


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
    """A row of `_FORMS`: the tag key and tag, the scalars and the children as
    (JSON key, getter, the key's JSON text), the text pieces last first, as a
    stack takes them: literal text, a scalar's getter, or (getter, classes,
    open?), and the tag's JSON text."""
    kids = [p for p in pieces if type(p) is tuple and p[0] not in scalars.values()]
    text = [p if type(p) is str else attrgetter(p[0]) if p not in kids
            else (attrgetter(p[0]), frozenset(p[1:]) - {_OPEN}, _OPEN in p) for p in pieces]
    return (tag_key, tag, [(k, attrgetter(f), f'"{k}": ') for k, f in scalars.items()],
            [(p[0], attrgetter(p[0]), f'"{p[0]}": ') for p in kids], text[::-1],
            f'"{tag_key}": "{tag}"')


# The syntax of formulas, entity terms and environments, read by
# `formula_text`, `formula_json`, `alpha_eq` and `cli._json_text`.  Per class:
# the JSON tag key and tag, the text pieces in order, and the scalar fields by
# JSON key.  A piece is literal text or a field.  A scalar field prints its
# value; a child prints in parentheses when its class is listed with the
# field, or, with _OPEN, when its text is right-open.  Of an atom's `args`,
# each prints after a space, but a selection is glued on in parentheses.
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
        super().__init__(f"term is not reifiable at {tm._path_text(position)}: {reason}")


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
    keep_last: dict = {}    # by class and name, not hashed as nodes; a selection by itself
    for e in reversed(entries):
        key = e if type(e) is SelOf else (type(e), e.name)
        if key not in keep_last:
            keep_last[key] = e
    return tuple(reversed(keep_last.values()))


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
    gets a fresh site id, left to right, both as `expand` writes it out: an
    existential's Lam (all `normalize` shares) met again under the same
    binders reads as a `Shifted` copy of its first reading, noted at its
    build.  A second walk, which makes no copies, runs only when a name the
    first chose turns out to be a constant's.  A walk is one loop over a
    stack of visits, (sort, term, binder depth, path), and of builds, (class,
    field, atom arity or note, path), which make a node of the results on top
    or, of class NotReifiable, reject what was just read.
    """
    avoid = ()
    while True:
        names, used, fresh, sites, done = [], set(), 0, 0, []   # names: by binder depth
        seen: dict | None = None if avoid else {}  # (id of a Lam, depth) -> first reading
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
                        # copy the first reading, or note this one
                        note = seen is not None and ((id(body), depth), names[:depth],
                                                     fresh, sites)
                        if note and (first := seen.get(note[0])) and first[1][1] == note[1]:
                            copy, (_, _, fresh0, sites0), fresh1, sites1 = first
                            done.append(_shifted(copy, ((fresh0, fresh - fresh0),),
                                                 sites - sites0))
                            fresh, sites = fresh + fresh1 - fresh0, sites + sites1 - sites0
                            continue
                        name, fresh = f"y{fresh}" if fresh else "y", fresh + 1
                        while name in avoid:
                            name, fresh = f"y{fresh}", fresh + 1
                        names[depth:] = (name,)
                        done.append(name)           # under the body, for the build
                        work += ((Exists, None, note, path),
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
                if depth:                   # an existential's note: its first reading
                    seen[depth[0]] = (done[-1], depth, fresh, sites)
        if avoid or not any(tm.chosen(name, "y", 0, fresh) for name in used):
            return done[0]
        avoid = used


# ---------------------------------------------------------------------------
# Shifted copies

def _shifted(f: Formula, shifts: tuple, sites: int) -> Formula:
    """A shifted copy of `f`, or `f` where it reads the same; no copy of a copy."""
    if type(f) is Shifted:
        f, shifts, sites = f.body, f.shifts + shifts, f.sites + sites
    return f if type(f) is Top or type(f) is Bot else Shifted(f, shifts, sites)


def _rename(name: str, shifts: tuple) -> str:
    k = first = int(name[1:] or 0) if shifts else 0     # y -> 0, y7 -> 7
    for base, by in shifts:
        k += by if k >= base else 0
    return name if k == first else f"y{k}"


def _open(f: Formula) -> Formula:
    """The And, Or or Not a copy stands for, with copies as children; else `f`."""
    if type(f) is not Shifted or type(f.body) is Atom or type(f.body) is Exists:
        return f
    g, shifts, sites = f.body, f.shifts, f.sites
    kids = [_shifted(get(g), shifts, sites) for _, get, _ in _FORMS[type(g)][3]]
    return type(g)(*kids)


def expand(f: Formula) -> Formula:
    """`f` with its shifted copies written out; `f` itself if it has none."""
    return map_atoms(f, lambda g: g)


# ---------------------------------------------------------------------------
# Formula utilities

def map_atoms(f: Formula, fn: Callable[[Atom], Formula]) -> Formula:
    """The formula, copies written out, with each atom replaced by fn(atom),
    called left to right; rebuilt bottom-up where it changes, explicit stack."""
    done: list[Formula] = []
    work: list = [(f, (), 0)]           # (node, shifts, sites) of the copies it is in
    while work:
        g, shifts, sites = work.pop()
        kind = type(g)
        if sites is None:               # rebuild g from its children's results
            right = done.pop()
            if kind is And or kind is Or:
                left = done.pop()
                done.append(g if not shifts and left is g.left and right is g.right
                            else kind(left, right))
            else:
                done.append(g if not shifts and right is g.body else Not(right)
                            if kind is Not else Exists(_rename(g.var, shifts), right))
        elif kind is Not or kind is Exists:
            work += ((g, shifts, None), (g.body, shifts, sites))
        elif kind is And or kind is Or:
            work += ((g, shifts, None), (g.right, shifts, sites), (g.left, shifts, sites))
        elif kind is Shifted:
            work.append((g.body, g.shifts + shifts, g.sites + sites))
        elif kind is Atom:          # its arguments rebuilt from their rows, moved
            done.append(fn(g if not shifts and not sites else Atom(g.pred, tuple(_rebuild(
                [(c, _rename(f[0], shifts)) if c is EntVar else (c, f[0], f[1] + sites)
                 if c is SelOf else (c, *f) for c, *f in rows(a)]) for a in g.args))))
        else:
            done.append(g)
    return done[0]


def alpha_eq(f1: Formula, f2: Formula) -> bool:
    """Equality up to renaming of bound variables and selection site ids: on
    each side a bound name reads as its binder, a free name as itself.  A pair
    that is one node (a copy read as its body) while each name reads alike on
    both sides is equal without a walk: `simplify`'s tails are mostly copies
    of one body."""
    left: dict[str, int | str] = {}     # a bound name -> its binder's exit on the stack,
    right: dict[str, int | str] = {}    # a place no other binder in scope holds
    stack: list = [(f1, f2)]
    while stack:
        a, b = stack.pop()
        if a is None:           # leaving a binder: b is each side's (var, earlier reading)
            (var1, before1), (var2, before2) = b
            left[var1], right[var2] = before1, before2
        elif type(a) is Shifted or type(b) is Shifted:     # it reads like its body
            stack.append((a.body if type(a) is Shifted else a,
                          b.body if type(b) is Shifted else b))
        elif a is b and left == right:
            continue
        elif type(a) is not type(b):
            return False
        elif isinstance(a, Exists):
            stack.append((None, ((a.var, left.get(a.var, a.var)),
                                 (b.var, right.get(b.var, b.var)))))
            left[a.var] = right[b.var] = len(stack)
            stack.append((a.body, b.body))
        elif isinstance(a, Atom):
            if a.pred != b.pred or len(a.args) != len(b.args):
                return False
            stack += zip(a.args, b.args)
        elif isinstance(a, EntVar):
            if left.get(a.name, a.name) != right.get(b.name, b.name):
                return False
        elif isinstance(a, EntConst):
            if a.name != b.name:
                return False
        else:                           # children only: site ids are ignored
            stack += [(get(a), get(b)) for _, get, _ in _FORMS[type(a)][3]]
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
    recurse.  Free variables are computed only where extraction asks.  Each
    copied body (`reify` copies existentials) is simplified once; a copy of
    an And, Or or Not is opened where it becomes a result, so the rules see
    copies only of existentials and atoms.  The result holds no copies.
    """
    free: dict[int, tuple[Formula, frozenset[str]]] = {}   # id -> (node, vars)
    shared: dict[int, Formula] = {}     # id of a copied body -> its simplification

    def free_vars(g: Formula) -> frozenset[str]:
        todo, stack = [], [g]
        while stack:                        # nodes not yet known, parents first
            h = stack.pop()
            if id(h) not in free:
                todo.append(h)
                if isinstance(h, (Not, Exists, Shifted)):
                    stack.append(h.body)
                elif isinstance(h, (And, Or)):
                    stack += (h.left, h.right)
        for h in reversed(todo):
            if isinstance(h, (And, Or)):
                names = free[id(h.left)][1] | free[id(h.right)][1]
            elif isinstance(h, (Not, Shifted)):     # a copy: its body's, see Shifted
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
            if shared and id(arg) in shared:        # a copied body, met again
                done.append(shared[id(arg)])
            elif kind is Not:
                if type(arg.body) is Not:           # double negation
                    work.append((_VISIT, arg.body.body))
                else:
                    work += ((Not, None), (_VISIT, arg.body))
            elif kind is And or kind is Or:
                work += ((kind, None), (_VISIT, arg.right), (_VISIT, arg.left))
            elif kind is Exists:
                work += ((Exists, arg.var), (_VISIT, arg.body))
            elif kind is Shifted:
                work += ((Shifted, arg), (_VISIT, arg.body))
            elif kind is Atom and any(type(a) is SelOf for a in arg.args):
                done.append(Atom(arg.pred, tuple(
                    SelOf(env_from_entries(env_entries(a.env)), a.site_id)
                    if type(a) is SelOf else a for a in arg.args)))
            else:
                done.append(arg)
        elif op is _PUSH:
            done.append(_open(arg) if type(arg) is Shifted else arg)
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
        elif op is Shifted:
            shared[id(arg.body)] = done[-1]
            done[-1] = _open(_shifted(done[-1], arg.shifts, arg.sites))
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
    return expand(done[0]) if shared else done[0]


# ---------------------------------------------------------------------------
# Rendering

def formula_text(x: Formula | EntityTerm | EnvExpr) -> str:
    """Concrete rendering of a formula (its copies written out), entity term
    or environment: `~`, `&`, `|`, `Ex y.`, `sel(...)`, `::`, `++`.  One pass
    over an explicit stack, so depth is not limited by the recursion limit."""
    out: list[str] = []
    stack: list = [expand(x) if type(x) is Shifted else x]     # pending text, or a node
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
                if type(child) is Shifted:          # a copy: written out where it is read
                    child = expand(child)
                if type(child) is tuple:            # an atom's arguments
                    for a in reversed(child):
                        stack += (")", a, "(") if type(a) is SelOf else (a, " ")
                elif type(child) in parens or open_ and _right_open(child):
                    stack += (")", child, "(")
                else:
                    stack.append(child)
    return "".join(out)


def _right_open(f: Formula) -> bool:
    # Whether the text ends in an existential's body, a copy's as its body's.
    # Only left operands are asked, and a node is on the right spine of at most one.
    while type(f) is Not or type(f) is And or type(f) is Or or type(f) is Shifted:
        f = f.right if type(f) is And or type(f) is Or else f.body
    return type(f) is Exists


def formula_json(x: Formula | EntityTerm | EnvExpr) -> dict:
    """Structured rendering of a formula (its copies written out), entity
    term or environment, with explicit node tags and selection site ids.
    Built over explicit stacks: a child's dict is made empty under its key
    when the parent is filled, and gets its own keys, in table order, when
    its node is taken."""
    root: dict = {}
    nodes, docs = [x], [root]       # each pending node, and the dict it fills
    while nodes:
        node, doc = nodes.pop(), docs.pop()
        if type(node) is Shifted:       # a copy: written out where it is read
            node = expand(node)
        tag_key, tag, scalars, children, *_ = _FORMS[type(node)]
        doc[tag_key] = tag
        for key, get, _ in scalars:
            doc[key] = get(node)
        for key, get, _ in children:
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
