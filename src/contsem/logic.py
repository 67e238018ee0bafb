"""First-order logical forms.

Normal-form terms of type t are reified into Formula trees; a fixed set of
equivalence-preserving rewrites cleans them up.  Formulas are nameless: a
variable holds its binder's level, the number of quantifiers above that
binder, and a selection site holds only its environment.  The printers name
binders y, y1, y2, ... and number sites 0, 1, 2, ... in textual order, so
equal subformulas are equal nodes wherever they sit at one depth.
"""
from __future__ import annotations

from collections.abc import Callable
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
    __slots__ = {"body": "Formula"}


class Atom(Node):
    __slots__ = {"pred": "str", "args": "tuple[EntityTerm, ...]"}
    _defaults = {"args": ()}


Formula = Top | Bot | Not | And | Or | Exists | Atom


class EntConst(Node):
    __slots__ = {"name": "str"}


class EntVar(Node):
    __slots__ = {"level": "int"}


class NilE(Node):
    __slots__ = ()


class ConsE(Node):
    __slots__ = {"head": "EntityTerm", "tail": "EnvExpr"}


class UnionE(Node):
    __slots__ = {"left": "EnvExpr", "right": "EnvExpr"}


EnvExpr = NilE | ConsE | UnionE


class SelOf(Node):
    __slots__ = {"env": "EnvExpr"}


EntityTerm = EntConst | EntVar | SelOf

NIL_E = NilE()


class AccessReport(Node):
    """A selection site, numbered in textual order: its environment, the referents
    that evaluates to, the names the printers give the binders in scope, by level,
    and the environment's text under those names."""
    __slots__ = {"site_id": "int", "env": "EnvExpr", "candidates": "tuple[EntityTerm, ...]",
                 "names": "tuple[str, ...]", "env_text": "str"}


_OPEN, _LEAVE = object(), object()     # see `_FORMS` and `_render`


def _form(tag: str, *pieces, scalar: str | None = None) -> tuple:
    """A row of `_FORMS`: the JSON text of the tag and of the scalar's key,
    the children as (getter, the key's JSON text), and the text pieces last
    first, as a stack takes them: literal text, None, or (getter, classes, open?)."""
    kids = [p for p in pieces if type(p) is tuple]
    return (tag, scalar and f'"{scalar}": ', [(attrgetter(p[0]), f'"{p[0]}": ') for p in kids],
            [p if type(p) is not tuple else
             (attrgetter(p[0]), frozenset(p[1:]) - {_OPEN}, _OPEN in p) for p in reversed(pieces)])


# The syntax of formulas, entity terms and environments, read by `_render`.
# Per class: the JSON tag, the text pieces in order and the JSON key of the
# scalar that `_render` finds: a binder's or a variable's name, a site's
# number (JSON only), a predicate or a constant's name.  A piece is literal
# text, the scalar (None) or a child field, printed in parentheses when its
# class is listed with it or, with _OPEN, when its text is right-open.
_FORMS = {
    Top: _form('"node": "top"', "top"),
    Bot: _form('"node": "bot"', "bot"),
    Not: _form('"node": "not"', "~ ", ("body", And, Or)),
    And: _form('"node": "and"', ("left", And, Or, _OPEN), " & ", ("right", Or)),
    Or: _form('"node": "or"', ("left", Or, _OPEN), " | ", ("right",)),
    Exists: _form('"node": "exists"', "Ex ", None, ". ", ("body", And, Or), scalar="var"),
    Atom: _form('"node": "atom"', None, ("args",), scalar="pred"),
    EntConst: _form('"entity": "const"', None, scalar="name"),
    EntVar: _form('"entity": "var"', None, scalar="name"),
    SelOf: _form('"entity": "sel"', "sel(", ("env",), ")", scalar="site"),
    NilE: _form('"env": "nil"', "nil"),
    ConsE: _form('"env": "cons"', ("head",), "::", ("tail",)),
    UnionE: _form('"env": "union"', ("left", ConsE, UnionE), "++", ("right", ConsE, UnionE)),
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
    keep_last: dict = {}    # by level or name, not hashed as nodes; a selection by itself
    for e in reversed(entries):
        key = e.level if type(e) is EntVar else e.name if type(e) is EntConst else e
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


def _entity(t: Term, depth: int) -> EntityTerm | None:
    """A bound variable's or an entity constant's reading; None for other terms."""
    if type(t) is Var:
        return EntVar(depth - 1 - t.index) if 0 <= t.index < depth else None
    if type(t) is Const and t.ty.text == "e" and t.name not in _READINGS:
        return EntConst(t.name)
    return None


def reify(term: Term) -> Formula:
    """Read a closed beta-normal term of type t as a Formula.

    A variable reads as its binder's level.  An existential's Lam (all
    `normalize` shares) met again at one depth reads as the node its first
    reading built.  One loop over a stack of visits, (sort, term, binder
    depth, path), and of builds, (class, field, atom arity or existential's
    key, path), which make a node of the results on top or, of class
    NotReifiable, reject what was just read.
    """
    done: list = []
    seen: dict = {}     # (id of an existential's Lam, depth) -> its reading
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
                    if (key := (id(body), depth)) in seen:
                        done.append(seen[key])
                    else:
                        work += ((Exists, None, key, path),
                                 (binder.cod.text, body.body, depth + 1, ((path, "arg"), "body")))
                    continue
                if cls is ConsE:    # the entry, args[1], is read here if _entity can
                    if read := _entity(args[1], depth):
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
                work.append((cls, None, None, path))
            elif type(head) is Const and sort == "t":   # an atom: arguments, then head type
                work.append((Atom, head, len(args), path))
                sorts = ("e",) * len(args)
            elif sort == "e" and not args and (read := _entity(head, depth)):
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
            done[-1] = sort(done[-1])
        elif sort is Exists:                            # depth: the existential's key
            done[-1] = seen[depth] = Exists(done[-1])
        elif sort is Atom and t.ty.text == "e>" * depth + "t":  # an `e` per argument
            k = len(done) - depth
            done[k:] = [Atom(t.name, tuple(done[k:]))]
        elif sort is Atom or sort is NotReifiable:
            raise NotReifiable(tm.path_steps(path), _NOT_A["t"] if sort is Atom else t)
        else:                                           # And, Or, ConsE, UnionE
            right = done.pop()
            done[-1] = sort(done[-1], right)
    return done[0]


# ---------------------------------------------------------------------------
# Formula utilities

def map_atoms(f: Formula, fn: Callable[[Atom], Formula]) -> Formula:
    """The formula with each atom occurrence replaced by fn(atom), called
    left to right; rebuilt bottom-up where it changes, explicit stack."""
    return _mapped(f, lambda g, depth_of: fn(g), {})


def _mapped(f: Formula, fn: Callable, levels: dict) -> Formula:
    """`map_atoms` calling fn(atom, depth_of): depth_of maps the level that
    `levels` gives an existential (by id: (it, _, level)) to its depth, for
    those on the path from the root to the atom."""
    depth_of: dict[int, int] = {}
    done: list[Formula] = []
    work: list = [(f, 0, False)]    # (node, binder depth, its children's results are on `done`)
    while work:
        g, depth, built = work.pop()
        kind = type(g)
        if built:                       # rebuild g from its children's results
            right = done.pop()
            if kind is And or kind is Or:
                left = done.pop()
                done.append(g if left is g.left and right is g.right else kind(left, right))
            else:
                done.append(g if right is g.body else kind(right))
        elif kind is Not or kind is Exists:
            if levels and kind is Exists:
                depth_of[levels[id(g)][2]] = depth
            work += ((g, depth, True), (g.body, depth + (kind is Exists), False))
        elif kind is And or kind is Or:
            work += ((g, depth, True), (g.right, depth, False), (g.left, depth, False))
        else:
            done.append(fn(g, depth_of) if kind is Atom else g)
    return done[0]


# ---------------------------------------------------------------------------
# Simplification

# `simplify`'s work-stack instructions, besides the connective classes that
# rebuild a node from simplified operands: visit an input node, push a
# result, keep an input node's result.
_VISIT, _PUSH, _KEEP = object(), object(), object()


def simplify(f: Formula) -> Formula:
    """Apply the cleanup rewrites in one bottom-up pass.

    Rules: connective unit laws (including ~top / ~bot), double negation,
    De Morgan on negated conjunctions/disjunctions (never through a
    quantifier), extraction of conjuncts and disjuncts that do not mention
    an existential's variable out of its scope, fusion of a shared tail
    (A op K) and (B op K) into (A and B) op K, and evaluation of union
    environments under selection sites; each preserves logical equivalence.
    Each node is rebuilt from its simplified children, and the nodes a rule
    builds go back on the work stack: the result is a fixed point of the
    rules, and deep formulas do not recurse.  Each input node is simplified
    once per depth, so fusion's tails, which sit at one depth, compare by
    identity, then by `==`.  Each node built is recorded with the binder
    levels it mentions, as a bit mask, for extraction; each input
    environment is evaluated once.  `f` is read as a root: its outermost
    binders have level 0, and a variable whose level no binder on its path
    has is rejected.  Variables keep their input levels until a last walk
    renumbers them, if extraction moved a binder out from under another;
    input levels rise along every path, so a level names one binder there.
    """
    kept: dict = {}     # (id of an input node, depth), or id of an environment -> its result
    made: dict = {}     # id of a node built -> (it, its levels' bit mask[, its input level])
    moved = False                   # whether a binder left another's scope
    done: list[Formula] = []

    def push(g: Formula, mask: int, level: int | None = None) -> None:
        made.setdefault(id(g), (g, mask, level))    # a node met again keeps its record
        done.append(g)

    def levels(g: Formula) -> int:
        return made[id(g)][1]

    def canonical(env: EnvExpr) -> SelOf:
        if id(env) not in kept:         # once per environment: its entries, and their levels
            sel = kept[id(env)] = SelOf(env_from_entries(entries := env_entries(env)))
            made[id(sel)] = (sel, sum(1 << e.level for e in entries if type(e) is EntVar))
        return kept[id(env)]

    work: list = [(_VISIT, f, 0)]       # (instruction, argument, binder depth of a visit)
    while work:
        op, arg, depth = work.pop()
        if op is _VISIT:
            if (key := (id(arg), depth)) in kept:
                done.append(kept[key])
                continue
            work.append((_KEEP, key, None))
            kind = type(arg)
            if kind is Not:
                if type(arg.body) is Not:           # double negation
                    work.append((_VISIT, arg.body.body, depth))
                else:
                    work += ((Not, None, None), (_VISIT, arg.body, depth))
            elif kind is And or kind is Or:
                work += ((kind, None, None), (_VISIT, arg.right, depth),
                         (_VISIT, arg.left, depth))
            elif kind is Exists:
                work += ((Exists, depth, None), (_VISIT, arg.body, depth + 1))
            elif kind is Atom:
                if any(type(a) is SelOf for a in arg.args):
                    arg = Atom(arg.pred, tuple(
                        canonical(a.env) if type(a) is SelOf else a for a in arg.args))
                mask = 0                            # its variables, its sites' entries
                for a in arg.args:
                    mask |= (levels(a) if type(a) is SelOf
                             else 1 << a.level if type(a) is EntVar else 0)
                if free := mask >> depth:
                    raise ContsemError(f"entity variable at level {depth + free.bit_length() - 1} "
                                       "has no binder: simplify reads a root formula")
                push(arg, mask)
            else:
                push(arg, 0)                        # top or bot
        elif op is _PUSH:
            done.append(arg)
        elif op is _KEEP:
            kept[arg] = done[-1]
        elif op is Not:
            body = done.pop()
            kind = type(body)
            if kind is And or kind is Or:           # De Morgan
                work += ((Or if kind is And else And, None, None),
                         (Not, None, None), (_PUSH, body.right, None),
                         (Not, None, None), (_PUSH, body.left, None))
            else:
                push(Bot() if kind is Top else Top() if kind is Bot
                     else body.body if kind is Not else Not(body), levels(body))
        elif op is Exists:                          # arg: the binder's input level
            body = done.pop()
            kind = type(body)
            if (kind is And or kind is Or) and not (found := levels(body.right)) >> arg & 1:
                moved = moved or found >> arg > 0
                work += ((kind, None, None), (_PUSH, body.right, None),
                         (Exists, arg, None), (_PUSH, body.left, None))
            elif (kind is And or kind is Or) and not (found := levels(body.left)) >> arg & 1:
                moved = moved or found >> arg > 0
                work += ((kind, None, None), (Exists, arg, None),
                         (_PUSH, body.right, None), (_PUSH, body.left, None))
            else:
                push(Exists(body), levels(body), arg)
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
                push(zero(), 0)
            elif (op is And and kind is type(right) and (kind is And or kind is Or)
                  and (left.right is right.right or left.right == right.right)):
                # (A op K) and (B op K) == (A and B) op K
                work += ((kind, None, None), (_PUSH, left.right, None), (And, None, None),
                         (_PUSH, right.left, None), (_PUSH, left.left, None))
            else:
                push(op(left, right), levels(left) | levels(right))
    if not moved:
        return done[0]

    def renumbered(e: EntityTerm, depth_of: dict) -> EntityTerm:
        return EntVar(depth_of[e.level]) if type(e) is EntVar else e
    return _mapped(done[0], lambda g, depth_of: Atom(g.pred, tuple(
        SelOf(env_from_entries([renumbered(e, depth_of) for e in env_entries(a.env)]))
        if type(a) is SelOf else renumbered(a, depth_of) for a in g.args)), made)


# ---------------------------------------------------------------------------
# Rendering

def formula_text(x: Formula | EntityTerm | EnvExpr) -> str:
    """Concrete rendering of a root formula, entity term or environment:
    `~`, `&`, `|`, `Ex y.`, `sel(...)`, `::`, `++`.  One pass over an
    explicit stack (`_render`), so depth is not limited by the recursion limit."""
    return "".join(_render(x, None, ())[0])


def _render(x, newline: str | None, scope: tuple[str, ...], avoid=()) -> tuple[list, list, bool]:
    """The text of `x` (`newline` None) or its JSON from line `newline`, as
    pieces to join, under binders named `scope` by level; its sites; and
    whether it skipped constants' names.  Binders are named y, y1, y2, ...
    and sites numbered 0, 1, 2, ... in textual order.  `x` is read as a root:
    its outermost binders have level len(scope), and a variable whose level
    no binder on its path has, a free one, prints as `#` and its level.  If
    a name chosen is a constant's, `x` is rendered again skipping all its
    constants' names, as `syntax.pretty` does.  A text site is (environment,
    names in scope, the environment's text, s, e): pieces[s:e] write its
    `sel(...)`, between the parentheses that glue it to its atom (s - 1, e)
    when it is an argument."""
    if newline is not None:     # here: a text run never loads json
        from json.encoder import encode_basestring_ascii as encode
    out, sites, consts, count, names = [], [], set(), 0, list(scope)   # names: in scope
    stack: list = [x if newline is None else (x, newline)]
    while stack:        # pending text, _LEAVE (a binder's scope ends), a node or (node, line)
        node = stack.pop()
        kind = type(node)
        if kind is str:
            out.append(node)
            continue
        if kind is EntConst:                    # the text's leaves, at once
            out.append(node.name)
            consts.add(node.name)
            continue
        if kind is EntVar:
            out.append(names[node.level] if node.level < len(names) else f"#{node.level}")
            continue
        if node is _LEAVE:
            names.pop()
            continue
        if kind is int:                         # a site's `sel(...)` ends
            sites[node][3] = len(out)
            continue
        line = None
        if kind is tuple:                       # JSON: (node, its line start)
            node, line = node
            kind = type(node)
            if kind is tuple:                   # an atom's arguments
                out.append("[")
                stack.append(line + "]" if node else "]")
                for i in range(len(node) - 1, -1, -1):
                    stack += (node[i], line + "  "), ("," if i else "") + line + "  "
                continue
        tag, key, kids, pieces = _FORMS[kind]
        if kind is Exists:                      # the scalar, if any
            name, count = f"y{count}" if count else "y", count + 1
            while name in avoid:
                name, count = f"y{count}", count + 1
            names.append(name)
            stack.append(_LEAVE)
        elif kind is SelOf:
            name = str(len(sites))
            sites.append([node.env, tuple(names), len(out), None])
            if line is None:
                stack.append(len(sites) - 1)
        elif kind is EntVar:
            name = names[node.level] if node.level < len(names) else f"#{node.level}"
        elif kind is Atom or kind is EntConst:
            name = node.pred if kind is Atom else node.name
            consts.add(name)
        if line is not None:                    # JSON: tag, scalar, children
            inner = line + "  "
            out += "{", inner, tag
            if key:
                out += ",", inner, key, name if kind is SelOf else encode(name)
            stack.append(line + "}")
            for get, key in reversed(kids):
                stack += (get(node), inner), "," + inner + key
            continue
        for piece in pieces:                    # text
            if type(piece) is not tuple:
                stack.append(name if piece is None else piece)
                continue
            get, parens, open_ = piece
            child = get(node)
            if type(child) is tuple:    # an atom's arguments: each after a space,
                for a in reversed(child):           # a selection glued on in parentheses
                    stack += (")", a, "(") if type(a) is SelOf else (a, " ")
            elif type(child) in parens or open_ and _right_open(child):
                stack += (")", child, "(")
            else:
                stack.append(child)
    if not avoid and count and any(tm.chosen(name, "y", 0, count) for name in consts):
        return *_render(x, newline, scope, consts)[:2], True
    if newline is None:
        sites = [(env, names, "".join(out[s + 1:e - 1]), s, e) for env, names, s, e in sites]
    return out, sites, False


def _right_open(f: Formula) -> bool:
    # Whether the text ends in an existential's body.  Only left operands are
    # asked, and an occurrence is on the right spine of at most one.
    while type(f) is Not or type(f) is And or type(f) is Or:
        f = f.body if type(f) is Not else f.right
    return type(f) is Exists


def json_text(doc) -> str:
    """`json.dumps(doc, indent=2)`, a formula node, entity term or environment
    read as its JSON tree (`_render`, as a root), an access report as its `site`, `env` and
    `candidates` under its `names`.  From an explicit stack: json's encoder
    with `indent` is pure Python and recurses."""
    import json     # here: a text run never loads it
    from json.encoder import encode_basestring_ascii as encode
    out, stack = [], [(doc, "\n", ())]    # pending text, or (value, its line start, scope)
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        value, newline, scope = item
        kind = type(value)
        if kind in _FORMS:
            out += _render(value, newline, scope)[0]
        elif kind is AccessReport:
            stack.append(({"site": value.site_id, "env": value.env,
                           "candidates": value.candidates}, newline, value.names))
        elif not value or not isinstance(value, (dict, list, tuple)):
            out.append(json.dumps(value))   # the same text with or without indent
        else:
            inner, brackets = newline + "  ", "{}" if kind is dict else "[]"
            pairs = ([(f"{encode(k)}: ", v) for k, v in value.items()]
                     if kind is dict else [("", v) for v in value])
            out.append(brackets[0])
            stack.append(newline + brackets[1])
            for i in range(len(pairs) - 1, -1, -1):
                stack += (pairs[i][1], inner, scope), ("," if i else "") + inner + pairs[i][0]
    return "".join(out)


def formula_json(x: Formula | EntityTerm | EnvExpr) -> dict:
    """The document `json_text` writes for a root formula, entity term or
    environment, read back over an explicit stack: `json.loads` recurses."""
    import json
    from json.decoder import WHITESPACE
    text, scalar = json_text(x), json.JSONDecoder().raw_decode
    stack, i = [[]], 0      # each open container's mark and items so far, innermost last
    while (i := WHITESPACE.match(text, i).end()) < len(text):
        c = text[i]
        if c not in "{[,:}]":
            value, i = scalar(text, i)
            stack[-1].append(value)
            continue
        i += 1
        if c in "{[":
            stack.append([c])
        elif c in "}]":
            items = stack.pop()[1:]
            stack[-1].append(dict(zip(items[::2], items[1::2])) if c == "}" else items)
    return stack[0][0]
