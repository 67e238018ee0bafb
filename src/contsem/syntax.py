"""Concrete syntax for terms and types.

Grammar (ASCII only; see README for the full reference):

    term   := '\\' IDENT ':' type '.' term | disj
    disj   := conj ('|' disj)?                  -- right-associative
    conj   := neg ('&' conj)?                   -- right-associative
    neg    := '~' neg | union
    union  := cons ('++' cons)*                 -- left-associative
    cons   := app ('::' cons)?                  -- right-associative
    app    := atom atom*                        -- left-associative
    atom   := IDENT | '(' term ')' | '(' OP ')'
    type   := btype ('>' type)?                 -- right-associative
    btype  := 'e' | 't' | 'g' | '(' type ')'

`&`, `|`, `~`, `::`, `++` are infix/prefix sugar for the built-in constants;
`( & )` style sections denote the bare constant.  `Ex`, `sel`, `nil`, `top`,
`bot` are constants; `Coord` and `Sub` abbreviate the environment
combinators.  Unknown identifiers resolve against a caller-supplied constant
signature.  Bound names are erased: `parse_term` produces De Bruijn terms,
and `pretty` re-invents names (x1, x2, ... in binder order), so
parse_term(pretty(t)) is alpha-equivalent to t for every closed t.

The grammar is written once, as the operator table `_OPS` and the levels
below: `parse_term` is one operator-precedence loop over it and `pretty`
parenthesizes by it.  Neither recurses, so the depth of a term is not
limited by Python's recursion limit.
"""
from __future__ import annotations

import re
from collections.abc import Mapping

from .errors import ContsemError
from .terms import (
    AND, BUILTINS, CONS, COORD, NOT, OR, SUB, UNION,
    App, Arrow, Const, E, G, Lam, SemType, T, Term, Var, chosen,
)


class ParseError(ContsemError):
    def __init__(self, message: str, position: int, line: int, column: int):
        self.position = position
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class UnknownIdentifier(ContsemError):
    def __init__(self, name: str, position: int = 0):
        self.name = name
        self.position = position
        super().__init__(f"unknown identifier {name!r}")


# Precedence levels, loosest first.  A construct is parenthesized when it
# appears in a context demanding a tighter level than its own, and an operand
# due at a level can start with `\` only at _LAM and with `~` only up to _NEG.
_LAM, _DISJ, _CONJ, _NEG, _UNION, _CONS, _APP, _ATOM = range(8)

# Operators by token, which is their constant's name: (constant, printed
# text, own level, left operand level or None for the prefix `~`, right
# operand level).  `&`, `|` and `::` associate to the right, `++` to the
# left.  Each one in parentheses, like `(&)`, is a section: the bare constant.
_OPS = {row[0].name: row for row in (
    (OR, " | ", _DISJ, _DISJ + 1, _DISJ),
    (AND, " & ", _CONJ, _CONJ + 1, _CONJ),
    (NOT, "~ ", _NEG, None, _NEG),
    (UNION, "++", _UNION, _UNION, _UNION + 1),
    (CONS, "::", _CONS, _CONS + 1, _CONS),
)}
_APPLY = (None, " ", _APP, _APP, _ATOM)     # juxtaposition, left-associative

# Words with a fixed meaning, which cannot be bound: the builtins named by a
# word and the environment combinators.
_COMBINATORS = {"Coord": COORD, "Sub": SUB}
_WORDS = {name: c for name, c in BUILTINS.items() if name not in _OPS} | _COMBINATORS
_BASES = {"e": E, "t": T, "g": G}   # type names; in a term, ordinary names

_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
_WORD = re.compile(_IDENT)
# One token per match: an identifier, punctuation or the end of the text
# (empty), else a character that starts no token.
_TOKEN = re.compile(rf"\s*(?:({_IDENT})|(::|\+\+|[\\.():>&|~]|\Z)|(\S))")


def _error(text: str, message: str, pos: int) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, pos, line, pos - text.rfind("\n", 0, pos))


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, up to the end of the text (kind
    '').  A token's kind is 'ident' or the token itself."""
    toks = []
    for m in _TOKEN.finditer(text):
        if m[3]:
            raise _error(text, f"unexpected character {m[3]!r}", m.start(3))
        toks.append(("ident" if m[1] else m[2], m[m.lastindex], m.start(m.lastindex)))
    return toks


def _expect(text: str, toks: list, i: int, kind: str) -> int:
    """The index after token i, which must be of this kind."""
    if toks[i][0] != kind:
        raise _error(text, f"expected {kind!r}, found {toks[i][1]!r}", toks[i][2])
    return i + 1


def _reduce(op, vals: list[Term], names: list[str]) -> None:
    """Apply a pending operator to the operands on top of `vals`."""
    right = vals.pop()
    if type(op) is not tuple:       # a binder's type: its body is complete
        names.pop()
        vals.append(Lam(op, right))
    elif op[3] is None:             # `~`
        vals.append(App(op[0], right))
    elif op is _APPLY:
        vals[-1] = App(vals[-1], right)
    else:
        vals[-1] = App(App(op[0], vals[-1]), right)


def parse_term(text: str, constants: Mapping[str, SemType] | None = None,
               types: Mapping[str, SemType] | None = None) -> Term:
    """Parse the named lambda syntax into a De Bruijn term.

    `constants` declares non-builtin constants (content words, entity names);
    `types` names types, each read as that very object (not `e`, `t` or `g`).
    """
    sig = constants or {}
    bases = _BASES | (types or {})
    if len(bases) < len(_BASES) + len(types or {}):
        raise ContsemError("a type name may not be e, t or g")
    toks = _tokens(text)
    names: list[str] = []   # the binders in scope, innermost last
    vals: list[Term] = []   # operands
    ops: list = []          # pending: a row, a binder's type, or None for `(`
    i, due = 0, _LAM        # the level of the operand due next; None after one
    while True:
        kind, value, pos = toks[i]
        if due is not None:
            row = _OPS.get(kind)
            if kind == "(" and toks[i + 1][0] in _OPS and toks[i + 2][0] == ")":
                vals.append(_OPS[toks[i + 1][0]][0])
                i, due = i + 3, None
            elif kind == "(":
                ops.append(None)
                i, due = i + 1, _LAM
            elif kind == "ident":
                if value in names:
                    vals.append(Var(names[::-1].index(value)))
                elif value in _WORDS:
                    vals.append(_WORDS[value])
                elif value in sig:
                    vals.append(Const(value, sig[value]))
                else:
                    raise UnknownIdentifier(value, pos)
                i, due = i + 1, None
            elif kind == "\\" and due == _LAM:
                _, name, at = toks[i + 1]
                _expect(text, toks, i + 1, "ident")
                if name in _WORDS:
                    raise _error(text, f"{name!r} is reserved and cannot be bound", at)
                ty, i = _type(text, toks, _expect(text, toks, i + 2, ":"), bases)
                i = _expect(text, toks, i, ".")
                ops.append(ty)
                names.append(name)
            elif row and row[3] is None and due <= row[2]:
                ops.append(row)
                i, due = i + 1, row[4]
            else:
                raise _error(text, f"expected a term, found {value!r}", pos)
            continue
        row = _APPLY if kind in ("ident", "(") else _OPS.get(kind)
        if row and row[3] is not None:      # an infix operator, or application
            while ops and type(ops[-1]) is tuple and ops[-1][2] >= row[3]:
                _reduce(ops.pop(), vals, names)
            ops.append(row)
            i, due = i + (row is not _APPLY), row[4]
            continue
        while ops and ops[-1] is not None:
            _reduce(ops.pop(), vals, names)
        if kind == ")" and ops:
            ops.pop()
            i += 1
        elif kind or ops:
            raise _error(text, f"expected ')', found {value!r}" if ops
                         else f"unexpected {value!r} after term", pos)
        else:
            return vals[0]


def _type(text: str, toks: list, i: int, bases=_BASES) -> tuple[SemType, int]:
    """The type that starts at token i, its names read in `bases`, and the index after it."""
    chains: list[list[SemType]] = [[]]  # per open `(`, the domains read so far
    while True:
        kind, value, pos = toks[i]
        if kind == "(":
            chains.append([])
            i += 1
            continue
        if value not in bases:
            raise _error(text, f"expected a type, found {value!r}", pos)
        ty, i = bases[value], i + 1
        while toks[i][0] != ">":        # the chain ends; `>` groups to the right
            for dom in reversed(chains.pop()):
                ty = Arrow(dom, ty)
            if not chains:
                return ty, i
            i = _expect(text, toks, i, ")")
        chains[-1].append(ty)
        i += 1


def parse_type(text: str) -> SemType:
    toks = _tokens(text)
    ty, i = _type(text, toks, 0)
    if toks[i][0]:
        raise _error(text, f"unexpected {toks[i][1]!r} after type", toks[i][2])
    return ty


# ---------------------------------------------------------------------------
# Pretty-printing

def pretty(term: Term, templates: Mapping[int, tuple] | None = None) -> str:
    """Named rendering with canonical fresh names (x1, x2, ... in binder
    order, skipping constants' names).  Round-trips through parse_term for
    closed terms.

    One left-to-right pass, linear in the term's size and not limited by
    Python's recursion limit.  A second pass, which reads no templates, runs
    only when a name the first chose turns out to be a constant's.  Given
    `templates`, a lexicon's table (`Lexicon.entry_templates`), the first pass
    prints each entry it meets by identity from its template, as it would
    print the entry itself.
    """
    text, shown, count = _render(term, (), templates)
    if any(chosen(name, "x", 1, count) for name in shown):
        text = _render(term, shown)[0]
    return text


def _render(term: Term, avoid, templates=None,
            fields: bool = False) -> tuple[str, dict[str, str], int]:
    """pretty's pass: the text, each constant's printed form by name, the names
    tried.  Lambda chains, application spines and left operands are walked in place.
    A Lam whose id `templates` holds, (template, constants' printed forms,
    binders, the Lam), prints from it with the names due.  With `fields`, the
    pass makes a template: binder k (from 0) is named by the format field x{k},
    and braces in constants' printed forms are doubled."""
    shown: dict[str, str] = {}
    counter = 0
    names: list[str] = []   # names[d]: the binder at depth d, outermost first
    out: list[str] = []
    stack: list = [("", term, _LAM, 0)]   # `)`, or (text before, term, level, depth)
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        text, t, level, depth = item
        out.append(text)
        while True:
            kind = type(t)
            if kind is App:     # the commonest; an operator's constant (by name first) as sugar
                fn = t.fn
                head = fn.fn if type(fn) is App else fn
                row = _OPS.get(head.name) if type(head) is Const else None
                if not (row and (row[3] is None) == (head is fn)
                        and (head is row[0] or head == row[0])):
                    row = _APPLY
                if level > row[2]:
                    out.append("(")
                    stack.append(")")
                if row[3] is None:          # `~`, then its operand
                    out.append(row[1])
                    t, level = t.arg, row[4]
                else:                       # the left operand or function, then the rest
                    stack.append((row[1], t.arg, row[4], depth))
                    t, level = (fn if row is _APPLY else fn.arg), row[3]
                continue
            if kind is Var:  # a free variable renders as #i, which does not re-parse
                i = t.index
                out.append(names[depth - 1 - i] if i < depth else f"#{i}")
                break
            if kind is Const:
                if t.name not in shown:
                    shown[t.name] = t.name if _WORD.fullmatch(t.name) else f"({t.name})"
                printed = shown[t.name]
                out.append(printed.replace("{", "{{").replace("}", "}}") if fields else printed)
                break
            body = t.body   # a Lam; Coord and Sub by class, index and name, without `==`
            inner = body.body if type(body) is Lam and t.ty.text == body.ty.text == "g" \
                else None
            fn = inner.fn if type(inner) is App else None
            head = fn.fn if type(fn) is App else None
            if (type(inner) is Var and inner.index == 0) or (
                    type(head) is Const and head.name == "++" and head.ty.text == "g>g>g"
                    and type(fn.arg) is type(inner.arg) is Var
                    and (fn.arg.index, inner.arg.index) == (1, 0)):
                out.append("Coord" if type(inner) is Var else "Sub")
                break
            if level > _LAM:
                out.append("(")
                stack.append(")")
            if templates and (entry := templates.get(id(t))):   # a lexicon entry
                fmt, consts, n, _ = entry
                out.append(fmt.format(*range(counter + 1, counter + n + 1)))
                counter += n
                shown.update(consts)
                break
            counter += 1
            while avoid and f"x{counter}" in avoid:     # the second pass
                counter += 1
            name = f"x{{{counter - 1}}}" if fields else f"x{counter}"
            names[depth:] = (name,)
            out.append(f"\\{name}:{t.ty.text}. ")
            t, depth, level = body, depth + 1, _LAM
    return "".join(out), shown, counter
