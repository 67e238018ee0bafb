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
"""
from __future__ import annotations

import re
from typing import Mapping, Optional

from .errors import ContsemError
from .terms import (
    AND, BUILTINS, CONS, COORD, NOT, OR, SUB, UNION,
    G, App, Arrow, Base, Const, Lam, SemType, Term, Var, constants, type_text,
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


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<cons>::)"
    r"|(?P<union>\+\+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<op>[\\.():>&|~])"
)

# Words with a fixed meaning in term syntax; they cannot be binder names.
_RESERVED = {"nil", "top", "bot", "sel", "Ex", "Coord", "Sub"}

_SUGAR = {"Coord": COORD, "Sub": SUB}


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                self._fail(f"unexpected character {text[pos]!r}", pos)
            pos = m.end()
            if m.lastgroup == "ws":
                continue
            kind = m.lastgroup
            value = m.group()
            if kind == "op":
                kind = value
            self.tokens.append((kind, value, m.start()))
        self.tokens.append(("eof", "", len(text)))
        self.index = 0

    def _fail(self, message, pos):
        line = self.text.count("\n", 0, pos) + 1
        column = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        raise ParseError(message, pos, line, column)

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != "eof":
            self.index += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != kind:
            self._fail(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.next()


class _Parser:
    def __init__(self, text: str, sig: Mapping[str, SemType]):
        self.lex = _Lexer(text)
        self.sig = sig

    def parse(self) -> Term:
        term = self.term([])
        tok = self.lex.peek()
        if tok[0] != "eof":
            self.lex._fail(f"unexpected {tok[1]!r} after term", tok[2])
        return term

    # -- terms ------------------------------------------------------------

    def term(self, env: list[str]) -> Term:
        if self.lex.peek()[0] == "\\":
            self.lex.next()
            kind, name, pos = self.lex.expect("ident")
            if name in _RESERVED:
                self.lex._fail(f"{name!r} is reserved and cannot be bound", pos)
            self.lex.expect(":")
            ty = self.type_()
            self.lex.expect(".")
            body = self.term([name] + env)
            return Lam(ty, body)
        return self.disj(env)

    def disj(self, env) -> Term:
        left = self.conj(env)
        if self.lex.peek()[0] == "|":
            self.lex.next()
            return App(App(OR, left), self.disj(env))
        return left

    def conj(self, env) -> Term:
        left = self.neg(env)
        if self.lex.peek()[0] == "&":
            self.lex.next()
            return App(App(AND, left), self.conj(env))
        return left

    def neg(self, env) -> Term:
        if self.lex.peek()[0] == "~":
            self.lex.next()
            return App(NOT, self.neg(env))
        return self.union(env)

    def union(self, env) -> Term:
        left = self.cons(env)
        while self.lex.peek()[0] == "union":
            self.lex.next()
            left = App(App(UNION, left), self.cons(env))
        return left

    def cons(self, env) -> Term:
        head = self.application(env)
        if self.lex.peek()[0] == "cons":
            self.lex.next()
            return App(App(CONS, head), self.cons(env))
        return head

    _ATOM_STARTS = ("ident", "(")

    def application(self, env) -> Term:
        term = self.atom(env)
        while self.lex.peek()[0] in self._ATOM_STARTS:
            term = App(term, self.atom(env))
        return term

    _SECTIONS = {"&": AND, "|": OR, "~": NOT, "cons": CONS, "union": UNION}

    def atom(self, env) -> Term:
        kind, value, pos = self.lex.peek()
        if kind == "(":
            # `(&)`-style sections expose operator constants unapplied.
            nxt, nval, _ = self.lex.peek(1)
            if nxt in self._SECTIONS and self.lex.peek(2)[0] == ")":
                self.lex.next()
                self.lex.next()
                self.lex.next()
                return self._SECTIONS[nxt]
            self.lex.next()
            term = self.term(env)
            self.lex.expect(")")
            return term
        if kind == "ident":
            self.lex.next()
            if value in env:
                return Var(env.index(value))
            if value in _SUGAR:
                return _SUGAR[value]
            if value in BUILTINS:
                return BUILTINS[value]
            if value in self.sig:
                return Const(value, self.sig[value])
            raise UnknownIdentifier(value, pos)
        self.lex._fail(f"expected a term, found {value!r}", pos)

    # -- types ------------------------------------------------------------

    def type_(self) -> SemType:
        left = self.btype()
        if self.lex.peek()[0] == ">":
            self.lex.next()
            return Arrow(left, self.type_())
        return left

    def btype(self) -> SemType:
        kind, value, pos = self.lex.peek()
        if kind == "(":
            self.lex.next()
            ty = self.type_()
            self.lex.expect(")")
            return ty
        if kind == "ident" and value in ("e", "t", "g"):
            self.lex.next()
            return Base(value)
        self.lex._fail(f"expected a type, found {value!r}", pos)


def parse_term(text: str, constants: Optional[Mapping[str, SemType]] = None) -> Term:
    """Parse the named lambda syntax into a De Bruijn term.

    `constants` declares non-builtin constants (content words, entity names).
    """
    return _Parser(text, dict(constants or {})).parse()


def parse_type(text: str) -> SemType:
    parser = _Parser(text, {})
    ty = parser.type_()
    tok = parser.lex.peek()
    if tok[0] != "eof":
        parser.lex._fail(f"unexpected {tok[1]!r} after type", tok[2])
    return ty


# ---------------------------------------------------------------------------
# Pretty-printing

# Precedence levels, loosest first.  A construct is parenthesized when it
# appears in a context demanding a tighter level than its own.
_LAM, _DISJ, _CONJ, _NEG, _UNION, _CONS, _APP, _ATOM = range(8)

_WORDLIKE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


# Infix constants by name: (constant, operator, own level, left level,
# right level).  `&`, `|` and `::` associate to the right, `++` to the left.
_INFIX = {row[0].name: row for row in (
    (AND, " & ", _CONJ, _CONJ + 1, _CONJ),
    (OR, " | ", _DISJ, _DISJ + 1, _DISJ),
    (CONS, "::", _CONS, _CONS + 1, _CONS),
    (UNION, "++", _UNION, _UNION, _UNION + 1),
)}


def pretty(term: Term) -> str:
    """Named rendering with canonical fresh names (x1, x2, ... in binder
    order).  Round-trips through parse_term for closed terms.

    One left-to-right pass over an explicit stack: linear in the term's size,
    and its depth is not limited by Python's recursion limit.
    """
    used = constants(term)
    counter = 0
    names: list[str] = []   # names[d]: the binder at depth d, outermost first
    ty_texts: dict[int, str] = {}   # by id: hashing a type walks all of it
    out: list[str] = []
    stack: list = [(term, _LAM, 0)]   # pending text, or (term, level, depth)
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, level, depth = item
        kind = type(t)
        if kind is Var:  # a free variable renders as #i, which does not re-parse
            out.append(names[depth - 1 - t.index] if t.index < depth else f"#{t.index}")
            continue
        if kind is Const:
            out.append(t.name if _WORDLIKE.match(t.name) else f"({t.name})")
            continue
        if kind is Lam:
            if t.ty == G and (t == COORD or t == SUB):
                out.append("Coord" if t == COORD else "Sub")
                continue
            while True:
                counter += 1
                name = f"x{counter}"
                if name not in used and name not in _RESERVED:
                    break
            names[depth:] = [name]
            ty = ty_texts.get(id(t.ty))
            if ty is None:
                ty = ty_texts[id(t.ty)] = type_text(t.ty)
            own, parts = _LAM, ((t.body, _LAM, depth + 1), f"\\{name}:{ty}. ")
        else:
            # Applications, with infix/prefix sugar for the logical constants.
            fn = t.fn
            head = fn.fn if type(fn) is App else None
            infix = _INFIX.get(head.name) if type(head) is Const else None
            if infix is not None and head == infix[0]:
                _, op, own, left, right = infix
                parts = ((t.arg, right, depth), op, (fn.arg, left, depth))
            elif type(fn) is Const and fn.name == NOT.name and fn == NOT:
                own, parts = _NEG, ((t.arg, _NEG, depth), "~ ")
            else:
                own, parts = _APP, ((t.arg, _ATOM, depth), " ", (fn, _APP, depth))
        if level > own:
            out.append("(")
            stack.append(")")
        stack += parts   # listed last piece first, as the stack pops them
    return "".join(out)
