import random

import pytest
from hypothesis import given, settings, strategies as st

from contsem.syntax import ParseError, UnknownIdentifier, parse_term, parse_type, pretty
from contsem.terms import (
    AND, COORD, NIL, SUB,
    App, Arrow, Const, E, G, Lam, T, Var,
    arrow, normalize, typecheck,
)

from gen import GEN_SIG, constants, random_closed_term


def test_parse_identity():
    assert parse_term(r"\x:e. x") == Lam(E, Var(0))


def test_parse_scoping():
    t = parse_term(r"\e:g. \phi:g>t. phi e")
    assert t == Lam(G, Lam(Arrow(G, T), App(Var(0), Var(1))))


def test_parse_indefinite_entry_typechecks():
    kb = "t>t>t"
    phib = f"({kb})>g>g>t"
    sb = f"({kb})>g>g>({phib})>t"
    source = (
        rf"\P:e>{sb}. \Q:e>{sb}. \c:{kb}. \e1:g. \e2:g. \phi:{phib}."
        rf" Ex (\x:e. (\phi':{phib}. (P x c e1 e2 phi') & (Q x c e1 e2 phi'))"
        rf" (\c':{kb}. \e1':g. \e2':g. phi c e1' (x::e2')))"
    )
    t = parse_term(source)
    sent = parse_type(sb)
    assert typecheck(t) == arrow(arrow(E, sent), arrow(E, sent), sent)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_term(r"\x:e. (x")
    assert exc.value.line == 1
    assert exc.value.column > 1


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as exc:
        parse_term("mystery")
    assert exc.value.name == "mystery"


def test_reserved_words_cannot_be_bound():
    with pytest.raises(ParseError):
        parse_term(r"\nil:g. nil")


def test_pretty_identity():
    assert pretty(Lam(E, Var(0))) == r"\x1:e. x1"


def test_pretty_constant():
    assert pretty(Const("j", E)) == "j"


def test_pretty_operator_sections():
    assert pretty(AND) == "(&)"
    assert pretty(App(AND, Const("p", T))) == "(&) p"


def test_combinator_sugar_round_trips():
    assert parse_term("Coord") == COORD
    assert parse_term("Sub") == SUB
    assert pretty(COORD) == "Coord"
    assert pretty(SUB) == "Sub"


def test_infix_precedences():
    sig = {"p": T, "q": T, "r": T}
    assert parse_term("p & q | r", sig) == parse_term("(p & q) | r", sig)
    assert parse_term("~ p & q", sig) == parse_term("(~ p) & q", sig)
    assert parse_term("p & q & r", sig) == parse_term("p & (q & r)", sig)
    env_sig = {"a": E, "b": E}
    assert parse_term("a::b::nil", env_sig) == parse_term("a::(b::nil)", env_sig)
    assert parse_term("a::nil ++ nil", env_sig) == parse_term("(a::nil) ++ nil", env_sig)


def test_type_parse_round_trip():
    for text in ("e", "g>t", "(g>t)>t", "(t>t>t)>g>g>((t>t>t)>g>g>t)>t"):
        assert parse_type(text) == parse_type(f"({text})")


def test_round_trip_of_pipeline_normal_form():
    sig = {"j": E, "woman": arrow(E, T), "love": arrow(E, E, T)}
    t = parse_term(r"\e:g. \phi:g>t. Ex (\y:e. woman y & (love j y & phi (y::e)))", sig)
    assert parse_term(pretty(t), sig) == t


def test_round_trip_random_terms():
    rng = random.Random(77)
    sig = {c.name: c.ty for c in GEN_SIG.values()}
    for _ in range(200):
        t = random_closed_term(rng)
        assert parse_term(pretty(t), sig) == t
        nt = normalize(t)
        assert parse_term(pretty(nt), sig) == nt


@st.composite
def _closed_terms(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    fuel = draw(st.integers(2, 25))
    return random_closed_term(random.Random(seed), fuel)


@settings(max_examples=60, deadline=None)
@given(_closed_terms())
def test_round_trip_property(t):
    assert parse_term(pretty(t), constants(t)) == t
