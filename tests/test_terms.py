import random

import pytest

from contsem.terms import (
    App, Arrow, Base, Const, E, G, Lam, T, Var,
    KAPPA_B, KAPPA_C, SENT_A, SENT_B, SENT_C,
    StepBudgetExceeded, TypeMismatch, UnboundVariable,
    alpha_eq, app, arrow, is_closed, normalize, reduce_once, size, trace,
    typecheck, type_text,
)
from contsem.syntax import parse_term

from gen import GEN_SIG, applicative_normalize, random_closed_term

J = Const("j", E)


def test_arrow_is_right_associative():
    assert arrow(E, T, G) == Arrow(E, Arrow(T, G))
    assert type_text(arrow(arrow(G, T), T)) == "(g>t)>t"


def test_type_abbreviations_expand():
    assert KAPPA_B == arrow(T, T, T)
    assert KAPPA_C == arrow(G, G, G)
    assert SENT_A == arrow(G, arrow(G, T), T)
    assert SENT_B == arrow(KAPPA_B, G, G, arrow(KAPPA_B, G, G, T), T)
    assert SENT_C == arrow(KAPPA_C, G, G, arrow(KAPPA_C, G, G, T), T)


def test_typecheck_identity():
    assert typecheck(Lam(E, Var(0))) == Arrow(E, E)


def test_typecheck_application_mismatch():
    with pytest.raises(TypeMismatch) as exc:
        typecheck(App(J, J))
    assert exc.value.position == ("fn",)


def test_typecheck_unbound_variable():
    with pytest.raises(UnboundVariable):
        typecheck(Lam(E, Var(3)))


@pytest.mark.parametrize("source,message", [
    (r"\x:e. own (own x j j) j",
     "type mismatch at body.fn.arg.fn: expected a function type, found t"),
    (r"\x:e. own x p", "type mismatch at body.arg: expected e, found t"),
    (r"\e:g. \x:e. ~ (car (sel (x::e)) & own x (sel (x::p)))",
     "type mismatch at body.body.arg.arg.arg.arg.arg: expected g, found t"),
])
def test_typecheck_error_positions(source, message):
    sig = {"j": E, "car": arrow(E, T), "own": arrow(E, E, T), "p": T}
    with pytest.raises(TypeMismatch) as exc:
        typecheck(parse_term(source, sig))
    assert str(exc.value) == message
    assert ".".join(exc.value.position) == message.split()[3][:-1]


def test_unbound_variable_position():
    own = Const("own", arrow(E, E, T))
    with pytest.raises(UnboundVariable) as exc:
        typecheck(Lam(E, App(App(own, Var(0)), Lam(E, Var(4)))))
    assert str(exc.value) == "unbound variable #4 at body.arg.body"
    assert exc.value.position == ("body", "arg", "body")


def test_normalize_identity_redex():
    assert normalize(App(Lam(E, Var(0)), J)) == J


def test_normalize_under_binders():
    t = parse_term(r"\x:e. (\y:e. y) x")
    assert normalize(t) == Lam(E, Var(0))


def test_step_budget_is_enforced():
    with pytest.raises(StepBudgetExceeded):
        normalize(App(Lam(E, Var(0)), J), max_steps=0)


def test_alpha_eq_is_structural():
    assert alpha_eq(Lam(E, Var(0)), Lam(E, Var(0)))
    assert not alpha_eq(Lam(E, Var(0)), Lam(T, Var(0)))


def test_alpha_eq_ignores_surface_names():
    sig = {"j": E, "woman": arrow(E, T), "love": arrow(E, E, T)}
    a = parse_term(r"\e:g. \phi:g>t. Ex (\y:e. woman y & (love j y & phi (y::e)))", sig)
    b = parse_term(r"\env:g. \k:g>t. Ex (\w:e. woman w & (love j w & k (w::env)))", sig)
    assert alpha_eq(a, b)


def test_reduce_once_finds_leftmost_outermost():
    inner = App(Lam(E, Var(0)), J)
    t = App(Lam(E, Var(0)), inner)
    reduced, path = reduce_once(t)
    assert path == ()
    assert reduced == inner


def test_trace_single_step():
    steps = trace(App(Lam(E, Var(0)), J))
    assert len(steps) == 1
    assert steps[0].term == J


def test_trace_of_normal_term_is_empty():
    assert trace(J) == []
    assert trace(Lam(E, Var(0))) == []


def test_subterm_trace_positions():
    t = Lam(E, App(Lam(E, Var(0)), Var(0)))
    steps = trace(t)
    assert steps[0].position == ("body",)


SEED = 20260810


def test_random_terms_normalize_and_preserve_types():
    rng = random.Random(SEED)
    for _ in range(150):
        t = random_closed_term(rng)
        assert is_closed(t)
        assert size(t) <= 40
        ty = typecheck(t)
        nt = normalize(t)
        assert typecheck(nt) == ty
        assert reduce_once(nt) is None


def test_reduction_strategies_agree():
    rng = random.Random(SEED + 1)
    for _ in range(150):
        t = random_closed_term(rng)
        assert alpha_eq(normalize(t), applicative_normalize(t))


def test_trace_endpoint_matches_normalize():
    rng = random.Random(SEED + 2)
    for _ in range(60):
        t = random_closed_term(rng, fuel=18)
        steps = trace(t)
        end = steps[-1].term if steps else t
        assert alpha_eq(end, normalize(t))


def test_alpha_eq_is_an_equivalence_on_generated_terms():
    rng = random.Random(SEED + 3)
    terms = [random_closed_term(rng, fuel=12) for _ in range(40)]
    for t in terms:
        assert alpha_eq(t, t)
    for a in terms[:10]:
        for b in terms[:10]:
            assert alpha_eq(a, b) == alpha_eq(b, a)
            for c in terms[:5]:
                if alpha_eq(a, b) and alpha_eq(b, c):
                    assert alpha_eq(a, c)


def test_app_helper_left_associates():
    f = GEN_SIG["q2"]
    assert app(f, J, J) == App(App(f, J), J)
