import random

import pytest

from contsem.logic import (
    And, Atom, Bot, ConsE, EntConst, EntVar, Exists, NilE, Not, NotReifiable,
    Or, SelOf, SignatureTooLarge, Top, UnionE,
    alpha_eq, env_entries, formula_json, formula_text, logically_equiv,
    reify, simplify,
)
from contsem.terms import (
    AND, CONS, EXISTS, NIL, NOT, OR, SEL, TOP, UNION,
    App, Const, E, Lam, T, Var, app, arrow,
)

from gen import random_formula, recursive_env_entries

J = EntConst("j")
Y = EntVar("y")
CAR = Const("car", arrow(E, T))
JC = Const("j", E)


# ---------------------------------------------------------------------------
# reify

def test_reify_top():
    assert reify(TOP) == Top()


def test_reify_negated_atom():
    assert reify(App(NOT, App(CAR, JC))) == Not(Atom("car", (J,)))


def test_reify_quantifier_and_sel():
    t = App(EXISTS, Lam(E, app(AND,
                               App(CAR, Var(0)),
                               App(CAR, App(SEL, app(CONS, Var(0), NIL))))))
    f = reify(t)
    assert f == Exists("y", And(Atom("car", (EntVar("y"),)),
                                Atom("car", (SelOf(ConsE(EntVar("y"), NilE()), 0),))))


def test_reify_site_ids_left_to_right():
    sel_nil = App(SEL, NIL)
    t = app(AND, App(CAR, sel_nil), App(CAR, sel_nil))
    f = reify(t)
    assert f.left.args[0].site_id == 0
    assert f.right.args[0].site_id == 1


def test_reify_rejects_foreign_heads():
    weird = Const("f", arrow(T, T))
    with pytest.raises(NotReifiable):
        reify(App(weird, TOP))


OWN = Const("own", arrow(E, E, T))


@pytest.mark.parametrize("term,message", [
    (app(AND, App(NOT, TOP), App(EXISTS, Lam(T, TOP))),
     "at arg: quantifier not applied to an entity property"),
    (app(OR, TOP, App(EXISTS, Lam(E, app(AND, App(CAR, Var(0)), App(CAR, Var(1)))))),
     "at arg.arg.body.arg.arg: entity variable escapes its quantifier"),
    (app(AND, TOP, App(EXISTS, Lam(E, App(CAR, App(SEL, app(CONS, App(SEL, NIL), NIL)))))),
     "at arg.arg.body.arg.arg: selection result used as an environment entry"),
    (App(EXISTS, Lam(E, App(CAR, App(SEL, app(UNION, app(CONS, Var(0), NIL),
                                            app(CONS, JC, TOP)))))),
     "at arg.body.arg.arg.arg.arg: not an environment expression"),
    (App(NOT, App(NOT, app(OWN, JC, App(CAR, JC)))), "at arg.arg.arg: not an entity term"),
    (App(NOT, Var(0)), "at arg: not in the reifiable fragment"),
])
def test_reify_error_positions(term, message):
    with pytest.raises(NotReifiable) as exc:
        reify(term)
    assert str(exc.value) == f"term is not reifiable {message}"
    assert ".".join(exc.value.position) == message[3:message.index(":")]


def test_reify_nullary_atoms():
    assert reify(Const("p", T)) == Atom("p", ())


# ---------------------------------------------------------------------------
# simplify

P = Atom("p", ())
Q = Atom("q", ())
K = Atom("k", ())


def test_unit_laws():
    assert simplify(Or(P, Bot())) == P
    assert simplify(And(Top(), P)) == P
    assert simplify(And(P, Bot())) == Bot()
    assert simplify(Or(P, Top())) == Top()
    assert simplify(Not(Top())) == Bot()
    assert simplify(Not(Bot())) == Top()


def test_double_negation():
    assert simplify(Not(Not(P))) == P


def test_de_morgan_stops_at_quantifiers():
    inner = Exists("v", And(Atom("p", (EntVar("v"),)), Atom("q", (EntVar("v"),))))
    assert simplify(Not(inner)) == Not(inner)


def test_shared_tail_fusion_or():
    car_y = Atom("car", (Y,))
    own_xy = Atom("own", (EntConst("x"), Y))
    fused = simplify(And(Or(car_y, K), Or(own_xy, K)))
    assert fused == Or(And(car_y, own_xy), K)


def test_shared_tail_fusion_and():
    fused = simplify(And(And(P, K), And(Q, K)))
    assert fused == And(And(P, Q), K)


def test_fusion_ignores_site_ids():
    k1 = Atom("red", (SelOf(ConsE(J, NilE()), 0),))
    k2 = Atom("red", (SelOf(ConsE(J, NilE()), 1),))
    assert simplify(And(Or(P, k1), Or(Q, k2))) == Or(And(P, Q), k1)


def test_env_normalization_inside_sel():
    f = Atom("red", (SelOf(UnionE(ConsE(J, NilE()), NilE()), 0),))
    assert simplify(f) == Atom("red", (SelOf(ConsE(J, NilE()), 0),))


def _random_env(rng, depth=5):
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return NilE()
    if roll < 0.65:
        head = rng.choice((J, EntConst("m"), Y, EntVar("y1"), EntVar("y2")))
        return ConsE(head, _random_env(rng, depth - 1))
    return UnionE(_random_env(rng, depth - 1), _random_env(rng, depth - 1))


def test_env_entries_match_recursive_flattening():
    rng = random.Random(31)
    for _ in range(2000):
        env = _random_env(rng)
        assert env_entries(env) == recursive_env_entries(env)
    # The union's right operand comes first; the older left occurrence of j wins.
    env = UnionE(ConsE(J, NilE()), ConsE(Y, ConsE(J, NilE())))
    assert env_entries(env) == (Y, J) == recursive_env_entries(env)


def test_env_entries_of_long_cons_chain():
    env = NilE()
    for i in range(20_000):
        env = ConsE(EntVar(f"y{i}"), env)
    assert env_entries(env) == tuple(EntVar(f"y{i}") for i in reversed(range(20_000)))


def test_scope_shrinking_keeps_dependent_parts_inside():
    body = And(Atom("car", (Y,)), Atom("red", (SelOf(ConsE(Y, NilE()), 0),)))
    f = Exists("y", body)
    assert simplify(f) == f


def test_scope_shrinking_extracts_independent_disjunct():
    f = Not(Exists("y", Or(And(Atom("car", (Y,)), Atom("own", (J, Y))), Not(K))))
    expected = And(Not(Exists("y", And(Atom("car", (Y,)), Atom("own", (J, Y))))), K)
    assert simplify(f) == expected


def test_simplify_idempotent_on_random_formulas():
    rng = random.Random(99)
    for _ in range(80):
        f = random_formula(rng)
        s = simplify(f)
        assert simplify(s) == s


def test_simplify_preserves_equivalence_sample():
    rng = random.Random(100)
    for _ in range(60):
        f = random_formula(rng)
        assert logically_equiv(f, simplify(f), 3)


# ---------------------------------------------------------------------------
# alpha_eq on formulas

def test_formula_alpha_eq_renames_bound_vars():
    a = Exists("y", Atom("p", (EntVar("y"),)))
    b = Exists("z", Atom("p", (EntVar("z"),)))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, Exists("z", Atom("p", (EntConst("z"),))))


# ---------------------------------------------------------------------------
# logically_equiv

def test_double_negation_equiv():
    for n in (1, 2, 3):
        assert logically_equiv(P, Not(Not(P)), n)


def test_countermodel_found():
    x = EntConst("x")
    assert not logically_equiv(Atom("car", (x,)), Atom("own", (x, x)), 2)


def test_inequivalent_under_quantifier():
    f1 = Exists("v", Atom("p", (EntVar("v"),)))
    f2 = Not(Exists("v", Atom("p", (EntVar("v"),))))
    assert not logically_equiv(f1, f2, 2)


def test_exhaustive_bound_raises():
    args = tuple(EntConst(c) for c in "abc")
    f = Atom("big", args)
    with pytest.raises(SignatureTooLarge):
        logically_equiv(f, f, 2, method="exhaustive")


def test_sampled_mode_on_large_signature():
    args = tuple(EntConst(c) for c in "abc")
    f = Atom("big", args)
    assert logically_equiv(f, f, 2, method="sampled", samples=200)


def test_sel_sites_freeze_by_evaluated_env():
    site_a = Atom("red", (SelOf(UnionE(ConsE(J, NilE()), NilE()), 0),))
    site_b = Atom("red", (SelOf(ConsE(J, NilE()), 5),))
    assert logically_equiv(site_a, site_b, 2)


def test_distinct_envs_freeze_apart():
    site_a = Atom("red", (SelOf(ConsE(J, NilE()), 0),))
    site_b = Atom("red", (SelOf(ConsE(EntConst("m"), NilE()), 1),))
    assert not logically_equiv(site_a, site_b, 2)


# ---------------------------------------------------------------------------
# rendering

def test_formula_text_negated_quantifier_display():
    f = And(Not(Exists("y", And(Atom("car", (Y,)), Atom("own", (J, Y))))),
            Atom("red", (SelOf(ConsE(J, NilE()), 0),)))
    assert formula_text(f) == "(~ Ex y. (car y & own j y)) & red(sel(j::nil))"


def test_formula_text_union_parens():
    f = Atom("red", (SelOf(UnionE(ConsE(J, NilE()), NilE()), 0),))
    assert formula_text(f) == "red(sel((j::nil)++nil))"


def test_formula_json_tags():
    f = Exists("y", Atom("red", (SelOf(ConsE(EntVar("y"), NilE()), 3),)))
    doc = formula_json(f)
    assert doc["node"] == "exists"
    atom = doc["body"]
    assert atom["node"] == "atom"
    assert atom["args"][0]["entity"] == "sel"
    assert atom["args"][0]["site"] == 3
    assert atom["args"][0]["env"]["env"] == "cons"
