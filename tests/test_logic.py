import gc
import random

import pytest

from contsem.discourse import default_initial_args, interpret, run_pipeline
from contsem.errors import ContsemError
from contsem.lexicon import default_lexicon
from contsem.logic import (
    And, Atom, Bot, ConsE, EntConst, EntVar, Exists, NilE, Not, NotReifiable,
    Or, SelOf, Shifted, Top, UnionE,
    alpha_eq, env_entries, expand, formula_json, formula_text, reify, simplify,
)
from contsem.node import Node
from contsem.resolver import EmptyEnvironment, resolve
from contsem.syntax import parse_type
from contsem.terms import (
    AND, BOT, BUILTINS, CONS, EXISTS, NIL, NOT, OR, SEL, TOP, UNION,
    App, Const, E, G, Lam, T, Var, app, arrow,
)

from gen import (
    pipeline_cases, random_formula, random_reify_term, recursive_entity_json,
    recursive_entity_text, recursive_env_entries, recursive_env_json,
    recursive_env_text, recursive_formula_json, recursive_formula_text,
    recursive_alpha_eq, recursive_reify, stacked_negation_formula, subst_consts, subterms,
)
from oracle import SignatureTooLarge, logically_equiv

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
    (app(OWN, App(CAR, JC), JC), "at fn.arg: not an entity term"),
    (App(EXISTS, Lam(E, app(OWN, Var(1), App(CAR, JC)))),
     "at arg.body.fn.arg: entity variable escapes its quantifier"),
    (App(EXISTS, Lam(E, App(CAR, Var(-1)))),
     "at arg.body.arg: entity variable escapes its quantifier"),
    (App(EXISTS, Lam(E, App(CAR, Var(-2)))),
     "at arg.body.arg: entity variable escapes its quantifier"),
    (App(NOT, App(Const("f", arrow(E, E)), JC)), "at arg: not in the reifiable fragment"),
])
def test_reify_error_positions(term, message):
    with pytest.raises(NotReifiable) as exc:
        reify(term)
    assert str(exc.value) == f"term is not reifiable {message}"
    assert ".".join(exc.value.position) == message[3:message.index(":")]


def test_reify_nullary_atoms():
    assert reify(Const("p", T)) == Atom("p", ())


def test_reify_recognises_builtins_by_structure():
    """Builtins equal to, but not the same objects as, the `terms`
    singletons reify as the singletons do."""
    t = app(OR, App(NOT, BOT), App(EXISTS, Lam(E, app(
        AND, App(CAR, Var(0)),
        App(CAR, App(SEL, app(UNION, app(CONS, Var(0), NIL), app(CONS, JC, NIL))))))))
    fresh = {b.name: Const(b.name, parse_type(b.ty.text)) for b in BUILTINS.values()}
    copy = subst_consts(t, fresh)
    assert copy == t
    assert not any(s is b for s in subterms(copy) for b in BUILTINS.values())
    assert reify(copy) == reify(t) == Or(Not(Bot()), Exists("y", And(
        Atom("car", (Y,)),
        Atom("car", (SelOf(UnionE(ConsE(Y, NilE()), ConsE(J, NilE())), 0),)))))


@pytest.mark.parametrize("term", [
    app(Const("&", arrow(E, E, T)), JC, JC),
    app(Const("|", arrow(T, T, E)), TOP, TOP),
    App(Const("~", arrow(E, T)), JC),
    App(Const("Ex", arrow(E, T)), JC),
    App(Const("Ex", arrow(arrow(E, E), T)), Lam(E, Var(0))),
    App(CAR, App(Const("sel", arrow(E, E)), JC)),
    App(CAR, App(SEL, app(Const("::", arrow(E, G, E)), JC, NIL))),
    App(CAR, App(SEL, Const("nil", E))),
    Const("top", arrow(E, T)),
])
def test_reify_rejects_a_builtin_name_at_another_type(term):
    with pytest.raises(NotReifiable):
        reify(term)


def test_reify_names_sibling_quantifiers_apart():
    """The quantifier is one subterm read twice: the second reading is a
    copy of the first, its bound name shifted by one."""
    some_car = App(EXISTS, Lam(E, App(CAR, Var(0))))
    f = reify(app(AND, some_car, App(NOT, some_car)))
    assert f.right.body == Shifted(f.left, ((0, 1),), 0)
    assert expand(f) == And(
        Exists("y", Atom("car", (Y,))), Not(Exists("y1", Atom("car", (EntVar("y1"),)))))


def test_quantified_names_skip_constants_met_after_the_binder():
    """`reify` learns the constants' names during its walk; a quantified
    name that turns out to be one of them is chosen again."""
    y, y1 = Const("y", arrow(E, T)), Const("y1", E)
    t = app(AND, App(EXISTS, Lam(E, App(CAR, Var(0)))), App(y, y1))
    assert reify(t) == And(Exists("y2", Atom("car", (EntVar("y2"),))),
                           Atom("y", (EntConst("y1"),)))


def _reify_outcome(reader, term):
    try:
        return reader(term)
    except NotReifiable as exc:
        return str(exc), exc.position


def test_reify_matches_recursive_reference_on_random_terms():
    rng = random.Random(12)
    terms = [random_reify_term(rng) for _ in range(20_000)]
    outcomes = [_reify_outcome(reify, t) for t in terms]
    assert [o for t, o in zip(terms, outcomes) if o != _reify_outcome(recursive_reify, t)] == []
    assert {o[0].split(": ", 1)[1] for o in outcomes if type(o) is tuple} == {
        "not in the reifiable fragment", "not an entity term", "not an environment expression",
        "entity variable escapes its quantifier", "quantifier not applied to an entity property",
        "selection result used as an environment entry"}
    assert sum(type(o) is not tuple for o in outcomes) > 5_000


def test_reify_matches_recursive_reference_on_pipeline_normal_forms():
    lex = default_lexicon()
    normals = [run_pipeline(tree, lex, profile, default_initial_args(profile)).normal
               for tree, profile in pipeline_cases(lex)]
    assert len(normals) == 33
    assert [t for t in normals if reify(t) != recursive_reify(t)] == []


def test_reify_leaves_no_cyclic_garbage():
    lex = default_lexicon()
    tree, profile = next(pipeline_cases(lex))
    normal = run_pipeline(tree, lex, profile, default_initial_args(profile)).normal
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        reify(normal)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


# Deep terms reify at the default recursion limit; their formulas are
# compared as text, since comparing deep formulas with `==` recurses.

def _ps(i):
    return App(Const("p", arrow(E, T)), Const(f"c{i}", E))


def test_deep_negation_reifies():
    n = 10_000
    t = TOP
    for _ in range(n):
        t = App(NOT, t)
    assert formula_text(reify(t)) == "~ " * n + "top"


@pytest.mark.parametrize("op,text", [(AND, " & "), (OR, " | ")])
def test_long_connective_chains_reify(op, text):
    n = 5_000
    right, left = _ps(n - 1), _ps(0)
    for i in range(1, n):
        right, left = app(op, _ps(n - 1 - i), right), app(op, left, _ps(i))
    assert formula_text(reify(right)) == text.join(f"p c{i}" for i in range(n))
    assert formula_text(reify(left)) == ("(" * (n - 2) + "p c0" + text + "p c1"
                                         + "".join(f"){text}p c{i}" for i in range(2, n)))


def test_nested_quantifiers_reify():
    n = 5_000
    t = app(Const("q", arrow(E, E, T)), Var(0), Var(n - 1))
    for _ in range(n):
        t = App(EXISTS, Lam(E, t))
    names = ["y"] + [f"y{i}" for i in range(1, n)]
    assert formula_text(reify(t)) == "".join(f"Ex {v}. " for v in names) + f"q y{n - 1} y"


def test_long_environment_reifies():
    n = 5_000
    env = NIL
    for i in reversed(range(n)):
        env = app(CONS, Const(f"c{i}", E), env)
    f = reify(App(CAR, App(SEL, env)))
    assert formula_text(f) == "car(sel(" + "".join(f"c{i}::" for i in range(n)) + "nil))"


def test_deep_union_nest_reifies():
    n = 5_000
    env = NIL
    for i in range(1, n + 1):
        env = app(UNION, env, app(CONS, Const(f"c{i}", E), NIL))
    text = ("(" * (n - 1) + "nil++(c1::nil)"
            + "".join(f")++(c{i}::nil)" for i in range(2, n + 1)))
    assert formula_text(reify(App(CAR, App(SEL, env)))) == f"car(sel({text}))"


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


def test_env_entries_keeps_a_constant_and_a_variable_of_one_name_apart():
    """Entries are told apart by class and name, a selection by its value; the
    entries kept are the very objects the recursive flattening keeps."""
    c, v = EntConst("y"), EntVar("y")
    sel, sel2 = SelOf(ConsE(J, NilE()), 0), SelOf(ConsE(J, NilE()), 0)
    env = ConsE(c, ConsE(v, ConsE(sel, ConsE(EntConst("y"), ConsE(EntVar("y"), ConsE(
        sel2, ConsE(SelOf(ConsE(J, NilE()), 1), NilE())))))))
    found = env_entries(env)
    assert found == recursive_env_entries(env) == (c, v, sel, EntConst("y"), EntVar("y"), sel2,
                                                   SelOf(ConsE(J, NilE()), 1))[3:]
    assert all(a is b for a, b in zip(found, recursive_env_entries(env)))
    assert env_entries(UnionE(ConsE(c, NilE()), ConsE(v, NilE()))) == (v, c)


def test_env_entries_hashes_and_compares_no_entity(monkeypatch):
    """Constants and variables are keyed by class and name, not hashed as nodes."""
    rng = random.Random(32)
    envs = [_random_env(rng) for _ in range(500)]
    expected = [recursive_env_entries(env) for env in envs]

    def forbidden(*_):
        raise AssertionError("an entity hashed or compared")

    for cls in (EntConst, EntVar):
        monkeypatch.setattr(cls, "__hash__", forbidden)
        monkeypatch.setattr(cls, "__eq__", forbidden)
    found = [env_entries(env) for env in envs]
    monkeypatch.undo()
    assert found == expected


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


def test_formula_alpha_eq_restores_a_shadowed_binder():
    """Leaving an inner `Ex y` that shadows an outer `Ex y` gives `y` back
    its outer renaming, as the recursive reference's scoped renaming does."""
    def shadowing(outer, inner, last):      # Ex outer. (Ex inner. p inner) & p last
        return Exists(outer, And(Exists(inner, Atom("p", (EntVar(inner),))),
                                 Atom("p", (EntVar(last),))))
    y = shadowing("y", "y", "y")
    for other, same in ((shadowing("z", "w", "z"), True), (shadowing("z", "z", "z"), True),
                        (shadowing("z", "w", "w"), False), (shadowing("z", "y", "y"), False)):
        assert alpha_eq(y, other) == recursive_alpha_eq(y, other) == same
        assert alpha_eq(other, y) == recursive_alpha_eq(other, y) == same


class _CountedArgs(tuple):
    """An atom's arguments that count how often a walk reads them."""
    reads = 0

    def __iter__(self):
        _CountedArgs.reads += 1
        return super().__iter__()


def _atom_pairs_read(f1, f2) -> tuple[bool, int]:
    """alpha_eq(f1, f2) and the number of atom pairs it walked into."""
    _CountedArgs.reads = 0
    same = alpha_eq(f1, f2)
    return same, _CountedArgs.reads // 2


def test_formula_alpha_eq_takes_one_node_as_equal_without_a_walk():
    """A pair that is one node, a copy read as its body, under equal binder maps
    is equal at once; a formula and an equal one that shares no node, or one
    node under binders that read its names apart, are walked."""
    def chain(names):       # p names[0] & (p names[1] & ...)
        f = Atom("p", _CountedArgs((EntVar(names[-1]),)))
        for name in reversed(names[:-1]):
            f = And(Atom("p", _CountedArgs((EntVar(name),))), f)
        return f

    names = [f"y{i}" for i in range(1, 41)]
    x = chain(names)
    copy = Shifted(x, ((1, 50),), 3)
    assert _atom_pairs_read(x, x) == (True, 0)
    assert _atom_pairs_read(copy, x) == _atom_pairs_read(x, copy) == (True, 0)
    assert _atom_pairs_read(copy, Shifted(x, ((2, 7),), 0)) == (True, 0)
    assert _atom_pairs_read(Not(copy), Not(x)) == (True, 0)
    assert _atom_pairs_read(Exists("y1", x), Exists("y1", copy)) == (True, 0)
    assert _atom_pairs_read(x, chain(names)) == (True, 40)
    # Ex y9. x against Ex z. x: y9 is bound on the left and free on the right.
    same, walked = _atom_pairs_read(Exists("y9", x), Exists("z", x))
    assert not same and walked > 0
    # Leaving a binder of one name on both sides leaves the maps equal.
    left = And(Exists("y1", Atom("q", (EntVar("y1"),))), x)
    right = And(Exists("y1", Atom("q", (EntVar("y1"),))), copy)
    assert _atom_pairs_read(left, right) == (True, 0)


def _names_mapped(x, binder, var, bound=()):
    """`x` with each binder's name replaced by binder(name, enclosing binders'
    names) and each variable's by var(name, enclosing binders' names)."""
    kind = type(x)
    if kind is Exists:
        return Exists(binder(x.var, bound), _names_mapped(x.body, binder, var, (*bound, x.var)))
    if kind is EntVar:
        return EntVar(var(x.name, bound))
    return kind(*[tuple(_names_mapped(a, binder, var, bound) for a in v) if type(v) is tuple
                  else _names_mapped(v, binder, var, bound) if isinstance(v, Node) else v
                  for v in x._values()])


def _by_depth(x):
    """`x` with each bound name written as its binder's depth, `#0` outermost."""
    def var(name, bound):
        depths = [i for i, v in enumerate(bound) if v == name]
        return f"#{depths[-1]}" if depths else name
    return _names_mapped(x, lambda name, bound: f"#{len(bound)}", var)


def test_formula_alpha_eq_is_symmetric_and_agrees_with_binder_depths():
    """Random formulas and variants of them whose binders and variables are
    renamed by two maps, the same one or not: some stay alpha-equal, some
    capture a variable and some free one.  A variant keeps its formula's site
    ids, so writing bound names as binder depths decides alpha-equality."""
    rng = random.Random(21)
    names = ("v1", "v2", "w")
    answers = []
    for _ in range(1500):
        f = random_formula(rng)
        variants = [f]
        for _ in range(3):
            b = {"v1": rng.choice(names), "v2": rng.choice(names)}
            v = b if rng.random() < 0.5 else {"v1": rng.choice(names), "v2": rng.choice(names)}
            variants.append(_names_mapped(f, lambda n, _: b[n], lambda n, _: v[n]))
        for g in variants:
            for h in variants:
                same = _by_depth(g) == _by_depth(h)
                assert alpha_eq(g, h) == alpha_eq(h, g) == recursive_alpha_eq(g, h) == same
                answers.append(same)
    assert answers.count(False) > 500     # of 24 000


def test_formula_alpha_eq_compares_environments_and_ignores_site_ids():
    def red(var, left, right, site):
        env = UnionE(ConsE(left, NilE()), ConsE(right, NilE()))
        return Exists(var, Atom("red", (SelOf(env, site),)))
    z = EntVar("z")
    assert alpha_eq(red("y", Y, J, 0), red("z", z, J, 5))
    assert not alpha_eq(red("y", Y, J, 0), red("z", J, z, 0))
    assert not alpha_eq(red("y", Y, J, 0), red("z", z, EntConst("m"), 0))


def _binder_chain(names, depth, last_ref=None):
    """Ex n0. (q n0 & Ex n1. (q2 n1 n0 & ...)), built without recursing; the
    innermost atom refers to `last_ref` (default: the enclosing binder)."""
    ref = names[depth - 2] if last_ref is None else last_ref
    f = Exists(names[depth - 1], Atom("q2", (EntVar(names[depth - 1]), EntVar(ref))))
    for i in reversed(range(1, depth - 1)):
        f = Exists(names[i], And(Atom("q2", (EntVar(names[i]), EntVar(names[i - 1]))), f))
    return Exists(names[0], And(Atom("q", (EntVar(names[0]),)), f))


def test_formula_alpha_eq_on_deep_chains():
    depth = 10_000
    xs = [f"x{i}" for i in range(depth)]
    ys = [f"y{i}" for i in range(depth)]
    assert alpha_eq(_binder_chain(xs, depth), _binder_chain(ys, depth))
    # The innermost reference skips a binder on one side only.
    assert not alpha_eq(_binder_chain(xs, depth),
                        _binder_chain(ys, depth, last_ref=ys[depth - 3]))


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


@pytest.mark.parametrize("f1,f2,kwargs,message", [
    (P, P, {"domain_size": 0}, "domain_size must be between 1 and 4"),
    (P, P, {"domain_size": 5}, "domain_size must be between 1 and 4"),
    (P, P, {"domain_size": 2, "method": "guess"}, "unknown method 'guess'"),
    (Atom("p", (J,)), Atom("p", (J, J)), {"domain_size": 2},
     "predicate 'p' used at inconsistent arities"),
    (Atom("q", (Y,)), P, {"domain_size": 2}, "free entity variable 'y'"),
], ids=["domain-0", "domain-5", "method", "arity", "free-variable"])
def test_logically_equiv_rejects_bad_arguments(f1, f2, kwargs, message):
    with pytest.raises(ContsemError) as exc:
        logically_equiv(f1, f2, **kwargs)
    assert str(exc.value) == message


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
    f = Exists("y", Atom("own", (J, SelOf(UnionE(ConsE(Y, NilE()), NilE()), 3))))
    assert formula_json(f) == {"node": "exists", "var": "y", "body": {
        "node": "atom", "pred": "own", "args": [
            {"entity": "const", "name": "j"},
            {"entity": "sel", "site": 3, "env": {
                "env": "union",
                "left": {"env": "cons", "head": {"entity": "var", "name": "y"},
                         "tail": {"env": "nil"}},
                "right": {"env": "nil"}}}]}}
    doc = formula_json(f)
    assert [list(doc), list(doc["body"]), list(doc["body"]["args"][1])] == [
        ["node", "var", "body"], ["node", "pred", "args"], ["entity", "site", "env"]]


def test_left_operand_with_an_open_right_edge_is_parenthesized():
    ex = Exists("y", Atom("car", (Y,)))
    assert formula_text(Or(Not(And(P, ex)), Q)) == "(~ (p & Ex y. car y)) | q"
    assert formula_text(And(Or(P, Not(ex)), Q)) == "(p | ~ Ex y. car y) & q"
    assert formula_text(Or(And(P, Q), ex)) == "p & q | Ex y. car y"
    assert formula_text(And(ex, Or(P, ex))) == "(Ex y. car y) & (p | Ex y. car y)"


def test_atom_glues_selections_to_the_piece_before():
    sel = SelOf(ConsE(J, NilE()), 0)
    assert formula_text(Atom("own", (J, sel))) == "own j(sel(j::nil))"
    assert formula_text(Atom("own", (sel, Y))) == "own(sel(j::nil)) y"
    assert formula_text(Atom("own", (sel, sel))) == "own(sel(j::nil))(sel(j::nil))"


# ---------------------------------------------------------------------------
# Rendering against the recursive references

def _same_json(a, b) -> bool:
    """`a == b` for nested dicts and lists, key order included, compared
    with a loop: dict `==` recurses in C and overflows on deep nesting."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if type(x) is dict:
            if list(x) != list(y):
                return False
            stack += zip(x.values(), y.values())
        elif type(x) is list:
            if len(x) != len(y):
                return False
            stack += zip(x, y)
        elif x != y:
            return False
    return True


def _differences(items, text_ref, json_ref) -> list:
    return [x for x in items
            if formula_text(x) != text_ref(x) or not _same_json(formula_json(x), json_ref(x))]


def test_rendering_matches_recursive_references_on_random_formulas():
    rng = random.Random(41)
    formulas = [random_formula(rng) for _ in range(20_000)]
    formulas += [stacked_negation_formula(rng) for _ in range(2_000)]
    assert _differences(formulas, recursive_formula_text, recursive_formula_json) == []


def test_rendering_matches_recursive_references_on_entities_and_environments():
    rng = random.Random(42)
    envs = [_random_env(rng) for _ in range(2_000)]
    envs += [ConsE(SelOf(e, i), e) for i, e in enumerate(envs[:200])]
    entities = [J, Y] + [SelOf(e, i) for i, e in enumerate(envs)]
    assert _differences(envs, recursive_env_text, recursive_env_json) == []
    assert _differences(entities, recursive_entity_text, recursive_entity_json) == []


def test_rendering_matches_recursive_references_on_pipeline_formulas():
    lex = default_lexicon()
    formulas = []
    for tree, profile in pipeline_cases(lex):
        raw, simplified = interpret(tree, lex, profile)
        formulas += (raw, simplified)
        try:
            formulas.append(resolve(simplified, "recency"))
        except EmptyEnvironment:
            pass
    assert len(formulas) > 90
    assert _differences(formulas, recursive_formula_text, recursive_formula_json) == []


# ---------------------------------------------------------------------------
# Deep formulas render at the default recursion limit

def _p(i):
    return Atom("p", (EntConst(f"c{i}"),))


def _p_json(i):
    return {"node": "atom", "pred": "p", "args": [{"entity": "const", "name": f"c{i}"}]}


def _check_render(f, text, doc):
    assert formula_text(f) == text
    assert _same_json(formula_json(f), doc)


def test_deep_negation_renders():
    n = 10_000
    f, doc = P, {"node": "atom", "pred": "p", "args": []}
    for _ in range(n):
        f, doc = Not(f), {"node": "not", "body": doc}
    _check_render(f, "~ " * n + "p", doc)


@pytest.mark.parametrize("ctor,op,tag", [(And, " & ", "and"), (Or, " | ", "or")])
def test_long_connective_chains_render(ctor, op, tag):
    n = 5_000
    right, right_doc = _p(n - 1), _p_json(n - 1)
    left, left_doc = _p(0), _p_json(0)
    for i in range(1, n):
        right, right_doc = ctor(_p(n - 1 - i), right), {
            "node": tag, "left": _p_json(n - 1 - i), "right": right_doc}
        left, left_doc = ctor(left, _p(i)), {"node": tag, "left": left_doc, "right": _p_json(i)}
    _check_render(right, op.join(f"p c{i}" for i in range(n)), right_doc)
    _check_render(left, "(" * (n - 2) + "p c0" + op + "p c1"
                  + "".join(f"){op}p c{i}" for i in range(2, n)), left_doc)


def test_long_spine_ending_in_a_quantifier_is_parenthesized_as_a_left_operand():
    n = 5_000
    f = Exists("y", Atom("car", (Y,)))
    for i in reversed(range(n)):
        f = And(_p(i), f)
    text = " & ".join(f"p c{i}" for i in range(n)) + " & Ex y. car y"
    assert formula_text(Or(f, Q)) == f"({text}) | q"


def test_nested_quantifiers_render():
    n = 5_000
    f = Atom("q", (EntVar(f"v{n - 1}"),))
    doc = {"node": "atom", "pred": "q", "args": [{"entity": "var", "name": f"v{n - 1}"}]}
    for i in reversed(range(n)):
        f, doc = Exists(f"v{i}", f), {"node": "exists", "var": f"v{i}", "body": doc}
    _check_render(f, "".join(f"Ex v{i}. " for i in range(n)) + f"q v{n - 1}", doc)


def test_long_environment_renders():
    n = 5_000
    env, env_doc = NilE(), {"env": "nil"}
    for i in reversed(range(n)):
        env, env_doc = ConsE(EntConst(f"c{i}"), env), {
            "env": "cons", "head": {"entity": "const", "name": f"c{i}"}, "tail": env_doc}
    f = Atom("red", (SelOf(env, 7),))
    doc = {"node": "atom", "pred": "red",
           "args": [{"entity": "sel", "site": 7, "env": env_doc}]}
    _check_render(f, "red(sel(" + "".join(f"c{i}::" for i in range(n)) + "nil))", doc)


def test_deep_union_nest_renders():
    n = 5_000
    env, env_doc = NilE(), {"env": "nil"}
    for i in range(1, n + 1):
        env = UnionE(env, ConsE(EntConst(f"c{i}"), NilE()))
        env_doc = {"env": "union", "left": env_doc, "right": {
            "env": "cons", "head": {"entity": "const", "name": f"c{i}"}, "tail": {"env": "nil"}}}
    f = Atom("red", (SelOf(env, 0),))
    doc = {"node": "atom", "pred": "red",
           "args": [{"entity": "sel", "site": 0, "env": env_doc}]}
    text = ("(" * (n - 1) + "nil++(c1::nil)"
            + "".join(f")++(c{i}::nil)" for i in range(2, n + 1)))
    _check_render(f, f"red(sel({text}))", doc)


# ---------------------------------------------------------------------------
# Node classes

def test_formula_fields_cannot_be_assigned_or_deleted():
    f = And(Atom("p", (J,)), Top())
    for attempt in (lambda: setattr(f, "left", Top()), lambda: delattr(f, "right"),
                    lambda: setattr(J, "name", "k"), lambda: setattr(Top(), "x", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert f == And(Atom("p", (EntConst("j"),)), Top())


def test_formula_nodes_of_different_classes_differ():
    assert And(Top(), Bot()) != Or(Top(), Bot())
    assert NilE() != Top() and NilE() != Bot() and Top() != Bot()
    assert EntConst("y") != EntVar("y")
    assert ConsE(J, NilE()) != UnionE(J, NilE())
    assert Top() == Top() and NilE() == NilE()


def test_equal_formulas_hash_equally():
    def build():
        env = UnionE(ConsE(J, NilE()), ConsE(Y, NilE()))
        return Exists("y", Or(Atom("red", (SelOf(env, 0),)), Not(Bot())))
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, Top(), Top(), Bot()}) == 3


def test_formula_nodes_take_keywords_and_defaults():
    assert Atom(pred="p") == Atom("p", ()) and Atom("p").args == ()
    assert SelOf(site_id=2, env=NilE()) == SelOf(NilE(), 2)
    with pytest.raises(TypeError):
        Top(1)


def test_formula_repr_keeps_its_text():
    f = Exists("y", And(Atom("car", (Y,)), Atom("red", (SelOf(ConsE(J, NilE()), 0),))))
    assert repr(f) == (
        "Exists(var='y', body=And(left=Atom(pred='car', args=(EntVar(name='y'),)), "
        "right=Atom(pred='red', args=(SelOf(env=ConsE(head=EntConst(name='j'), "
        "tail=NilE()), site_id=0),))))")
    assert repr(Or(Not(Top()), Bot())) == "Or(left=Not(body=Top()), right=Bot())"
