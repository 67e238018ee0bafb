import gc
import random

import pytest

from contsem.discourse import default_initial_args, interpret, run_pipeline
from contsem.errors import ContsemError
from contsem.lexicon import default_lexicon
from contsem.logic import (
    And, Atom, Bot, ConsE, EntConst, EntVar, Exists, NilE, Not, NotReifiable,
    Or, SelOf, Top, UnionE,
    env_entries, formula_json, formula_text, json_text, reify, simplify,
)
from contsem.node import Node
from contsem.resolver import EmptyEnvironment, report, resolve
from contsem.syntax import parse_type
from contsem.terms import (
    AND, BOT, BUILTINS, CONS, EXISTS, NIL, NOT, OR, SEL, TOP, UNION,
    App, Const, E, G, Lam, T, Var, app, arrow,
)

from gen import (
    NamedExists, NamedSel, NamedVar, named, named_alpha_eq, nameless,
    pipeline_cases, random_formula, random_reify_term, recursive_entity_json,
    recursive_entity_text, recursive_env_entries, recursive_env_json,
    recursive_env_text, recursive_formula_json, recursive_formula_text,
    recursive_alpha_eq, recursive_reify, stacked_negation_formula, subst_consts, subterms,
)
from oracle import SignatureTooLarge, logically_equiv

J = EntConst("j")
Y = EntVar(0)
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
    assert f == Exists(And(Atom("car", (EntVar(0),)),
                           Atom("car", (SelOf(ConsE(EntVar(0), NilE())),))))
    assert formula_text(f) == "Ex y. (car y & car(sel(y::nil)))"


def test_reify_site_ids_left_to_right():
    """A site holds no id: the printers and `report` number the sites left
    to right."""
    sel_nil, sel_j = App(SEL, NIL), App(SEL, app(CONS, JC, NIL))
    f = reify(app(AND, App(CAR, sel_j), App(CAR, sel_nil)))
    doc = formula_json(f)
    assert [doc["left"]["args"][0]["site"], doc["right"]["args"][0]["site"]] == [0, 1]
    assert [(r.site_id, r.env) for r in report(f)] == [(0, ConsE(J, NilE())), (1, NilE())]


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
    assert reify(copy) == reify(t) == Or(Not(Bot()), Exists(And(
        Atom("car", (Y,)),
        Atom("car", (SelOf(UnionE(ConsE(Y, NilE()), ConsE(J, NilE()))),)))))


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
    """The quantifier is one subterm read twice at one depth: the second
    reading is the first's node, which the printers name apart."""
    some_car = App(EXISTS, Lam(E, App(CAR, Var(0))))
    f = reify(app(AND, some_car, App(NOT, some_car)))
    assert f.right.body is f.left == Exists(Atom("car", (Y,)))
    assert formula_text(f) == "(Ex y. car y) & ~ Ex y1. car y1"


def test_quantified_names_skip_constants_met_after_the_binder():
    """The printers learn the constants' names during their walk; a
    quantified name that turns out to be one of them is chosen again."""
    y, y1 = Const("y", arrow(E, T)), Const("y1", E)
    t = app(AND, App(EXISTS, Lam(E, App(CAR, Var(0)))), App(y, y1))
    f = reify(t)
    assert f == And(Exists(Atom("car", (Y,))), Atom("y", (EntConst("y1"),)))
    assert formula_text(f) == "(Ex y2. car y2) & y y1"
    assert formula_json(f)["left"]["var"] == "y2"


def _reify_outcome(reader, term):
    try:
        return reader(term)
    except NotReifiable as exc:
        return str(exc), exc.position


def test_reify_matches_recursive_reference_on_random_terms():
    rng = random.Random(12)
    terms = [random_reify_term(rng) for _ in range(20_000)]
    outcomes = [_reify_outcome(reify, t) for t in terms]
    assert [o for t, o in zip(terms, outcomes)
            if o != _reify_outcome(lambda t: nameless(recursive_reify(t)), t)] == []
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
    assert [t for t in normals if reify(t) != nameless(recursive_reify(t))] == []


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
    inner = Exists(And(Atom("p", (EntVar(0),)), Atom("q", (EntVar(0),))))
    assert simplify(Not(inner)) == Not(inner)


def test_shared_tail_fusion_or():
    """Fused under its binder, the shared tail then leaves the binder's scope."""
    car_y = Atom("car", (Y,))
    own_xy = Atom("own", (EntConst("x"), Y))
    fused = simplify(Exists(And(Or(car_y, K), Or(own_xy, K))))
    assert fused == Or(Exists(And(car_y, own_xy)), K)


def test_a_formula_is_read_as_a_root():
    """Levels count from the root of the formula given.  The body of
    `Ex y. Ex y1. p y1 & q y`, given alone, binds `q`'s variable and leaves
    `p`'s free: the printers show it as `#1`, and `simplify` rejects it."""
    whole = Exists(Exists(And(Atom("p", (EntVar(1),)), Atom("q", (EntVar(0),)))))
    sub = whole.body
    assert formula_text(whole) == "Ex y. Ex y1. (p y1 & q y)"
    assert formula_text(simplify(whole)) == "(Ex y. p y) & Ex y1. q y1"
    assert formula_text(sub) == "Ex y. (p #1 & q y)"
    assert formula_json(sub)["body"]["left"]["args"] == [{"entity": "var", "name": "#1"}]
    for free, level in ((sub, 1), (Atom("p", (Y,)), 0),
                        (Exists(Not(Atom("p", (EntVar(0), EntVar(2))))), 2)):
        with pytest.raises(ContsemError, match=f"entity variable at level {level} has no binder"):
            simplify(free)


def test_shared_tail_fusion_and():
    fused = simplify(And(And(P, K), And(Q, K)))
    assert fused == And(And(P, Q), K)


def test_fusion_ignores_site_ids():
    """Two tails whose sites sit at two places, sites 1 and 2 of the input,
    are equal nodes and fuse; the one left is numbered 1."""
    k1 = Atom("red", (SelOf(ConsE(J, NilE())),))
    k2 = Atom("red", (SelOf(ConsE(J, NilE())),))
    f = And(Atom("red", (SelOf(NilE()),)), And(Or(P, k1), Or(Q, k2)))
    assert simplify(f) == And(f.left, Or(And(P, Q), k1))
    assert [r.site_id for r in report(f)] == [0, 1, 2]
    assert formula_json(simplify(f))["right"]["right"]["args"][0]["site"] == 1


def test_env_normalization_inside_sel():
    f = Atom("red", (SelOf(UnionE(ConsE(J, NilE()), NilE())),))
    assert simplify(f) == Atom("red", (SelOf(ConsE(J, NilE())),))


def _random_env(rng, depth=5):
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return NilE()
    if roll < 0.65:
        head = rng.choice((J, EntConst("m"), Y, EntVar(1), EntVar(2)))
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
        env = ConsE(EntVar(i), env)
    assert env_entries(env) == tuple(EntVar(i) for i in reversed(range(20_000)))


def test_env_entries_keeps_a_constant_and_a_variable_of_one_name_apart():
    """Entries are told apart by class and level or name, a selection by its
    value; the entries kept are the very objects the recursive flattening keeps."""
    c, v = EntConst("y"), EntVar(0)
    sel, sel2 = SelOf(ConsE(J, NilE())), SelOf(ConsE(J, NilE()))
    env = ConsE(c, ConsE(v, ConsE(sel, ConsE(EntConst("y"), ConsE(EntVar(0), ConsE(
        sel2, ConsE(SelOf(ConsE(J, NilE())), NilE())))))))
    found = env_entries(env)
    assert found == recursive_env_entries(env) == (c, v, sel, EntConst("y"), EntVar(0),
                                                   SelOf(ConsE(J, NilE())))[3:]
    assert all(a is b for a, b in zip(found, recursive_env_entries(env)))
    assert env_entries(UnionE(ConsE(c, NilE()), ConsE(v, NilE()))) == (v, c)


def test_env_entries_hashes_and_compares_no_entity(monkeypatch):
    """Constants and variables are keyed by name and level, not hashed as nodes."""
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
    body = And(Atom("car", (Y,)), Atom("red", (SelOf(ConsE(Y, NilE())),)))
    f = Exists(body)
    assert simplify(f) == f


def test_scope_shrinking_extracts_independent_disjunct():
    f = Not(Exists(Or(And(Atom("car", (Y,)), Atom("own", (J, Y))), Not(K))))
    expected = And(Not(Exists(And(Atom("car", (Y,)), Atom("own", (J, Y))))), K)
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
# alpha_eq on formulas: nameless formulas decide it by `==`

def _closed(f, names=("w", "y", "y1", "z")):
    """Named `f` under binders of `names`, so its free names read as levels."""
    for name in reversed(names):
        f = NamedExists(name, f)
    return f


def _nameless_eq(f, g) -> bool:
    return nameless(_closed(f)) == nameless(_closed(g))


def test_formula_alpha_eq_renames_bound_vars():
    """Named formulas equal up to their bound names are one nameless formula,
    as `gen.named_alpha_eq` and `gen.recursive_alpha_eq` find them equal."""
    a = NamedExists("y", Atom("p", (NamedVar("y"),)))
    b = NamedExists("z", Atom("p", (NamedVar("z"),)))
    c = NamedExists("z", Atom("p", (EntConst("z"),)))
    assert nameless(a) == nameless(b) == Exists(Atom("p", (EntVar(0),)))
    assert named_alpha_eq(a, b) and recursive_alpha_eq(a, b)
    assert nameless(a) != nameless(c)
    assert not named_alpha_eq(a, c) and not recursive_alpha_eq(a, c)


def test_formula_alpha_eq_restores_a_shadowed_binder():
    """Leaving an inner `Ex y` that shadows an outer `Ex y` gives `y` back
    its outer binder, in the nameless reading as in the references'."""
    def shadowing(outer, inner, last):      # Ex outer. (Ex inner. p inner) & p last
        return NamedExists(outer, And(NamedExists(inner, Atom("p", (NamedVar(inner),))),
                                      Atom("p", (NamedVar(last),))))
    y = shadowing("y", "y", "y")
    assert nameless(y) == Exists(And(Exists(Atom("p", (EntVar(1),))), Atom("p", (EntVar(0),))))
    for other, same in ((shadowing("z", "w", "z"), True), (shadowing("z", "z", "z"), True),
                        (shadowing("z", "w", "w"), False), (shadowing("z", "y", "y"), False)):
        for a, b in ((y, other), (other, y)):
            assert _nameless_eq(a, b) == named_alpha_eq(a, b) == recursive_alpha_eq(a, b) == same


class _CountedArgs(tuple):
    """An atom's arguments that count how often `==` compares them."""
    reads = 0

    def __ne__(self, other):
        _CountedArgs.reads += 1
        return tuple.__ne__(self, other)


def _atom_pairs_read(f1, f2) -> tuple[bool, int]:
    """f1 == f2 and the number of atom argument pairs it compared."""
    _CountedArgs.reads = 0
    same = f1 == f2
    return same, _CountedArgs.reads


def test_formula_alpha_eq_takes_one_node_as_equal_without_a_walk():
    """A pair that is one node, as `reify` makes of a revisited existential,
    is equal at once; a formula and an equal one that shares no node are
    walked, and so is one that differs in a level."""
    def chain(levels):       # p levels[0] & (p levels[1] & ...)
        f = Atom("p", _CountedArgs((EntVar(levels[-1]),)))
        for level in reversed(levels[:-1]):
            f = And(Atom("p", _CountedArgs((EntVar(level),))), f)
        return f

    x = chain(range(40))
    assert _atom_pairs_read(x, x) == (True, 0)
    assert _atom_pairs_read(Not(x), Not(x)) == (True, 0)
    assert _atom_pairs_read(Exists(x), Exists(x)) == (True, 0)
    assert _atom_pairs_read(x, chain(range(40))) == (True, 40)
    same, walked = _atom_pairs_read(x, chain([*range(39), 0]))
    assert not same and walked > 0
    ex = Exists(Atom("q", _CountedArgs((EntVar(0),))))
    assert _atom_pairs_read(And(ex, x), And(ex, x)) == (True, 0)
    some_car = App(EXISTS, Lam(E, App(CAR, Var(0))))
    f = reify(app(AND, some_car, some_car))
    assert f.left is f.right


def _names_mapped(x, binder, var, bound=()):
    """Named `x` with each binder's name replaced by binder(name, enclosing
    binders' names) and each variable's by var(name, enclosing binders' names)."""
    kind = type(x)
    if kind is NamedExists:
        return NamedExists(binder(x.var, bound),
                           _names_mapped(x.body, binder, var, (*bound, x.var)))
    if kind is NamedVar:
        return NamedVar(var(x.name, bound))
    return kind(*[tuple(_names_mapped(a, binder, var, bound) for a in v) if type(v) is tuple
                  else _names_mapped(v, binder, var, bound) if isinstance(v, Node) else v
                  for v in x._values()])


def _by_depth(x):
    """Named `x` with each bound name written as its binder's depth, `#0` outermost."""
    def var(name, bound):
        depths = [i for i, v in enumerate(bound) if v == name]
        return f"#{depths[-1]}" if depths else name
    return _names_mapped(x, lambda name, bound: f"#{len(bound)}", var)


def test_formula_alpha_eq_is_symmetric_and_agrees_with_binder_depths():
    """Random formulas, named, and variants of them whose binders and
    variables are renamed by two maps, the same one or not: some stay
    alpha-equal, some capture a variable and some free one.  Writing bound
    names as binder depths decides alpha-equality, and so do the nameless
    readings (free names bound outside) and the references."""
    rng = random.Random(21)
    names = ("y", "y1", "w")
    answers = []
    for _ in range(1500):
        f = named(random_formula(rng))
        variants = [f]
        for _ in range(3):
            b = {"y": rng.choice(names), "y1": rng.choice(names)}
            v = b if rng.random() < 0.5 else {"y": rng.choice(names), "y1": rng.choice(names)}
            variants.append(_names_mapped(f, lambda n, _: b[n], lambda n, _: v[n]))
        for g in variants:
            for h in variants:
                same = _by_depth(g) == _by_depth(h)
                assert (_nameless_eq(g, h) == _nameless_eq(h, g) == named_alpha_eq(g, h)
                        == named_alpha_eq(h, g) == recursive_alpha_eq(g, h) == same)
                answers.append(same)
    assert answers.count(False) > 500     # of 24 000


def test_formula_alpha_eq_compares_environments_and_ignores_site_ids():
    def red(var, left, right, site):
        env = UnionE(ConsE(left, NilE()), ConsE(right, NilE()))
        return NamedExists(var, Atom("red", (NamedSel(env, site),)))
    y, z = NamedVar("y"), NamedVar("z")
    for other, same in ((red("z", z, J, 5), True), (red("z", J, z, 0), False),
                        (red("z", z, EntConst("m"), 0), False)):
        mine = red("y", y, J, 0)
        assert (nameless(mine) == nameless(other)) == named_alpha_eq(mine, other) == same
    assert nameless(red("z", z, J, 5)) == Exists(Atom("red", (
        SelOf(UnionE(ConsE(EntVar(0), NilE()), ConsE(J, NilE()))),)))


def _binder_chain(names, depth, last_ref=None):
    """Ex n0. (q n0 & Ex n1. (q2 n1 n0 & ...)), named, built without recursing;
    the innermost atom refers to `last_ref` (default: the enclosing binder)."""
    ref = names[depth - 2] if last_ref is None else last_ref
    f = NamedExists(names[depth - 1], Atom("q2", (NamedVar(names[depth - 1]), NamedVar(ref))))
    for i in reversed(range(1, depth - 1)):
        f = NamedExists(names[i], And(Atom("q2", (NamedVar(names[i]), NamedVar(names[i - 1]))), f))
    return NamedExists(names[0], And(Atom("q", (NamedVar(names[0]),)), f))


def _level_chain(depth, last_ref=None):
    """`_binder_chain` nameless: the innermost atom refers to level `last_ref`."""
    ref = depth - 2 if last_ref is None else last_ref
    f = Exists(Atom("q2", (EntVar(depth - 1), EntVar(ref))))
    for i in reversed(range(1, depth - 1)):
        f = Exists(And(Atom("q2", (EntVar(i), EntVar(i - 1))), f))
    return Exists(And(Atom("q", (EntVar(0),)), f))


def test_formula_alpha_eq_on_deep_chains():
    depth = 10_000
    xs = [f"x{i}" for i in range(depth)]
    ys = [f"y{i}" for i in range(depth)]
    assert named_alpha_eq(_binder_chain(xs, depth), _binder_chain(ys, depth))
    assert _level_chain(depth) == _level_chain(depth)
    # The innermost reference skips a binder on one side only.
    assert not named_alpha_eq(_binder_chain(xs, depth),
                              _binder_chain(ys, depth, last_ref=ys[depth - 3]))
    assert _level_chain(depth) != _level_chain(depth, last_ref=depth - 3)


# ---------------------------------------------------------------------------
# logically_equiv

def test_double_negation_equiv():
    for n in (1, 2, 3):
        assert logically_equiv(P, Not(Not(P)), n)


def test_countermodel_found():
    x = EntConst("x")
    assert not logically_equiv(Atom("car", (x,)), Atom("own", (x, x)), 2)


def test_inequivalent_under_quantifier():
    f1 = Exists(Atom("p", (EntVar(0),)))
    f2 = Not(Exists(Atom("p", (EntVar(0),))))
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
    (Atom("q", (Y,)), P, {"domain_size": 2}, "free entity variable at level 0"),
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
    site_a = Atom("red", (SelOf(UnionE(ConsE(J, NilE()), NilE())),))
    site_b = Atom("red", (SelOf(ConsE(J, NilE())),))
    assert logically_equiv(site_a, site_b, 2)


def test_distinct_envs_freeze_apart():
    site_a = Atom("red", (SelOf(ConsE(J, NilE())),))
    site_b = Atom("red", (SelOf(ConsE(EntConst("m"), NilE())),))
    assert not logically_equiv(site_a, site_b, 2)


# ---------------------------------------------------------------------------
# rendering

def test_formula_text_negated_quantifier_display():
    f = And(Not(Exists(And(Atom("car", (Y,)), Atom("own", (J, Y))))),
            Atom("red", (SelOf(ConsE(J, NilE())),)))
    assert formula_text(f) == "(~ Ex y. (car y & own j y)) & red(sel(j::nil))"


def test_formula_text_union_parens():
    f = Atom("red", (SelOf(UnionE(ConsE(J, NilE()), NilE())),))
    assert formula_text(f) == "red(sel((j::nil)++nil))"


def test_formula_json_reads_back_what_json_text_writes():
    """Names holding JSON's own punctuation, escapes and non-ASCII text read
    back as `json.loads` reads them."""
    import json
    odd = ('a"}],: b', "[{\\x", "caf\u00e9 \U0001f600", "", "0", "null")
    f = Exists(Or(Atom(odd[0], (EntConst(odd[1]), Y)), Not(Atom(odd[2], tuple(
        SelOf(ConsE(EntConst(n), NilE())) for n in odd[3:])))))
    assert formula_json(f) == json.loads(json_text(f))
    assert formula_json(f)["body"]["left"]["pred"] == odd[0]
    assert formula_json(NilE()) == {"env": "nil"} and formula_json(Top()) == {"node": "top"}


def test_formula_json_tags():
    f = Exists(Atom("red", (SelOf(ConsE(EntVar(0), NilE())),)))
    doc = formula_json(f)
    assert doc["node"] == "exists"
    atom = doc["body"]
    assert atom["node"] == "atom"
    assert atom["args"][0]["entity"] == "sel"
    assert atom["args"][0]["site"] == 0
    assert atom["args"][0]["env"]["env"] == "cons"
    f = Exists(Atom("own", (J, SelOf(UnionE(ConsE(Y, NilE()), NilE())))))
    assert formula_json(f) == {"node": "exists", "var": "y", "body": {
        "node": "atom", "pred": "own", "args": [
            {"entity": "const", "name": "j"},
            {"entity": "sel", "site": 0, "env": {
                "env": "union",
                "left": {"env": "cons", "head": {"entity": "var", "name": "y"},
                         "tail": {"env": "nil"}},
                "right": {"env": "nil"}}}]}}
    doc = formula_json(f)
    assert [list(doc), list(doc["body"]), list(doc["body"]["args"][1])] == [
        ["node", "var", "body"], ["node", "pred", "args"], ["entity", "site", "env"]]


def test_left_operand_with_an_open_right_edge_is_parenthesized():
    ex = Exists(Atom("car", (Y,)))
    assert formula_text(Or(Not(And(P, ex)), Q)) == "(~ (p & Ex y. car y)) | q"
    assert formula_text(And(Or(P, Not(ex)), Q)) == "(p | ~ Ex y. car y) & q"
    assert formula_text(Or(And(P, Q), ex)) == "p & q | Ex y. car y"
    assert formula_text(And(ex, Or(P, ex))) == "(Ex y. car y) & (p | Ex y1. car y1)"


def test_atom_glues_selections_to_the_piece_before():
    sel = SelOf(ConsE(J, NilE()))
    assert formula_text(Atom("own", (J, sel))) == "own j(sel(j::nil))"
    assert formula_text(Exists(Atom("own", (sel, Y)))) == "Ex y. own(sel(j::nil)) y"
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
    """The items whose text or JSON differ from the references' for the
    named form `gen.named` gives them."""
    return [x for x in items if formula_text(x) != text_ref(named(x))
            or not _same_json(formula_json(x), json_ref(named(x)))]


def test_rendering_matches_recursive_references_on_random_formulas():
    rng = random.Random(41)
    formulas = [random_formula(rng) for _ in range(20_000)]
    formulas += [stacked_negation_formula(rng) for _ in range(2_000)]
    assert _differences(formulas, recursive_formula_text, recursive_formula_json) == []


def test_rendering_matches_recursive_references_on_entities_and_environments():
    rng = random.Random(42)
    envs = [_random_env(rng) for _ in range(2_000)]
    envs += [ConsE(SelOf(e), e) for e in envs[:200]]
    entities = [J, Y] + [SelOf(e) for e in envs]
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
    assert json_text(f) == json_text(doc)


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
    f = Exists(Atom("car", (Y,)))
    for i in reversed(range(n)):
        f = And(_p(i), f)
    text = " & ".join(f"p c{i}" for i in range(n)) + " & Ex y. car y"
    assert formula_text(Or(f, Q)) == f"({text}) | q"


def test_nested_quantifiers_render():
    n = 5_000
    names = ["y"] + [f"y{i}" for i in range(1, n)]
    f = Atom("q", (EntVar(n - 1),))
    doc = {"node": "atom", "pred": "q", "args": [{"entity": "var", "name": names[-1]}]}
    for i in reversed(range(n)):
        f, doc = Exists(f), {"node": "exists", "var": names[i], "body": doc}
    _check_render(f, "".join(f"Ex {v}. " for v in names) + f"q {names[-1]}", doc)


def test_long_environment_renders():
    n = 5_000
    env, env_doc = NilE(), {"env": "nil"}
    for i in reversed(range(n)):
        env, env_doc = ConsE(EntConst(f"c{i}"), env), {
            "env": "cons", "head": {"entity": "const", "name": f"c{i}"}, "tail": env_doc}
    f = Atom("red", (SelOf(env),))
    doc = {"node": "atom", "pred": "red",
           "args": [{"entity": "sel", "site": 0, "env": env_doc}]}
    _check_render(f, "red(sel(" + "".join(f"c{i}::" for i in range(n)) + "nil))", doc)


def test_deep_union_nest_renders():
    n = 5_000
    env, env_doc = NilE(), {"env": "nil"}
    for i in range(1, n + 1):
        env = UnionE(env, ConsE(EntConst(f"c{i}"), NilE()))
        env_doc = {"env": "union", "left": env_doc, "right": {
            "env": "cons", "head": {"entity": "const", "name": f"c{i}"}, "tail": {"env": "nil"}}}
    f = Atom("red", (SelOf(env),))
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
    assert EntConst("y") != EntVar(0)
    assert ConsE(J, NilE()) != UnionE(J, NilE())
    assert Top() == Top() and NilE() == NilE()


def test_equal_formulas_hash_equally():
    def build():
        env = UnionE(ConsE(J, NilE()), ConsE(Y, NilE()))
        return Exists(Or(Atom("red", (SelOf(env),)), Not(Bot())))
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, Top(), Top(), Bot()}) == 3


def test_formula_nodes_take_keywords_and_defaults():
    assert Atom(pred="p") == Atom("p", ()) and Atom("p").args == ()
    assert SelOf(env=NilE()) == SelOf(NilE()) and EntVar(level=2) == EntVar(2)
    with pytest.raises(TypeError):
        Top(1)


def test_formula_repr_keeps_its_text():
    f = Exists(And(Atom("car", (Y,)), Atom("red", (SelOf(ConsE(J, NilE())),))))
    assert repr(f) == (
        "Exists(body=And(left=Atom(pred='car', args=(EntVar(level=0),)), "
        "right=Atom(pred='red', args=(SelOf(env=ConsE(head=EntConst(name='j'), "
        "tail=NilE())),))))")
    assert repr(Or(Not(Top()), Bot())) == "Or(left=Not(body=Top()), right=Bot())"
