import random
import pytest
from hypothesis import given, settings, strategies as st

from contsem.errors import ContsemError
from contsem.discourse import (
    Det, Leaf, ProperN, Pron, Sentence, Seq, Verb, CopulaAdj, interpret, parse_sentence_words,
)
from contsem.lexicon import Category, Profile, default_lexicon, make_entry
from contsem.logic import (
    And, Atom, ConsE, EntConst, EntVar, Exists, NilE, Not, Or, SelOf, UnionE, env_entries,
    formula_text,
)
from contsem.resolver import (
    AccessReport, EmptyEnvironment, rendered, report, report_line, resolve,
)

from gen import (
    formula_preorder, pipeline_cases, random_discourse, random_formula, separate_walk_reports,
)

J = EntConst("j")
Y = EntVar(0)


def cons(*entries):
    env = NilE()
    for e in reversed(entries):
        env = ConsE(e, env)
    return env


def _deep_formula(n, empty=()):
    """n atoms `red(sel(...))` nested in turn under `&`, `| ~` and two
    `Ex`; the sites at the reading positions in `empty` have no referents.
    Returns the formula and, when nothing is empty, its recency resolution;
    both built without recursing."""
    def atoms(i):
        env = NilE() if i in empty else cons(J)
        return Atom("red", (SelOf(env),)), Atom("red", (J,))

    f, g = atoms(n - 1)
    for i in reversed(range(n - 1)):
        a, b = atoms(i)
        step = i % 4
        if step == 0:
            f, g = And(a, f), And(b, g)
        elif step == 1:
            f, g = Or(a, Not(f)), Or(b, Not(g))
        else:
            f, g = Exists(And(a, f)), Exists(And(b, g))
    return f, g


def test_report_and_resolve_on_deep_formula():
    n = 10_000
    f, resolved = _deep_formula(n)
    reports = report(f)
    assert [r.site_id for r in reports] == list(range(n))
    assert all(r.candidates == (J,) for r in reports)
    assert formula_preorder(resolve(f, "recency")) == formula_preorder(resolved)


def test_resolve_reports_first_empty_site_in_reading_order():
    n = 10_000
    f, _ = _deep_formula(n, empty=(5000, 7000))
    with pytest.raises(EmptyEnvironment) as info:
        resolve(f, "recency")
    assert info.value.site_id == 5000


def test_eval_union_with_nil():
    assert env_entries(UnionE(cons(J), NilE())) == (J,)


def test_eval_nil():
    assert env_entries(NilE()) == ()


def test_eval_dedups_across_union():
    assert env_entries(UnionE(cons(Y, J), cons(J))) == (Y, J)


def test_eval_recent_side_first():
    assert env_entries(UnionE(cons(J), cons(Y))) == (Y, J)


def test_eval_dedups_within_cons():
    assert env_entries(cons(J, J, Y)) == (J, Y)


def test_eval_idempotent_under_rewrapping():
    env = cons(Y, J)
    assert env_entries(UnionE(env, NilE())) == env_entries(env)


def test_report_orders_by_site_id():
    """Sites are numbered, and reported, in textual order, each with the
    names of the binders in scope."""
    f = And(Atom("red", (SelOf(cons(J)),)),
            Exists(Atom("red", (SelOf(cons(Y, J)),))))
    rs = report(f)
    assert [(r.site_id, r.candidates, r.names) for r in rs] == [(0, (J,), ()),
                                                                (1, (Y, J), ("y",))]
    assert list(map(report_line, rs)) == ["sel#0 env=j::nil candidates=[j]",
                                          "sel#1 env=y::j::nil candidates=[y, j]"]


def test_report_on_formula_without_sel_is_empty():
    assert report(Exists(Atom("car", (Y,)))) == []


def test_report_candidates_occur_in_env_without_duplicates():
    env = UnionE(cons(J, Y), cons(J))
    (r,) = report(Atom("red", (SelOf(env),)))
    entries = set(env_entries(env))
    assert len(set(r.candidates)) == len(r.candidates)
    assert all(c in entries for c in r.candidates)


def test_resolve_symbolic_is_identity():
    f = Atom("red", (SelOf(cons(J)),))
    assert resolve(f, "symbolic") == f


def test_resolve_recency_substitutes_most_recent():
    f = And(Not(Exists(Atom("own", (J, Y)))),
            Atom("red", (SelOf(cons(J)),)))
    resolved = resolve(f, "recency")
    assert resolved == And(Not(Exists(Atom("own", (J, Y)))),
                           Atom("red", (J,)))


def test_resolve_empty_environment():
    f = And(Atom("red", (SelOf(cons(J)),)), Atom("red", (SelOf(NilE()),)))
    with pytest.raises(EmptyEnvironment) as exc:
        resolve(f, "recency")
    assert exc.value.site_id == 1


def test_report_line_format():
    r = AccessReport(0, cons(J), (J,), (), "j::nil")
    assert report_line(r) == "sel#0 env=j::nil candidates=[j]"
    r2 = AccessReport(2, cons(Y, J), (Y, J), ("y",), "y::j::nil")
    assert report_line(r2) == "sel#2 env=y::j::nil candidates=[y, j]"


_words = st.from_regex(r"[b-z][a-z]{3,7}", fullmatch=True)


@settings(max_examples=30, deadline=None)
@given(st.lists(_words, min_size=4, max_size=4, unique=True))
def test_negation_blocks_indefinites_over_template_lexicon(words):
    pn, verb, noun, adj = words
    lex = default_lexicon().extended([
        make_entry(Category.PROPER_NOUN, pn, Profile.B),
        make_entry(Category.TRANSITIVE_VERB, verb, Profile.B),
        make_entry(Category.COMMON_NOUN, noun, Profile.B),
        make_entry(Category.ADJECTIVE, adj, Profile.B),
    ])
    pron_is_adj = Leaf(Sentence(Pron("it"), CopulaAdj(adj), False))

    negated = Sentence(ProperN(pn), Verb(verb, Det("a", noun)), True)
    _, simp = interpret(Seq(Leaf(negated), pron_is_adj), lex, Profile.B)
    (r,) = report(simp)
    assert list(r.candidates) == [EntConst(lex.symbol(pn))]   # pn's row's symbol

    positive = Sentence(ProperN(pn), Verb(verb, Det("a", noun)), False)
    _, simp = interpret(Seq(Leaf(positive), pron_is_adj), lex, Profile.B)
    (r,) = report(simp)
    assert EntConst(lex.symbol(pn)) in r.candidates
    assert any(isinstance(c, EntVar) for c in r.candidates)


def test_resolve_rejects_unknown_strategy():
    with pytest.raises(ContsemError) as exc:
        resolve(Atom("red", (J,)), "nearest")
    assert str(exc.value) == "unknown strategy 'nearest'"


def _one_walk_differences(f) -> list:
    """Where `rendered(f, True)` differs from the separate walks: the text
    from `formula_text`, the reports and `sel#` lines from
    `separate_walk_reports`, the resolved text from printing
    `resolve(f, "recency")` (or the EmptyEnvironment it raises)."""
    reports, lines = separate_walk_reports(f)
    try:
        resolved = formula_text(resolve(f, "recency"))
    except EmptyEnvironment as exc:
        resolved = exc.site_id
    try:
        got = rendered(f, recency=True)
    except EmptyEnvironment as exc:
        got = rendered(f)[:2] + (exc.site_id,)
    want = (formula_text(f), reports, resolved)
    return [] if got == want and list(map(report_line, got[1])) == lines else [(f, got, want)]


def test_one_walk_matches_separate_walks():
    """`pipeline_cases` (every sample with a formula, then random
    discourses), 200 random A, B and C discourses, some of them B with a
    pronoun before any name (an empty environment): their raw and
    simplified formulas; and random formulas."""
    lex = default_lexicon()
    trees = list(pipeline_cases(lex))
    rng = random.Random(28)
    pronoun_first = Leaf(parse_sentence_words("it is red", lex))
    for i in range(200):
        profile = (Profile.A, Profile.B, Profile.C)[i % 3]
        tree = random_discourse(rng, lex, profile, rng.randint(1, 4 if profile is Profile.B else 10))
        trees.append((Seq(pronoun_first, tree) if i % 6 == 1 else tree, profile))
    formulas, empty = [random_formula(rng) for _ in range(300)], 0
    for tree, profile in trees:
        formulas += interpret(tree, lex, profile)
    for f in formulas:
        assert _one_walk_differences(f) == []
        empty += any(not r.candidates for r in report(f))
    assert empty >= 50


def test_resolved_text_falls_back_when_constants_names_were_skipped():
    """`y1` is a constant here, so the walk names the binders y and y2; the
    resolved formula drops `y1`, a non-first candidate, and names them y and
    y1, so its text is printed itself, not taken from the walk."""
    f = Exists(Exists(Atom("p", (EntVar(0), SelOf(cons(EntVar(1), EntConst("y1")))))))
    text, (r,), resolved = rendered(f, recency=True)
    assert text == "Ex y. Ex y2. p y(sel(y2::y1::nil))"
    assert report_line(r) == "sel#0 env=y2::y1::nil candidates=[y2, y1]"
    assert resolved == formula_text(resolve(f, "recency")) == "Ex y. Ex y1. p y y1"
    assert _one_walk_differences(f) == []


def test_resolved_text_falls_back_when_a_site_sits_in_an_environment():
    """A hand-built environment can hold a selection, which `resolve` leaves
    as its site's candidate; the resolved formula is printed itself."""
    f = And(Atom("p", (SelOf(cons(SelOf(cons(J)), J)),)), Atom("q", (SelOf(NilE()),)))
    text, reports, _ = rendered(f)
    assert text == "p(sel(sel(j::nil)::j::nil)) & q(sel(nil))"
    assert list(map(report_line, reports)) == [
        "sel#0 env=sel(j::nil)::j::nil candidates=[sel(j::nil), j]",
        "sel#1 env=j::nil candidates=[j]", "sel#2 env=nil candidates=[]"]
    with pytest.raises(EmptyEnvironment) as info:
        rendered(f, recency=True)
    assert info.value.site_id == 2      # q's, as `report` numbers it
    assert _one_walk_differences(f) == []


_SHARED = SelOf(cons(J))


@pytest.mark.parametrize("env", [
    cons(SelOf(cons(J)), J),
    UnionE(cons(_SHARED), cons(_SHARED, J)),                # one node, two sites
    UnionE(cons(SelOf(cons(J))), cons(SelOf(cons(SelOf(NilE()))), J)),     # nested, one empty
])
def test_resolve_numbers_an_empty_site_past_those_in_environments(env):
    """`resolve` numbers an empty site as `report` does: after each site a
    hand-built environment before it holds, written out each time it occurs."""
    f = And(Atom("p", (SelOf(env), J)), Exists(Atom("q", (EntVar(0), SelOf(NilE())))))
    last_empty = [r.site_id for r in report(f) if not r.candidates][-1]
    with pytest.raises(EmptyEnvironment) as info:
        resolve(f, "recency")
    assert info.value.site_id == last_empty == len(report(f)) - 1
