"""Reify and simplify on a shared normal form.

`logic.reify` reads a Lam it meets again under the same binders as a
`Shifted` copy of its first reading, and `simplify` simplifies each copied
body once.  Written out by `expand`, both must give exactly what the
tree-walking references `gen.tree_reify` and `gen.tree_simplify` give, and
the nodes they build must track the shared normal form, not the tree.
Profiles A and C make no copies; flat C grows linearly, flat A not yet."""
import json
import random
import sys

import pytest

from contsem import logic, terms
from contsem.cli import main
from contsem.discourse import (
    InitialArgs, compose, default_initial_args, parse_discourse, run_pipeline,
)
from contsem.lexicon import Profile, default_lexicon
from contsem.logic import (
    And, Atom, Bot, ConsE, EntConst, EntVar, Exists, NilE, Not, NotReifiable, Or,
    SelOf, Shifted, Top, UnionE, alpha_eq, expand, formula_json, formula_text,
    reify, simplify,
)
from contsem.node import Node
from contsem.resolver import report
from contsem.terms import (
    AND, EXISTS, NOT, OR, App, Const, E, Lam, T, Var, app, arrow, normalize,
)

from gen import (
    distinct_nodes, flat_discourse_text, pipeline_cases, random_discourse,
    random_reify_term, tree_reify, tree_simplify, uncached_normalize,
)

LEX = default_lexicon()
FORMULA_CLASSES = (Top, Bot, Not, And, Or, Exists, Atom, Shifted,
                   EntConst, EntVar, NilE, ConsE, UnionE, SelOf)
CAR = Const("car", arrow(E, T))
OWN = Const("own", arrow(E, E, T))


def _flat_b(n: int):
    parsed = parse_discourse(flat_discourse_text(Profile.B, n), LEX)
    return run_pipeline(parsed.tree, LEX, Profile.B, default_initial_args(Profile.B))


def _written(f):
    return formula_text(f), formula_json(f)


def _copies(f) -> int:
    """The distinct shifted copies in a formula."""
    seen, stack, copies = set(), [f], 0
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            copies += type(g) is Shifted
            stack += [v for v in g._values() if isinstance(v, Node)]
    return copies


def _check_against_trees(normal):
    """Reify's and simplify's results, written out, against the tree walks;
    the printers and `report` also read the raw formula's copies as written
    out."""
    raw, ref_raw = reify(normal), tree_reify(normal)
    assert _written(expand(raw)) == _written(ref_raw) == _written(raw)
    assert report(raw) == report(ref_raw)
    assert _written(expand(simplify(raw))) == _written(tree_simplify(ref_raw))
    return raw


def _cases():
    """Each sample and `pipeline_cases`, profile B also from `or`, then
    seeded random A, B and C discourses, two of each length from 3 to 10."""
    for tree, profile in pipeline_cases(LEX):
        yield tree, profile, default_initial_args(profile)
        if profile == Profile.B:
            init = default_initial_args(profile)
            yield tree, profile, InitialArgs(profile, (OR,) + init.args[1:])
    rng = random.Random(16)
    for profile in (Profile.A, Profile.B, Profile.C):
        for n in [*range(3, 11)] * 2:
            yield random_discourse(rng, LEX, profile, n), profile, default_initial_args(profile)


def test_written_out_formulas_match_the_tree_walks():
    copied = 0
    for tree, profile, init in _cases():
        raw = _check_against_trees(run_pipeline(tree, LEX, profile, init).normal)
        copied += _copies(raw) > 0
    assert copied >= 10         # cases read with copies


def test_flat_b_matches_the_tree_walks_with_one_copy_per_revisited_lam():
    for n in (4, 8, 12):
        raw = _check_against_trees(_flat_b(n).normal)
        assert 0 < _copies(raw) <= n


def _outcome(reader, term):
    try:
        f = reader(term)
        return _written(f), _written(expand(f)), report(f)
    except NotReifiable as exc:
        return str(exc), exc.position


def test_rejections_and_second_walks_match_the_tree_walk():
    """A random formula term under a quantifier, next to its negation: the
    quantifier's Lam is met twice.  Rejections come at the same path, and a
    constant named like a quantified variable sends both readers to their
    second walk, which makes no copies."""
    rng = random.Random(1016)
    pairs = []
    for _ in range(1500):
        some = App(EXISTS, Lam(E, random_reify_term(rng)))
        pairs.append(app(AND, some, App(NOT, some)))
    outcomes = [_outcome(reify, t) for t in pairs]
    assert outcomes == [_outcome(tree_reify, t) for t in pairs]
    copies = [_copies(reify(t)) for t, o in zip(pairs, outcomes) if type(o[0]) is tuple]
    assert len(pairs) - len(copies) > 500                       # rejected
    assert len(copies) - copies.count(0) > 400 and copies.count(0) > 5


def test_a_constant_named_like_a_bound_variable_reads_without_copies():
    some_car = App(EXISTS, Lam(E, App(CAR, Var(0))))
    t = app(AND, some_car, app(AND, App(NOT, some_car), App(Const("y", arrow(E, T)),
                                                            Const("y1", E))))
    f = reify(t)
    assert _copies(f) == 0 and f == tree_reify(t)
    assert formula_text(f) == "(Ex y2. car y2) & (~ Ex y3. car y3) & y y1"
    # Eleven readings of one existential choose y, y1, ..., y10: a constant
    # clashes exactly when it is one of those, and only then are the copies gone.
    for name, clashes in (("y", True), ("y1", True), ("y10", True),
                          ("y0", False), ("y01", False), ("yy", False)):
        t = App(Const(name, arrow(E, T)), Const("c", E))
        for i in range(11):
            t = app(AND, App(NOT, some_car) if i % 2 else some_car, t)
        f = reify(t)
        assert (_copies(f) == 0) == clashes and _written(expand(f)) == _written(tree_reify(t))


def test_printers_read_a_copy_as_its_written_out_text():
    """A copy ending a left operand's right spine keeps the parentheses that
    close the existential's scope, as the written-out tree does."""
    some_car = App(EXISTS, Lam(E, App(CAR, Var(0))))
    p_c = App(Const("p", arrow(E, T)), Const("c", E))
    raw = _check_against_trees(app(AND, some_car, app(AND, App(NOT, some_car), p_c)))
    assert _copies(raw) == 1
    assert formula_text(raw) == "(Ex y. car y) & (~ Ex y1. car y1) & p c"


def test_printers_write_a_copy_out_where_they_read_it(monkeypatch):
    """`formula_text` and `formula_json` write each copy out where they read
    it, as a child or at the root, and never start over on the whole formula:
    they print what they print for `expand` of it, on flat B3, B6 and B9's raw
    formulas, a copy at the root and left operands ending in a copy."""
    copy = Shifted(Exists("y", Atom("car", (EntVar("y"),))), ((0, 1),), 0)
    p_c, q_c = (Atom(name, (EntConst("c"),)) for name in "pq")
    cases = [reify(_flat_b(n).normal) for n in (3, 6, 9)] + [
        copy, Or(And(p_c, copy), q_c), Or(Not(copy), q_c), And(Not(And(p_c, copy)), q_c)]
    written = [(formula_text(expand(f)), json.dumps(formula_json(expand(f)))) for f in cases]
    expanded, expand_ = [], logic.expand
    monkeypatch.setattr(logic, "expand", lambda f: expanded.append(f) or expand_(f))
    assert [(formula_text(f), json.dumps(formula_json(f))) for f in cases] == written
    assert expanded and all(type(f) is Shifted for f in expanded)
    assert [text for text, _ in written[3:]] == [
        "Ex y1. car y1", "(p c & Ex y1. car y1) | q c", "(~ Ex y1. car y1) | q c",
        "(~ (p c & Ex y1. car y1)) & q c"]


def test_copies_follow_identity_and_binders_not_equality():
    some_car = App(EXISTS, Lam(E, App(CAR, Var(0))))
    twin = App(EXISTS, Lam(E, App(CAR, Var(0))))                # equal, not the same
    assert _copies(reify(app(AND, some_car, App(NOT, some_car)))) == 1
    assert _copies(reify(app(AND, some_car, App(NOT, twin)))) == 0
    # The same Lam, at the same depth, under two binders: its free variable
    # names the first binder, then the second, so it is read twice.
    owned = App(EXISTS, Lam(E, app(OWN, Var(1), Var(0))))
    outer = App(EXISTS, Lam(E, owned))
    t = app(AND, outer, App(EXISTS, Lam(E, owned)))
    f = _check_against_trees(t)
    assert _copies(f) == 0 and formula_text(f) == (
        "(Ex y. Ex y1. own y y1) & Ex y2. Ex y3. own y2 y3")


def test_simplify_looks_through_copies():
    """A quantifier over a conjunct that mentions its variable only inside a
    copy keeps the conjunct (extraction reads the copy's free variables), a
    copy is alpha-equal to its first reading from either side, and
    `simplify` returns no copies."""
    owned = App(EXISTS, Lam(E, app(OWN, Var(1), Var(0))))       # own x z, x bound outside
    t = App(EXISTS, Lam(E, app(AND, owned, App(NOT, owned))))
    raw = _check_against_trees(t)
    first, copy = raw.body.left, raw.body.right.body
    assert type(copy) is Shifted and copy.body is first
    assert alpha_eq(copy, first) and alpha_eq(first, copy)
    other = Exists("y1", Atom("own", (EntVar("y1"), EntVar("y"))))
    assert not alpha_eq(copy, other) and not alpha_eq(other, copy)
    simplified = simplify(raw)
    assert _copies(simplified) == 0
    assert formula_text(simplified) == "Ex y. ((Ex y1. own y y1) & ~ Ex y2. own y y2)"
    for n in (4, 8, 12):
        raw = reify(_flat_b(n).normal)
        assert _copies(raw) > 0 and _copies(simplify(raw)) == 0


def test_a_copy_in_an_opened_copy_is_one_copy(monkeypatch):
    """A copied existential whose simplified body is a conjunction holding a
    copy: opening the outer copy (De Morgan under `~`) makes a copy of the
    inner copy, which `_shifted` merges into one, and the result written out
    is the tree walk's."""
    merged, shifted = [], logic._shifted
    monkeypatch.setattr(logic, "_shifted",
                        lambda f, *a: merged.append(type(f) is Shifted) or shifted(f, *a))
    some_car = App(EXISTS, Lam(E, App(CAR, Var(0))))
    p = Const("p", arrow(E, T))
    body = App(EXISTS, Lam(E, app(AND, some_car, app(AND, App(NOT, some_car), App(p, Var(0))))))
    raw = _check_against_trees(app(AND, body, App(NOT, body)))
    assert _copies(raw) == 2 and any(merged)
    assert formula_text(simplify(raw)) == (
        "((Ex y1. car y1) & (~ Ex y2. car y2) & Ex y. p y)"
        " & ((~ Ex y4. car y4) | (Ex y5. car y5) | ~ Ex y3. p y3)")


def test_reify_and_simplify_never_hash_or_compare_terms_and_formulas(monkeypatch):
    normal = _flat_b(12).normal
    expected = _written(expand(simplify(reify(normal))))

    def forbidden(*_):
        raise AssertionError("structural hash or == on a shared value")

    for cls in (terms.App, terms.Lam, Not, And, Or, Exists, Atom, Shifted):
        monkeypatch.setattr(cls, "__hash__", forbidden)
        monkeypatch.setattr(cls, "__eq__", forbidden)
    simplified = simplify(reify(normal))
    monkeypatch.undo()
    assert _written(expand(simplified)) == expected


@pytest.fixture
def built(monkeypatch):
    """The number of formula nodes constructed since it was last set to 0."""
    count = [0]
    for cls in FORMULA_CLASSES:
        def counted(self, *args, _init=cls.__init__, **kwargs):
            count[0] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return count


# The distinct App/Lam objects of the flat B normal forms grow by 76 to 150
# for each 2 sentences on this ladder (the sentences repeat every 3).
_STEP = 200


def test_profile_b_reify_and_simplify_build_in_proportion_to_the_shared_form(built):
    """Flat B8 to B14 at the default limits: what reify and simplify build
    stays within 3x the normal form's distinct nodes, and grows by at most
    a fixed number of nodes for each 2 sentences."""
    rows = []
    for n in (8, 10, 12, 14):
        normal = _flat_b(n).normal
        built[0] = 0
        raw = reify(normal)
        by_reify, built[0] = built[0], 0
        simplify(raw)
        rows.append((distinct_nodes(normal), by_reify, built[0]))
    for distinct, by_reify, by_simplify in rows:
        assert by_reify <= 3 * distinct and by_simplify <= 3 * distinct, rows
    for before, after in zip(rows, rows[1:]):
        assert after[1] - before[1] <= _STEP and after[2] - before[2] <= _STEP, rows


def test_flat_b40_reifies_in_lines_linear_in_the_shared_form():
    """Reify tells a constant from the names it chose by reading the
    constant's name, not by listing the names of the written-out tree, of
    which flat B26 has 131 072: on flat B40 it runs at most 40 lines of
    `logic` per distinct node of the normal form (about 15 today)."""
    parsed = parse_discourse(flat_discourse_text(Profile.B, 40), LEX)
    applied = app(compose(parsed.tree, LEX, Profile.B), *default_initial_args(Profile.B).args)
    normal = normalize(applied, 10 ** 300)
    budget, lines = 40 * distinct_nodes(normal), [0]

    def count(frame, event, arg):
        if event == "line":
            lines[0] += 1
            if lines[0] > budget:
                raise AssertionError(f"reify ran more than {budget} lines of logic.py")
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 count if frame.f_code.co_filename == logic.__file__ else None)
    try:
        raw = reify(normal)
    finally:
        sys.settrace(previous)
    assert _copies(raw) > 0 and lines[0] <= budget


def test_text_mode_without_raw_never_writes_out_the_raw_formula(tmp_path, capsys, built):
    """A run builds a few nodes per node of the shared normal form, far
    fewer than the written-out raw formula has."""
    f = tmp_path / "b12.dsc"
    f.write_text(flat_discourse_text(Profile.B, 12))
    result = _flat_b(12)
    written = formula_text(result.raw).count(" ")       # a lower bound of its nodes
    built[0] = 0
    assert main(["run", str(f), "--no-raw"]) == 0
    out = capsys.readouterr().out
    assert "\nsimplified: " in out and "\nraw: " not in out
    assert built[0] <= 3 * distinct_nodes(result.normal) < written // 4, (built[0], written)


def test_hash_visits_each_distinct_node_once(monkeypatch):
    result = _flat_b(12)
    tree = uncached_normalize(result.applied)
    assert tree == result.normal and hash(tree) == hash(result.normal)
    calls = [0]
    for cls in (terms.App, terms.Lam):
        def counted(self, _values=cls._values):
            calls[0] += 1
            return _values(self)
        monkeypatch.setattr(cls, "_values", counted)
    hash(result.normal)
    assert calls[0] <= 4 * distinct_nodes(result.normal)


def test_profiles_a_and_c_raw_formulas_hold_no_copies():
    """Only profile B's indefinite hands one continuation to both its
    restrictor and its scope, so only B's raw formula holds copies, and the
    CLI writes out B's alone before either output mode prints it."""
    rng = random.Random(24)
    cases = [(tree, profile) for tree, profile in pipeline_cases(LEX) if profile != Profile.B]
    cases += [(random_discourse(rng, LEX, profile, n), profile)
              for profile in (Profile.A, Profile.C) for n in [*range(3, 11)] * 4]
    for tree, profile in cases:
        raw = run_pipeline(tree, LEX, profile, default_initial_args(profile)).raw
        assert expand(raw) is raw, (profile, formula_text(raw))


def _nodes(f) -> int:
    """The distinct nodes of a formula, atom arguments and environments too."""
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            for v in g._values():
                stack += [v] if isinstance(v, Node) else v if type(v) is tuple else ()
    return len(seen)


@pytest.mark.parametrize("profile", [
    pytest.param(Profile.A, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 7: quote re-reads a shared neutral at each occurrence, so "
        "A's normal form grows about 3.5x per doubling"))),
    Profile.C,
])
def test_flat_a_and_c_grow_linearly(profile):
    """Flat discourses of 64, 128 and 256 sentences: each doubling at most
    2.2x the normal form's distinct App/Lam objects and the distinct nodes of
    the raw and the simplified formula."""
    rows = []
    for n in (64, 128, 256):
        parsed = parse_discourse(flat_discourse_text(profile, n), LEX)
        result = run_pipeline(parsed.tree, LEX, profile, default_initial_args(profile))
        rows.append((distinct_nodes(result.normal), _nodes(result.raw),
                     _nodes(result.simplified)))
    for before, after in zip(rows, rows[1:]):
        assert all(b <= 2.2 * a for a, b in zip(before, after)), rows
