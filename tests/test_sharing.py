"""Reify and simplify on a shared normal form.

`logic.reify` reads a Lam it meets again at the same binder depth as the
node of its first reading, and `simplify` simplifies each input node once.
Printed, both must give exactly what the tree-walking references
`gen.tree_reify` and `gen.tree_simplify` give on the named form, and the
nodes they build must track the shared normal form, not the tree.
Profiles A and C share no existential; flat C grows linearly, flat A not
yet."""
import json
import random
import re
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
    SelOf, Top, UnionE, formula_text, json_text, reify, simplify,
)
from contsem.node import Node
from contsem.resolver import report, report_line
from contsem.terms import (
    AND, EXISTS, NOT, OR, App, Const, E, Lam, T, Var, app, arrow, normalize,
)

from gen import (
    distinct_nodes, flat_discourse_text, named, named_report_lines, nameless, pipeline_cases,
    random_discourse, random_reify_term, recursive_formula_json, recursive_formula_text,
    reference_json, tree_reify, tree_simplify, uncached_normalize,
)

LEX = default_lexicon()
FORMULA_CLASSES = (Top, Bot, Not, And, Or, Exists, Atom,
                   EntConst, EntVar, NilE, ConsE, UnionE, SelOf)
CAR = Const("car", arrow(E, T))
OWN = Const("own", arrow(E, E, T))


def _flat_b(n: int):
    parsed = parse_discourse(flat_discourse_text(Profile.B, n), LEX)
    return run_pipeline(parsed.tree, LEX, Profile.B, default_initial_args(Profile.B))


def _written(f):
    """A nameless formula's text, JSON and `sel#` lines."""
    return formula_text(f), json_text(f), list(map(report_line, report(f)))


def _reference(f):
    """A named formula's text, JSON and `sel#` lines, by the references."""
    return (recursive_formula_text(f), json.dumps(recursive_formula_json(f), indent=2),
            named_report_lines(f))


def _shared(f) -> int:
    """The distinct existentials a formula reaches more than once."""
    seen, stack, shared = set(), [f], set()
    while stack:
        g = stack.pop()
        if id(g) in seen:
            if type(g) is Exists:
                shared.add(id(g))
            continue
        seen.add(id(g))
        stack += [v for v in g._values() if isinstance(v, Node)]
    return len(shared)


def _check_against_trees(normal):
    """Reify's and simplify's results, printed, against the tree walks'."""
    raw, ref_raw = reify(normal), tree_reify(normal)
    assert _written(raw) == _reference(ref_raw)
    assert _written(simplify(raw)) == _reference(tree_simplify(ref_raw))
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
    shared = 0
    for tree, profile, init in _cases():
        raw = _check_against_trees(run_pipeline(tree, LEX, profile, init).normal)
        shared += _shared(raw) > 0
    assert shared >= 10         # cases read with a shared existential


def test_flat_b_matches_the_tree_walks_with_one_copy_per_revisited_lam():
    """Flat B reads each Lam it meets again at one depth as one node, where
    it once made a `Shifted` copy."""
    for n in (4, 8, 12):
        raw = _check_against_trees(_flat_b(n).normal)
        assert 0 < _shared(raw) <= n


def _outcome(reader, term):
    try:
        f = reader(term)
    except NotReifiable as exc:
        return str(exc), exc.position
    return _written(f) if reader is reify else _reference(f)


def test_rejections_and_second_walks_match_the_tree_walk():
    """A random formula term under a quantifier, next to its negation: the
    quantifier's Lam is met twice and read as one node.  Rejections come at
    the same path, and a constant named like a quantified variable sends the
    printers to their second render, as it sent the tree walk to its second
    walk."""
    rng = random.Random(1016)
    pairs = []
    for _ in range(1500):
        some = App(EXISTS, Lam(E, random_reify_term(rng)))
        pairs.append(app(AND, some, App(NOT, some)))
    outcomes = [_outcome(reify, t) for t in pairs]
    assert outcomes == [_outcome(tree_reify, t) for t in pairs]
    read = [(reify(t), o[0]) for t, o in zip(pairs, outcomes) if type(o[1]) is not tuple]
    assert len(pairs) - len(read) > 500                         # rejected
    assert all(f.right.body is f.left for f, _ in read)
    assert sum(not text.startswith("(Ex y. ") for _, text in read) > 5    # names skipped


def test_a_constant_named_like_a_bound_variable_reads_without_copies():
    """The reading is the same whatever the constants are called; the
    printers skip a name that is a constant's."""
    some_car = App(EXISTS, Lam(E, App(CAR, Var(0))))
    t = app(AND, some_car, app(AND, App(NOT, some_car), App(Const("y", arrow(E, T)),
                                                            Const("y1", E))))
    f = reify(t)
    assert _shared(f) == 1 and _written(f) == _reference(tree_reify(t))
    assert formula_text(f) == "(Ex y2. car y2) & (~ Ex y3. car y3) & y y1"
    # Eleven occurrences of one existential are named y, y1, ..., y10: a
    # constant clashes exactly when it is one of those names.
    for name, clashes in (("y", True), ("y1", True), ("y10", True),
                          ("y0", False), ("y01", False), ("yy", False)):
        t = App(Const(name, arrow(E, T)), Const("c", E))
        for i in range(11):
            t = app(AND, App(NOT, some_car) if i % 2 else some_car, t)
        f = reify(t)
        assert _shared(f) == 1 and _written(f) == _reference(tree_reify(t))
        chosen = re.findall(r"Ex (\w+)\.", formula_text(f))
        assert (chosen != ["y"] + [f"y{i}" for i in range(1, 11)]) == clashes


def test_printers_read_a_copy_as_its_written_out_text():
    """A shared existential ending a left operand's right spine keeps the
    parentheses that close its scope, as the tree does."""
    some_car = App(EXISTS, Lam(E, App(CAR, Var(0))))
    p_c = App(Const("p", arrow(E, T)), Const("c", E))
    raw = _check_against_trees(app(AND, some_car, app(AND, App(NOT, some_car), p_c)))
    assert _shared(raw) == 1
    assert formula_text(raw) == "(Ex y. car y) & (~ Ex y1. car y1) & p c"


def test_printers_write_a_copy_out_where_they_read_it():
    """`formula_text` and the JSON writer write a shared existential out
    where they read it, as a child or at the root, naming its binder there:
    they print what the references print for the named form, on flat B3,
    B6 and B9's raw formulas, the existential at the root and left operands
    ending in it."""
    ex = Exists(Atom("car", (EntVar(0),)))
    p_c, q_c = (Atom(name, (EntConst("c"),)) for name in "pq")
    cases = [reify(_flat_b(n).normal) for n in (3, 6, 9)] + [
        ex, Or(And(p_c, ex), q_c), Or(Not(ex), q_c), And(Not(And(p_c, ex)), q_c), And(ex, Not(ex))]
    assert [(formula_text(f), json_text(f)) for f in cases] == [
        (recursive_formula_text(named(f)), json.dumps(reference_json(f), indent=2))
        for f in cases]
    assert [formula_text(f) for f in cases[3:]] == [
        "Ex y. car y", "(p c & Ex y. car y) | q c", "(~ Ex y. car y) | q c",
        "(~ (p c & Ex y. car y)) & q c", "(Ex y. car y) & ~ Ex y1. car y1"]


def test_copies_follow_identity_and_binders_not_equality():
    """Sharing follows the Lam's identity and its binder depth, not equality:
    an equal Lam is read apart, and one Lam under two binders at one depth
    is one node, its free variable a level."""
    some_car = App(EXISTS, Lam(E, App(CAR, Var(0))))
    twin = App(EXISTS, Lam(E, App(CAR, Var(0))))                # equal, not the same
    assert _shared(reify(app(AND, some_car, App(NOT, some_car)))) == 1
    assert _shared(reify(app(AND, some_car, App(NOT, twin)))) == 0
    owned = App(EXISTS, Lam(E, app(OWN, Var(1), Var(0))))
    outer = App(EXISTS, Lam(E, owned))
    t = app(AND, outer, App(EXISTS, Lam(E, owned)))
    f = _check_against_trees(t)
    assert f.left.body is f.right.body == Exists(Atom("own", (EntVar(0), EntVar(1))))
    assert formula_text(f) == "(Ex y. Ex y1. own y y1) & Ex y2. Ex y3. own y2 y3"


def test_simplify_looks_through_copies():
    """A quantifier over a conjunct that mentions its variable only inside a
    shared existential keeps the conjunct, and `simplify` simplifies the
    shared existential once: its result is one node too."""
    owned = App(EXISTS, Lam(E, app(OWN, Var(1), Var(0))))       # own x z, x bound outside
    t = App(EXISTS, Lam(E, app(AND, owned, App(NOT, owned))))
    raw = _check_against_trees(t)
    assert raw.body.right.body is raw.body.left
    simplified = simplify(raw)
    assert simplified.body.right.body is simplified.body.left
    assert formula_text(simplified) == "Ex y. ((Ex y1. own y y1) & ~ Ex y2. own y y2)"


def test_a_copy_in_an_opened_copy_is_one_copy():
    """A shared existential whose simplified body is a conjunction holding
    another shared existential, opened by De Morgan under `~`: the result is
    the tree walk's.  Extraction moves the left conjuncts, with their
    binders, ahead of `Ex y. p y`; the tree walk's names kept reify's order,
    y1 y2 y, where the printers now name binders in textual order."""
    some_car = App(EXISTS, Lam(E, App(CAR, Var(0))))
    p = Const("p", arrow(E, T))
    body = App(EXISTS, Lam(E, app(AND, some_car, app(AND, App(NOT, some_car), App(p, Var(0))))))
    t = app(AND, body, App(NOT, body))
    raw, ref_raw = reify(t), tree_reify(t)
    assert _written(raw) == _reference(ref_raw) and _shared(raw) == 2
    simplified, ref_simplified = simplify(raw), tree_simplify(ref_raw)
    assert simplified == nameless(ref_simplified)
    assert recursive_formula_text(ref_simplified) == (
        "((Ex y1. car y1) & (~ Ex y2. car y2) & Ex y. p y)"
        " & ((~ Ex y4. car y4) | (Ex y5. car y5) | ~ Ex y3. p y3)")
    assert formula_text(simplified) == (
        "((Ex y. car y) & (~ Ex y1. car y1) & Ex y2. p y2)"
        " & ((~ Ex y3. car y3) | (Ex y4. car y4) | ~ Ex y5. p y5)")


def test_reify_and_simplify_never_hash_or_compare_terms_and_formulas(monkeypatch):
    """Neither hashes a term or a formula, nor compares terms.  `simplify`
    compares formulas only as fusion's tails, by `==` once `is` fails, and
    on flat B12 those comparisons read fewer formula nodes than the normal
    form has distinct nodes."""
    normal = _flat_b(12).normal
    expected = _written(simplify(reify(normal)))

    def forbidden(*_):
        raise AssertionError("structural hash or == on a shared value")

    for cls in (terms.App, terms.Lam, Not, And, Or, Exists, Atom):
        monkeypatch.setattr(cls, "__hash__", forbidden)
    for cls in (terms.App, terms.Lam):
        monkeypatch.setattr(cls, "__eq__", forbidden)
    read = [0]
    for cls in (Not, And, Or, Exists, Atom):    # `==` reads both sides through `_values`
        def counted(self, _values=cls._values):
            read[0] += 1
            return _values(self)
        monkeypatch.setattr(cls, "_values", counted)
    simplified = simplify(reify(normal))
    monkeypatch.undo()
    assert _written(simplified) == expected
    assert 0 < read[0] <= distinct_nodes(normal), read


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
    assert _shared(raw) > 0 and lines[0] <= budget


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
    restrictor and its scope, so only B's raw formula reaches an existential
    twice."""
    rng = random.Random(24)
    cases = [(tree, profile) for tree, profile in pipeline_cases(LEX) if profile != Profile.B]
    cases += [(random_discourse(rng, LEX, profile, n), profile)
              for profile in (Profile.A, Profile.C) for n in [*range(3, 11)] * 4]
    for tree, profile in cases:
        raw = run_pipeline(tree, LEX, profile, default_initial_args(profile)).raw
        assert _shared(raw) == 0, (profile, formula_text(raw))


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
