"""Nameless formulas against the named path they replaced.

`gen.tree_reify` and `gen.tree_simplify` keep the path on which reading a
normal form named each binder and numbered each site, and
`gen.recursive_formula_text`, `gen.recursive_formula_json`,
`gen.named_report_lines` and `gen.named_resolve` print and resolve its
named formulas.  `logic`'s formulas hold binder levels and no site ids;
the printers, `report` and `resolve` name binders y, y1, ... and number
sites in textual order as they walk.  On the pipeline's formulas both paths
must print the same text, JSON, `sel#` lines and `EmptyEnvironment` site
ids.  The named references recurse, so these tests raise the recursion
limit for them, and only for them."""
import json
import random
import sys
from contextlib import contextmanager

import pytest

from contsem.discourse import default_initial_args, parse_discourse, run_pipeline
from contsem.lexicon import Profile, default_lexicon, load_word_file
from contsem.logic import (
    And, Atom, Exists, Not, Or, formula_text, json_text, reify, simplify,
)
from contsem.resolver import EmptyEnvironment, report, report_line, resolve
from contsem.terms import AND, EXISTS, NOT, OR, TOP, App, Const, E, Lam, T, Var, app, arrow

from gen import (
    flat_discourse_text, named_report_lines, named_resolve, pipeline_cases, random_discourse,
    recursive_formula_json, recursive_formula_text, tree_reify, tree_simplify,
)

LEX = default_lexicon()


@contextmanager
def _headroom(limit):
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def _same_json(a, b) -> bool:
    """`a == b` for nested dicts and lists, key order included, by a loop."""
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


def _printed(f, ref, raw_json=True) -> bool:
    """Whether nameless `f` prints as the named reference `ref`: text, JSON
    (the writer's text read back, against the reference's tree)."""
    if formula_text(f) != recursive_formula_text(ref):
        return False
    return not raw_json or _same_json(json.loads(json_text(f)), recursive_formula_json(ref))


def _differences(normal, raw_json=True) -> list[str]:
    """What the two paths print differently for one normal form."""
    raw, ref_raw = reify(normal), tree_reify(normal)
    simplified, ref_simplified = simplify(raw), tree_simplify(ref_raw)
    out = []
    if not _printed(raw, ref_raw, raw_json):
        out.append("raw")
    if not _printed(simplified, ref_simplified):
        out.append("simplified")
    if list(map(report_line, report(simplified))) != named_report_lines(ref_simplified):
        out.append("sel# lines")
    try:
        resolved = resolve(simplified, "recency")
    except EmptyEnvironment as exc:
        resolved = exc.site_id
    try:
        ref_resolved = named_resolve(ref_simplified)
    except EmptyEnvironment as exc:
        ref_resolved = exc.site_id
    if type(resolved) is int or type(ref_resolved) is int:
        if resolved != ref_resolved:
            out.append("EmptyEnvironment site")
    elif not _printed(resolved, ref_resolved):
        out.append("resolved")
    return out


def _normal(tree, profile, max_steps=None):
    args = (max_steps,) if max_steps else ()
    return run_pipeline(tree, LEX, profile, default_initial_args(profile), *args).normal


def _flat(profile, n, max_steps=None):
    return _normal(parse_discourse(flat_discourse_text(profile, n), LEX).tree, profile, max_steps)


def test_pipeline_cases_print_as_the_named_path():
    cases = list(pipeline_cases(LEX))
    assert len(cases) == 33
    with _headroom(4000):
        assert [(tree, p, d) for tree, p in cases if (d := _differences(_normal(tree, p)))] == []


def test_random_discourses_print_as_the_named_path():
    """1000 seeded random discourses: A and C of 1 to 12 sentences, B of 1 to 6;
    some of them end with an empty environment under recency."""
    rng = random.Random(2027)
    found, empty = [], 0
    with _headroom(4000):
        for i in range(1000):
            profile = (Profile.A, Profile.B, Profile.C)[i % 3]
            tree = random_discourse(rng, LEX, profile, rng.randint(1, 6 if profile == Profile.B
                                                                   else 12))
            normal = _normal(tree, profile)
            if d := _differences(normal):
                found.append((tree, profile, d))
            try:
                resolve(simplify(reify(normal)), "recency")
            except EmptyEnvironment:
                empty += 1
    assert found == [] and empty > 20


@pytest.mark.parametrize("n", range(2, 15))
def test_flat_b_prints_as_the_named_path(n):
    """Flat B2 to B14; the raw formula's JSON up to B10 (B14's is 46 MB)."""
    with _headroom(4000):
        assert _differences(_flat(Profile.B, n), raw_json=n <= 10) == []


@pytest.mark.parametrize("profile", [Profile.A, Profile.C])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_flat_a_and_c_print_as_the_named_path(profile, n):
    with _headroom(20_000):
        assert _differences(_flat(profile, n)) == []


def test_a_dropped_word_file_constant_named_y1_no_longer_moves_the_names():
    """The one place the printers' names differ from the named path's: a
    word-file constant `y1` that `simplify` drops.  The named path chose
    the names once, in `reify`, skipping `y1` for the whole run; the
    printers skip a constant's name only in a formula that has it."""
    lex = load_word_file(["pnoun y1"])
    y1 = Const(lex.symbol("y1"), lex.signature()["y1"])
    some_car = App(EXISTS, Lam(E, App(Const("car", arrow(E, T)), Var(0))))
    owns = app(Const("own", arrow(E, E, T)), y1, Const("j", E))
    t = app(AND, app(OR, owns, TOP), app(AND, some_car, App(NOT, some_car)))
    raw, ref_raw = reify(t), tree_reify(t)
    assert formula_text(raw) == recursive_formula_text(ref_raw) == (
        "(own y1 j | top) & (Ex y. car y) & ~ Ex y2. car y2")
    simplified = simplify(raw)
    assert recursive_formula_text(tree_simplify(ref_raw)) == "(Ex y. car y) & ~ Ex y2. car y2"
    assert formula_text(simplified) == "(Ex y. car y) & ~ Ex y1. car y1"
    assert json.loads(json_text(simplified))["right"]["body"]["var"] == "y1"


# ---------------------------------------------------------------------------
# Item 16, wall 4: simplify reads reify's DAG a constant number of times

_FIELDS = {Not: ("body",), Exists: ("body",), And: ("left", "right"),
           Or: ("left", "right"), Atom: ("args",)}


def _distinct(f) -> set[int]:
    """The ids of a formula's distinct formula nodes."""
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            stack += [getattr(g, name) for name in _FIELDS.get(type(g), ()) if name != "args"]
    return seen


@pytest.mark.parametrize("n", [20, 40, 80, 160])
def test_simplify_reads_each_node_of_flat_b_a_constant_number_of_times(n, monkeypatch):
    """Every field read of a formula node is counted by node: on flat B20
    to B160 `simplify` reads each distinct node of reify's DAG at most 4
    times, `==` on fusion's tails included (it reads fields too).  The
    normal form's unshared step count passes the default budget from B16 on
    (item 16, wall 2), hence the explicit one."""
    with _headroom(20_000):
        raw = reify(_flat(Profile.B, n, max_steps=10 ** 200))
    nodes = _distinct(raw)
    reads: dict[int, int] = {}
    for cls, names in _FIELDS.items():
        for name in names:
            slot = cls.__dict__[name]

            def counted(self, _slot=slot):
                reads[id(self)] = reads.get(id(self), 0) + 1
                return _slot.__get__(self)
            monkeypatch.setattr(cls, name, property(counted))
    simplify(raw)
    monkeypatch.undo()
    per_node = [reads.get(i, 0) for i in nodes]
    assert len(nodes) > 100 * n // 20 and max(per_node) <= 4, (len(nodes), max(per_node))
