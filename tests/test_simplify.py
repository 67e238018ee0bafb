"""The one-pass `simplify` against the fixed-point simplifier it replaced.

`gen.fixpoint_simplify` repeats a recursive rewriting pass until nothing
changes; `simplify` rebuilds each node once from simplified children.  Both
apply the same rule set, so on the formulas the pipeline produces they must
give the same formula, and `simplify` must keep working where the recursive
one runs out of Python's recursion limit."""
import random
import sys
from pathlib import Path

import pytest

from contsem.discourse import (
    compose, default_initial_args, has_symbolic_leaves, parse_discourse,
)
from contsem.lexicon import Profile, default_lexicon
from contsem.logic import (
    And, Atom, Bot, EntConst, EntVar, Exists, Not, Or, Top, alpha_eq,
    expand, reify, simplify,
)
from contsem.terms import app, normalize

from gen import (
    baseline_discourse, fixpoint_simplify, formula_preorder, random_discourse,
    random_formula, recursive_alpha_eq,
)
from oracle import logically_equiv

LEX = default_lexicon()
SAMPLES = Path(__file__).parent.parent / "samples"
SEED = 20261018
DEEP = 10_000


def _raw(tree, profile):
    composed = compose(tree, LEX, profile)
    return reify(normalize(app(composed, *default_initial_args(profile).args)))


def _same(a, b):
    assert formula_preorder(a) == formula_preorder(b)


def _reference(f):
    # The reference recurses per node, and so does `==` on formulas inside
    # its loop; a flat 128-sentence A formula comes within a few dozen frames
    # of the default limit, so the reference alone gets headroom.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4000))
    try:
        return fixpoint_simplify(f)
    finally:
        sys.setrecursionlimit(limit)


def _check(f):
    s = expand(simplify(f))
    _same(s, _reference(expand(f)))
    _same(simplify(s), s)


def test_random_formulas_match_fixpoint():
    rng = random.Random(SEED)
    for _ in range(2000):
        _check(random_formula(rng))


def test_samples_match_fixpoint():
    checked = 0
    for path in sorted(SAMPLES.glob("*.dsc")):
        parsed = parse_discourse(path.read_text(), LEX)
        if has_symbolic_leaves(parsed.tree):
            continue
        _check(_raw(parsed.tree, parsed.profile))
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("profile,longest", [
    (Profile.A, 24), (Profile.C, 24), (Profile.B, 6),
])
def test_random_discourses_match_fixpoint(profile, longest):
    rng = random.Random(SEED + longest)
    for n in range(1, longest + 1):
        for _ in range(3):
            _check(_raw(random_discourse(rng, LEX, profile, n), profile))


@pytest.mark.parametrize("profile", [Profile.A, Profile.C])
def test_flat_128_sentence_discourses_match_fixpoint(profile):
    _check(_raw(baseline_discourse(LEX, profile, 128), profile))


def test_different_rule_orders_reach_equivalent_normal_forms():
    # The rule set is not confluent.  Off the formulas the pipeline makes,
    # the two orders can stop at different normal forms: here the one pass
    # fuses the shared tail `r` after De Morgan, where the fixed-point loop
    # had already moved the quantifier.  Each result is left alone by the
    # other simplifier, and the two agree on every model.
    sa, r = Atom("s", (EntConst("a"),)), Atom("r", ())
    body = And(Or(And(sa, r), And(r, r)), Or(r, Not(Bot())))
    f = Not(Exists("v1", Not(Not(Not(body)))))
    neg = Not(Exists("v1", Not(sa)))
    one_pass, fixpoint = simplify(f), fixpoint_simplify(f)
    assert one_pass == And(Or(neg, r), r)
    assert fixpoint == Or(And(neg, r), And(r, r))
    assert simplify(fixpoint) == fixpoint and fixpoint_simplify(one_pass) == one_pass
    assert logically_equiv(one_pass, fixpoint, 3)


def test_idempotent_on_random_formulas():
    rng = random.Random(SEED + 1)
    for _ in range(500):
        s = simplify(random_formula(rng))
        _same(simplify(s), s)


def test_alpha_eq_matches_recursive():
    rng = random.Random(SEED + 2)
    prev = Top()
    for _ in range(1000):
        f = random_formula(rng)
        for other in (f, prev, simplify(f)):
            assert alpha_eq(f, other) == recursive_alpha_eq(f, other)
        prev = f


# ---------------------------------------------------------------------------
# Deep formulas, at the default recursion limit

def _p(i):
    return Atom("p", (EntConst(f"c{i}"),))


def _chain(ctor, items):
    """ctor(items[0], ctor(items[1], ... items[-1])), built without recursing."""
    out = items[-1]
    for item in reversed(items[:-1]):
        out = ctor(item, out)
    return out


def test_deep_conjunction_chain():
    assert sys.getrecursionlimit() < DEEP
    items = [x for i in range(DEEP) for x in (Top(), _p(i))]
    _same(simplify(_chain(And, items)), _chain(And, [_p(i) for i in range(DEEP)]))


def test_deep_disjunction_chain():
    items = [x for i in range(DEEP) for x in (_p(i), Bot())]
    _same(simplify(_chain(Or, items)), _chain(Or, [_p(i) for i in range(DEEP)]))


def test_deep_existential_chain():
    # Ex x0. (p x0 & Ex x1. (p x1 & ...)): every conjunct after the first
    # is free of the outer variable, so each quantifier moves inward.
    def atom(i):
        return Atom("p", (EntVar(f"x{i}"),))

    f = Exists(f"x{DEEP - 1}", atom(DEEP - 1))
    expected = f
    for i in reversed(range(DEEP - 1)):
        f = Exists(f"x{i}", And(atom(i), f))
        expected = And(Exists(f"x{i}", atom(i)), expected)
    _same(simplify(f), expected)


def test_deep_negated_conjunction_chain():
    f = Not(_chain(And, [_p(i) for i in range(DEEP)]))
    _same(simplify(f), _chain(Or, [Not(_p(i)) for i in range(DEEP)]))


def test_deep_negation_chain():
    f = _p(0)
    for _ in range(DEEP + 1):
        f = Not(f)
    _same(simplify(f), Not(_p(0)))
