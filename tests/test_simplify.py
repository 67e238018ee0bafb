"""The one-pass `simplify` against the fixed-point simplifier it replaced.

`gen.fixpoint_simplify` repeats a recursive rewriting pass until nothing
changes, on named formulas; `simplify` rebuilds each node once from
simplified children.  Both apply the same rule set, so on the formulas the
pipeline produces they must give the same formula, and `simplify` must keep
working where the recursive one runs out of Python's recursion limit."""
import random
import sys
from pathlib import Path

import pytest

from contsem.discourse import (
    compose, default_initial_args, has_symbolic_leaves, parse_discourse,
)
from contsem.lexicon import Profile, default_lexicon
from contsem.logic import (
    And, Atom, Bot, EntConst, EntVar, Exists, Not, Or, Top, formula_text, reify, simplify,
)
from contsem.terms import app, normalize

from gen import (
    baseline_discourse, fixpoint_simplify, formula_preorder, named, named_alpha_eq, nameless,
    random_discourse, random_formula, recursive_alpha_eq,
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
    """`fixpoint_simplify` of `f`'s named form, read back nameless."""
    # The reference recurses per node, and so does `==` on formulas inside
    # its loop, and so do `named` and `nameless`; a flat 128-sentence A
    # formula comes within a few dozen frames of the default limit, so the
    # reference alone gets headroom.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4000))
    try:
        return nameless(fixpoint_simplify(named(f)))
    finally:
        sys.setrecursionlimit(limit)


def _check(f):
    s = simplify(f)
    _same(s, _reference(f))
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
    f = Not(Exists(Not(Not(Not(body)))))
    neg = Not(Exists(Not(sa)))
    one_pass, fixpoint = simplify(f), _reference(f)
    assert one_pass == And(Or(neg, r), r)
    assert fixpoint == Or(And(neg, r), And(r, r))
    assert simplify(fixpoint) == fixpoint and _reference(one_pass) == one_pass
    assert logically_equiv(one_pass, fixpoint, 3)


def test_a_node_shared_at_two_depths_is_simplified_at_each():
    """`Ex y. q` sits at depth 0 and, the same node, at depth 1, before an
    extraction moves a binder and variables are renumbered: each place keeps
    its own binder's level, so the last atom's variable stays bound."""
    shared = Exists(Atom("q", ()))
    moved = Exists(And(Atom("u", ()), Exists(Atom("s", (EntVar(2),)))))
    f = And(shared, Exists(And(Atom("r", (EntVar(0),)),
                               And(shared, And(moved, Atom("p", (EntVar(0),)))))))
    s = simplify(f)
    _same(s, _reference(f))
    assert formula_text(s) == (
        "(Ex y. q) & Ex y1. (r y1 & (Ex y2. q) & ((Ex y3. u) & Ex y4. s y4) & p y1)")
    assert logically_equiv(f, s, 2)


def test_idempotent_on_random_formulas():
    rng = random.Random(SEED + 1)
    for _ in range(500):
        s = simplify(random_formula(rng))
        _same(simplify(s), s)


def test_alpha_eq_matches_recursive():
    """`==` on nameless formulas decides what the references' alpha-equality
    decides on their named forms."""
    rng = random.Random(SEED + 2)
    prev = Top()
    for _ in range(1000):
        f = random_formula(rng)
        for other in (f, prev, simplify(f)):
            g, h = named(f), named(other)
            assert (f == other) == named_alpha_eq(g, h) == recursive_alpha_eq(g, h)
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
    # is free of the outer variable, so each quantifier moves inward, and
    # each moved binder ends at depth 0.
    def atom(i):
        return Atom("p", (EntVar(i),))

    f = Exists(atom(DEEP - 1))
    for i in reversed(range(DEEP - 1)):
        f = Exists(And(atom(i), f))
    _same(simplify(f), _chain(And, [Exists(atom(0))] * DEEP))


def test_deep_negated_conjunction_chain():
    f = Not(_chain(And, [_p(i) for i in range(DEEP)]))
    _same(simplify(f), _chain(Or, [Not(_p(i)) for i in range(DEEP)]))


def test_deep_negation_chain():
    f = _p(0)
    for _ in range(DEEP + 1):
        f = Not(f)
    _same(simplify(f), Not(_p(0)))
