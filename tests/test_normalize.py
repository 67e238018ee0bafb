"""Normalization by evaluation against the substitution normalizer.

`normalize` evaluates lambdas into closures and reads values back;
`gen.substitution_normalize` rebuilds terms by normal-order beta reduction.
By confluence both must return the same De Bruijn term."""
import random
from pathlib import Path

import pytest

from contsem import terms
from contsem.discourse import (
    CoordN, Leaf, Seq, SubN, compose, default_initial_args, has_symbolic_leaves,
    parse_discourse, parse_sentence_words,
)
from contsem.lexicon import Profile, default_lexicon
from contsem.terms import (
    App, E, G, Lam, StepBudgetExceeded, T, Var, app, arrow, normalize, typecheck,
)

from gen import GEN_SIG, random_closed_term, random_term, random_type, substitution_normalize

LEX = default_lexicon()
SAMPLES = Path(__file__).parent.parent / "samples"
SEED = 20261018

SENTENCES = {
    Profile.A: ("john loves (a woman)", "it is red", "(a woman) loves it",
                "john doesnt own it"),
    Profile.B: ("john doesnt own (a car)", "it is red", "john owns (a car)",
                "john owns it"),
    Profile.C: ("john owns (a car)", "it is red", "mary walks", "(a man) loves it"),
}


def _applied(tree, profile):
    return app(compose(tree, LEX, profile), *default_initial_args(profile).args)


def _discourse(rng, profile, n):
    """A randomly bracketed discourse of n sentences; the first one names a
    referent so later pronouns have a candidate."""
    pool = [parse_sentence_words(w, LEX) for w in SENTENCES[profile]]
    leaves = [Leaf(pool[0])] + [Leaf(rng.choice(pool)) for _ in range(n - 1)]
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        node = Seq if profile != Profile.C else rng.choice((CoordN, SubN))
        leaves[i:i + 2] = [node(leaves[i], leaves[i + 1])]
    return leaves[0]


def _baseline(profile, n):
    """The left-nested baseline discourses of ROADMAP.md: the profile's first
    two (B: three) sentences in turn, and in profile C `.c` and `.s` in
    turn, starting with `.c`."""
    pool = [parse_sentence_words(w, LEX) for w in SENTENCES[profile][:3]]
    if profile != Profile.B:
        pool = pool[:2]
    tree = Leaf(pool[0])
    for i in range(1, n):
        node = Seq if profile != Profile.C else (CoordN if i % 2 else SubN)
        tree = node(tree, Leaf(pool[i % len(pool)]))
    return tree


def _steps(normalizer, term):
    """The fewest `max_steps` under which `normalizer` succeeds."""
    lo, hi = -1, 1
    while True:
        try:
            normalizer(term, hi)
            break
        except StepBudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            normalizer(term, mid)
            hi = mid
        except StepBudgetExceeded:
            lo = mid
    return hi


def test_random_closed_terms_match_substitution():
    rng = random.Random(SEED)
    for _ in range(2000):
        t = random_closed_term(rng)
        assert normalize(t) == substitution_normalize(t)


def test_random_open_terms_match_substitution():
    rng = random.Random(SEED + 1)
    for _ in range(500):
        ctx = tuple(random_type(rng, 1) for _ in range(rng.randint(1, 3)))
        t = random_term(rng, random_type(rng, 2), ctx, fuel=20)
        nf = normalize(t)
        assert nf == substitution_normalize(t)
        assert typecheck(nf, ctx) == typecheck(t, ctx)


def test_free_index_reads_back_unchanged():
    # \x:e. (\y:e. #2) x, with #2 free two levels up from the inner body.
    t = Lam(E, App(Lam(E, Var(2)), Var(0)))
    assert normalize(t) == Lam(E, Var(1))
    assert normalize(Var(3)) == Var(3)


@pytest.mark.parametrize("sample", sorted(p.name for p in SAMPLES.glob("*.dsc")))
def test_sample_terms_match_substitution(sample):
    parsed = parse_discourse((SAMPLES / sample).read_text(), LEX)
    composed = compose(parsed.tree, LEX, parsed.profile)
    # A symbolic sample is normalized as composed, as `--symbolic` does.
    t = composed if has_symbolic_leaves(parsed.tree) else _applied(parsed.tree, parsed.profile)
    assert normalize(t) == substitution_normalize(t)


@pytest.mark.parametrize("profile,lengths", [
    (Profile.A, (1, 2, 3, 5, 8, 12)),
    (Profile.C, (1, 2, 3, 5, 8, 12)),
    (Profile.B, (1, 2, 3, 4)),
])
def test_discourses_match_substitution(profile, lengths):
    rng = random.Random(SEED + len(profile.value))
    for n in lengths:
        t = _applied(_discourse(rng, profile, n), profile)
        assert normalize(t) == substitution_normalize(t), n


@pytest.mark.parametrize("profile,n", [(Profile.A, 12), (Profile.C, 12), (Profile.B, 6)])
def test_baseline_discourses_match_substitution(profile, n):
    # Random bracketing puts the substitution normalizer past several seconds
    # on some B6 discourses; the left-nested shape keeps it near one.
    t = _applied(_baseline(profile, n), profile)
    assert normalize(t) == substitution_normalize(t)


def test_step_budget_is_exact():
    # (\f:e>e. \x:e. f (f x)) (\y:e. y) ce: two applications of the outer
    # lambdas, then two of the identity.
    twice = Lam(arrow(E, E), Lam(E, App(Var(1), App(Var(1), Var(0)))))
    t = app(twice, Lam(E, Var(0)), GEN_SIG["ce"])
    assert normalize(t, max_steps=4) == GEN_SIG["ce"]
    with pytest.raises(StepBudgetExceeded) as exc:
        normalize(t, max_steps=3)
    assert exc.value.max_steps == 3


@pytest.mark.parametrize("profile,n,ours,normal_order", [
    (Profile.A, 8, 142, 142),
    (Profile.B, 4, 468, 468),
    (Profile.C, 8, 98, 92),
])
def test_step_counts_against_normal_order(profile, n, ours, normal_order):
    # Arguments are evaluated before the call, so an argument that `Coord`
    # discards is still evaluated: profile C counts a few more steps.
    t = _applied(_baseline(profile, n), profile)
    assert _steps(normalize, t) == ours
    substitution_normalize(t, normal_order)
    with pytest.raises(StepBudgetExceeded):
        substitution_normalize(t, normal_order - 1)


def test_normalize_does_no_substitution(monkeypatch):
    def forbidden(*args):
        raise AssertionError("substitution on the normalize path")

    monkeypatch.setattr(terms, "shift", forbidden)
    monkeypatch.setattr(terms, "_subst", forbidden)
    for name in ("loves_woman.dsc", "rfc_concrete_sub.dsc"):
        parsed = parse_discourse((SAMPLES / name).read_text(), LEX)
        assert parsed.profile in (Profile.A, Profile.C)
        nf = normalize(_applied(parsed.tree, parsed.profile))
        assert typecheck(nf) == T
    with pytest.raises(AssertionError):
        terms.beta(Lam(G, Var(0)), terms.NIL)
