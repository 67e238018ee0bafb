"""Normalization by evaluation against the substitution normalizer and
the normalizer without reuse.

`normalize` evaluates lambdas into closures and reads values back;
`gen.substitution_normalize` rebuilds terms by normal-order beta reduction.
By confluence both must return the same De Bruijn term.
`gen.uncached_normalize` is NbE whose closures evaluate again at every
application and read-back: `normalize` must return an equal term (a DAG
where that one returns a tree) after the same number of steps."""
import gc
import random
import sys
import types
from pathlib import Path

import pytest

from contsem import reduction, terms
from contsem.discourse import (
    compose, default_initial_args, has_symbolic_leaves, parse_discourse,
)
from contsem.lexicon import Profile, default_lexicon
from contsem.terms import (
    App, Const, E, G, Lam, StepBudgetExceeded, T, Var, app, arrow, normalize, typecheck,
)

from gen import (
    GEN_SIG, baseline_discourse, distinct_nodes, flat_discourse_text,
    random_closed_term, random_discourse, random_term, random_type, subterms,
    substitution_normalize, uncached_normalize,
)

LEX = default_lexicon()
SAMPLES = Path(__file__).parent.parent / "samples"
SEED = 20261018


def _applied(tree, profile):
    return app(compose(tree, LEX, profile), *default_initial_args(profile).args)


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
        t = _applied(random_discourse(rng, LEX, profile, n), profile)
        assert normalize(t) == substitution_normalize(t), n


@pytest.mark.parametrize("profile,n", [(Profile.A, 12), (Profile.C, 12), (Profile.B, 6)])
def test_baseline_discourses_match_substitution(profile, n):
    # Random bracketing puts the substitution normalizer past several seconds
    # on some B6 discourses; the left-nested shape keeps it near one.
    t = _applied(baseline_discourse(LEX, profile, n), profile)
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
    t = _applied(baseline_discourse(LEX, profile, n), profile)
    assert _steps(normalize, t) == ours
    substitution_normalize(t, normal_order)
    with pytest.raises(StepBudgetExceeded):
        substitution_normalize(t, normal_order - 1)


def test_normalize_does_no_substitution(monkeypatch):
    def forbidden(*args):
        raise AssertionError("substitution on the normalize path")

    monkeypatch.setattr(reduction, "shift", forbidden)
    monkeypatch.setattr(reduction, "_subst", forbidden)
    for name in ("loves_woman.dsc", "rfc_concrete_sub.dsc"):
        parsed = parse_discourse((SAMPLES / name).read_text(), LEX)
        assert parsed.profile in (Profile.A, Profile.C)
        nf = normalize(_applied(parsed.tree, parsed.profile))
        assert typecheck(nf) == T
    with pytest.raises(AssertionError):
        reduction.beta(Lam(G, Var(0)), terms.NIL)


# ---------------------------------------------------------------------------
# Reuse: a closure applied again to the same value, or read back again at
# the same level, is not evaluated again

def test_random_closed_terms_match_the_uncached_normalizer():
    rng = random.Random(SEED + 2)
    for _ in range(1000):
        t = random_closed_term(rng)
        assert normalize(t) == uncached_normalize(t)
        assert _steps(normalize, t) == _steps(uncached_normalize, t)


@pytest.mark.parametrize("profile,lengths", [
    (Profile.A, (1, 2, 3, 5, 8, 12)),
    (Profile.B, (1, 2, 3, 4, 5)),
    (Profile.C, (1, 2, 3, 5, 8, 12)),
])
def test_discourses_match_the_uncached_normalizer(profile, lengths):
    rng = random.Random(SEED + 3 + len(profile.value))
    for n in lengths:
        for _ in range(3):
            t = _applied(random_discourse(rng, LEX, profile, n), profile)
            assert normalize(t) == uncached_normalize(t), n
            assert _steps(normalize, t) == _steps(uncached_normalize, t), n


def test_reuse_in_read_back_counts_the_first_evaluations_steps():
    """`h f f` reads the closure f back twice at level 0, and the second
    read-back is the first's Lam.  `h (\\x. f x) f` applies f to the level-0
    variable while reading back its first argument, and reading f back
    evaluates that application again.  Either way the steps are those
    without reuse."""
    p, conj = GEN_SIG["p1"], Const("&", arrow(T, T, T))
    h = Const("h", arrow(arrow(E, T), arrow(E, T), T))
    f = Lam(E, app(conj, App(p, Var(0)), App(Lam(E, App(p, Var(0))), Var(0))))
    f_normal = Lam(E, app(conj, App(p, Var(0)), App(p, Var(0))))
    for body in (app(h, Var(0), Var(0)), app(h, Lam(E, App(Var(1), Var(0))), Var(0))):
        t = App(Lam(arrow(E, T), body), f)
        assert normalize(t) == uncached_normalize(t) == app(h, f_normal, f_normal)
        assert _steps(normalize, t) == _steps(uncached_normalize, t)
    nf = normalize(App(Lam(arrow(E, T), app(h, Var(0), Var(0))), f))
    assert nf.fn.arg is nf.arg


def _flat_normal_forms(profile, n):
    parsed = parse_discourse(flat_discourse_text(profile, n), LEX)
    t = _applied(parsed.tree, profile)
    return normalize(t), uncached_normalize(t)


def test_profile_b_shares_the_duplicated_continuation():
    """`a` hands the rest of the discourse to its restrictor and its scope:
    flat B8's normal form holds that rest once, where the tree holds it in
    every copy."""
    shared, tree = _flat_normal_forms(Profile.B, 8)
    nodes = sum(type(s) in (App, Lam) for s in subterms(shared))
    assert shared == tree and nodes == sum(type(s) in (App, Lam) for s in subterms(tree))
    assert distinct_nodes(tree) == nodes > 2000
    assert 5 * distinct_nodes(shared) < nodes     # 280 against 2432


@pytest.mark.parametrize("profile", [Profile.A, Profile.B, Profile.C])
def test_normalize_leaves_no_cycle_for_the_collector(profile):
    """What the closures remember, and `ev` and `quote` themselves, are
    dropped on return, after a result and after StepBudgetExceeded: the
    collector finds nothing (hundreds of values if the caches are kept)."""
    t = _applied(parse_discourse(flat_discourse_text(profile, 24), LEX).tree, profile)
    budgets, flags = (10**6, _steps(normalize, t) - 1), gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for budget in budgets:
            gc.garbage.clear()
            try:
                normalize(t, budget)
            except StepBudgetExceeded:
                pass
            gc.collect()
            assert gc.garbage == [], budget
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_normalize_pauses_the_collector_and_restores_it():
    """Callers outside `run_pipeline` (`--mode term-eval`) get the pause too:
    no collection runs while `ev` or `quote` is on the stack, and the
    collector is left as it was found, after a result and after
    StepBudgetExceeded."""
    t = _applied(parse_discourse(flat_discourse_text(Profile.A, 24), LEX).tree, Profile.A)
    inner = {c for c in normalize.__code__.co_consts if isinstance(c, types.CodeType)}
    inside, threshold, budget = [], gc.get_threshold(), _steps(normalize, t) - 1

    def watch(phase, info):
        frame = sys._getframe()
        while frame is not None and frame.f_code not in inner:
            frame = frame.f_back
        inside.append(frame is not None)

    gc.callbacks.append(watch)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            gc.set_threshold(10)
            normalize(t)
            assert gc.isenabled() is enabled
            with pytest.raises(StepBudgetExceeded):
                normalize(t, budget)
            assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(watch)
        gc.set_threshold(*threshold)
        gc.enable()
    assert not any(inside)


@pytest.mark.parametrize("profile", [Profile.A, Profile.C])
def test_profiles_a_and_c_build_as_many_nodes_as_before(profile):
    shared, tree = _flat_normal_forms(profile, 24)
    assert shared == tree
    assert distinct_nodes(shared) == distinct_nodes(tree)
