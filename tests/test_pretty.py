"""The explicit-stack `pretty` against the recursive printer it replaced.

`gen.recursive_pretty` is the old one-call-per-node printer; `pretty` must
give the same text byte for byte, and keep rendering where the recursive
printer runs out of Python's recursion limit."""
import random
import sys
from pathlib import Path

import pytest

from contsem.discourse import (
    compose, default_initial_args, has_symbolic_leaves, parse_discourse,
)
from contsem.lexicon import Profile, default_lexicon
from contsem.syntax import parse_term, pretty
from contsem.terms import (
    NOT, TOP, App, E, Lam, Var, app, constants, normalize,
)

from gen import (
    baseline_discourse, random_closed_term, random_discourse, random_term,
    random_type, recursive_pretty, subterms,
)

LEX = default_lexicon()
SAMPLES = Path(__file__).parent.parent / "samples"
SEED = 20261019


def _composed_and_normal(tree, profile):
    composed = compose(tree, LEX, profile)
    return composed, normalize(app(composed, *default_initial_args(profile).args))


def test_random_closed_terms_match_recursive():
    rng = random.Random(SEED)
    for _ in range(2000):
        t = random_closed_term(rng)
        for term in (t, normalize(t)):
            text = pretty(term)
            assert text == recursive_pretty(term)
            assert parse_term(text, constants(term)) == term


def test_random_open_terms_match_recursive():
    rng = random.Random(SEED + 1)
    free = 0
    for _ in range(1000):
        ctx = tuple(random_type(rng, 1) for _ in range(rng.randint(1, 3)))
        t = random_term(rng, random_type(rng, 2), ctx, fuel=20)
        text = pretty(t)
        assert text == recursive_pretty(t)
        free += "#" in text
    assert free > 100   # the free variables' `#i` form is exercised


@pytest.mark.parametrize("sample", sorted(p.name for p in SAMPLES.glob("*.dsc")))
def test_sample_terms_match_recursive(sample):
    parsed = parse_discourse((SAMPLES / sample).read_text(), LEX)
    composed, nf = _composed_and_normal(parsed.tree, parsed.profile)
    if has_symbolic_leaves(parsed.tree):
        nf = normalize(composed)
    for term in (composed, nf):
        assert pretty(term) == recursive_pretty(term)
        assert parse_term(pretty(term), constants(term)) == term


@pytest.mark.parametrize("profile,lengths", [
    (Profile.A, (1, 2, 3, 5, 8, 12, 24)),
    (Profile.B, (1, 2, 3, 4, 5)),
    (Profile.C, (1, 2, 3, 5, 8, 12, 24)),
])
def test_discourse_terms_match_recursive(profile, lengths):
    rng = random.Random(SEED + len(profile.value))
    for n in lengths:
        for term in _composed_and_normal(random_discourse(rng, LEX, profile, n), profile):
            assert pretty(term) == recursive_pretty(term), n


def test_deep_negation_chain_renders():
    assert sys.getrecursionlimit() <= 1000
    t = TOP
    for _ in range(10_000):
        t = App(NOT, t)
    assert pretty(t) == "~ " * 10_000 + "top"


def test_deep_lambda_nest_renders():
    assert sys.getrecursionlimit() <= 1000
    n = 5000
    t = App(Var(n - 1), Var(0))   # the outermost binder applied to the innermost
    for _ in range(n):
        t = Lam(E, t)
    binders = "".join(f"\\x{i}:e. " for i in range(1, n + 1))
    assert pretty(t) == f"{binders}x1 x{n}"


def test_flat_a256_discourse_renders():
    composed, nf = _composed_and_normal(baseline_discourse(LEX, Profile.A, 256), Profile.A)
    with pytest.raises(RecursionError):   # the recursive printer's limit
        recursive_pretty(composed)
    text = pretty(composed)
    lams = sum(isinstance(s, Lam) for s in subterms(composed))
    assert text.count("\\x") == lams
    assert f"\\x{lams}:" in text and f"\\x{lams + 1}:" not in text
    assert pretty(nf) == recursive_pretty(nf)
    assert pretty(nf).count("Ex ") == 128
