"""Random generators shared by the property and acceptance suites, plus two
substitution-based reducers (applicative order and normal order) used to
cross-check the library's normalization-by-evaluation normalizer."""
from __future__ import annotations

import random

from contsem.logic import And, Atom, Bot, EntConst, EntVar, Exists, Formula, Not, Or, Top
from contsem.terms import (
    App, Arrow, Base, Const, E, G, Lam, SemType, StepBudgetExceeded, T, Term,
    Var, arrow, beta,
)

# Signature for generated terms: every base type is inhabited by a constant,
# so type-directed generation always has a leaf available.
GEN_SIG = {
    "ce": Const("ce", E),
    "ct": Const("ct", T),
    "cg": Const("cg", G),
    "p1": Const("p1", arrow(E, T)),
    "q2": Const("q2", arrow(E, E, T)),
    "fg": Const("fg", arrow(G, T)),
    "he": Const("he", arrow(E, G, G)),
}

_BASES = (E, T, G)


def random_type(rng: random.Random, depth: int = 2) -> SemType:
    if depth <= 0 or rng.random() < 0.55:
        return rng.choice(_BASES)
    return Arrow(random_type(rng, depth - 1), random_type(rng, depth - 1))


def random_term(rng: random.Random, ty: SemType, ctx: tuple[SemType, ...] = (),
                fuel: int = 30) -> Term:
    """A well-typed term of type `ty` under `ctx`, at most ~fuel nodes."""
    leaves = [Var(i) for i, t in enumerate(ctx) if t == ty]
    leaves += [c for c in GEN_SIG.values() if c.ty == ty]
    can_lam = isinstance(ty, Arrow)

    if fuel <= 1:
        if leaves:
            return rng.choice(leaves)
        if can_lam:
            return Lam(ty.dom, random_term(rng, ty.cod, (ty.dom,) + ctx, fuel - 1))
        # No ground leaf for this type under ctx: build one via constants.
        return _ground(ty)

    choices = []
    if leaves:
        choices += ["leaf"]
    if can_lam:
        choices += ["lam"] * 3
    choices += ["app"] * 4
    kind = rng.choice(choices)
    if kind == "leaf":
        return rng.choice(leaves)
    if kind == "lam":
        return Lam(ty.dom, random_term(rng, ty.cod, (ty.dom,) + ctx, fuel - 1))
    arg_ty = random_type(rng, 1)
    split = rng.randint(1, max(1, (fuel - 1) // 2))
    fn = random_term(rng, Arrow(arg_ty, ty), ctx, fuel - 1 - split)
    arg = random_term(rng, arg_ty, ctx, split)
    return App(fn, arg)


def _ground(ty: SemType) -> Term:
    if isinstance(ty, Base):
        return {E: GEN_SIG["ce"], T: GEN_SIG["ct"], G: GEN_SIG["cg"]}[ty]
    return Lam(ty.dom, _ground(ty.cod))


def random_closed_term(rng: random.Random, fuel: int = 26, max_size: int = 30) -> Term:
    from contsem.terms import size
    while True:
        t = random_term(rng, random_type(rng, 2), (), fuel)
        if size(t) <= max_size:
            return t


def applicative_normalize(term: Term, budget: int = 200_000) -> Term:
    """Innermost-first (applicative-order) full beta reduction.

    An alternative strategy to the library's normalizer; on well-typed terms
    both terminate, and by confluence they must agree.
    """
    counter = [0]

    def go(t):
        counter[0] += 1
        if counter[0] > budget:
            raise RuntimeError("applicative budget exceeded")
        if isinstance(t, Lam):
            return Lam(t.ty, go(t.body))
        if isinstance(t, App):
            fn = go(t.fn)
            arg = go(t.arg)
            if isinstance(fn, Lam):
                return go(beta(fn, arg))
            return App(fn, arg)
        return t

    return go(term)


def substitution_normalize(term: Term, max_steps: int = 100_000) -> Term:
    """Normal-order (leftmost-outermost) full beta reduction by substitution.

    Each contraction rebuilds the redex body through `beta` and counts one
    step, as each closure application does in `normalize`; more than
    `max_steps` steps raise StepBudgetExceeded.
    """
    steps = 0

    def whnf(t):
        nonlocal steps
        while isinstance(t, App):
            fn = whnf(t.fn)
            if not isinstance(fn, Lam):
                return App(fn, t.arg)
            steps += 1
            if steps > max_steps:
                raise StepBudgetExceeded(max_steps)
            t = beta(fn, t.arg)
        return t

    def nf(t):
        t = whnf(t)
        if isinstance(t, Lam):
            return Lam(t.ty, nf(t.body))
        if isinstance(t, App):
            return App(nf(t.fn), nf(t.arg))
        return t

    return nf(term)


# ---------------------------------------------------------------------------
# Random formulas: at most 4 atoms and 2 quantifiers, unary/nullary
# predicates so the exhaustive oracle stays small at domain 3.

def random_formula(rng: random.Random) -> Formula:
    state = {"atoms": 0, "quants": 0}

    def ent(vars_):
        pool = [EntConst("a")] + [EntVar(v) for v in vars_]
        return rng.choice(pool)

    def atom(vars_):
        state["atoms"] += 1
        if rng.random() < 0.3:
            return Atom("r", ())
        return Atom(rng.choice(("p", "q")), (ent(vars_),))

    def go(depth, vars_):
        if depth <= 0 or state["atoms"] >= 4:
            return rng.choice([atom(vars_), Top(), Bot()])
        roll = rng.random()
        if roll < 0.2:
            return Not(go(depth - 1, vars_))
        if roll < 0.55:
            ctor = And if rng.random() < 0.5 else Or
            return ctor(go(depth - 1, vars_), go(depth - 1, vars_))
        if roll < 0.7 and state["quants"] < 2:
            state["quants"] += 1
            v = f"v{state['quants']}"
            return Exists(v, go(depth - 1, vars_ + (v,)))
        return atom(vars_)

    return go(4, ())
