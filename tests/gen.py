"""Random generators (terms, discourses, formulas) shared by the test
suites, plus reference implementations the library is checked against: two
substitution-based reducers (applicative order and normal order) for the
normalization-by-evaluation normalizer, the recursive pretty-printer for
`syntax.pretty`, and the recursive environment flattener for
`logic.env_entries`."""
from __future__ import annotations

import random

from contsem.discourse import CoordN, Leaf, Seq, SubN, parse_sentence_words
from contsem.lexicon import Lexicon, Profile
from contsem.logic import (
    And, Atom, Bot, ConsE, EntConst, EntVar, EnvExpr, Exists, Formula, NilE, Not,
    Or, Top,
)
from contsem.syntax import (
    _APP, _ATOM, _CONJ, _CONS, _DISJ, _LAM, _NEG, _RESERVED, _UNION, _WORDLIKE,
)
from contsem.terms import (
    AND, CONS, COORD, NOT, OR, SUB, UNION,
    App, Arrow, Base, Const, E, G, Lam, SemType, StepBudgetExceeded, T, Term,
    Var, arrow, beta, type_text,
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
# Discourses

SENTENCES = {
    Profile.A: ("john loves (a woman)", "it is red", "(a woman) loves it",
                "john doesnt own it"),
    Profile.B: ("john doesnt own (a car)", "it is red", "john owns (a car)",
                "john owns it"),
    Profile.C: ("john owns (a car)", "it is red", "mary walks", "(a man) loves it"),
}


def random_discourse(rng: random.Random, lex: Lexicon, profile: Profile, n: int):
    """A randomly bracketed discourse of n sentences; the first one names a
    referent so later pronouns have a candidate."""
    pool = [parse_sentence_words(w, lex) for w in SENTENCES[profile]]
    leaves = [Leaf(pool[0])] + [Leaf(rng.choice(pool)) for _ in range(n - 1)]
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        node = Seq if profile != Profile.C else rng.choice((CoordN, SubN))
        leaves[i:i + 2] = [node(leaves[i], leaves[i + 1])]
    return leaves[0]


def baseline_discourse(lex: Lexicon, profile: Profile, n: int):
    """The left-nested baseline discourses of ROADMAP.md: the profile's first
    two (B: three) sentences in turn, and in profile C `.c` and `.s` in
    turn, starting with `.c`."""
    pool = [parse_sentence_words(w, lex) for w in SENTENCES[profile][:3]]
    if profile != Profile.B:
        pool = pool[:2]
    tree = Leaf(pool[0])
    for i in range(1, n):
        node = Seq if profile != Profile.C else (CoordN if i % 2 else SubN)
        tree = node(tree, Leaf(pool[i % len(pool)]))
    return tree


# ---------------------------------------------------------------------------
# Rendering and environment references

def recursive_pretty(term: Term) -> str:
    """`syntax.pretty` as it was before it became an explicit-stack pass:
    one Python call per node, copying the binder-name list at every lambda.
    Limited by the recursion limit; kept as the reference `pretty` must
    match byte for byte."""
    used = set()

    def collect(t):
        if isinstance(t, Const):
            used.add(t.name)
        elif isinstance(t, Lam):
            collect(t.body)
        elif isinstance(t, App):
            collect(t.fn)
            collect(t.arg)

    collect(term)
    counter = [0]

    def fresh():
        while True:
            counter[0] += 1
            name = f"x{counter[0]}"
            if name not in used and name not in _RESERVED:
                return name

    def render(t, level, env):
        if t == COORD:
            return "Coord"
        if t == SUB:
            return "Sub"
        if isinstance(t, Var):
            if t.index < len(env):
                return env[t.index]
            return f"#{t.index}"  # free variable; not re-parseable
        if isinstance(t, Const):
            if _WORDLIKE.match(t.name):
                return t.name
            return f"({t.name})"
        if isinstance(t, Lam):
            name = fresh()
            body = render(t.body, _LAM, [name] + env)
            text = f"\\{name}:{type_text(t.ty)}. {body}"
            return f"({text})" if level > _LAM else text
        # Applications, with infix/prefix sugar for the logical constants.
        if isinstance(t.fn, App):
            head, left, right = t.fn.fn, t.fn.arg, t.arg
            if head == AND:
                text = f"{render(left, _CONJ + 1, env)} & {render(right, _CONJ, env)}"
                return f"({text})" if level > _CONJ else text
            if head == OR:
                text = f"{render(left, _DISJ + 1, env)} | {render(right, _DISJ, env)}"
                return f"({text})" if level > _DISJ else text
            if head == CONS:
                text = f"{render(left, _CONS + 1, env)}::{render(right, _CONS, env)}"
                return f"({text})" if level > _CONS else text
            if head == UNION:
                text = f"{render(left, _UNION, env)}++{render(right, _UNION + 1, env)}"
                return f"({text})" if level > _UNION else text
        if t.fn == NOT:
            text = f"~ {render(t.arg, _NEG, env)}"
            return f"({text})" if level > _NEG else text
        text = f"{render(t.fn, _APP, env)} {render(t.arg, _ATOM, env)}"
        return f"({text})" if level > _APP else text

    return render(term, _LAM, [])


def recursive_env_entries(env: EnvExpr) -> tuple:
    """`logic.env_entries` as it was before it used an explicit stack: each
    cons copies the list of the entries below it."""
    def flat(e):
        if isinstance(e, NilE):
            return []
        if isinstance(e, ConsE):
            return [e.head] + flat(e.tail)
        return flat(e.right) + flat(e.left)

    entries = flat(env)
    keep_last = dict.fromkeys(reversed(entries))
    return tuple(reversed(keep_last))


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
