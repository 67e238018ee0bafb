"""Random generators (terms, discourses, formulas) shared by the test
suites, plus reference implementations the library is checked against: two
substitution-based reducers (applicative order and normal order) and
`uncached_normalize` (NbE that evaluates again at every application and
read-back) for the normalization-by-evaluation normalizer, the recursive
pretty-printer and `equality_pretty` (which tells `Coord` and `Sub` by `==`,
with its inputs `random_near_miss_term`) for `syntax.pretty`, the
recursive-descent parser for `syntax.parse_term` and
`parse_type`, the recursive type renderer for the types' `text`, the
recursive environment flattener for `logic.env_entries`, the recursive
formula renderers `recursive_formula_text`/`recursive_formula_json` (with
their entity and environment helpers) for `logic.formula_text` and
`logic.json_text`, the fixed-point simplifier for `logic.simplify`, and
`recursive_reify` (three mutually recursive readers) and
`recursive_typecheck` for `logic.reify` and `terms.typecheck`, with their
random inputs `random_reify_term` and `random_typecheck_case`,
`tree_reify` and `tree_simplify` (which walk a shared normal form as a
tree) for `logic.reify` and `logic.simplify`, `named_report_lines` and
`named_resolve` for `resolver.report` and `resolve`, and
`substitution_compose`, which substitutes into each connective's named
template (`connective_template`) with `subst_consts`, for
`discourse.compose`, the staged walks
`staged_build_sentence` (`_check_sentence`, then applying the entries or
`_build_leaf_c`) for `discourse.build_sentence`, with their inputs
`sentence_pool` and `random_sentence`, and the reader
`four_call_parse_sentence_words` for `discourse.parse_sentence_words`.
`is_closed` and `size` are recursive term measures, `distinct_nodes` counts
the objects of a term that shares subterms, and `constants` and
`subst_consts` term helpers, only the tests use.  The formula references
read and write named formulas (`NamedExists`, `NamedVar`, `NamedSel`), the
form formulas had before they became nameless; `nameless` turns one into
`logic`'s form, `named` a nameless one into named form as the printers
name it, and `reference_json` and `reference_report_json` give the
references' JSON for a nameless formula and an access report.  The model checker the tests compare formulas with,
`logically_equiv`, is in `oracle.py`."""
from __future__ import annotations

import itertools
import random
import re
from collections.abc import Mapping
from pathlib import Path
from typing import Iterator, Optional

import contsem.terms as tm
from contsem.discourse import (
    _NODES, NP, ArityMismatch, CopulaAdj, CoordN, Det, DiscourseError, Leaf,
    ProfileMismatch, ProperN, Pron, Sentence, Seq, SubN, SymLeaf, Verb,
    build_sentence, has_symbolic_leaves, parse_discourse, parse_sentence_words,
)
from contsem.lexicon import CATEGORY_TYPES, TYPE_NAMES, Category, Lexicon, Profile, content_type
from contsem.logic import (
    _NOT_A, _READINGS, And, Atom, Bot, ConsE, EntConst, EntityTerm, EntVar,
    EnvExpr, Exists, Formula, NilE, Not, NotReifiable, Or, SelOf, Top, UnionE,
    env_entries, env_from_entries,
)
from contsem.node import Node
from contsem.resolver import EmptyEnvironment
from contsem.reduction import beta
from contsem.syntax import (
    _APP, _APPLY, _ATOM, _COMBINATORS, _CONJ, _CONS, _DISJ, _LAM, _NEG, _OPS,
    _UNION, _WORD, ParseError, UnknownIdentifier, parse_term,
)
from contsem.terms import (
    AND, BOT, BUILTINS, CONS, COORD, EXISTS, NIL, NOT, OR, SEL, SUB, TOP, UNION,
    App, Arrow, Base, Const, E, G, Lam, SemType, StepBudgetExceeded, T, Term,
    TypeMismatch, UnboundVariable, Var, app, arrow, normalize, path_steps,
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


def subterms(term: Term) -> Iterator[Term]:
    """All subterms, preorder."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Lam):
            stack.append(t.body)
        elif isinstance(t, App):
            stack += (t.arg, t.fn)


def term_preorder(term: Term) -> list:
    """The nodes of a term in preorder, each reduced to its class and its
    own field (index, binder type text, or name and type text).  Two terms
    are equal exactly when these lists are, and building them does not
    recurse, so deep terms can be compared."""
    out = []
    for t in subterms(term):
        kind = type(t)
        out.append((kind, t.index) if kind is Var else (kind, t.ty.text) if kind is Lam
                   else (kind, t.name, t.ty.text) if kind is Const else kind)
    return out


def random_type(rng: random.Random, depth: int = 2) -> SemType:
    if depth <= 0 or rng.random() < 0.55:
        return rng.choice(_BASES)
    return Arrow(random_type(rng, depth - 1), random_type(rng, depth - 1))


def random_term(rng: random.Random, ty: SemType, ctx: tuple[SemType, ...] = (),
                fuel: int = 30, sig=GEN_SIG.values()) -> Term:
    """A well-typed term of type `ty` under `ctx`, at most ~fuel nodes, over
    the constants `sig`."""
    leaves = [Var(i) for i, t in enumerate(ctx) if t == ty]
    leaves += [c for c in sig if c.ty == ty]
    can_lam = isinstance(ty, Arrow)

    if fuel <= 1:
        if leaves:
            return rng.choice(leaves)
        if can_lam:
            return Lam(ty.dom, random_term(rng, ty.cod, (ty.dom,) + ctx, fuel - 1, sig))
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
        return Lam(ty.dom, random_term(rng, ty.cod, (ty.dom,) + ctx, fuel - 1, sig))
    arg_ty = random_type(rng, 1)
    split = rng.randint(1, max(1, (fuel - 1) // 2))
    fn = random_term(rng, Arrow(arg_ty, ty), ctx, fuel - 1 - split, sig)
    arg = random_term(rng, arg_ty, ctx, split, sig)
    return App(fn, arg)


def _ground(ty: SemType) -> Term:
    if isinstance(ty, Base):
        return {E: GEN_SIG["ce"], T: GEN_SIG["ct"], G: GEN_SIG["cg"]}[ty]
    return Lam(ty.dom, _ground(ty.cod))


def is_closed(term: Term, depth: int = 0) -> bool:
    if isinstance(term, Var):
        return term.index < depth
    if isinstance(term, Lam):
        return is_closed(term.body, depth + 1)
    if isinstance(term, App):
        return is_closed(term.fn, depth) and is_closed(term.arg, depth)
    return True


def size(term: Term) -> int:
    if isinstance(term, Lam):
        return 1 + size(term.body)
    if isinstance(term, App):
        return 1 + size(term.fn) + size(term.arg)
    return 1


# Constants of the terms `reify` is checked on: the generation signature,
# the ten builtins and equal copies of them, builtin names at types that are
# not theirs, and names a quantified variable would take.
REIFY_SIG = (*GEN_SIG.values(), *BUILTINS.values(),
             *(Const(b.name, b.ty) for b in BUILTINS.values()),
             Const("&", arrow(E, E, T)), Const("|", arrow(T, T, E)),
             Const("~", arrow(E, T)), Const("Ex", arrow(E, T)),
             Const("Ex", arrow(arrow(E, E), T)), Const("sel", arrow(E, E)),
             Const("::", arrow(E, G, E)), Const("nil", E), Const("top", arrow(E, T)),
             Const("y", E), Const("y1", arrow(E, T)))


def random_reify_term(rng: random.Random) -> Term:
    """A term of type t over `REIFY_SIG`, closed or under one or two free
    variables, now and then conjoined with a selection over an environment
    whose entries may be selections; taken raw or normalized.  Input for
    `reify`, which reads some and rejects the rest for each of its reasons."""
    ctx = rng.choice([(), (), (E,), (E, G)])
    t = random_term(rng, T, ctx, rng.randint(4, 24), REIFY_SIG)
    if rng.random() < 0.2:
        t = app(AND, t, App(GEN_SIG["p1"], App(SEL, _random_env_term(rng, ctx, 3))))
    return normalize(t) if rng.random() < 0.5 else t


def _random_env_term(rng: random.Random, ctx: tuple[SemType, ...], depth: int) -> Term:
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice([NIL, GEN_SIG["cg"]] + [Var(i) for i, ty in enumerate(ctx) if ty == G])
    if roll < 0.75:
        head = rng.choice([GEN_SIG["ce"], App(SEL, _random_env_term(rng, ctx, depth - 1))]
                          + [Var(i) for i, ty in enumerate(ctx) if ty == E])
        return app(CONS, head, _random_env_term(rng, ctx, depth - 1))
    return app(UNION, _random_env_term(rng, ctx, depth - 1), _random_env_term(rng, ctx, depth - 1))


def random_typecheck_case(rng: random.Random) -> tuple[Term, tuple[SemType, ...]]:
    """A term and a context for `typecheck`: a term well typed under the
    context, then, mostly, with one subterm replaced by a random variable or
    a random term of a random type, which leaves about half ill typed."""
    ctx = rng.choice([(), (E,), (T, G)])
    term = random_term(rng, random_type(rng, 2), ctx, rng.randint(3, 24))
    if rng.random() < 0.75:
        target = rng.choice(list(subterms(term)))
        repl = rng.choice([Var(rng.randrange(4)), random_term(rng, random_type(rng, 2), (), 6)])
        term = _replace(term, target, repl)
    return term, ctx


def _replace(term: Term, target: Term, repl: Term) -> Term:
    if term is target:
        return repl
    if type(term) is Lam:
        return Lam(term.ty, _replace(term.body, target, repl))
    if type(term) is App:
        return App(_replace(term.fn, target, repl), _replace(term.arg, target, repl))
    return term


def random_closed_term(rng: random.Random, fuel: int = 26, max_size: int = 30) -> Term:
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


def substitution_normalize(term: Term, max_steps: int = tm.MAX_STEPS) -> Term:
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


def uncached_normalize(term: Term, max_steps: int = tm.MAX_STEPS) -> Term:
    """`terms.normalize` as it was before its closures remembered their last
    application and read-back: closures are (binder type, Python function)
    pairs, evaluated anew at every application and read-back, so a value
    used twice is evaluated twice and the normal form is a tree.  Kept as
    the reference the cached normalizer's normal forms and step counts must
    match."""
    steps = 0

    def ev(t, env):
        nonlocal steps
        kind = type(t)
        if kind is App:
            fn, arg = ev(t.fn, env), ev(t.arg, env)
            if type(fn) is list:
                return fn + [arg]
            steps += 1
            if steps > max_steps:
                raise StepBudgetExceeded(max_steps)
            return fn[1](arg)
        if kind is Lam:
            return t.ty, lambda v, body=t.body, env=env: ev(body, (v, env))
        if kind is Var:
            i = t.index
            while env is not None:
                if i == 0:
                    return env[0]
                i, env = i - 1, env[1]
            return [-1 - i]
        return [t]

    def quote(v, lvl):
        if type(v) is tuple:
            return Lam(v[0], quote(v[1]([lvl]), lvl + 1))
        out = v[0] if type(v[0]) is Const else Var(lvl - v[0] - 1)
        for arg in v[1:]:
            out = App(out, quote(arg, lvl))
        return out

    return quote(ev(term, None), 0)


def distinct_nodes(term: Term, kinds: tuple = (App, Lam)) -> int:
    """The number of distinct objects of these classes in a term that may
    share subterms."""
    seen, stack = {}, [term]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack += (t.fn, t.arg) if type(t) is App else (t.body,) if type(t) is Lam else ()
    return sum(type(t) in kinds for t in seen.values())


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


def flat_discourse_text(profile: Profile, n: int) -> str:
    """`baseline_discourse(lex, profile, n)` as a discourse file whose
    expression is written flat, `s0 . s1 . s0 ...` with no parentheses (the
    parser nests it to the left)."""
    words = SENTENCES[profile][:3 if profile == Profile.B else 2]
    lines = [f"profile {profile.value}"]
    lines += [f"sentence s{i} = {w}" for i, w in enumerate(words)]
    expr = ["s0"]
    for i in range(1, n):
        expr.append("." if profile != Profile.C else ".c" if i % 2 else ".s")
        expr.append(f"s{i % len(words)}")
    lines.append("discourse = " + " ".join(expr))
    return "\n".join(lines) + "\n"


SAMPLES = Path(__file__).parent.parent / "samples"


def pipeline_cases(lex: Lexicon):
    """(tree, profile) for every non-symbolic sample, then seeded random
    discourses: A and C of 1 to 12 sentences, B of 1 to 4."""
    for path in sorted(SAMPLES.glob("*.dsc")):
        parsed = parse_discourse(path.read_text(), lex)
        if not has_symbolic_leaves(parsed.tree):
            yield parsed.tree, parsed.profile
    rng = random.Random(7)
    for profile, most in ((Profile.A, 12), (Profile.C, 12), (Profile.B, 4)):
        for n in range(1, most + 1):
            yield random_discourse(rng, lex, profile, n), profile


def sentence_words(s) -> str:
    """The words of a sentence AST, as `parse_sentence_words` reads them."""
    def np(x):
        return f"({x.word} {x.noun})" if isinstance(x, Det) else x.word
    words = [np(s.subject)] + (["doesnt"] if s.negated else [])
    if isinstance(s.predicate, CopulaAdj):
        return " ".join(words + ["is", s.predicate.word])
    obj = [np(s.predicate.obj)] if s.predicate.obj is not None else []
    return " ".join(words + [s.predicate.word] + obj)


def discourse_file(tree, profile: Profile) -> str:
    """A discourse file for `tree`: one `sentence` line per leaf and the
    expression fully parenthesized."""
    sentences: list[str] = []

    def expr(node) -> str:
        if isinstance(node, Leaf):
            sentences.append(sentence_words(node.sentence))
            return f"s{len(sentences) - 1}"
        op = {Seq: ".", CoordN: ".c", SubN: ".s"}[type(node)]
        return f"({expr(node.left)} {op} {expr(node.right)})"

    body = expr(tree)
    lines = [f"profile {profile.value}"]
    lines += [f"sentence s{i} = {w}" for i, w in enumerate(sentences)]
    return "\n".join(lines + [f"discourse = {body}"]) + "\n"


# ---------------------------------------------------------------------------
# Composition reference and term helpers only the tests use

def subst_consts(term: Term, mapping: dict[str, Term]) -> Term:
    """Replace named constants by closed terms, simultaneously."""
    if isinstance(term, Const) and term.name in mapping:
        return mapping[term.name]
    if isinstance(term, Lam):
        return Lam(term.ty, subst_consts(term.body, mapping))
    if isinstance(term, App):
        return App(subst_consts(term.fn, mapping), subst_consts(term.arg, mapping))
    return term


def constants(term: Term) -> dict[str, SemType]:
    """All constants occurring in the term, by name, in preorder of first
    occurrence (a name used at two types keeps its last type)."""
    out: dict[str, SemType] = {}
    stack = [term]
    while stack:
        t = stack.pop()
        if type(t) is App:
            stack += (t.arg, t.fn)
        elif type(t) is Lam:
            stack.append(t.body)
        elif type(t) is Const:
            out[t.name] = t.ty
    return out


# The connectives `discourse.compose` builds, named: profile A's sequencing,
# and profiles B and C's, whose right unit takes RIGHT_ARGS[node class]
# before phi.
SEQ_A = r"\e:g. \phi:phi. LHS_ e (\e':g. RHS_ e' phi)"
CONNECTIVE = (r"\c:k. \e1:g. \e2:g. \phi:phi."
              r" LHS_ c e1 e2 (\c':k. \e1':g. \e2':g. RHS_ {RIGHT} phi)")
RIGHT_ARGS = {Seq: "c' e1' e2'", CoordN: "Coord e1' (c e1 e2)", SubN: "Sub e1' (c e1 e2)"}


def connective_template(kind: type, profile: Profile) -> Term:
    """A `kind` node's connective in `profile`, over the constants LHS_ and RHS_."""
    sent = profile.sentence_type
    source = (SEQ_A if profile.connective_type is None
              else CONNECTIVE.format(RIGHT=RIGHT_ARGS[kind]))
    return parse_term(source, {"LHS_": sent, "RHS_": sent}, TYPE_NAMES[profile])


def substitution_compose(tree, lexicon: Lexicon, profile: Profile) -> Term:
    """`discourse.compose` by substitution: `subst_consts` fills each
    connective's named template, parsed at every node.  Kept as the
    reference `compose`, which builds each connective directly, must match."""
    stack, preorder = [tree], []
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            preorder.append(build_sentence(node.sentence, lexicon, profile))
        elif isinstance(node, SymLeaf):
            preorder.append(Const(node.name, profile.sentence_type))
        else:
            name, profiles = _NODES[type(node)]
            if profile not in profiles:
                raise ProfileMismatch(name, profile)
            preorder.append(type(node))
            stack += (node.right, node.left)
    done: list[Term] = []
    for item in reversed(preorder):
        if isinstance(item, type):
            item = subst_consts(connective_template(item, profile),
                                {"LHS_": done.pop(), "RHS_": done.pop()})
        done.append(item)
    return done[0]


# ---------------------------------------------------------------------------
# Sentence building and reading references

def _require(found: Category, word: str, wanted: Category) -> None:
    """The category check that makes a built sentence well typed."""
    if found != wanted:
        raise ArityMismatch(f"{word!r} has category {found.value}, not {wanted.value}")


def _check_sentence(ast: Sentence, lexicon: Lexicon, profile: Profile) -> tuple[Category, dict]:
    """Check a sentence's shape against the word registry, in reading order
    (the copula `is` and the negation `doesnt` included), and return its
    predicate's category and its words' entries.  In the profiles with them
    (A, B) each word must have one, reported missing where the walk reaches it."""
    stored = profile != Profile.C
    entries: dict[str, Term] = {}

    def require(word: str, wanted: Category) -> None:
        if stored:
            entries[word] = lexicon.entry(word, profile)
        _require(lexicon.category(word), word, wanted)

    def check_np(np: NP) -> None:
        if isinstance(np, ProperN):
            require(np.word, Category.PROPER_NOUN)
        elif isinstance(np, Pron):
            require(np.word, Category.PRONOUN)
        else:
            require(np.word, Category.DETERMINER)
            require(np.noun, Category.COMMON_NOUN)

    check_np(ast.subject)
    predicate = ast.predicate
    if ast.negated:
        if isinstance(predicate, CopulaAdj):
            raise ArityMismatch("the copula cannot be negated")
        if not stored:
            raise ProfileMismatch("negation", profile)
    if isinstance(predicate, CopulaAdj):
        require("is", Category.COPULA)
        require(predicate.word, Category.ADJECTIVE)
        return Category.ADJECTIVE, entries
    category = lexicon.category(predicate.word)
    transitive = category == Category.TRANSITIVE_VERB
    if not transitive and category != Category.INTRANSITIVE_VERB:
        raise ArityMismatch(f"{predicate.word!r} is not a verb")
    if transitive == (predicate.obj is None):
        raise ArityMismatch(
            f"transitive verb {predicate.word!r} needs an object" if transitive
            else f"intransitive verb {predicate.word!r} takes no object")
    require(predicate.word, category)
    if transitive:
        check_np(predicate.obj)
    if ast.negated:
        require("doesnt", Category.NEGATION_AUX)
    return category, entries


def staged_build_sentence(ast: Sentence, lexicon: Lexicon, profile: Profile) -> Term:
    """`discourse.build_sentence` as it was before checking and building became
    one walk: `_check_sentence` walks the sentence to check it and collect its
    entries, then a second walk applies them (A, B) or `_build_leaf_c` walks it
    again to assemble the leaf (C).  Kept as the reference the one walk must
    match."""
    category, entries = _check_sentence(ast, lexicon, profile)
    if profile == Profile.C:
        return _build_leaf_c(ast, lexicon, category)
    entry = entries.__getitem__

    def np_term(np: NP) -> Term:
        if isinstance(np, Det):
            return app(entry(np.word), entry(np.noun))
        return entry(np.word)

    subject = np_term(ast.subject)
    predicate = ast.predicate
    if isinstance(predicate, CopulaAdj):
        return app(entry("is"), entry(predicate.word), subject)
    vp_applied = entry(predicate.word)
    if predicate.obj is not None:
        vp_applied = app(vp_applied, np_term(predicate.obj))
    if ast.negated:
        # (doesn't VP) S: the negation takes the verb phrase, then the subject.
        vp = Lam(CATEGORY_TYPES[profile][Category.PROPER_NOUN], App(vp_applied, Var(0)))
        return app(entry("doesnt"), vp, subject)
    return app(vp_applied, subject)


def _build_leaf_c(ast: Sentence, lexicon: Lexicon, category: Category) -> Term:
    """Profile C leaf of a checked sentence whose predicate has `category`.

    A leaf introducing referents r1..rk with proposition P becomes
        \\c e1 e2 phi. Ex r1..rk. P & phi c (rk::...::r1::nil) e2
    i.e. the continuation's first environment holds exactly this unit's own
    referents (composition decides what else stays accessible), and pronouns
    select from the inherited frontier plus the previous unit's referents,
    newest first: sel(e2 ++ e1).
    """
    ex_count = 0          # existential binders, innermost = most recent
    refs: list = []       # entity term builders, in introduction order
    restrictions: list = []  # (noun constant, its variable's builder)

    def np_entity(np: NP):
        nonlocal ex_count
        if isinstance(np, ProperN):
            refs.append(lambda k, c=Const(lexicon.symbol(np.word), tm.E): c)
            return refs[-1]
        if isinstance(np, Det):
            slot = ex_count
            ex_count += 1
            # with k binders total, the slot-th introduced var has index k-1-slot
            var = lambda k, s=slot: Var(k - 1 - s)
            noun = Const(lexicon.symbol(np.noun), content_type(Category.COMMON_NOUN))
            restrictions.append((noun, var))
            refs.append(var)
            return var
        # Pronoun: sel over the accessible frontier, newest entries first.
        return lambda k: App(tm.SEL, app(tm.UNION, Var(k + 1), Var(k + 2)))

    entities = [np_entity(ast.subject)]
    if isinstance(ast.predicate, Verb) and ast.predicate.obj is not None:
        entities.append(np_entity(ast.predicate.obj))
    pred = Const(lexicon.symbol(ast.predicate.word), content_type(category))

    k = ex_count
    prop = app(pred, *(entity(k) for entity in entities))
    for noun, var in reversed(restrictions):
        prop = app(tm.AND, App(noun, var(k)), prop)

    own_env: Term = tm.NIL
    for ref in refs:
        own_env = app(tm.CONS, ref(k), own_env)

    # phi c (own refs) e2, under k existential binders
    body = app(tm.AND, prop,
               app(Var(k + 0), Var(k + 3), own_env, Var(k + 1)))
    for _ in range(k):
        body = App(tm.EXISTS, Lam(tm.E, body))
    return Lam(tm.KAPPA_C, Lam(tm.G, Lam(tm.G, Lam(tm.CONT_C, body))))


def four_call_parse_sentence_words(text: str, lexicon: Lexicon) -> Sentence:
    """`discourse.parse_sentence_words` as it was before its one registry call
    per token: `lookup` calls `canonical`, `knows` and `category` (which calls
    `_row`).  Kept as the reference the reader must match."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def fail(msg):
        raise DiscourseError(f"cannot parse sentence {text!r}: {msg}")

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def next_tok():
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of sentence")
        tok = tokens[pos]
        pos += 1
        return tok

    def lookup(tok, wanted=None, what=""):
        """The token's word as the registry spells it and its category,
        which must be `wanted` (`what`) if that is given."""
        word = lexicon.canonical(tok)
        if not lexicon.knows(word):
            fail(f"unknown word {tok!r}")
        category = lexicon.category(word)
        if wanted and category != wanted:
            fail(f"{tok!r} is not {what}")
        return word, category

    def parse_np() -> NP:
        tok = next_tok()
        if tok == "(":
            det = next_tok()
            noun = next_tok()
            if next_tok() != ")":
                fail("expected `)` after determiner phrase")
            return Det(lookup(det, Category.DETERMINER, "a determiner")[0],
                       lookup(noun, Category.COMMON_NOUN, "a noun")[0])
        word, cat = lookup(tok)
        if cat == Category.PROPER_NOUN:
            return ProperN(word)
        if cat == Category.PRONOUN:
            return Pron(word)
        fail(f"{tok!r} cannot start a noun phrase")

    subject = parse_np()
    negated = False
    tok = next_tok()
    word, cat = lookup(tok)
    if cat == Category.NEGATION_AUX:
        negated = True
        tok = next_tok()
        word, cat = lookup(tok)
    if cat == Category.COPULA:
        if negated:
            fail("negation must precede a verb")
        adj = lookup(next_tok(), Category.ADJECTIVE, "an adjective")[0]
        predicate: Verb | CopulaAdj = CopulaAdj(adj)
    elif cat in (Category.TRANSITIVE_VERB, Category.INTRANSITIVE_VERB):
        obj = parse_np() if peek() is not None else None
        predicate = Verb(word, obj)
    else:
        fail(f"{tok!r} is not a verb or copula")
    if peek() is not None:
        fail(f"unexpected trailing {peek()!r}")
    return Sentence(subject, predicate, negated)


# Slot words for the sentence differentials: every registered word, both
# inflection aliases, upper-case and apostrophe spellings, and an unknown word.
SLOT_WORDS = ("john", "mary", "loves", "own", "woman", "man", "car", "dog",
              "walks", "red", "happy", "a", "it", "is", "doesnt",
              "owns", "walk", "JOHN", "Car", "doesn't", "o'wn", "zorp")


def sentence_pool() -> list[Sentence]:
    """Sentence ASTs, negated and not, that put every slot word in every
    slot (subject, determiner, noun, verb, adjective, object) next to
    well-formed words elsewhere, and well-formed words in every shape."""
    good = [ProperN("john"), Pron("it"), Det("a", "car"), Det("a", "woman")]
    nps = [kind(w) for kind in (ProperN, Pron) for w in SLOT_WORDS]
    nps += [Det(w, "car") for w in SLOT_WORDS] + [Det("a", w) for w in SLOT_WORDS]
    good_predicates = [Verb(v, np) for v in ("own", "loves") for np in good]
    good_predicates += [Verb("walks"), CopulaAdj("red"), CopulaAdj("happy")]
    predicates = [CopulaAdj(w) for w in SLOT_WORDS] + [Verb(w) for w in SLOT_WORDS]
    predicates += [Verb(w, good[0]) for w in SLOT_WORDS] + [Verb("own", np) for np in nps]
    return [Sentence(subject, predicate, negated) for negated in (False, True)
            for subjects, preds in ((nps, good_predicates), (good, predicates))
            for subject in subjects for predicate in preds]


def random_sentence(rng: random.Random) -> Sentence:
    """A sentence AST of any shape; each slot mostly takes a word of its own
    category (in any spelling), else any slot word."""
    def word(*fits):
        return rng.choice(fits if rng.random() < 0.8 else SLOT_WORDS)

    def np():
        kind = rng.randrange(3)
        if kind == 2:
            return Det(word("a"), word("woman", "man", "car", "dog", "Car"))
        return ProperN(word("john", "mary", "JOHN")) if kind == 0 else Pron(word("it"))
    if rng.random() < 0.3:
        predicate = CopulaAdj(word("red", "happy"))
    else:
        verb = word("loves", "own", "owns", "o'wn", "walks", "walk")
        predicate = Verb(verb, np() if rng.random() < 0.6 else None)
    return Sentence(np(), predicate, rng.random() < 0.3)


def outcome(f, *args):
    """f(*args), or the class and message of the error it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Rendering and environment references

def recursive_type_text(ty: SemType) -> str:
    """A type's `text` as it was rendered before types carried it: rendered
    again, recursively, on every call.  Kept as the reference the text built
    with each type must match."""
    if isinstance(ty, Base):
        return ty.name
    dom = recursive_type_text(ty.dom)
    if isinstance(ty.dom, Arrow):
        dom = f"({dom})"
    return f"{dom}>{recursive_type_text(ty.cod)}"


_WORDLIKE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


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
            text = f"\\{name}:{recursive_type_text(t.ty)}. {body}"
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


# Heads of the near misses of `Sub`: `++` itself, an equal fresh copy,
# `++` at other types and another constant at its type.
_NEAR_HEADS = (UNION, Const("++", arrow(G, G, G)), Const("++", arrow(G, G, T)),
               Const("++", arrow(E, G, G)), Const("::", arrow(G, G, G)),
               Const("u", arrow(G, G, G)))


def random_combinator_like(rng: random.Random) -> Term:
    """`Coord`, `Sub`, or a lambda one or two parts away from one: a binder
    type, an index, the head's name or type, or the spine's length."""
    inner = rng.choice((
        lambda: Var(rng.choice((0, 0, 1, 2))),
        lambda: app(rng.choice(_NEAR_HEADS), Var(rng.choice((1, 1, 0, 2))),
                    Var(rng.choice((0, 0, 1)))),
        lambda: app(rng.choice(_NEAR_HEADS), *(Var(rng.randrange(2)) for _ in
                                               range(rng.choice((1, 3))))),
        lambda: app(Var(rng.randrange(2)), Var(1), Var(0)),
    ))()
    return Lam(rng.choice((G, G, G, E)), Lam(rng.choice((G, G, G, T)), inner))


def random_near_miss_term(rng: random.Random, depth: int = 3) -> Term:
    """A term with `random_combinator_like` lambdas in places `pretty` reads
    differently: alone, under a binder, applied, as an operand of `++` and
    of `&`, and as the argument of a constant or variable."""
    if depth == 0 or rng.random() < 0.3:
        return random_combinator_like(rng)
    sub = random_near_miss_term(rng, depth - 1)
    return rng.choice((
        lambda: Lam(rng.choice((G, E)), sub),
        lambda: app(sub, Const("nil", G), Const("nil", G)),
        lambda: app(UNION, sub, random_near_miss_term(rng, depth - 1)),
        lambda: app(AND, sub, Lam(G, random_combinator_like(rng))),
        lambda: App(rng.choice((*GEN_SIG.values(), Var(0), Var(1))), sub),
    ))()


# Coord and Sub by the class of their innermost body.
_SHAPES = {type(c.body.body): (name, c) for name, c in _COMBINATORS.items()}


def equality_pretty(term: Term) -> str:
    """`syntax.pretty` as it was when it told `Coord` and `Sub` from other
    lambdas by `==` against the combinators (a full walk of each candidate).
    Kept as the reference the class, index and name check must match."""
    text, shown, count = _equality_render(term, ())
    if not shown.keys().isdisjoint(f"x{i}" for i in range(1, count + 1)):
        text = _equality_render(term, shown)[0]
    return text


def _equality_render(term: Term, avoid) -> tuple[str, dict[str, str], int]:
    """`equality_pretty`'s pass."""
    shown: dict[str, str] = {}
    counter = 0
    names: list[str] = []   # names[d]: the binder at depth d, outermost first
    out: list[str] = []
    stack: list = [("", term, _LAM, 0)]   # `)`, or (text before, term, level, depth)
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        text, t, level, depth = item
        out.append(text)
        while True:
            kind = type(t)
            if kind is Var:  # a free variable renders as #i, which does not re-parse
                i = t.index
                out.append(names[depth - 1 - i] if i < depth else f"#{i}")
                break
            if kind is Const:
                if t.name not in shown:
                    shown[t.name] = t.name if _WORD.fullmatch(t.name) else f"({t.name})"
                out.append(shown[t.name])
                break
            if kind is Lam:
                body = t.body   # Coord and Sub by shape before `==`
                combinator = _SHAPES.get(type(body.body)) if type(body) is Lam else None
                if combinator and t.ty.text == "g" == body.ty.text and t == combinator[1]:
                    out.append(combinator[0])
                    break
                if level > _LAM:
                    out.append("(")
                    stack.append(")")
                counter += 1
                while f"x{counter}" in avoid:
                    counter += 1
                names[depth:] = (f"x{counter}",)
                out.append(f"\\x{counter}:{t.ty.text}. ")
                t, depth, level = body, depth + 1, _LAM
                continue
            # Applications, with sugar for the operator constants (by name
            # first): an infix one applied to two arguments, `~` to one.
            fn = t.fn
            head = fn.fn if type(fn) is App else fn
            row = _OPS.get(head.name) if type(head) is Const else None
            if not (row and (row[3] is None) == (head is fn)
                    and (head is row[0] or head == row[0])):
                row = _APPLY
            if level > row[2]:
                out.append("(")
                stack.append(")")
            if row[3] is None:          # `~`, then its operand
                out.append(row[1])
                t, level = t.arg, row[4]
            else:                       # the left operand or function, then the rest
                stack.append((row[1], t.arg, row[4], depth))
                t, level = (fn if row is _APPLY else fn.arg), row[3]
    return "".join(out), shown, counter


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
# Named formulas

class NamedExists(Node):
    __slots__ = {"var": "str", "body": "Formula"}


class NamedVar(Node):
    __slots__ = {"name": "str"}


class NamedSel(Node):
    __slots__ = {"env": "EnvExpr", "site_id": "int"}


def nameless(f):
    """A named formula, entity term or environment in `logic`'s form: each
    bound name read as its binder's level, site ids dropped; a node met
    again under the same names is read once.  A free name raises
    ValueError.  Recursive."""
    seen: dict = {}     # (id of a node, names bound) -> (it, its reading)

    def go(g, bound):
        if (id(g), bound) in seen:
            return seen[id(g), bound][1]
        if isinstance(g, NamedExists):
            out = Exists(go(g.body, bound + (g.var,)))
        elif isinstance(g, NamedVar):
            out = EntVar(len(bound) - 1 - bound[::-1].index(g.name))
        elif isinstance(g, NamedSel):
            out = SelOf(go(g.env, bound))
        elif isinstance(g, Atom):
            out = Atom(g.pred, tuple(go(a, bound) for a in g.args))
        elif isinstance(g, (Not, And, Or, ConsE, UnionE)):
            out = type(g)(*(go(x, bound) for x in g._values()))
        else:
            out = g
        seen[id(g), bound] = (g, out)
        return out

    return go(f, ())


def named(f, scope=()):
    """A nameless formula, entity term or environment in named form as the
    printers name it: binders y, y1, y2, ... and sites 0, 1, 2, ... in
    textual order, a variable bound outside `f` named by `scope`, by level,
    or else `#` and its level.  If a name chosen is a constant's, the names
    skip every constant's name.  Recursive."""
    def go(g, scope, state):
        if isinstance(g, Exists):
            name = f"y{state[0]}" if state[0] else "y"
            while name in state[2]:
                state[0] += 1
                name = f"y{state[0]}"
            state[0] += 1
            state[3].append(name)
            return NamedExists(name, go(g.body, scope + (name,), state))
        if isinstance(g, EntVar):
            return NamedVar(scope[g.level] if g.level < len(scope) else f"#{g.level}")
        if isinstance(g, SelOf):
            site, state[1] = state[1], state[1] + 1
            return NamedSel(go(g.env, scope, state), site)
        if isinstance(g, (Atom, EntConst)):
            state[4].add(g.pred if isinstance(g, Atom) else g.name)
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(go(a, scope, state) for a in g.args))
        if isinstance(g, (Not, And, Or, ConsE, UnionE)):
            return type(g)(*(go(x, scope, state) for x in g._values()))
        return g

    state = [0, 0, frozenset(), [], set()]    # names, sites, names skipped, chosen, constants
    out = go(f, tuple(scope), state)
    if state[4].isdisjoint(state[3]):
        return out
    return go(f, tuple(scope), [0, 0, frozenset(state[4]), [], set()])


def reference_json(x, scope=()):
    """The JSON tree of a nameless formula, entity term or environment, by
    the recursive references on its named form (`named`)."""
    x = named(x, scope)
    return (recursive_env_json(x) if isinstance(x, (NilE, ConsE, UnionE)) else
            recursive_entity_json(x) if isinstance(x, (EntConst, NamedVar, NamedSel)) else
            recursive_formula_json(x))


def reference_report_json(r) -> dict:
    """An access report's JSON, by the recursive references."""
    return {"site": r.site_id, "env": reference_json(r.env, r.names),
            "candidates": [reference_json(c, r.names) for c in r.candidates]}


def named_map_atoms(f, fn):
    """`logic.map_atoms` on a named formula: fn called on each atom in
    textual order; recursive."""
    if isinstance(f, Atom):
        return fn(f)
    if isinstance(f, (And, Or)):
        return type(f)(named_map_atoms(f.left, fn), named_map_atoms(f.right, fn))
    if isinstance(f, Not):
        return Not(named_map_atoms(f.body, fn))
    if isinstance(f, NamedExists):
        return NamedExists(f.var, named_map_atoms(f.body, fn))
    return f


def named_report_lines(f) -> list[str]:
    """The `sel#` lines `resolver.report` and `report_line` printed for a
    named formula, in site id order."""
    sites = []
    named_map_atoms(f, lambda g: sites.extend(a for a in g.args if isinstance(a, NamedSel)) or g)
    return [f"sel#{s.site_id} env={recursive_env_text(s.env)} candidates=["
            f"{', '.join(recursive_entity_text(c) for c in env_entries(s.env))}]"
            for s in sorted(sites, key=lambda s: s.site_id)]


def named_resolve(f):
    """`resolver.resolve(f, "recency")` on a named formula: EmptyEnvironment
    at the first empty site in reading order, with its site id."""
    def pick(a):
        if isinstance(a, NamedSel):
            candidates = env_entries(a.env)
            if not candidates:
                raise EmptyEnvironment(a.site_id)
            return candidates[0]
        return a

    return named_map_atoms(f, lambda g: Atom(g.pred, tuple(pick(a) for a in g.args)))


# `logic.formula_text` and the JSON writer as they were before they
# became two loops over one table: one recursive function per syntactic
# class (formula, entity term, environment).  Limited by the recursion
# limit; kept as the references the loops must match byte for byte.

def recursive_formula_text(f: Formula) -> str:
    """Concrete rendering: `~`, `&`, `|`, `Ex y.`, `sel(...)`, `::`, `++`."""
    return _ftext(f)


def _right_open(f: Formula) -> bool:
    # Renders with an unbounded right edge (an existential body), so it needs
    # parentheses anywhere more input follows on the same level.
    if isinstance(f, NamedExists):
        return True
    if isinstance(f, Not):
        return _right_open(f.body)
    if isinstance(f, (And, Or)):
        return _right_open(f.right)
    return False


def _ftext(f: Formula) -> str:
    if isinstance(f, Top):
        return "top"
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, Atom):
        parts = [f.pred]
        for a in f.args:
            if isinstance(a, NamedSel):
                parts[-1] = parts[-1] + f"({recursive_entity_text(a)})"
            else:
                parts.append(recursive_entity_text(a))
        return " ".join(parts)
    if isinstance(f, Not):
        body = _ftext(f.body)
        if isinstance(f.body, (And, Or)):
            body = f"({body})"
        return f"~ {body}"
    if isinstance(f, NamedExists):
        body = _ftext(f.body)
        if isinstance(f.body, (And, Or)):
            body = f"({body})"
        return f"Ex {f.var}. {body}"
    op = "&" if isinstance(f, And) else "|"
    left = _ftext(f.left)
    if isinstance(f.left, type(f)) or isinstance(f.left, Or) or _right_open(f.left):
        left = f"({left})"
    right = _ftext(f.right)
    if isinstance(f, And) and isinstance(f.right, Or):
        right = f"({right})"
    return f"{left} {op} {right}"


def recursive_entity_text(e: EntityTerm) -> str:
    if isinstance(e, EntConst) or isinstance(e, NamedVar):
        return e.name
    return f"sel({recursive_env_text(e.env)})"


def recursive_env_text(env: EnvExpr) -> str:
    if isinstance(env, NilE):
        return "nil"
    if isinstance(env, ConsE):
        return f"{recursive_entity_text(env.head)}::{recursive_env_text(env.tail)}"
    left = recursive_env_text(env.left)
    if isinstance(env.left, (ConsE, UnionE)):
        left = f"({left})"
    right = recursive_env_text(env.right)
    if isinstance(env.right, (ConsE, UnionE)):
        right = f"({right})"
    return f"{left}++{right}"


def recursive_formula_json(f: Formula) -> dict:
    """Structured rendering with explicit node tags and selection site ids."""
    if isinstance(f, Top):
        return {"node": "top"}
    if isinstance(f, Bot):
        return {"node": "bot"}
    if isinstance(f, Not):
        return {"node": "not", "body": recursive_formula_json(f.body)}
    if isinstance(f, (And, Or)):
        tag = "and" if isinstance(f, And) else "or"
        return {"node": tag, "left": recursive_formula_json(f.left),
                "right": recursive_formula_json(f.right)}
    if isinstance(f, NamedExists):
        return {"node": "exists", "var": f.var, "body": recursive_formula_json(f.body)}
    return {"node": "atom", "pred": f.pred,
            "args": [recursive_entity_json(a) for a in f.args]}


def recursive_entity_json(e: EntityTerm) -> dict:
    if isinstance(e, EntConst):
        return {"entity": "const", "name": e.name}
    if isinstance(e, NamedVar):
        return {"entity": "var", "name": e.name}
    return {"entity": "sel", "site": e.site_id, "env": recursive_env_json(e.env)}


def recursive_env_json(env: EnvExpr) -> dict:
    if isinstance(env, NilE):
        return {"env": "nil"}
    if isinstance(env, ConsE):
        return {"env": "cons", "head": recursive_entity_json(env.head),
                "tail": recursive_env_json(env.tail)}
    return {"env": "union", "left": recursive_env_json(env.left),
            "right": recursive_env_json(env.right)}


# ---------------------------------------------------------------------------
# The recursive-descent term parser

# `syntax.parse_term`/`parse_type` as they were before they became one loop
# over the operator table: a lexer class and one method per grammar level.
# Limited by the recursion limit; kept as the reference the loop must match
# result for result and diagnostic for diagnostic.

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<cons>::)"
    r"|(?P<union>\+\+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<op>[\\.():>&|~])"
)

# Words with a fixed meaning in term syntax; they cannot be binder names.
_RESERVED = {"nil", "top", "bot", "sel", "Ex", "Coord", "Sub"}

_SUGAR = {"Coord": COORD, "Sub": SUB}


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                self._fail(f"unexpected character {text[pos]!r}", pos)
            pos = m.end()
            if m.lastgroup == "ws":
                continue
            kind = m.lastgroup
            value = m.group()
            if kind == "op":
                kind = value
            self.tokens.append((kind, value, m.start()))
        self.tokens.append(("eof", "", len(text)))
        self.index = 0

    def _fail(self, message, pos):
        line = self.text.count("\n", 0, pos) + 1
        column = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        raise ParseError(message, pos, line, column)

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != "eof":
            self.index += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != kind:
            self._fail(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.next()


class _Parser:
    def __init__(self, text: str, sig: Mapping[str, SemType]):
        self.lex = _Lexer(text)
        self.sig = sig

    def parse(self) -> Term:
        term = self.term([])
        tok = self.lex.peek()
        if tok[0] != "eof":
            self.lex._fail(f"unexpected {tok[1]!r} after term", tok[2])
        return term

    # -- terms ------------------------------------------------------------

    def term(self, env: list[str]) -> Term:
        if self.lex.peek()[0] == "\\":
            self.lex.next()
            kind, name, pos = self.lex.expect("ident")
            if name in _RESERVED:
                self.lex._fail(f"{name!r} is reserved and cannot be bound", pos)
            self.lex.expect(":")
            ty = self.type_()
            self.lex.expect(".")
            body = self.term([name] + env)
            return Lam(ty, body)
        return self.disj(env)

    def disj(self, env) -> Term:
        left = self.conj(env)
        if self.lex.peek()[0] == "|":
            self.lex.next()
            return App(App(OR, left), self.disj(env))
        return left

    def conj(self, env) -> Term:
        left = self.neg(env)
        if self.lex.peek()[0] == "&":
            self.lex.next()
            return App(App(AND, left), self.conj(env))
        return left

    def neg(self, env) -> Term:
        if self.lex.peek()[0] == "~":
            self.lex.next()
            return App(NOT, self.neg(env))
        return self.union(env)

    def union(self, env) -> Term:
        left = self.cons(env)
        while self.lex.peek()[0] == "union":
            self.lex.next()
            left = App(App(UNION, left), self.cons(env))
        return left

    def cons(self, env) -> Term:
        head = self.application(env)
        if self.lex.peek()[0] == "cons":
            self.lex.next()
            return App(App(CONS, head), self.cons(env))
        return head

    _ATOM_STARTS = ("ident", "(")

    def application(self, env) -> Term:
        term = self.atom(env)
        while self.lex.peek()[0] in self._ATOM_STARTS:
            term = App(term, self.atom(env))
        return term

    _SECTIONS = {"&": AND, "|": OR, "~": NOT, "cons": CONS, "union": UNION}

    def atom(self, env) -> Term:
        kind, value, pos = self.lex.peek()
        if kind == "(":
            # `(&)`-style sections expose operator constants unapplied.
            nxt, nval, _ = self.lex.peek(1)
            if nxt in self._SECTIONS and self.lex.peek(2)[0] == ")":
                self.lex.next()
                self.lex.next()
                self.lex.next()
                return self._SECTIONS[nxt]
            self.lex.next()
            term = self.term(env)
            self.lex.expect(")")
            return term
        if kind == "ident":
            self.lex.next()
            if value in env:
                return Var(env.index(value))
            if value in _SUGAR:
                return _SUGAR[value]
            if value in BUILTINS:
                return BUILTINS[value]
            if value in self.sig:
                return Const(value, self.sig[value])
            raise UnknownIdentifier(value, pos)
        self.lex._fail(f"expected a term, found {value!r}", pos)

    # -- types ------------------------------------------------------------

    def type_(self) -> SemType:
        left = self.btype()
        if self.lex.peek()[0] == ">":
            self.lex.next()
            return Arrow(left, self.type_())
        return left

    def btype(self) -> SemType:
        kind, value, pos = self.lex.peek()
        if kind == "(":
            self.lex.next()
            ty = self.type_()
            self.lex.expect(")")
            return ty
        if kind == "ident" and value in ("e", "t", "g"):
            self.lex.next()
            return Base(value)
        self.lex._fail(f"expected a type, found {value!r}", pos)


def recursive_parse_term(text: str, constants=None) -> Term:
    return _Parser(text, dict(constants or {})).parse()


def recursive_parse_type(text: str) -> SemType:
    parser = _Parser(text, {})
    ty = parser.type_()
    tok = parser.lex.peek()
    if tok[0] != "eof":
        parser.lex._fail(f"unexpected {tok[1]!r} after type", tok[2])
    return ty


# ---------------------------------------------------------------------------
# Random formulas: at most 4 atoms and 2 quantifiers, unary/nullary
# predicates so the exhaustive oracle stays small at domain 3.  An atom's
# argument is a constant, a variable in scope, or a selection over a small
# `::`/`++` environment of those.  Both generators build a named formula and
# return it nameless.

def random_formula(rng: random.Random) -> Formula:
    state = {"atoms": 0, "quants": 0}
    sites = itertools.count()

    def ent(vars_):
        pool = [EntConst("a")] + [NamedVar(v) for v in vars_]
        if rng.random() < 0.25:
            return NamedSel(env(pool, 2), next(sites))
        return rng.choice(pool)

    def env(pool, depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return NilE()
        if roll < 0.75:
            return ConsE(rng.choice(pool), env(pool, depth - 1))
        return UnionE(env(pool, depth - 1), env(pool, depth - 1))

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
            return NamedExists(v, go(depth - 1, vars_ + (v,)))
        return atom(vars_)

    return nameless(go(4, ()))


def stacked_negation_formula(rng: random.Random) -> Formula:
    """A formula that stacks negations and quantifiers over subformulas it
    repeats: the shape on which the order of `simplify`'s rules shows.
    Atoms take constants, bound variables and selection sites over small
    environments; a repeated subformula is reused only where the variables
    it mentions are bound."""
    made: list[tuple[Formula, tuple[str, ...]]] = []
    sites = itertools.count()

    def entity(vars_):
        return rng.choice([EntConst("a"), EntConst("b")] + [NamedVar(v) for v in vars_])

    def env(vars_, depth):
        roll = rng.random()
        if depth == 0 or roll < 0.25:
            return NilE()
        if roll < 0.7:
            return ConsE(entity(vars_), env(vars_, depth - 1))
        return UnionE(env(vars_, depth - 1), env(vars_, depth - 1))

    def atom(vars_):
        roll = rng.random()
        if roll < 0.15:
            return Atom("r", ())
        if roll < 0.3:
            return Atom("s", (entity(vars_), NamedSel(env(vars_, 3), next(sites))))
        return Atom(rng.choice(("p", "q")), (entity(vars_),))

    def go(depth, vars_):
        roll = rng.random()
        reusable = [f for f, needs in made if set(needs) <= set(vars_)]
        if depth == 0 or roll < 0.15:
            f = rng.choice([atom(vars_), atom(vars_), Top(), Bot()])
        elif roll < 0.3 and reusable:
            f = rng.choice(reusable)
        elif roll < 0.45:
            v = f"v{len(vars_) + 1}"
            f = NamedExists(v, go(depth - 1, vars_ + (v,)))
        else:
            f = rng.choice((And, Or))(go(depth - 1, vars_), go(depth - 1, vars_))
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            f = Not(f)
        made.append((f, vars_))
        return f

    return nameless(go(5, ()))


# ---------------------------------------------------------------------------
# Reification and typechecking references

def recursive_reify(term: Term) -> Formula:
    """`logic.reify` as it was before it became one loop over an explicit
    stack: three mutually recursive readers (formulas, entity terms,
    environments) that restate each builtin's arity and argument sorts.
    Limited by the recursion limit; kept as the reference the loop must
    match in result, or in error message and position.  Each atom argument
    reports its own position.  A negative variable index, which the loop
    rejects as escaping, is read here from the end of the binder tuple; the
    random terms have none."""
    avoid, used = (), set()
    fresh_counter = [0]
    site_counter = [0]

    def fresh_var():
        while True:
            n = fresh_counter[0]
            fresh_counter[0] += 1
            name = "y" if n == 0 else f"y{n}"
            if name not in avoid:
                return name

    def fail(path, reason):
        return NotReifiable(path_steps(path), reason)

    def spine(t):
        args = []
        while type(t) is App:
            args.append(t.arg)
            t = t.fn
        b = BUILTINS.get(t.name) if type(t) is Const else None
        return t, (b if b is not None and (t is b or t == b) else None), args[::-1]

    def arg_path(path, i, n):
        for _ in range(n - 1 - i):
            path = (path, "fn")
        return path, "arg"

    def go(t, bound, path) -> Formula:
        head, builtin, args = spine(t)
        if builtin is TOP and not args:
            return Top()
        if builtin is BOT and not args:
            return Bot()
        if builtin is NOT and len(args) == 1:
            return Not(go(args[0], bound, (path, "arg")))
        if (builtin is AND or builtin is OR) and len(args) == 2:
            ctor = And if builtin is AND else Or
            return ctor(go(args[0], bound, ((path, "fn"), "arg")),
                        go(args[1], bound, (path, "arg")))
        if builtin is EXISTS and len(args) == 1:
            body = args[0]
            if type(body) is not Lam or body.ty.text != "e":
                raise fail(path, "quantifier not applied to an entity property")
            name = fresh_var()
            return NamedExists(name, go(body.body, (name,) + bound, ((path, "arg"), "body")))
        if type(head) is Const and head.name not in BUILTINS:
            ent_args = tuple(entity(a, bound, arg_path(path, i, len(args)))
                             for i, a in enumerate(args))
            if head.ty.text == "e>" * len(args) + "t":
                used.add(head.name)
                return Atom(head.name, ent_args)
        raise fail(path, "not in the reifiable fragment")

    def entity(t, bound, path) -> EntityTerm:
        if type(t) is Var:
            if t.index >= len(bound):
                raise fail(path, "entity variable escapes its quantifier")
            return NamedVar(bound[t.index])
        if type(t) is Const and t.ty.text == "e" and t.name not in BUILTINS:
            used.add(t.name)
            return EntConst(t.name)
        head, builtin, args = spine(t)
        if builtin is SEL and len(args) == 1:
            site = site_counter[0]
            site_counter[0] += 1
            return NamedSel(environment(args[0], bound, (path, "arg")), site)
        raise fail(path, "not an entity term")

    def environment(t, bound, path) -> EnvExpr:
        head, builtin, args = spine(t)
        if builtin is NIL and not args:
            return NilE()
        if builtin is CONS and len(args) == 2:
            h = entity(args[0], bound, ((path, "fn"), "arg"))
            if isinstance(h, NamedSel):
                raise fail(path, "selection result used as an environment entry")
            return ConsE(h, environment(args[1], bound, (path, "arg")))
        if builtin is UNION and len(args) == 2:
            return UnionE(environment(args[0], bound, ((path, "fn"), "arg")),
                          environment(args[1], bound, (path, "arg")))
        raise fail(path, "not an environment expression")

    formula = go(term, (), None)
    if used.isdisjoint(f"y{i}" if i else "y" for i in range(fresh_counter[0])):
        return formula
    avoid, fresh_counter[0], site_counter[0] = used, 0, 0
    return go(term, (), None)


def recursive_typecheck(term: Term, ctx: tuple[SemType, ...] = ()) -> SemType:
    """`terms.typecheck` as it was before it became one loop over an explicit
    stack: one Python call per node, copying the context at every binder.
    Limited by the recursion limit; kept as the reference the loop must
    match in type, or in error class, message and position."""
    def check(term, ctx, path):
        if isinstance(term, Var):
            if term.index < 0 or term.index >= len(ctx):
                raise UnboundVariable(term.index, path_steps(path))
            return ctx[term.index]
        if isinstance(term, Const):
            return term.ty
        if isinstance(term, Lam):
            body_ty = check(term.body, (term.ty,) + ctx, (path, "body"))
            return Arrow(term.ty, body_ty)
        fn_ty = check(term.fn, ctx, (path, "fn"))
        arg_ty = check(term.arg, ctx, (path, "arg"))
        if not isinstance(fn_ty, Arrow):
            raise TypeMismatch("a function type", fn_ty, path_steps((path, "fn")))
        if fn_ty.dom.text != arg_ty.text:
            raise TypeMismatch(fn_ty.dom, arg_ty, path_steps((path, "arg")))
        return fn_ty.cod

    return check(term, tuple(ctx), None)


# ---------------------------------------------------------------------------
# Simplification references

def fixpoint_simplify(f: Formula) -> Formula:
    """`logic.simplify` as it was before it became one bottom-up pass: a
    recursive rewriting pass repeated until nothing changes, recomputing free
    variables at every existential.  Limited by the recursion limit; kept as
    the reference `simplify` must match exactly."""
    for _ in range(1000):
        nxt = _simplify_pass(f)
        if nxt == f:
            return f
        f = nxt
    raise RuntimeError("simplify failed to reach a fixed point")


def _simplify_pass(f: Formula) -> Formula:
    if isinstance(f, Not):
        body = _simplify_pass(f.body)
        if isinstance(body, Top):
            return Bot()
        if isinstance(body, Bot):
            return Top()
        if isinstance(body, Not):
            return body.body
        if isinstance(body, And):
            return Or(Not(body.left), Not(body.right))
        if isinstance(body, Or):
            return And(Not(body.left), Not(body.right))
        return Not(body)
    if isinstance(f, And):
        left = _simplify_pass(f.left)
        right = _simplify_pass(f.right)
        if isinstance(left, Top):
            return right
        if isinstance(right, Top):
            return left
        if isinstance(left, Bot) or isinstance(right, Bot):
            return Bot()
        fused = _fuse(left, right)
        if fused is not None:
            return fused
        return And(left, right)
    if isinstance(f, Or):
        left = _simplify_pass(f.left)
        right = _simplify_pass(f.right)
        if isinstance(left, Bot):
            return right
        if isinstance(right, Bot):
            return left
        if isinstance(left, Top) or isinstance(right, Top):
            return Top()
        return Or(left, right)
    if isinstance(f, NamedExists):
        body = _simplify_pass(f.body)
        if isinstance(body, (And, Or)):
            ctor = type(body)
            if f.var not in free_vars(body.right):
                return ctor(NamedExists(f.var, body.left), body.right)
            if f.var not in free_vars(body.left):
                return ctor(body.left, NamedExists(f.var, body.right))
        return NamedExists(f.var, body)
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(_simplify_entity(a) for a in f.args))
    return f


def _fuse(left: Formula, right: Formula) -> Optional[Formula]:
    # (A op K) and (B op K) == (A and B) op K when the two tails agree up to
    # bound renaming and selection site ids.
    for ctor in (Or, And):
        if isinstance(left, ctor) and isinstance(right, ctor):
            if recursive_alpha_eq(left.right, right.right):
                return ctor(And(left.left, right.left), left.right)
    return None


def _simplify_entity(e: EntityTerm) -> EntityTerm:
    if isinstance(e, NamedSel):
        canonical = env_from_entries(env_entries(e.env))
        return NamedSel(canonical, e.site_id)
    return e


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, NamedExists):
        return free_vars(f.body) - {f.var}
    return frozenset(itertools.chain.from_iterable(_ent_vars(a) for a in f.args))


def _ent_vars(e: EntityTerm):
    if isinstance(e, NamedVar):
        yield e.name
    elif isinstance(e, NamedSel):
        yield from _env_vars(e.env)


def _env_vars(env: EnvExpr):
    if isinstance(env, ConsE):
        yield from _ent_vars(env.head)
        yield from _env_vars(env.tail)
    elif isinstance(env, UnionE):
        yield from _env_vars(env.left)
        yield from _env_vars(env.right)


def recursive_alpha_eq(f1: Formula, f2: Formula) -> bool:
    """`logic.alpha_eq` as it was before it used an explicit stack: `ren`
    holds each side's bound names, each read as its binder (a new object per
    pair of binders), so a free name equals only the same free name."""
    return _aeq(f1, f2, ({}, {}))


def _aeq(f1, f2, ren):
    if type(f1) is not type(f2):
        return False
    if isinstance(f1, (Top, Bot)):
        return True
    if isinstance(f1, Not):
        return _aeq(f1.body, f2.body, ren)
    if isinstance(f1, (And, Or)):
        return _aeq(f1.left, f2.left, ren) and _aeq(f1.right, f2.right, ren)
    if isinstance(f1, NamedExists):
        binder = object()
        return _aeq(f1.body, f2.body, ({**ren[0], f1.var: binder}, {**ren[1], f2.var: binder}))
    return f1.pred == f2.pred and len(f1.args) == len(f2.args) and all(
        _ent_aeq(a, b, ren) for a, b in zip(f1.args, f2.args)
    )


def _ent_aeq(a, b, ren):
    if type(a) is not type(b):
        return False
    if isinstance(a, EntConst):
        return a.name == b.name
    if isinstance(a, NamedVar):
        return ren[0].get(a.name, a.name) == ren[1].get(b.name, b.name)
    return _env_aeq(a.env, b.env, ren)


def _env_aeq(a, b, ren):
    if type(a) is not type(b):
        return False
    if isinstance(a, NilE):
        return True
    if isinstance(a, ConsE):
        return _ent_aeq(a.head, b.head, ren) and _env_aeq(a.tail, b.tail, ren)
    return _env_aeq(a.left, b.left, ren) and _env_aeq(a.right, b.right, ren)


def formula_preorder(f: Formula) -> list:
    """The nodes of a formula in preorder, connectives reduced to their class
    (and bound name); atoms are kept whole.  Two formulas are equal exactly
    when these lists are, and building them does not recurse, so deep
    formulas can be compared."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (And, Or)):
            out.append(type(g))
            stack += (g.right, g.left)
        elif isinstance(g, (Not, Exists, NamedExists)):
            out.append((type(g), getattr(g, "var", None)))
            stack.append(g.body)
        else:
            out.append(g)
    return out


def named_alpha_eq(f1: Formula, f2: Formula) -> bool:
    """Equality of named formulas up to renaming of bound variables and
    selection site ids, as `logic.alpha_eq` decided it for fusion before
    formulas became nameless: on each side a bound name reads as its binder,
    a free name as itself, over an explicit stack."""
    left: dict = {}     # a bound name -> its binder's exit on the stack,
    right: dict = {}    # a place no other binder in scope holds
    stack: list = [(f1, f2)]
    while stack:
        a, b = stack.pop()
        if a is None:           # leaving a binder: b is each side's (var, earlier reading)
            (var1, before1), (var2, before2) = b
            left[var1], right[var2] = before1, before2
        elif a is b and left == right:
            continue
        elif type(a) is not type(b):
            return False
        elif isinstance(a, NamedExists):
            stack.append((None, ((a.var, left.get(a.var, a.var)),
                                 (b.var, right.get(b.var, b.var)))))
            left[a.var] = right[b.var] = len(stack)
            stack.append((a.body, b.body))
        elif isinstance(a, Atom):
            if a.pred != b.pred or len(a.args) != len(b.args):
                return False
            stack += zip(a.args, b.args)
        elif isinstance(a, NamedVar):
            if left.get(a.name, a.name) != right.get(b.name, b.name):
                return False
        elif isinstance(a, EntConst):
            if a.name != b.name:
                return False
        else:                           # children only: site ids are ignored
            stack += [(x, y) for x, y in zip(a._values(), b._values()) if isinstance(x, Node)]
    return True


def _named_atom_vars(f: Atom) -> frozenset[str]:
    names = []
    stack: list = list(f.args)
    while stack:
        e = stack.pop()
        if isinstance(e, NamedVar):
            names.append(e.name)
        elif isinstance(e, NamedSel):
            stack += env_entries(e.env)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Tree-walking reify and simplify references

def _tree_entity(t: Term, names: list[str], depth: int, used: set[str]) -> EntityTerm | None:
    """A bound variable's or an entity constant's reading; None for other terms."""
    if type(t) is Var:
        return NamedVar(names[depth - 1 - t.index]) if 0 <= t.index < depth else None
    if type(t) is Const and t.ty.text == "e" and t.name not in _READINGS:
        used.add(t.name)
        return EntConst(t.name)
    return None


def tree_reify(term: Term) -> Formula:
    """`logic.reify` as it was before it read a shared Lam once per binder
    context and before formulas became nameless: the normal form's DAG is
    walked as a tree into a named formula.  Kept as the reference whose
    printed text, JSON and sites the nameless path must match.

    Read a closed beta-normal term of type t as a named formula.

    Quantified variables get fresh names (y, y1, y2, ... in textual order,
    skipping constants' names) and every occurrence of the selection operator
    gets a fresh site id, numbered left to right.  A second walk runs only
    when a name the first chose turns out to be a constant's.  A walk is one
    loop over a stack of visits, (sort, term, binder depth, path), and of
    builds, (class, field, atom arity, path), which make a node of the
    results on top or, of class NotReifiable, reject what was just read.
    """
    avoid = ()
    while True:
        names, used, fresh, sites, done = [], set(), 0, 0, []   # names: by binder depth
        work: list = [("t", term, 0, None)]
        while work:
            sort, t, depth, path = work.pop()
            if type(sort) is str:
                head, args = t, []
                while type(head) is App:
                    args.append(head.arg)
                    head = head.fn
                reading = _READINGS.get(head.name) if type(head) is Const else None
                if reading:
                    builtin, cls, result, sorts = reading
                    if (head is not builtin and head != builtin or result != sort
                            or len(args) != len(sorts)):
                        raise NotReifiable(tm.path_steps(path), _NOT_A[sort])
                    if cls is Exists:
                        (body,), binder = args, builtin.ty.dom
                        if type(body) is not Lam or body.ty.text != binder.dom.text:
                            raise NotReifiable(tm.path_steps(path),
                                               "quantifier not applied to an entity property")
                        name, fresh = f"y{fresh}" if fresh else "y", fresh + 1
                        while name in avoid:
                            name, fresh = f"y{fresh}", fresh + 1
                        names[depth:] = (name,)
                        done.append(name)           # under the body, for the build
                        work += ((Exists, None, None, path),
                                 (binder.cod.text, body.body, depth + 1, ((path, "arg"), "body")))
                        continue
                    if cls is ConsE:    # the entry, args[1], is read here if _entity can
                        if read := _tree_entity(args[1], names, depth, used):
                            done.append(read)       # under the tail, for the build
                            work += ((ConsE, None, None, path),
                                     (sorts[0], args[0], depth, (path, "arg")))
                        else:   # any other is rejected, by its visit or as a selection
                            reason = "selection result used as an environment entry"
                            work += ((NotReifiable, reason, None, path),
                                     (sorts[1], args[1], depth, ((path, "fn"), "arg")))
                        continue
                    if not args:
                        done.append(cls())
                        continue
                    while cls is Not and type(args[0]) is App and args[0].fn is tm.NOT:
                        work.append((Not, None, None, None))    # a run of negations
                        args, path = [args[0].arg], (path, "arg")
                    work.append((cls, sites, None, path))      # a selection's site id
                    sites += cls is SelOf
                elif type(head) is Const and sort == "t":   # an atom: arguments, then head type
                    work.append((Atom, head, len(args), path))
                    sorts = ("e",) * len(args)
                elif sort == "e" and not args and (read := _tree_entity(head, names, depth, used)):
                    done.append(read)
                    continue
                else:
                    raise NotReifiable(tm.path_steps(path), (
                        "entity variable escapes its quantifier"
                        if sort == "e" and not args and type(head) is Var else _NOT_A[sort]))
                for arg, arg_sort in zip(args, sorts):      # the last argument first
                    work.append((arg_sort, arg, depth, (path, "arg")))
                    path = (path, "fn")
            elif sort is Not or sort is SelOf:
                done[-1] = Not(done[-1]) if sort is Not else NamedSel(done[-1], t)
            elif sort is Atom and t.ty.text == "e>" * depth + "t":  # an `e` per argument
                used.add(t.name)
                k = len(done) - depth
                done[k:] = [Atom(t.name, tuple(done[k:]))]
            elif sort is Atom or sort is NotReifiable:
                raise NotReifiable(tm.path_steps(path), _NOT_A["t"] if sort is Atom else t)
            else:                                           # And, Or, Exists, ConsE, UnionE
                right = done.pop()
                done[-1] = (NamedExists if sort is Exists else sort)(done[-1], right)
        if avoid or used.isdisjoint(f"y{i}" if i else "y" for i in range(fresh)):
            return done[0]
        avoid = used


# `tree_simplify`'s work-stack instructions, besides the connective classes
# that rebuild a node from simplified operands: visit an input node, push a result.
_VISIT, _PUSH = object(), object()


def tree_simplify(f: Formula) -> Formula:
    """`logic.simplify` as it was before formulas became nameless: a named
    formula walked as a tree, tails fused when `named_alpha_eq`.  Kept as the
    reference whose printed output the nameless `simplify` must match.

    Apply the cleanup rewrites in one bottom-up pass.

    Rules: connective unit laws (including ~top / ~bot), double negation,
    De Morgan on negated conjunctions/disjunctions (negation is never pushed
    through a quantifier), extraction of quantifier-free conjuncts and
    disjuncts out of an existential's scope, fusion of a shared continuation
    tail (A op K) and (B op K) into (A and B) op K, and evaluation of union
    environments under selection sites.  Every rule preserves logical
    equivalence.  Each node is rebuilt from its simplified children by the
    rules at that node; the nodes a rule builds go back on the work stack,
    so the result is a fixed point of the rule set and deep formulas do not
    recurse.  Free variables are computed only where extraction asks.
    """
    free: dict[int, tuple[Formula, frozenset[str]]] = {}   # id -> (node, vars)

    def free_vars(g: Formula) -> frozenset[str]:
        todo, stack = [], [g]
        while stack:                        # nodes not yet known, parents first
            h = stack.pop()
            if id(h) not in free:
                todo.append(h)
                if isinstance(h, (Not, NamedExists)):
                    stack.append(h.body)
                elif isinstance(h, (And, Or)):
                    stack += (h.left, h.right)
        for h in reversed(todo):
            if isinstance(h, (And, Or)):
                names = free[id(h.left)][1] | free[id(h.right)][1]
            elif isinstance(h, Not):
                names = free[id(h.body)][1]
            elif isinstance(h, NamedExists):
                names = free[id(h.body)][1] - {h.var}
            else:
                names = _named_atom_vars(h) if isinstance(h, Atom) else frozenset()
            free[id(h)] = (h, names)
        return free[id(g)][1]

    done: list[Formula] = []
    work: list = [(_VISIT, f)]
    while work:
        op, arg = work.pop()
        if op is _VISIT:
            kind = type(arg)
            if kind is Not:
                if type(arg.body) is Not:           # double negation
                    work.append((_VISIT, arg.body.body))
                else:
                    work += ((Not, None), (_VISIT, arg.body))
            elif kind is And or kind is Or:
                work += ((kind, None), (_VISIT, arg.right), (_VISIT, arg.left))
            elif kind is NamedExists:
                work += ((NamedExists, arg.var), (_VISIT, arg.body))
            elif kind is Atom and any(type(a) is NamedSel for a in arg.args):
                done.append(Atom(arg.pred, tuple(
                    NamedSel(env_from_entries(env_entries(a.env)), a.site_id)
                    if type(a) is NamedSel else a for a in arg.args)))
            else:
                done.append(arg)
        elif op is _PUSH:
            done.append(arg)
        elif op is Not:
            body = done.pop()
            kind = type(body)
            if kind is And or kind is Or:           # De Morgan
                work += ((Or if kind is And else And, None),
                         (Not, None), (_PUSH, body.right),
                         (Not, None), (_PUSH, body.left))
            else:
                done.append(Bot() if kind is Top else Top() if kind is Bot
                            else body.body if kind is Not else Not(body))
        elif op is NamedExists:
            body = done.pop()
            kind = type(body)
            if kind is not And and kind is not Or:
                done.append(NamedExists(arg, body))
            elif arg not in free_vars(body.right):
                work += ((kind, None), (_PUSH, body.right),
                         (NamedExists, arg), (_PUSH, body.left))
            elif arg not in free_vars(body.left):
                work += ((kind, None), (NamedExists, arg),
                         (_PUSH, body.right), (_PUSH, body.left))
            else:
                done.append(NamedExists(arg, body))
        else:                                       # And or Or
            right = done.pop()
            left = done.pop()
            unit, zero = (Top, Bot) if op is And else (Bot, Top)
            kind = type(left)
            if kind is unit:
                done.append(right)
            elif type(right) is unit:
                done.append(left)
            elif kind is zero or type(right) is zero:
                done.append(zero())
            elif (op is And and kind is type(right) and (kind is And or kind is Or)
                  and named_alpha_eq(left.right, right.right)):
                # (A op K) and (B op K) == (A and B) op K when the two tails
                # agree up to bound renaming and selection site ids.
                work += ((kind, None), (_PUSH, left.right), (And, None),
                         (_PUSH, right.left), (_PUSH, left.left))
            else:
                done.append(op(left, right))
    return done[0]
