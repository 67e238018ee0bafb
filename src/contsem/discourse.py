"""Sentence assembly, discourse composition, and the discourse DSL.

A tiny fixed grammar covers the supported sentence shapes (subject NP,
optional negation, transitive/intransitive verb or copula+adjective, with
proper-noun / indefinite / pronoun NPs).  Discourses are binary trees over
sentences: `.` sequences sentences in profiles A and B, while profile C uses
`.c` (coordination) and `.s` (subordination), whose interpretations thread
referent environments so later units only see what the right frontier
licenses.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .errors import ContsemError
from . import terms as tm
from .logic import Formula, reify, simplify
from .lexicon import Category, Lexicon, Profile, default_lexicon
from .syntax import parse_term
from .terms import App, Const, Lam, Term, Var, app, normalize, subst_consts, typecheck


# ---------------------------------------------------------------------------
# Sentence ASTs

@dataclass(frozen=True)
class ProperN:
    word: str


@dataclass(frozen=True)
class Det:
    word: str
    noun: str


@dataclass(frozen=True)
class Pron:
    word: str


NP = Union[ProperN, Det, Pron]


@dataclass(frozen=True)
class Verb:
    word: str
    obj: Optional[NP] = None


@dataclass(frozen=True)
class CopulaAdj:
    word: str


@dataclass(frozen=True)
class Sentence:
    subject: NP
    predicate: Union[Verb, CopulaAdj]
    negated: bool = False


@dataclass(frozen=True)
class Leaf:
    sentence: Sentence


@dataclass(frozen=True)
class SymLeaf:
    name: str


@dataclass(frozen=True)
class Seq:
    left: "DiscourseTree"
    right: "DiscourseTree"


@dataclass(frozen=True)
class CoordN:
    left: "DiscourseTree"
    right: "DiscourseTree"


@dataclass(frozen=True)
class SubN:
    left: "DiscourseTree"
    right: "DiscourseTree"


DiscourseTree = Union[Leaf, SymLeaf, Seq, CoordN, SubN]


class ProfileMismatch(ContsemError):
    def __init__(self, what: str, profile: Profile):
        self.what = what
        self.profile = profile
        super().__init__(f"{what} is not available in profile {profile.value}")


class ArityMismatch(ContsemError):
    pass


class DiscourseError(ContsemError):
    pass


# ---------------------------------------------------------------------------
# Sentence interpretation

def _require(found: Category, word: str, wanted: Category) -> None:
    """The category check that makes a built sentence well typed."""
    if found != wanted:
        raise ArityMismatch(f"{word!r} has category {found.value}, not {wanted.value}")


def build_sentence(ast: Sentence, lexicon: Lexicon, profile: Profile) -> Term:
    """Closed term of the profile's sentence type for one sentence."""
    if profile == Profile.C:
        return _build_leaf_c(ast, lexicon)
    np_ty = tm.arrow(tm.arrow(tm.E, profile.sentence_type), profile.sentence_type)

    def entry(word: str, category: Category) -> Term:
        found = lexicon.lex_entry(word, profile)
        _require(found.category, word, category)
        return found.term

    def np_term(np: NP) -> Term:
        if isinstance(np, ProperN):
            return entry(np.word, Category.PROPER_NOUN)
        if isinstance(np, Pron):
            return entry(np.word, Category.PRONOUN)
        return app(entry(np.word, Category.DETERMINER),
                   entry(np.noun, Category.COMMON_NOUN))

    subject = np_term(ast.subject)
    if isinstance(ast.predicate, CopulaAdj):
        if ast.negated:
            raise ArityMismatch("the copula cannot be negated")
        return app(entry("is", Category.COPULA),
                   entry(ast.predicate.word, Category.ADJECTIVE), subject)

    category = lexicon.category(ast.predicate.word)
    if category == Category.TRANSITIVE_VERB:
        if ast.predicate.obj is None:
            raise ArityMismatch(
                f"transitive verb {ast.predicate.word!r} needs an object")
        vp_applied = app(entry(ast.predicate.word, category),
                         np_term(ast.predicate.obj))
    elif category == Category.INTRANSITIVE_VERB:
        if ast.predicate.obj is not None:
            raise ArityMismatch(
                f"intransitive verb {ast.predicate.word!r} takes no object")
        vp_applied = entry(ast.predicate.word, category)
    else:
        raise ArityMismatch(f"{ast.predicate.word!r} is not a verb")

    if ast.negated:
        # (doesn't VP) S: the negation takes the verb phrase, then the subject.
        vp = Lam(np_ty, App(vp_applied, Var(0)))
        return app(entry("doesnt", Category.NEGATION_AUX), vp, subject)
    return app(vp_applied, subject)


def _build_leaf_c(ast: Sentence, lexicon: Lexicon) -> Term:
    """Profile C leaf.

    A leaf introducing referents r1..rk with proposition P becomes
        \\c e1 e2 phi. Ex r1..rk. P & phi c (rk::...::r1::nil) e2
    i.e. the continuation's first environment holds exactly this unit's own
    referents (composition decides what else stays accessible), and pronouns
    select from the inherited frontier plus the previous unit's referents,
    newest first: sel(e2 ++ e1).
    """
    if ast.negated:
        raise ProfileMismatch("negation", Profile.C)

    ex_count = 0          # existential binders, innermost = most recent
    refs: list = []       # entity term builders, in introduction order
    restrictions: list = []

    def np_entity(np: NP):
        nonlocal ex_count
        if isinstance(np, ProperN):
            _require(lexicon.category(np.word), np.word, Category.PROPER_NOUN)
            const = Const(lexicon.symbol(np.word), tm.E)
            ref = lambda k, c=const: c
            refs.append(ref)
            return ref
        if isinstance(np, Det):
            _require(lexicon.category(np.word), np.word, Category.DETERMINER)
            _require(lexicon.category(np.noun), np.noun, Category.COMMON_NOUN)
            slot = ex_count
            ex_count += 1
            # with k binders total, the slot-th introduced var has index k-1-slot
            var = lambda k, s=slot: Var(k - 1 - s)
            pred = lexicon.symbol(np.noun)
            restrictions.append(lambda k, p=pred, v=var:
                                App(Const(p, tm.arrow(tm.E, tm.T)), v(k)))
            refs.append(var)
            return var
        # Pronoun: sel over the accessible frontier, newest entries first.
        return lambda k: App(tm.SEL, app(tm.UNION, Var(k + 1), Var(k + 2)))

    subject = np_entity(ast.subject)
    if isinstance(ast.predicate, CopulaAdj):
        _require(lexicon.category(ast.predicate.word), ast.predicate.word,
                 Category.ADJECTIVE)
        pred = lexicon.symbol(ast.predicate.word)
        main = lambda k: App(Const(pred, tm.arrow(tm.E, tm.T)), subject(k))
    else:
        category = lexicon.category(ast.predicate.word)
        pred = lexicon.symbol(ast.predicate.word)
        if category == Category.TRANSITIVE_VERB:
            if ast.predicate.obj is None:
                raise ArityMismatch(
                    f"transitive verb {ast.predicate.word!r} needs an object")
            obj = np_entity(ast.predicate.obj)
            main = lambda k: app(Const(pred, tm.arrow(tm.E, tm.E, tm.T)),
                                 subject(k), obj(k))
        elif category == Category.INTRANSITIVE_VERB:
            if ast.predicate.obj is not None:
                raise ArityMismatch(
                    f"intransitive verb {ast.predicate.word!r} takes no object")
            main = lambda k: App(Const(pred, tm.arrow(tm.E, tm.T)), subject(k))
        else:
            raise ArityMismatch(f"{ast.predicate.word!r} is not a verb")

    k = ex_count
    conjuncts = [r(k) for r in restrictions] + [main(k)]
    prop = conjuncts[-1]
    for c in reversed(conjuncts[:-1]):
        prop = app(tm.AND, c, prop)

    own_env: Term = tm.NIL
    for ref in refs:
        own_env = app(tm.CONS, ref(k), own_env)

    # phi c (own refs) e2, under k existential binders
    body = app(tm.AND, prop,
               app(Var(k + 0), Var(k + 3), own_env, Var(k + 1)))
    for _ in range(k):
        body = App(tm.EXISTS, Lam(tm.E, body))
    return Lam(tm.KAPPA_C, Lam(tm.G, Lam(tm.G, Lam(tm.CONT_C, body))))


# ---------------------------------------------------------------------------
# Composition

_SEQ_A = r"\e:g. \phi:g>t. LHS_ e (\e':g. RHS_ e' phi)"
_SEQ_B = (r"\c:{K}. \e1:g. \e2:g. \phi:{PHI}."
          r" LHS_ c e1 e2 (\c':{K}. \e1':g. \e2':g. RHS_ c' e1' e2' phi)")
_COORD_C = (r"\c:{K}. \e1:g. \e2:g. \phi:{PHI}."
            r" LHS_ c e1 e2 (\c':{K}. \e1':g. \e2':g. RHS_ Coord e1' (c e1 e2) phi)")
_SUB_C = (r"\c:{K}. \e1:g. \e2:g. \phi:{PHI}."
          r" LHS_ c e1 e2 (\c':{K}. \e1':g. \e2':g. RHS_ Sub e1' (c e1 e2) phi)")


@lru_cache(maxsize=None)
def _binary_template(kind: str, profile: Profile) -> Term:
    sent = profile.sentence_type
    sig = {"LHS_": sent, "RHS_": sent}
    if profile == Profile.A:
        source = _SEQ_A
    else:
        k = tm.type_text(profile.connective_type)
        phi = tm.type_text(profile.continuation_type)
        base = {"seq": _SEQ_B, "coord": _COORD_C, "sub": _SUB_C}[kind]
        source = base.format(K=f"({k})", PHI=f"({phi})")
    return parse_term(source, sig)


def compose(tree: DiscourseTree, lexicon: Lexicon, profile: Profile) -> Term:
    """Structural interpretation of a discourse tree (not normalized)."""
    if isinstance(tree, Leaf):
        return build_sentence(tree.sentence, lexicon, profile)
    if isinstance(tree, SymLeaf):
        return Const(tree.name, profile.sentence_type)
    if isinstance(tree, Seq):
        if profile == Profile.C:
            raise ProfileMismatch("plain sequencing (.)", profile)
        kind = "seq"
    elif isinstance(tree, CoordN):
        if profile != Profile.C:
            raise ProfileMismatch("coordination (.c)", profile)
        kind = "coord"
    else:
        if profile != Profile.C:
            raise ProfileMismatch("subordination (.s)", profile)
        kind = "sub"
    left = compose(tree.left, lexicon, profile)
    right = compose(tree.right, lexicon, profile)
    return subst_consts(_binary_template(kind, profile),
                        {"LHS_": left, "RHS_": right})


def _leaves(tree: DiscourseTree):
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (Leaf, SymLeaf)):
            yield node
        else:
            stack += (node.right, node.left)


def has_symbolic_leaves(tree: DiscourseTree) -> bool:
    return any(isinstance(leaf, SymLeaf) for leaf in _leaves(tree))


def expand_symbolic(tree: DiscourseTree, lexicon: Optional[Lexicon] = None,
                    profile: Profile = Profile.C) -> Term:
    """Normalized interpretation of an all-symbolic discourse tree.

    Sentence symbols stay free constants; the environment combinators are
    reduced away wherever they are applied to explicit environments.
    """
    if profile != Profile.C:
        raise ProfileMismatch("symbolic expansion", profile)
    if not all(isinstance(leaf, SymLeaf) for leaf in _leaves(tree)):
        raise ProfileMismatch("symbolic expansion of concrete sentences", profile)
    return run_pipeline(tree, lexicon or default_lexicon(), profile, None).normal


# ---------------------------------------------------------------------------
# Initial arguments

@dataclass(frozen=True)
class InitialArgs:
    profile: Profile
    args: tuple[Term, ...]

    def __post_init__(self):
        expected = []                 # the sentence type's domains, down to t
        ty = self.profile.sentence_type
        while isinstance(ty, tm.Arrow):
            expected.append(ty.dom)
            ty = ty.cod
        if len(self.args) != len(expected):
            raise DiscourseError(
                f"profile {self.profile.value} takes {len(expected)} initial "
                f"arguments, got {len(self.args)}")
        for i, (arg, ty) in enumerate(zip(self.args, expected)):
            found = typecheck(arg)
            if found != ty:
                raise DiscourseError(
                    f"initial argument {i} must have type {tm.type_text(ty)}, "
                    f"found {tm.type_text(found)}")


# Empty continuations: profile A always returns truth; profile B returns
# truth under conjunction and falsity under disjunction, which makes it
# vanish after simplification on either branch of a negation.
PHI_A = parse_term(r"\e:g. top")
PHI_B = parse_term(r"\c:t>t>t. \e1:g. \e2:g. ~(c top bot)")
PHI_C = parse_term(r"\c:g>g>g. \e1:g. \e2:g. top")


def default_initial_args(profile: Profile) -> InitialArgs:
    if profile == Profile.A:
        return InitialArgs(profile, (tm.NIL, PHI_A))
    if profile == Profile.B:
        return InitialArgs(profile, (tm.AND, tm.NIL, tm.NIL, PHI_B))
    # A discourse-initial segment has no prior right frontier: coordination
    # with empty environments makes the inherited frontier empty.
    return InitialArgs(profile, (tm.COORD, tm.NIL, tm.NIL, PHI_C))


# ---------------------------------------------------------------------------
# Full pipeline

@dataclass(frozen=True)
class Interpretation:
    """Every artifact of one pipeline run; in symbolic expansion only
    `composed` and its normal form `normal` are set."""
    composed: Term
    applied: Optional[Term]
    normal: Term
    raw: Optional[Formula]
    simplified: Optional[Formula]


def run_pipeline(tree: DiscourseTree, lexicon: Lexicon, profile: Profile,
                 init: Optional[InitialArgs],
                 max_steps: int = 100_000) -> Interpretation:
    """Compose, apply `init`, normalize, reify and simplify; with init=None,
    compose and normalize only (symbolic expansion).  The applied term has
    type t by construction: Lexicon typechecks its entries, build_sentence
    checks word categories and InitialArgs checks the initial arguments."""
    if init is not None and init.profile != profile:
        raise DiscourseError("initial arguments built for a different profile")
    composed = compose(tree, lexicon, profile)
    if init is None:
        return Interpretation(composed, None, normalize(composed, max_steps),
                              None, None)
    applied = app(composed, *init.args)
    normal = normalize(applied, max_steps)
    raw = reify(normal)
    return Interpretation(composed, applied, normal, raw, simplify(raw))


def interpret(tree: DiscourseTree, lexicon: Optional[Lexicon] = None,
              profile: Profile = Profile.B,
              init: Optional[InitialArgs] = None,
              max_steps: int = 100_000) -> tuple[Formula, Formula]:
    """The (raw, simplified) formulas of a concrete discourse, run from
    `init`, by default the profile's empty initial arguments."""
    if has_symbolic_leaves(tree):
        raise DiscourseError("cannot interpret a discourse with symbolic leaves")
    result = run_pipeline(tree, lexicon or default_lexicon(), profile,
                          init or default_initial_args(profile), max_steps)
    return result.raw, result.simplified


# ---------------------------------------------------------------------------
# Discourse DSL
#
#   profile A|B|C
#   symbolic
#   sentence <id> = <words with parenthesized determiner NPs>
#   discourse = <expr>        where expr uses `.`, `.c`, `.s`, parentheses
#
# `#` starts a comment.  With the `symbolic` flag, undefined sentence ids
# become symbolic leaves.

@dataclass(frozen=True)
class DiscourseFile:
    profile: Optional[Profile]
    tree: DiscourseTree
    symbolic: bool
    sentences: dict[str, Sentence]


def parse_sentence_words(text: str, lexicon: Lexicon) -> Sentence:
    """Parse a sentence of the fixed grammar, e.g. `john doesnt own (a car)`."""
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

    def category_of(word):
        if not lexicon.knows(word):
            fail(f"unknown word {word!r}")
        return lexicon.category(word)

    def parse_np() -> NP:
        tok = next_tok()
        if tok == "(":
            det = next_tok()
            noun = next_tok()
            if next_tok() != ")":
                fail("expected `)` after determiner phrase")
            if category_of(det) != Category.DETERMINER:
                fail(f"{det!r} is not a determiner")
            if category_of(noun) != Category.COMMON_NOUN:
                fail(f"{noun!r} is not a noun")
            return Det(lexicon.canonical(det), lexicon.canonical(noun))
        cat = category_of(tok)
        if cat == Category.PROPER_NOUN:
            return ProperN(lexicon.canonical(tok))
        if cat == Category.PRONOUN:
            return Pron(lexicon.canonical(tok))
        fail(f"{tok!r} cannot start a noun phrase")

    subject = parse_np()
    negated = False
    tok = next_tok()
    if lexicon.knows(tok) and category_of(tok) == Category.NEGATION_AUX:
        negated = True
        tok = next_tok()
    cat = category_of(tok)
    if cat == Category.COPULA:
        if negated:
            fail("negation must precede a verb")
        adj = next_tok()
        if category_of(adj) != Category.ADJECTIVE:
            fail(f"{adj!r} is not an adjective")
        predicate: Union[Verb, CopulaAdj] = CopulaAdj(lexicon.canonical(adj))
    elif cat in (Category.TRANSITIVE_VERB, Category.INTRANSITIVE_VERB):
        obj = parse_np() if peek() is not None else None
        predicate = Verb(lexicon.canonical(tok), obj)
    else:
        fail(f"{tok!r} is not a verb or copula")
    if peek() is not None:
        fail(f"unexpected trailing {peek()!r}")
    return Sentence(subject, predicate, negated)


def _parse_tree_expr(text: str, sentences: dict[str, Sentence],
                     symbolic: bool) -> DiscourseTree:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif text.startswith(".c", i):
            tokens.append(".c")
            i += 2
        elif text.startswith(".s", i):
            tokens.append(".s")
            i += 2
        elif ch in "().":
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise DiscourseError(f"bad character {ch!r} in discourse expression")
            tokens.append(text[i:j])
            i = j
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def atom() -> DiscourseTree:
        nonlocal pos
        tok = peek()
        if tok == "(":
            pos += 1
            node = expr()
            if peek() != ")":
                raise DiscourseError("missing `)` in discourse expression")
            pos += 1
            return node
        if tok is None or tok in (".", ".c", ".s", ")"):
            raise DiscourseError(f"expected a sentence id, found {tok!r}")
        pos += 1
        if tok in sentences:
            return Leaf(sentences[tok])
        if symbolic:
            return SymLeaf(tok)
        raise DiscourseError(f"undefined sentence id {tok!r}")

    def expr() -> DiscourseTree:
        nonlocal pos
        node = atom()
        while peek() in (".", ".c", ".s"):
            op = tokens[pos]
            pos += 1
            right = atom()
            node = {".": Seq, ".c": CoordN, ".s": SubN}[op](node, right)
        return node

    tree = expr()
    if pos != len(tokens):
        raise DiscourseError(f"unexpected trailing {tokens[pos]!r}")
    return tree


def parse_discourse(text: str, lexicon: Optional[Lexicon] = None) -> DiscourseFile:
    lexicon = lexicon or default_lexicon()
    profile: Optional[Profile] = None
    symbolic = False
    sentences: dict[str, Sentence] = {}
    tree_text: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("profile"):
            name = line[len("profile"):].strip()
            try:
                profile = Profile(name)
            except ValueError:
                raise DiscourseError(f"line {lineno}: unknown profile {name!r}")
        elif line == "symbolic":
            symbolic = True
        elif line.startswith("sentence"):
            rest = line[len("sentence"):].strip()
            if "=" not in rest:
                raise DiscourseError(f"line {lineno}: expected `sentence <id> = <words>`")
            ident, words = rest.split("=", 1)
            ident = ident.strip()
            if not ident.isidentifier():
                raise DiscourseError(f"line {lineno}: bad sentence id {ident!r}")
            sentences[ident] = parse_sentence_words(words.strip(), lexicon)
        elif line.startswith("discourse"):
            rest = line[len("discourse"):].strip()
            if not rest.startswith("="):
                raise DiscourseError(f"line {lineno}: expected `discourse = <expr>`")
            tree_text = rest[1:].strip()
        else:
            raise DiscourseError(f"line {lineno}: unrecognized directive {line!r}")
    if tree_text is None:
        raise DiscourseError("missing `discourse = <expr>` line")
    tree = _parse_tree_expr(tree_text, sentences, symbolic)
    return DiscourseFile(profile, tree, symbolic, sentences)
