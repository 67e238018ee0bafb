"""Sentence assembly, discourse composition, and the discourse DSL.

A tiny fixed grammar covers the supported sentence shapes (subject NP,
optional negation, transitive/intransitive verb or copula+adjective, with
proper-noun / indefinite / pronoun NPs).  Discourses are binary trees over
sentences: `.` sequences sentences in profiles A and B, while profile C uses
`.c` (coordination) and `.s` (subordination), whose interpretations thread
referent environments so later units only see what the right frontier
licenses.  One walk checks and builds each sentence (`build_sentence`), and
each connective is built directly (`_connective`); the tests hold them to what
they replaced, `gen.staged_build_sentence` and `gen.substitution_compose`.
"""
from __future__ import annotations

import re
from functools import lru_cache

from .errors import ContsemError
from .node import Node
from . import terms as tm
from .logic import Formula, reify, simplify
from .lexicon import CATEGORY_TYPES, Category, Lexicon, Profile, content_type
from .lexicon import default_lexicon
from .terms import App, Const, Lam, Term, Var, app, normalize, typecheck


# ---------------------------------------------------------------------------
# Sentence ASTs

class ProperN(Node):
    __slots__ = {"word": "str"}


class Det(Node):
    __slots__ = {"word": "str", "noun": "str"}


class Pron(Node):
    __slots__ = {"word": "str"}


NP = ProperN | Det | Pron


class Verb(Node):
    __slots__ = {"word": "str", "obj": "NP | None"}
    _defaults = {"obj": None}


class CopulaAdj(Node):
    __slots__ = {"word": "str"}


class Sentence(Node):
    __slots__ = {"subject": "NP", "predicate": "Verb | CopulaAdj",
                 "negated": "bool"}
    _defaults = {"negated": False}


class Leaf(Node):
    __slots__ = {"sentence": "Sentence"}


class SymLeaf(Node):
    __slots__ = {"name": "str"}


class Seq(Node):
    __slots__ = {"left": "DiscourseTree", "right": "DiscourseTree"}


class CoordN(Node):
    __slots__ = {"left": "DiscourseTree", "right": "DiscourseTree"}


class SubN(Node):
    __slots__ = {"left": "DiscourseTree", "right": "DiscourseTree"}


DiscourseTree = Leaf | SymLeaf | Seq | CoordN | SubN


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

def build_sentence(ast: Sentence, lexicon: Lexicon, profile: Profile) -> Term:
    """Closed term of the profile's sentence type for one sentence.

    One walk in reading order (the copula `is` and the negation `doesnt`
    included) checks each word's category against the registry.  In the
    profiles with entries (A, B) it takes each word's entry first, so a
    missing one is reported where the walk reaches it, and then applies the
    entries; profile C records the referents instead and assembles its leaf.
    """
    stored = profile != Profile.C
    nps: list = []      # each NP's term (A, B); in C its referent: a name's
                        # constant, a determiner phrase's slot, None for a pronoun
    nouns: list = []    # C: each slot's noun constant

    def word(w: str, wanted: Category) -> Term | None:
        entry = lexicon.entry(w, profile) if stored else None
        found = lexicon.category(w)
        if found != wanted:
            raise ArityMismatch(f"{w!r} has category {found.value}, not {wanted.value}")
        return entry

    def np(x: NP) -> None:
        if isinstance(x, ProperN):
            nps.append(word(x.word, Category.PROPER_NOUN)
                       or Const(lexicon.symbol(x.word), tm.E))
        elif isinstance(x, Pron):
            nps.append(word(x.word, Category.PRONOUN))
        else:
            det, noun = word(x.word, Category.DETERMINER), word(x.noun, Category.COMMON_NOUN)
            if stored:
                nps.append(app(det, noun))
            else:
                nps.append(len(nouns))
                nouns.append(Const(lexicon.symbol(x.noun), content_type(Category.COMMON_NOUN)))

    np(ast.subject)
    predicate = ast.predicate
    if ast.negated:
        if isinstance(predicate, CopulaAdj):
            raise ArityMismatch("the copula cannot be negated")
        if not stored:
            raise ProfileMismatch("negation", profile)
    if isinstance(predicate, CopulaAdj):
        copula, category = word("is", Category.COPULA), Category.ADJECTIVE
        head = word(predicate.word, category)
        if stored:
            return app(copula, head, nps[0])
    else:
        category = lexicon.category(predicate.word)
        transitive = category == Category.TRANSITIVE_VERB
        if not transitive and category != Category.INTRANSITIVE_VERB:
            raise ArityMismatch(f"{predicate.word!r} is not a verb")
        if transitive == (predicate.obj is None):
            raise ArityMismatch(
                f"transitive verb {predicate.word!r} needs an object" if transitive
                else f"intransitive verb {predicate.word!r} takes no object")
        head = lexicon.entry(predicate.word, profile) if stored else None
        if transitive:
            np(predicate.obj)
        if stored:
            vp = app(head, *nps[1:])
            if not ast.negated:
                return app(vp, nps[0])
            # (doesn't VP) S: the negation takes the verb phrase, then the subject.
            vp = Lam(CATEGORY_TYPES[profile][Category.PROPER_NOUN], App(vp, Var(0)))
            return app(word("doesnt", Category.NEGATION_AUX), vp, nps[0])

    # Profile C: a leaf introducing referents r1..rk with proposition P is
    #     \c e1 e2 phi. Ex r1..rk. P & phi c (rk::...::r1::nil) e2:
    # the continuation's first environment holds exactly this unit's own
    # referents, and pronouns select from the inherited frontier plus the
    # previous unit's referents, newest first: sel(e2 ++ e1).  Slot s is Var(k-1-s).
    k = len(nouns)
    entities = [App(tm.SEL, app(tm.UNION, Var(k + 1), Var(k + 2))) if ref is None
                else Var(k - 1 - ref) if type(ref) is int else ref for ref in nps]
    prop = app(Const(lexicon.symbol(predicate.word), content_type(category)), *entities)
    for i, noun in enumerate(reversed(nouns)):
        prop = app(tm.AND, App(noun, Var(i)), prop)
    own_env: Term = tm.NIL
    for ref, entity in zip(nps, entities):
        if ref is not None:
            own_env = app(tm.CONS, entity, own_env)
    body = app(tm.AND, prop, app(Var(k), Var(k + 3), own_env, Var(k + 1)))
    for _ in range(k):
        body = App(tm.EXISTS, Lam(tm.E, body))
    return Lam(tm.KAPPA_C, Lam(tm.G, Lam(tm.G, Lam(tm.CONT_C, body))))


# ---------------------------------------------------------------------------
# Composition

# Discourse node -> (its name in diagnostics, the profiles that have it).
_NODES = {
    Seq: ("plain sequencing (.)", (Profile.A, Profile.B)),
    CoordN: ("coordination (.c)", (Profile.C,)),
    SubN: ("subordination (.s)", (Profile.C,)),
}

_V = tuple(Var(i) for i in range(7))            # a connective's variables, shared by all
_OUTER = App(App(_V[6], _V[5]), _V[4])          # `c e1 e2` under the right unit's binders


def _connective(kind: type, profile: Profile, left: Term, right: Term) -> Term:
    r"""A `kind` node's term over its subtrees' closed terms: in profile A
    `\e:g. \phi:phi. left e (\e':g. right e' phi)`, in B and C
    `\c:k. \e1:g. \e2:g. \phi:phi. left c e1 e2 (\c':k. \e1':g. \e2':g. right R phi)`,
    R being `c' e1' e2'` for `.`, `Coord e1' (c e1 e2)` for `.c`, `Sub e1' (c e1 e2)` for `.s`."""
    v, k, phi = _V, profile.connective_type, profile.continuation_type
    if k is None:
        return Lam(tm.G, Lam(phi, App(App(left, v[1]), Lam(tm.G, App(App(right, v[0]), v[1])))))
    if kind is Seq:
        right = app(right, v[2], v[1], v[0])
    else:
        right = app(right, tm.COORD if kind is CoordN else tm.SUB, v[1], _OUTER)
    return Lam(k, Lam(tm.G, Lam(tm.G, Lam(phi, App(
        app(left, v[3], v[2], v[1]), Lam(k, Lam(tm.G, Lam(tm.G, App(right, v[3])))))))))


def compose(tree: DiscourseTree, lexicon: Lexicon, profile: Profile) -> Term:
    """Structural interpretation of a discourse tree (not normalized).  Leaves
    are built and connectives checked in preorder, so the first error is the
    leftmost one; then each connective is built over its two subtrees' terms."""
    stack, preorder = [tree], []    # leaf terms, and each connective node's class
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
    done: list[Term] = []           # composed subtrees, the leftmost on top
    for item in reversed(preorder):
        if type(item) is type:
            item = _connective(item, profile, done.pop(), done.pop())
        done.append(item)
    return done[0]


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


def expand_symbolic(tree: DiscourseTree, lexicon: Lexicon | None = None,
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

class InitialArgs(Node):
    __slots__ = {"profile": "Profile", "args": "tuple[Term, ...]"}

    def __init__(self, profile: Profile, args: tuple[Term, ...]):
        expected = []                 # the sentence type's domains, down to t
        ty = profile.sentence_type
        while isinstance(ty, tm.Arrow):
            expected.append(ty.dom)
            ty = ty.cod
        if len(args) != len(expected):
            raise DiscourseError(
                f"profile {profile.value} takes {len(expected)} initial "
                f"arguments, got {len(args)}")
        for i, (arg, ty) in enumerate(zip(args, expected)):
            found = typecheck(arg)
            if found.text != ty.text:
                raise DiscourseError(
                    f"initial argument {i} must have type {ty.text}, "
                    f"found {found.text}")
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "args", args)


# Empty continuations: profile A always returns truth; profile B returns
# truth under conjunction and falsity under disjunction, which makes it
# vanish after simplification on either branch of a negation.
PHI_A = Lam(tm.G, tm.TOP)
PHI_B = Lam(tm.KAPPA_B, Lam(tm.G, Lam(tm.G, App(tm.NOT, app(Var(2), tm.TOP, tm.BOT)))))
PHI_C = Lam(tm.KAPPA_C, Lam(tm.G, Lam(tm.G, tm.TOP)))


# A discourse-initial segment in profile C has no prior right frontier:
# coordination with empty environments makes the inherited frontier empty.
_INITIAL_ARGS = {
    Profile.A: (tm.NIL, PHI_A),
    Profile.B: (tm.AND, tm.NIL, tm.NIL, PHI_B),
    Profile.C: (tm.COORD, tm.NIL, tm.NIL, PHI_C),
}


@lru_cache(maxsize=None)
def default_initial_args(profile: Profile) -> InitialArgs:
    """The profile's empty initial arguments, checked once per process."""
    return InitialArgs(profile, _INITIAL_ARGS[profile])


# ---------------------------------------------------------------------------
# Full pipeline

class Interpretation(Node):
    """Every artifact of one pipeline run; in symbolic expansion only
    `composed` and its normal form `normal` are set.  `raw` shares what the
    normal form shares."""
    __slots__ = {"composed": "Term", "applied": "Term | None", "normal": "Term",
                 "raw": "Formula | None", "simplified": "Formula | None"}


def run_pipeline(tree: DiscourseTree, lexicon: Lexicon, profile: Profile,
                 init: InitialArgs | None,
                 max_steps: int = tm.MAX_STEPS) -> Interpretation:
    """Compose, apply `init`, normalize, reify and simplify; with init=None,
    compose and normalize only (symbolic expansion).  The applied term has
    type t by construction: Lexicon typechecks its entries, build_sentence
    checks word categories and InitialArgs checks the initial arguments.  The
    cyclic collector is paused: reference counting frees all that the run allocates."""
    if init is not None and init.profile != profile:
        raise DiscourseError("initial arguments built for a different profile")
    with tm.paused_collector():
        composed = compose(tree, lexicon, profile)
        if init is None:
            return Interpretation(composed, None, normalize(composed, max_steps),
                                  None, None)
        applied = app(composed, *init.args)
        normal = normalize(applied, max_steps)
        raw = reify(normal)
        return Interpretation(composed, applied, normal, raw, simplify(raw))


def interpret(tree: DiscourseTree, lexicon: Lexicon | None = None,
              profile: Profile = Profile.B,
              init: InitialArgs | None = None,
              max_steps: int = tm.MAX_STEPS) -> tuple[Formula, Formula]:
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

class DiscourseFile(Node):
    __slots__ = {"profile": "Profile | None", "tree": "DiscourseTree",
                 "symbolic": "bool", "sentences": "dict[str, Sentence]"}
    __deepcopy__ = None     # a dict is not immutable: copy it through __reduce__


def parse_sentence_words(text: str, lexicon: Lexicon) -> Sentence:
    """Parse a sentence of the fixed grammar, e.g. `john doesnt own (a car)`."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()[::-1]  # next one last

    def fail(msg):
        raise DiscourseError(f"cannot parse sentence {text!r}: {msg}")

    def next_tok():
        return tokens.pop() if tokens else fail("unexpected end of sentence")

    def lookup(tok, wanted=None, what=""):
        """The token's word as the registry spells it and its category,
        which must be `wanted` (`what`) if that is given."""
        word, category = lexicon._read(tok)
        if category is None:
            fail(f"unknown word {tok!r}")
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
    tok = next_tok()
    word, cat = lookup(tok)
    negated = cat == Category.NEGATION_AUX
    if negated:
        tok = next_tok()
        word, cat = lookup(tok)
    if cat == Category.COPULA:
        if negated:
            fail("negation must precede a verb")
        adj = lookup(next_tok(), Category.ADJECTIVE, "an adjective")[0]
        predicate: Verb | CopulaAdj = CopulaAdj(adj)
    elif cat in (Category.TRANSITIVE_VERB, Category.INTRANSITIVE_VERB):
        obj = parse_np() if tokens else None
        predicate = Verb(word, obj)
    else:
        fail(f"{tok!r} is not a verb or copula")
    if tokens:
        fail(f"unexpected trailing {tokens[-1]!r}")
    return Sentence(subject, predicate, negated)


_EXPR_TOKEN = re.compile(r"\.[cs]|[().]|\w+|\S")
_CONNECTIVES = {".": Seq, ".c": CoordN, ".s": SubN}


def _parse_tree_expr(text: str, sentences: dict[str, Sentence],
                     symbolic: bool) -> DiscourseTree:
    """Read a discourse expression.  The connectives are left-associative
    and bind equally tightly, so one loop reads it: `enclosing` holds the
    (tree so far, pending connective) of each open `(`."""
    tokens = _EXPR_TOKEN.findall(text)
    for tok in tokens:
        if not (tok[0].isalnum() or tok[0] in "_()."):
            raise DiscourseError(f"bad character {tok!r} in discourse expression")
    enclosing, tree, op = [], None, None
    for tok in tokens + [None]:
        if tree is None or op is not None:              # an operand is due
            if tok == "(":
                enclosing.append((tree, op))
                tree, op = None, None
                continue
            if tok in (None, ")") or tok in _CONNECTIVES:
                found = "end of expression" if tok is None else repr(tok)
                raise DiscourseError(f"expected a sentence id, found {found}")
            if tok not in sentences and not symbolic:
                raise DiscourseError(f"undefined sentence id {tok!r}")
            operand = Leaf(sentences[tok]) if tok in sentences else SymLeaf(tok)
        elif tok in _CONNECTIVES:
            op = _CONNECTIVES[tok]
            continue
        elif tok == ")" and enclosing:
            operand = tree
            tree, op = enclosing.pop()
        elif enclosing:
            raise DiscourseError("missing `)` in discourse expression")
        elif tok is None:
            return tree
        else:
            raise DiscourseError(f"unexpected trailing {tok!r}")
        tree = operand if tree is None else op(tree, operand)
        op = None


def parse_discourse(text: str, lexicon: Lexicon | None = None) -> DiscourseFile:
    """Read a discourse file; a repeated profile, discourse or sentence id is an error."""
    lexicon = lexicon or default_lexicon()
    profile: Profile | None = None
    symbolic = False
    sentences: dict[str, Sentence] = {}
    tree_text: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, rest = re.match(r"(\w*)\s*(.*)", line).groups()
        if keyword == "profile":
            if profile is not None:
                raise DiscourseError(f"line {lineno}: duplicate profile line")
            try:
                profile = Profile(rest)
            except ValueError:
                raise DiscourseError(f"line {lineno}: unknown profile {rest!r}")
        elif keyword == "symbolic" and not rest:
            symbolic = True
        elif keyword == "sentence":
            if "=" not in rest:
                raise DiscourseError(f"line {lineno}: expected `sentence <id> = <words>`")
            ident, words = rest.split("=", 1)
            ident = ident.strip()
            if not ident.isidentifier():
                raise DiscourseError(f"line {lineno}: bad sentence id {ident!r}")
            if ident in sentences:
                raise DiscourseError(f"line {lineno}: duplicate sentence id {ident!r}")
            sentences[ident] = parse_sentence_words(words.strip(), lexicon)
        elif keyword == "discourse":
            if not rest.startswith("="):
                raise DiscourseError(f"line {lineno}: expected `discourse = <expr>`")
            if tree_text is not None:
                raise DiscourseError(f"line {lineno}: duplicate discourse line")
            tree_text = rest[1:].strip()
        else:
            raise DiscourseError(f"line {lineno}: unrecognized directive {line!r}")
    if tree_text is None:
        raise DiscourseError("missing `discourse = <expr>` line")
    tree = _parse_tree_expr(tree_text, sentences, symbolic)
    return DiscourseFile(profile, tree, symbolic, sentences)
