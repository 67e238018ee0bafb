"""The operator-precedence `parse_term`/`parse_type` against the recursive-
descent parser they replaced.

`gen.recursive_parse_term`/`recursive_parse_type` are the old parser.  On
every input the loop must give an equal term or type, or raise the same
exception class with the same message, position, line and column; and it
must keep parsing where the recursive parser runs out of Python's
recursion limit."""
import random
import re
import sys

import pytest

from contsem.discourse import PHI_A, PHI_B, PHI_C
from contsem.errors import ContsemError
from contsem.lexicon import (
    _FIXED, _REJECTED_NEGATION_A, _TEMPLATES, CATEGORY_TYPES, TYPE_NAMES, Category, Profile,
    content_type,
)
from contsem.syntax import parse_term, parse_type, pretty
from contsem.terms import (
    AND, BUILTINS, CONS, COORD, NOT, OR, SUB, TOP, UNION,
    App, Const, E, G, Lam, T, Var, arrow,
)

from gen import (
    CONNECTIVE, RIGHT_ARGS, SEQ_A, random_type, recursive_parse_term, recursive_parse_type,
    term_preorder,
)

SEED = 20261018
SIG = {"p": T, "q": arrow(E, T), "j": E, "x1": E}

# Every operator, the reserved words, the type names, bound-looking and
# declared names, an unknown one and a newline; rarer, characters that start
# no token.
_VOCAB = ["&", "|", "~", "::", "++", "\\", ".", ":", ">", "(", ")", "(", ")",
          "x", "y", "e", "t", "g", "p", "q", "j", "nil", "top", "bot", "sel",
          "Ex", "Coord", "Sub", "mystery", "\n"]
_ILLEGAL = ["$", "+", "'"]


def _outcome(parse, *args):
    """The result, or the exception's class, message and position."""
    try:
        return parse(*args)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "position", None),
                getattr(exc, "line", None), getattr(exc, "column", None))


def _differences(texts):
    return [text for text in texts
            if _outcome(parse_term, text, SIG) != _outcome(recursive_parse_term, text, SIG)]


def _random_tokens(rng):
    """A random token string; joined without a space, neighbours can merge
    (`:` `:` into `::`, two names into one)."""
    n = rng.randint(0, 12)
    return "".join(rng.choice(_ILLEGAL if rng.random() < 0.02 else _VOCAB)
                   + rng.choice(("", " ", " ")) for _ in range(n))


_LEAVES = [*BUILTINS.values(), COORD, SUB, *(Const(n, ty) for n, ty in SIG.items())]


def _random_term(rng, bound=0, fuel=24):
    """A closed term, well typed or not: binders, infix operators with two
    arguments, `~` with one, sections, combinators and constants."""
    roll = rng.random()
    if fuel <= 1 or roll < 0.2:
        return Var(rng.randrange(bound)) if bound and rng.random() < 0.5 else rng.choice(_LEAVES)
    half = fuel // 2
    if roll < 0.35:
        return Lam(random_type(rng), _random_term(rng, bound + 1, fuel - 1))
    if roll < 0.7:
        op = rng.choice((AND, OR, CONS, UNION))
        return App(App(op, _random_term(rng, bound, half)), _random_term(rng, bound, half))
    if roll < 0.8:
        return App(NOT, _random_term(rng, bound, fuel - 1))
    return App(_random_term(rng, bound, half), _random_term(rng, bound, half))


def _mutate(rng, text):
    """`text` with one token replaced, deleted or inserted."""
    toks = re.findall(r"::|\+\+|[A-Za-z_][A-Za-z0-9_']*|\S", text)
    i = rng.randrange(len(toks) + 1)
    roll = rng.random()
    if roll < 0.4 and i < len(toks):
        toks[i] = rng.choice(_VOCAB + _ILLEGAL)
    elif roll < 0.7 and i < len(toks):
        del toks[i]
    else:
        toks.insert(i, rng.choice(_VOCAB + _ILLEGAL))
    return " ".join(toks)


def test_random_token_strings_parse_alike():
    rng = random.Random(SEED)
    assert _differences(_random_tokens(rng) for _ in range(100_000)) == []


def test_printed_terms_and_their_mutations_parse_alike():
    rng = random.Random(SEED + 1)
    terms = [_random_term(rng) for _ in range(3000)]
    texts = [pretty(t) for t in terms]
    assert [parse_term(text, SIG) for text in texts] == terms
    for op in ("&", "|", "~", "::", "++", "(&)", "(~)", "Coord", "Sub", "\\"):
        assert any(op in text for text in texts), op
    assert _differences(texts) == []
    mutants = [_mutate(rng, text) for text in texts for _ in range(5)]
    assert _differences(mutants) == []


def _sources():
    """Every term source the library parses, lexicon entries and templates,
    and the named forms of the terms it builds directly, the composition
    templates and the empty continuations (each equal to its source's
    parse), with their constants and the type names they read."""
    for profile, words in _FIXED.items():
        for source in words.values():
            yield source, {}, TYPE_NAMES[profile]
    yield _REJECTED_NEGATION_A, {}, TYPE_NAMES[Profile.A]
    for profile, templates in _TEMPLATES.items():
        for category, template in templates.items():
            yield template.format(p="w"), {"w": content_type(category)}, TYPE_NAMES[profile]
    for profile in (Profile.B, Profile.C):
        holes = {"LHS_": profile.sentence_type, "RHS_": profile.sentence_type}
        for right in RIGHT_ARGS.values():
            yield CONNECTIVE.format(RIGHT=right), holes, TYPE_NAMES[profile]
    yield (SEQ_A, {"LHS_": Profile.A.sentence_type, "RHS_": Profile.A.sentence_type},
           TYPE_NAMES[Profile.A])
    for source, phi, profile in ((r"\e:g. top", PHI_A, Profile.A),
                                 (r"\c:k. \e1:g. \e2:g. ~(c top bot)", PHI_B, Profile.B),
                                 (r"\c:k. \e1:g. \e2:g. top", PHI_C, Profile.C)):
        assert parse_term(source, {}, TYPE_NAMES[profile]) == phi
        yield source, {}, TYPE_NAMES[profile]


def _written_out(source, types):
    """The source with each binder's type name written out as its type's text."""
    return re.sub(r":(\w+)\.", lambda m: f":({types[m[1]].text})." if m[1] in types else m[0],
                  source)


def test_library_sources_parse_alike():
    """Each source with its type names written out parses as the recursive
    parser reads it, and so does the source itself with its type names."""
    sources = list(_sources())
    assert len(sources) >= 25
    for source, sig, types in sources:
        written = _written_out(source, types)
        want = recursive_parse_term(written, sig)
        assert parse_term(written, sig) == want, written
        assert parse_term(source, sig, types) == want, source


def test_type_names_read_as_the_named_objects():
    names = TYPE_NAMES[Profile.B]
    term = parse_term(r"\P:noun. \c:k. \f:(noun)>k. \x:e. f P", {}, names)
    noun = CATEGORY_TYPES[Profile.B][Category.COMMON_NOUN]
    assert term.ty is noun and term.body.ty is Profile.B.connective_type
    assert term.body.body.ty.dom is noun and term.body.body.ty.cod is names["k"]
    assert term.body.body.body.ty is E
    with pytest.raises(ContsemError, match="expected a type, found 'noun'"):
        parse_term(r"\P:noun. P")


@pytest.mark.parametrize("name", ["e", "t", "g"])
def test_a_type_name_is_not_a_base_type(name):
    with pytest.raises(ContsemError, match="may not be e, t or g"):
        parse_term(r"\x:e. x", {}, {name: T})


def test_type_strings_parse_alike():
    rng = random.Random(SEED + 2)
    vocab = ["e", "t", "g", ">", "(", ")", "x", "&", "$", " "]
    texts = ["".join(rng.choice(vocab) for _ in range(rng.randint(0, 10)))
             for _ in range(20_000)]
    texts += [random_type(rng, 4).text for _ in range(2000)]
    assert [t for t in texts if _outcome(parse_type, t) != _outcome(recursive_parse_type, t)] == []


def test_types_are_the_base_singletons():
    ty = parse_type("(e>t)>g")
    assert ty.dom.dom is E and ty.dom.cod is T and ty.cod is G


# ---------------------------------------------------------------------------
# Depth: no recursion, checked against hand-built results

def _same(a, b) -> bool:
    return term_preorder(a) == term_preorder(b)


def test_deep_negation_chain_parses():
    assert sys.getrecursionlimit() <= 1000
    want = TOP
    for _ in range(10_000):
        want = App(NOT, want)
    assert _same(parse_term("~ " * 10_000 + "top"), want)


def test_deep_parentheses_parse():
    assert sys.getrecursionlimit() <= 1000
    assert parse_term("(" * 5000 + "top" + ")" * 5000) == TOP
    text = "(" * 5000 + "p & p" + ")" * 5000 + " | p"
    assert parse_term(text, SIG) == App(App(OR, App(App(AND, Const("p", T)), Const("p", T))),
                                        Const("p", T))


def test_deep_lambda_nest_parses():
    assert sys.getrecursionlimit() <= 1000
    n = 5000
    want = App(Var(n - 1), Var(0))   # the outermost binder applied to the innermost
    for _ in range(n):
        want = Lam(E, want)
    text = "".join(f"\\x{i}:e. " for i in range(1, n + 1)) + f"x1 x{n}"
    assert _same(parse_term(text), want)


def test_deep_type_parses():
    assert sys.getrecursionlimit() <= 1000
    n = 5000
    assert parse_type("e>" * n + "t").text == arrow(*[E] * n, T).text
    assert parse_type("(" * n + "g" + ")" * n) is G
