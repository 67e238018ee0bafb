"""The explicit-stack `pretty` against the recursive printer it replaced.

`gen.recursive_pretty` is the old one-call-per-node printer; `pretty` must
give the same text byte for byte, and keep rendering where the recursive
printer runs out of Python's recursion limit."""
import random
import sys
from pathlib import Path

import pytest

from contsem.cli import main
from contsem.discourse import (
    Leaf, Seq, compose, default_initial_args, has_symbolic_leaves, parse_discourse,
    parse_sentence_words, run_pipeline,
)
from contsem import cli
from contsem.lexicon import Category, LexEntry, Profile, default_lexicon, load_word_file
from contsem.node import Node
from contsem.reduction import trace
from contsem.syntax import _render, parse_term, parse_type, pretty
from contsem.terms import (
    AND, BUILTINS, NOT, TOP, App, Const, E, G, Lam, T, Var, app, arrow, normalize,
)

from gen import (
    baseline_discourse, constants, equality_pretty, pipeline_cases,
    random_closed_term, random_discourse, random_near_miss_term, random_term,
    random_type, recursive_pretty, subst_consts, subterms,
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


def test_pipeline_terms_match_recursive():
    for tree, profile in pipeline_cases(LEX):
        for term in _composed_and_normal(tree, profile):
            assert pretty(term) == recursive_pretty(term)


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


# ---------------------------------------------------------------------------
# Coord and Sub without `==`

@pytest.mark.parametrize("sample", sorted(
    [p.name for p in SAMPLES.glob("*.dsc")] + [p.name for p in SAMPLES.glob("terms/*.lam")]))
def test_golden_terms_match_the_equality_printer(sample):
    """On every golden's terms (composed and normal, or the term file's term
    and normal form), the check by class, index and name prints what the
    `==` check printed."""
    if sample.endswith(".lam"):
        term = parse_term((SAMPLES / "terms" / sample).read_text().strip(), LEX.signature())
        terms = (term, normalize(term))
    else:
        parsed = parse_discourse((SAMPLES / sample).read_text(), LEX)
        terms = _composed_and_normal(parsed.tree, parsed.profile)
        if has_symbolic_leaves(parsed.tree):
            terms = (terms[0], normalize(terms[0]))
    for term in terms:
        assert pretty(term) == equality_pretty(term)


def test_near_miss_combinators_match_the_equality_printer(monkeypatch):
    """20 000 terms with `Coord`, `Sub` and lambdas one or two parts away from
    them print as the `==` check printed them, and `pretty` compares no
    lambda with `==` on the way."""
    rng = random.Random(SEED + 5)
    terms = [random_near_miss_term(rng) for _ in range(20_000)]
    expected = [equality_pretty(t) for t in terms]
    eq = Node.__eq__
    monkeypatch.setattr(Node, "__eq__", lambda a, b: eq(a, b) if type(a) is not Lam
                        else pytest.fail("a lambda compared with =="))
    shown = [pretty(t) for t in terms]
    monkeypatch.undo()
    assert shown == expected
    joined = "\n".join(shown)
    assert joined.count("Coord") > 1000 and joined.count("Sub") > 200
    assert joined.count("(++) x1 x2") > 100 and joined.count(":g. x1") > 100


# ---------------------------------------------------------------------------
# Fresh names and constants of the same name

def test_constants_named_like_fresh_names_match_recursive():
    """`pretty` learns the constants' names during its pass; a binder name
    that turns out to be one of them must still be skipped."""
    rng = random.Random(SEED + 3)
    rename = {"ce": Const("x1", E), "p1": Const("x2", arrow(E, T)),
              "ct": Const("x3", T)}
    clashes = 0
    for _ in range(1000):
        t = subst_consts(random_closed_term(rng), rename)
        for term in (t, normalize(t)):
            text = pretty(term)
            assert text == recursive_pretty(term)
            assert parse_term(text, constants(term)) == term
            clashes += "x1" in constants(term) and any(type(s) is Lam for s in subterms(term))
    assert clashes > 100
    # x1 and x2 appear only after the binder that would first be named x1.
    late = App(Lam(E, App(Const("x2", arrow(E, T)), Var(0))), Const("x1", E))
    assert pretty(late) == recursive_pretty(late) == "(\\x3:e. x2 x3) x1"


# Constants named like `pretty`'s fresh names; of x1, ..., x12 only x10 is one.
# The last has more digits than int() reads.
_LOOKALIKES = ("x", "x0", "x01", "x10", "xx", "x" + "1" * 5000)


@pytest.mark.parametrize("name", _LOOKALIKES, ids=lambda n: n[:6])
@pytest.mark.parametrize("binders", [1, 12])
def test_constants_named_like_fresh_names_clash_only_when_chosen(name, binders):
    """A constant clashes with x1, x2, ... exactly when it is one of the names
    the first pass chose: x10 under 12 binders, no other here."""
    term = Const(name, E)
    for _ in range(binders):
        term = Lam(E, term)
    text = pretty(term)
    assert text == recursive_pretty(term)
    assert parse_term(text, constants(term)) == term
    assert ("\\x10:" in text) == (binders == 12 and name != "x10")


@pytest.mark.parametrize("leaves", [("x10", "x01"), _LOOKALIKES])
def test_symbolic_leaves_named_like_fresh_names(leaves, tmp_path, capsys):
    """Symbolic leaves reach `pretty`'s clash test from the command line: a
    profile-C discourse of them prints as the recursive printer prints it."""
    text = "profile C\nsymbolic\ndiscourse = " + " .c (".join(leaves) + ")" * (len(leaves) - 1)
    (tmp_path / "leaves.dsc").write_text(text)
    assert main(["run", str(tmp_path / "leaves.dsc")]) == 0
    tree = parse_discourse(text, LEX).tree
    result = run_pipeline(tree, LEX, Profile.C, None)
    assert capsys.readouterr() == (f"composed: {recursive_pretty(result.composed)}\n"
                                   f"expanded: {recursive_pretty(result.normal)}\n", "")


def _fresh(c: Const) -> Const:
    """A constant equal to `c` that shares no object with it."""
    return Const(c.name, parse_type(c.ty.text))


@pytest.mark.parametrize("profile", list(Profile))
def test_builtins_are_recognised_by_structure(profile):
    """A builtin or combinator equal to, but not the same object as, the
    `terms` singleton renders as the singleton does."""
    fresh = {b.name: _fresh(b) for b in BUILTINS.values()}
    rng = random.Random(SEED + 4)
    for n in (1, 2, 3, 5):
        for term in _composed_and_normal(random_discourse(rng, LEX, profile, n), profile):
            copy = subst_consts(term, fresh)
            assert copy == term
            assert not any(s is b for s in subterms(copy) for b in BUILTINS.values())
            assert pretty(copy) == pretty(term)
    coord, sub = parse_term(r"\a:g. \b:g. b"), parse_term(r"\a:g. \b:g. a ++ b")
    assert pretty(subst_consts(sub, fresh)) == "Sub" and pretty(coord) == "Coord"


J = Const("j", E)


@pytest.mark.parametrize("term,text", [
    (app(Const("&", arrow(E, E, T)), J, J), "(&) j j"),
    (app(Const("|", arrow(E, T, T)), J, TOP), "(|) j top"),
    (App(Const("~", arrow(E, T)), J), "(~) j"),
    (app(Const("::", arrow(E, E, E)), J, J), "(::) j j"),
    (app(Const("++", arrow(E, G, G)), J, Const("nil", G)), "(++) j nil"),
    (App(Const("Ex", arrow(E, T)), J), "Ex j"),
    (Lam(E, Lam(E, Var(0))), "\\x1:e. \\x2:e. x2"),                # Coord's shape
    (Lam(G, Lam(G, Var(1))), "\\x1:g. \\x2:g. x1"),
    (Lam(G, Lam(G, app(Const("++", arrow(G, G, T)), Var(1), Var(0)))),
     "\\x1:g. \\x2:g. (++) x1 x2"),                             # Sub's, not its type
])
def test_a_builtin_name_at_another_type_renders_in_prefix_form(term, text):
    assert pretty(term) == recursive_pretty(term) == text


# ---------------------------------------------------------------------------
# Lexicon entries and the terms built from them

def test_entries_print_as_the_recursive_printer_does():
    """Lexicon entries print as the recursive printer prints them: in the
    pipeline cases' composed terms, in random A and B discourses, alone, and
    in parenthesized positions."""
    rng = random.Random(SEED + 6)
    terms = [compose(tree, LEX, profile) for tree, profile in pipeline_cases(LEX)]
    terms += [compose(random_discourse(rng, LEX, profile, n), LEX, profile)
              for profile in (Profile.A, Profile.B) for n in range(1, 9) for _ in range(3)]
    entries = [e.term for e in LEX.entries()]
    f = Const("f", E)
    terms += entries + [App(t, f) for t in entries] + [App(f, t) for t in entries]
    terms += [app(AND, App(t, f), Lam(E, App(t, Var(0)))) for t in entries]
    for term in terms:
        assert pretty(term) == recursive_pretty(term)


def test_entries_print_in_the_second_pass():
    """Words whose constants are named like binders, x1 and x3, make `pretty`
    print again skipping those names, inside the entries too."""
    lex = load_word_file(["noun x1", "pnoun x3"])
    for profile in (Profile.A, Profile.B):
        tree = Seq(Leaf(parse_sentence_words("x3 owns (a x1)", lex)),
                   Leaf(parse_sentence_words("john owns it", lex)))
        composed = compose(tree, lex, profile)
        text = pretty(composed)
        assert text == recursive_pretty(composed)
        assert "\\x1:" not in text and "\\x3:" not in text and "\\x2:" in text


@pytest.mark.parametrize("sample", sorted(p.name for p in SAMPLES.glob("*.dsc")))
def test_trace_terms_match_recursive(sample):
    """Every term `--trace` prints for a sample, the first holding the entries."""
    parsed = parse_discourse((SAMPLES / sample).read_text(), LEX)
    symbolic = has_symbolic_leaves(parsed.tree)
    result = run_pipeline(parsed.tree, LEX, parsed.profile,
                          None if symbolic else default_initial_args(parsed.profile))
    for step in trace(result.composed if symbolic else result.applied):
        assert pretty(step.term) == recursive_pretty(step.term)


# ---------------------------------------------------------------------------
# Entry templates: `pretty` with a lexicon's table prints what it prints without

def _marked(table: dict) -> dict:
    """The table with each template replaced by `@`: shows where it is read."""
    return {key: ("@", shown, n, term) for key, (_, shown, n, term) in table.items()}


def _check_templates(term, lex, profile) -> int:
    """Assert that `term` prints the same with and without the profile's
    templates, and, unless a constant sends `pretty` to its second pass, that
    each entry it holds prints from its template; return how many it holds."""
    table = lex.entry_templates(profile)
    assert pretty(term, table) == pretty(term)
    held = sum(id(s) in table for s in subterms(term))
    if not any(name.startswith("x") for name in constants(term)):
        assert pretty(term, _marked(table)).count("@") == held
    return held


def test_each_template_is_its_entry_printed():
    """A template filled with 1, 2, ... is the entry's text; its binder count and
    constants are the entry's."""
    for profile in Profile:
        table = LEX.entry_templates(profile)
        assert len(table) == len(LEX.entries(profile)) == {"C": 0, "A": 10, "B": 8}[profile.value]
        for template, shown, n, term in table.values():
            assert table[id(term)][3] is term
            assert template.format(*range(1, n + 1)) == pretty(term) == recursive_pretty(term)
            assert n == sum(type(s) is Lam for s in subterms(term))
            assert shown == _render(term, ())[1]
    assert LEX.entry_templates(Profile.B) is LEX.entry_templates(Profile.B)


def test_templates_print_the_pipeline_cases_and_random_discourses():
    """Composed terms of every pipeline case and of 1000 random discourses
    print the same from their profile's templates; C has none to read."""
    rng = random.Random(SEED + 7)
    cases = list(pipeline_cases(LEX))
    cases += [(random_discourse(rng, LEX, profile, rng.randint(1, 6)), profile)
              for profile in rng.choices(list(Profile), k=1000)]
    read = {profile: 0 for profile in Profile}
    for tree, profile in cases:
        read[profile] += _check_templates(compose(tree, LEX, profile), LEX, profile)
    assert read[Profile.C] == 0 and read[Profile.A] > 1000 and read[Profile.B] > 1000


@pytest.mark.parametrize("profile,lengths", [
    (Profile.A, (64, 128, 256)), (Profile.B, range(8, 15))])
def test_templates_print_flat_discourses(profile, lengths):
    for n in lengths:
        composed = compose(baseline_discourse(LEX, profile, n), LEX, profile)
        assert _check_templates(composed, LEX, profile) >= 2 * n


def test_templates_of_extended_lexicons():
    """A word file's entries, the rejected negation and a constant named x3, which
    sends `pretty` to its second pass, which reads no templates."""
    lex = load_word_file(["noun cat", "tverb sees", "pnoun x3"])
    rejected = LEX.with_rejected_negation()
    for lexicon, profile, words in (
            (lex, Profile.A, ("x3 sees (a cat)", "it is red", "john doesnt own (a cat)")),
            (lex, Profile.B, ("x3 owns (a cat)", "it is red", "john doesnt own (a cat)")),
            (rejected, Profile.A, ("john doesnt own (a car)", "it is red"))):
        leaves = [Leaf(parse_sentence_words(w, lexicon)) for w in words]
        tree = leaves[0]
        for leaf in leaves[1:]:
            tree = Seq(tree, leaf)
        composed = compose(tree, lexicon, profile)
        assert _check_templates(composed, lexicon, profile) >= len(words) * 2
        text = pretty(composed, lexicon.entry_templates(profile))
        assert text == recursive_pretty(composed)
        if lexicon is lex:
            assert "\\x3:" not in text and "\\x2:" in text
    # An entry whose own third binder would be x3 prints without it too.
    noun = load_word_file(["noun x3"])
    for profile in (Profile.A, Profile.B):
        term = noun.entry("x3", profile)
        for t in (term, App(Const("f", E), term)):
            text = pretty(t, noun.entry_templates(profile))
            assert text == recursive_pretty(t) and "\\x4:" in text and "\\x3:" not in text
    negation = rejected.entry("doesnt", Profile.A)
    assert id(negation) in rejected.entry_templates(Profile.A)
    assert id(negation) not in LEX.entry_templates(Profile.A)


@pytest.mark.parametrize("word", ["a{b}", "}{", "x{0}", "{{1}}"])
def test_a_constant_with_braces_prints_from_its_template(word):
    """A template doubles the braces of a constant's printed form, so they
    print as written, not as format fields."""
    noun = LEX.entry("car", Profile.A)
    term = subst_consts(noun, {"car": Const(word, arrow(E, T))})
    lex = LEX.extended([LexEntry(word, Category.COMMON_NOUN, Profile.A, term)])
    table = lex.entry_templates(Profile.A)
    assert "{{" in table[id(term)][0]
    f = Const("f", E)
    det = LEX.entry("a", Profile.A)
    for t in (term, App(term, f), App(f, term), app(det, term, noun), app(det, noun, term)):
        assert _check_templates(t, lex, Profile.A) >= 1
        assert pretty(t, table) == recursive_pretty(t)
        assert f"({word})" in pretty(t, table)


def test_the_command_line_prints_the_composed_term_from_templates(monkeypatch, capsys):
    """`composed:` reads the run profile's table, `normal:` none."""
    tables = []

    def spy(term, templates=None):
        tables.append(templates)
        return pretty(term, templates)

    monkeypatch.setattr(cli, "pretty", spy)
    for sample, profile in (("loves_woman", Profile.A), ("doesnt_own_car", Profile.B),
                            ("rfc_concrete_coord", Profile.C), ("rfc_sub_coord", Profile.C)):
        tables.clear()
        assert main(["run", str(SAMPLES / f"{sample}.dsc")]) == 0
        assert capsys.readouterr().out == (SAMPLES / "golden" / f"{sample}.out").read_text()
        assert tables[0] is LEX.entry_templates(profile) and tables[1:] == [None]
    assert LEX.entry_templates(Profile.C) == {}
