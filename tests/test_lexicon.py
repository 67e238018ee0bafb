import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from contsem import lexicon
from contsem.discourse import CopulaAdj, Det, Leaf, ProperN, Sentence, Verb, interpret
from contsem.errors import ContsemError
from contsem.lexicon import (
    CATEGORY_TYPES, Category, LexEntry, Lexicon, Profile, UnknownWord,
    UnsupportedCategory, content_type, default_lexicon, load_word_file, make_entry,
    negation_variant,
)
from contsem.logic import formula_text
from contsem.syntax import parse_term, pretty
from contsem.terms import (
    App, Const, E, Lam, T, TypeMismatch, Var, arrow, typecheck,
)

from gen import is_closed, subst_consts

LEX = default_lexicon()

KB = "t>t>t"
PHIB = f"({KB})>g>g>t"
SB = f"({KB})>g>g>({PHIB})>t"


def test_car_entry_exact_form():
    expected = parse_term(
        rf"\x:e. \c:{KB}. \e1:g. \e2:g. \phi:{PHIB}. c (car x) (phi c e1 e2)",
        LEX.signature())
    assert LEX.entry("car", Profile.B) == expected


def test_john_entry_has_np_type():
    sent = Profile.B.sentence_type
    assert typecheck(LEX.entry("john", Profile.B)) == arrow(arrow(E, sent), sent)


def test_pronoun_entry_profile_a():
    expected = parse_term(r"\P:e>g>(g>t)>t. \e:g. \phi:g>t. P (sel e) e phi")
    assert LEX.entry("it", Profile.A) == expected


def test_every_shipped_entry_is_closed_and_typechecks():
    for entry in LEX.entries():
        assert is_closed(entry.term), entry.word
        expected = CATEGORY_TYPES[entry.profile][entry.category]
        assert typecheck(entry.term) == expected, (entry.word, entry.profile)


def test_profile_b_ships_exactly_the_eight_core_entries():
    words = {e.word for e in LEX.entries(Profile.B)}
    assert words == {"john", "own", "car", "a", "it", "is", "red", "doesnt"}


def test_inflection_aliases():
    assert LEX.entry("owns", Profile.B) == LEX.entry("own", Profile.B)
    assert LEX.canonical("Doesn't") == "doesnt"


def test_content_types_are_shared_per_category():
    texts = {c: content_type(c).text for c in Category}
    assert all(content_type(c) is content_type(c) for c in Category)
    assert texts[Category.PROPER_NOUN] == "e" and texts[Category.TRANSITIVE_VERB] == "e>e>t"
    assert {texts[c] for c in Category} == {"e", "e>t", "e>e>t"}


def _fold_then_alias(lex: Lexicon, word: str) -> str:
    """`Lexicon.canonical` as it was before its table: every word folded."""
    word = word.lower().replace("'", "")
    return lex._aliases.get(word, word)


def test_canonical_agrees_with_fold_then_alias():
    small = Lexicon({"john": (Category.PROPER_NOUN, "j"), "oneil": (Category.PROPER_NOUN, "o"),
                     "own": (Category.TRANSITIVE_VERB, "own")}, {}, {"owns": "own"})
    for lex in (LEX, load_word_file(["noun dog", "tverb sees", "pnoun y1"]), small):
        words = [*lex._words, *lex._aliases, "zorp", "", "'", "DOESN'T", "Walk", "it's"]
        for word in words:
            for variant in (word, word.upper(), word.title(), f"{word}'",
                            f"'{word[:1]}'{word[1:]}"):
                assert lex.canonical(variant) == _fold_then_alias(lex, variant), variant
    assert small.canonical("John") == "john" and small.knows("John")
    assert small.canonical("O'Neil") == "oneil" and small.knows("o'neil")
    assert small.canonical("Owns") == "own" and small.category("OWNS") == Category.TRANSITIVE_VERB


_PN, _IV = (Category.PROPER_NOUN, "y"), (Category.INTRANSITIVE_VERB, "walk")


@pytest.mark.parametrize("words,aliases,word", [
    ({"Y": _PN}, {}, "Y"),
    ({"o'neil": _PN}, {}, "o'neil"),
    ({"walks": _IV}, {"Walk": "walks"}, "Walk"),
    ({"walks": _IV}, {"a1": "a2", "a2": "walks"}, "a1"),    # an alias of an alias
    ({"walks": _IV}, {"x": "Walks"}, "x"),
    ({}, {"owns": "own"}, "owns"),
])
def test_rows_no_lookup_reaches_are_rejected(words, aliases, word):
    """Lookups fold a spelling, then follow one alias: a row or alias spelled
    otherwise, or an alias that does not end at a row, could never be read."""
    with pytest.raises(ContsemError) as exc:
        Lexicon(words, {}, aliases)
    assert str(exc.value) == (
        f"no lookup reaches {word!r}: a lookup folds the spelling "
        "(lower case, no apostrophe), then follows one alias to a row")


def test_extended_and_word_files_add_no_unreachable_row():
    entry = LexEntry("Y", Category.PROPER_NOUN, Profile.A, LEX.entry("john", Profile.A))
    with pytest.raises(ContsemError, match="no lookup reaches 'Y'"):
        LEX.extended([entry])
    lex = load_word_file(["pnoun Y", "noun O'Dog"])   # make_entry folds the word
    assert lex.knows("Y") and lex.knows("y") and lex.category("o'dog") == Category.COMMON_NOUN
    assert "Y" not in lex._words and "odog" in lex._words


def test_entries_keyed_by_an_inflection_are_rejected():
    """Every lookup folds `owns` onto `own`, so an entry or registry row
    under `owns` could never be reached."""
    with pytest.raises(ContsemError, match="'owns' is an inflection of 'own'"):
        LEX.extended([make_entry(Category.COMMON_NOUN, "owns", Profile.A)])
    with pytest.raises(ContsemError, match="'walk' is an inflection of 'walks'"):
        load_word_file(["iverb walk"])
    row = (Category.TRANSITIVE_VERB, "own")
    entry = LexEntry("owns", row[0], Profile.B, LEX.entry("own", Profile.B))
    for words, entries in (({"owns": row}, {}),                          # a row
                           ({"own": row}, {("owns", Profile.B): entry})):  # an entry
        with pytest.raises(ContsemError, match="'owns' is an inflection of 'own'"):
            Lexicon(words, entries, {"owns": "own"})
    assert LEX.extended([make_entry(Category.COMMON_NOUN, "bus", Profile.A)]).knows("bus")


def test_unknown_word():
    with pytest.raises(UnknownWord):
        LEX.entry("unicorn", Profile.B)
    with pytest.raises(UnknownWord):
        LEX.entry("mary", Profile.B)  # registry word without a B term


def test_registry_miss_names_no_profile():
    for lookup in (LEX.category, LEX.symbol):
        with pytest.raises(UnknownWord) as exc:
            lookup("frobs")
        assert str(exc.value) == "no entry for 'frobs'"
    with pytest.raises(UnknownWord) as exc:
        interpret(Leaf(Sentence(ProperN("john"), Verb("frobs"))), LEX, Profile.A)
    assert str(exc.value) == "no entry for 'frobs'"
    # A registered word without a term in the profile still names it.
    with pytest.raises(UnknownWord, match="in profile B"):
        LEX.entry("mary", Profile.B)


def test_lexicon_typechecks_entries_on_construction():
    johns_term = LEX.entry("john", Profile.B)
    with pytest.raises(TypeMismatch):
        LEX.extended([LexEntry("car2", Category.COMMON_NOUN, Profile.B, johns_term)])
    with pytest.raises(UnsupportedCategory):
        LEX.extended([LexEntry("car2", Category.COMMON_NOUN, Profile.C, johns_term)])


def test_extended_never_recategorizes_a_registered_word():
    with pytest.raises(ContsemError) as exc:
        LEX.extended([make_entry(Category.COMMON_NOUN, "john", Profile.B)])
    assert str(exc.value) == \
        "'john' is registered as pnoun; its profile B entry says noun"
    assert LEX.category("john") == Category.PROPER_NOUN
    assert typecheck(LEX.entry("john", Profile.B)) == \
        CATEGORY_TYPES[Profile.B][Category.PROPER_NOUN]


def test_extended_keeps_a_registered_words_row():
    lex = LEX.extended([make_entry(Category.PROPER_NOUN, "mary", Profile.B)])
    assert (lex.category("mary"), lex.symbol("mary")) == (Category.PROPER_NOUN, "mary")
    lex = LEX.extended([LexEntry("it", Category.PRONOUN, Profile.A,
                                 LEX.entry("it", Profile.A))])
    assert (lex.category("it"), lex.symbol("it")) == (Category.PRONOUN, "")


def test_lexicon_entries_need_a_registry_row():
    entry = make_entry(Category.COMMON_NOUN, "cat", Profile.A)
    with pytest.raises(UnknownWord) as exc:
        Lexicon({}, {("cat", Profile.A): entry})
    assert str(exc.value) == "no entry for 'cat'"
    lex = Lexicon({"cat": (Category.COMMON_NOUN, "cat")}, {("cat", Profile.A): entry})
    assert lex.entry("cat", Profile.A) == entry.term


def test_make_entry_common_noun_shapes_like_car():
    dog = make_entry(Category.COMMON_NOUN, "dog", Profile.B)
    renamed = subst_consts(LEX.entry("car", Profile.B),
                           {"car": Const("dog", arrow(E, T))})
    assert dog.term == renamed


def test_make_entry_transitive_verb_shapes_like_own():
    sees = make_entry(Category.TRANSITIVE_VERB, "sees", Profile.B)
    renamed = subst_consts(LEX.entry("own", Profile.B),
                           {"own": Const("sees", arrow(E, E, T))})
    assert sees.term == renamed


def test_make_entry_rejects_determiners():
    with pytest.raises(UnsupportedCategory):
        make_entry(Category.DETERMINER, "every", Profile.B)
    with pytest.raises(UnsupportedCategory):
        make_entry(Category.PRONOUN, "she", Profile.A)


def test_negation_variant_accepted_b_matches_table():
    expected = parse_term(
        rf"\V:((e>{SB})>{SB})>{SB}. \S:(e>{SB})>{SB}."
        rf" \c:{KB}. \e1:g. \e2:g. \phi:{PHIB}."
        rf" ~(V S (\a:t. \b:t. ~(c (~a) (~b))) e1 e2"
        rf" (\c':{KB}. \e1':g. \e2':g. ~(phi c' e1' e2)))")
    assert negation_variant(Profile.B) == expected
    assert negation_variant(Profile.B) == LEX.entry("doesnt", Profile.B)


def test_negation_continuation_passes_outer_existential_env():
    # Inside \V \S \c \e1 \e2 \phi ... (\c' \e1' \e2'. ~(phi c' e1' X)):
    # X must be the outer e2 (index 4 under the three continuation binders),
    # not the continuation's own e2' (index 0).
    term = LEX.entry("doesnt", Profile.B)
    for _ in range(6):
        assert isinstance(term, Lam)
        term = term.body
    spine = term  # ~(V S conn e1 e2 K)
    k = spine.arg.arg
    for _ in range(3):
        assert isinstance(k, Lam)
        k = k.body
    assert isinstance(k.arg, App)
    last_arg = k.arg.arg
    assert last_arg == Var(4)
    assert last_arg != Var(0)


def test_negation_variant_rejected_is_profile_a_only():
    rejected = negation_variant(Profile.A, rejected=True)
    expected = parse_term(
        r"\V:((e>g>(g>t)>t)>g>(g>t)>t)>g>(g>t)>t."
        r" \S:(e>g>(g>t)>t)>g>(g>t)>t."
        r" \e:g. \phi:g>t. ~(V S e (\e':g. phi e'))")
    assert rejected == expected
    with pytest.raises(ContsemError, match="only for profile A"):
        negation_variant(Profile.B, rejected=True)
    with pytest.raises(UnknownWord, match="no entry for 'doesnt' in profile C"):
        negation_variant(Profile.C)     # C has no negation entry, rejected or not


def test_with_rejected_negation_swaps_profile_a_entry():
    swapped = LEX.with_rejected_negation()
    assert swapped.entry("doesnt", Profile.A) == negation_variant(Profile.A, rejected=True)
    assert swapped.entry("doesnt", Profile.B) == LEX.entry("doesnt", Profile.B)


@settings(max_examples=40, deadline=None)
@given(st.from_regex(r"[a-z]{3,8}", fullmatch=True),
       st.sampled_from([Category.COMMON_NOUN, Category.PROPER_NOUN,
                        Category.TRANSITIVE_VERB, Category.INTRANSITIVE_VERB,
                        Category.ADJECTIVE]),
       st.sampled_from([Profile.A, Profile.B]))
def test_templates_typecheck_for_arbitrary_words(word, category, profile):
    entry = make_entry(category, word, profile)
    assert typecheck(entry.term) == CATEGORY_TYPES[profile][category]


def test_load_word_file():
    lex = load_word_file(["noun cat  # feline", "", "tverb sees", "pnoun sue"])
    assert lex.category("cat") == Category.COMMON_NOUN
    assert typecheck(lex.entry("sees", Profile.B)) == \
        CATEGORY_TYPES[Profile.B][Category.TRANSITIVE_VERB]
    assert lex.symbol("sue") == "sue"
    # base lexicon is untouched
    with pytest.raises(UnknownWord):
        LEX.entry("cat", Profile.A)
    for bad in ("noun", "noun two words", "verb sees"):
        with pytest.raises(ContsemError, match=(
                f"lexicon file line 2: expected `category word`, got '{bad}'")):
            load_word_file(["noun cat", bad])


def test_a_word_file_builds_a_known_word_over_its_registry_symbol():
    """`pnoun john` keeps john's row (symbol `j`), so its A and B entries
    say `j` too, as the row and profile C do, not `john`."""
    lex = load_word_file(["pnoun john", "tverb loves", "noun dog"])
    assert lex.symbol("john") == "j" and lex.symbol("loves") == "love"
    for word in ("john", "loves", "dog"):
        for profile in (Profile.A, Profile.B):
            assert lex.entry(word, profile) == make_entry(
                lex.category(word), word, profile, lex.symbol(word)).term
    assert pretty(lex.entry("john", Profile.A)) == r"\x1:e>g>(g>t)>t. x1 j"
    assert lex.entry("loves", Profile.A) == LEX.entry("loves", Profile.A)


def test_make_entry_builds_a_known_word_over_its_registry_symbol():
    """With no symbol given, a new entry for `john` says its row's `j`, so
    profile A, which reads the new entry, and profile C, which reads the
    default one, agree on the name's constant; an unknown word names itself."""
    lex = LEX.extended([make_entry(Category.PROPER_NOUN, "john", Profile.A)])
    loves = Leaf(Sentence(ProperN("john"), Verb("loves", Det("a", "woman"))))
    assert formula_text(interpret(loves, lex, Profile.A)[1]) == "Ex y. (woman y & love j y)"
    red = Leaf(Sentence(ProperN("john"), CopulaAdj("red")))
    assert formula_text(interpret(red, lex, Profile.C)[1]) == "red j"
    assert lex.entry("john", Profile.A) == LEX.entry("john", Profile.A)
    assert make_entry(Category.PROPER_NOUN, "John", Profile.B).term == \
        make_entry(Category.PROPER_NOUN, "zed", Profile.B, "j").term
    assert make_entry(Category.PROPER_NOUN, "zed", Profile.B).term == \
        make_entry(Category.PROPER_NOUN, "zed", Profile.B, "zed").term
    assert make_entry(Category.COMMON_NOUN, "a", Profile.B).term == \
        make_entry(Category.COMMON_NOUN, "zed", Profile.B, "a").term   # a row with no symbol


def test_a_content_entry_names_its_rows_symbol():
    """An entry whose content constant is not its row's symbol is refused:
    profile C reads the row, so A or B would name another constant."""
    zed = make_entry(Category.PROPER_NOUN, "zed", Profile.A).term
    for entry, constant, symbol in (
            (LexEntry("john", Category.PROPER_NOUN, Profile.A, zed), "zed", "j"),
            (make_entry(Category.COMMON_NOUN, "cat", Profile.A, "felix"), "felix", "cat"),
            (make_entry(Category.TRANSITIVE_VERB, "loves", Profile.B, "own"), "own", "love")):
        with pytest.raises(ContsemError) as exc:
            LEX.extended([entry])
        assert str(exc.value) == (f"the profile {entry.profile.value} entry of "
                                  f"{entry.word!r} names {constant!r}, not its row's "
                                  f"symbol {symbol!r}")
    LEX.entries()       # every profile read, so `extended` checks each default entry
    lex = LEX.extended([make_entry(Category.COMMON_NOUN, "cat", Profile.A)])
    lex = load_word_file(["pnoun john", "noun cat", "tverb sees"], lex.with_rejected_negation())
    assert lex.symbol("cat") == "cat" and len(lex.entries()) == len(LEX.entries()) + 4


# ---------------------------------------------------------------------------
# A profile's entries are parsed and checked on its first read

SAMPLES = Path(__file__).parent.parent / "samples"

# Counts the terms the lexicon module parses and typechecks while the default
# lexicon is built, then while `contsem` runs the arguments, and prints the
# texts of the terms typechecked in the run.
_COUNT = """
import contextlib, io, json, sys
from contsem import cli, lexicon, syntax
seen = {"parse_term": [], "typecheck": []}
for name, calls in seen.items():
    setattr(lexicon, name, lambda *a, _fn=getattr(lexicon, name), _c=calls, **k:
            _c.append(a[0]) or _fn(*a, **k))
lexicon.default_lexicon()
built = {name: len(calls) for name, calls in seen.items()}
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, built, {name: len(calls) for name, calls in seen.items()},
                  sorted(syntax.pretty(t) for t in seen["typecheck"])]))
"""


def _entry_work(*argv):
    """In a fresh interpreter: the exit status of `contsem argv`, the counts
    of terms the lexicon module parsed and typechecked while the default
    lexicon was built and by the run's end, and the terms it typechecked."""
    src = Path(lexicon.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", _COUNT, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return json.loads(out.stdout)


def test_the_default_lexicon_parses_no_entry():
    assert _entry_work() == [0, {"parse_term": 0, "typecheck": 0},
                             {"parse_term": 0, "typecheck": 0}, []]


def test_a_profile_c_run_parses_and_checks_no_entry():
    assert _entry_work("run", str(SAMPLES / "rfc_concrete_coord.dsc")) == [
        0, {"parse_term": 0, "typecheck": 0}, {"parse_term": 0, "typecheck": 0}, []]


def test_a_profile_b_run_parses_and_checks_only_the_b_entries():
    code, built, run, checked = _entry_work("run", str(SAMPLES / "owns_car.dsc"))
    assert code == 0 and built == {"parse_term": 0, "typecheck": 0}
    assert run == {"parse_term": 8, "typecheck": 8}
    assert checked == sorted(pretty(e.term) for e in LEX.entries(Profile.B))


def test_each_read_parses_its_profile_once(monkeypatch):
    """`entry` parses its profile's entries and `entries` every profile still
    due; each profile is parsed once, and `extended` passes on the profiles
    still due."""
    parsed = []
    monkeypatch.setattr(lexicon, "parse_term", lambda *a, _fn=lexicon.parse_term, **k:
                        parsed.append(a[0]) or _fn(*a, **k))
    lex = default_lexicon.__wrapped__()       # a fresh one; the cached one stays
    assert parsed == []
    assert lex.entry("car", Profile.B) == LEX.entry("car", Profile.B) and len(parsed) == 8
    assert lex.entry("own", Profile.B) == LEX.entry("own", Profile.B) and len(parsed) == 8
    with pytest.raises(UnknownWord):
        lex.entry("mary", Profile.C)
    assert lex.entries(Profile.B) == LEX.entries(Profile.B) and len(parsed) == 8
    assert lex.entries() == LEX.entries() and len(parsed) == 18
    lex.entries()
    assert len(parsed) == 18
    extended = default_lexicon.__wrapped__().extended([])
    assert len(parsed) == 18
    assert extended.entry("car", Profile.B) == LEX.entry("car", Profile.B) and len(parsed) == 26
    assert extended.entries() == LEX.entries() and len(parsed) == 36


def test_an_extension_stands_in_for_an_unread_default():
    """An entry given to `extended` before its profile is read stays, and the
    profile's other default entries are parsed on the first read."""
    lex = default_lexicon.__wrapped__().with_rejected_negation()
    assert lex.entry("doesnt", Profile.A) == negation_variant(Profile.A, rejected=True)
    assert lex.entry("car", Profile.A) == LEX.entry("car", Profile.A)
    assert lex.entries(Profile.B) == LEX.entries(Profile.B)


def test_a_profile_read_late_is_checked(monkeypatch):
    """The entries parsed on a profile's first read are typechecked, as
    `Lexicon` checks the entries it is given."""
    monkeypatch.setitem(lexicon._FIXED[Profile.B], "it", r"\P:noun. P")
    lex = default_lexicon.__wrapped__()
    assert lex.entry("it", Profile.A) == LEX.entry("it", Profile.A)
    with pytest.raises(TypeMismatch):
        lex.entry("john", Profile.B)


def test_a_profiles_first_read_builds_no_second_lexicon(monkeypatch):
    """The entries parsed on a profile's first read are checked in place: no
    `Lexicon` is built to check them."""
    lex = default_lexicon.__wrapped__()
    built = []
    monkeypatch.setattr(Lexicon, "__init__", lambda self, *a, _fn=Lexicon.__init__, **k:
                        built.append(a) or _fn(self, *a, **k))
    assert lex.entry("car", Profile.B) == LEX.entry("car", Profile.B)
    assert built == []
