import gc
import itertools
import random
import sys

import pytest

from contsem import discourse
from contsem.discourse import (
    ArityMismatch, CoordN, Det, DiscourseError, InitialArgs, Leaf,
    ProfileMismatch, Pron, ProperN, Sentence, Seq, SubN, SymLeaf, Verb,
    CopulaAdj, build_sentence, compose, default_initial_args, expand_symbolic,
    has_symbolic_leaves, interpret, parse_discourse, parse_sentence_words,
    run_pipeline,
)
from contsem import lexicon
from contsem.lexicon import Category, Lexicon, Profile, UnknownWord, default_lexicon
from contsem.logic import EntVar, formula_text
from contsem.resolver import report
from contsem.syntax import parse_term, pretty
from contsem.terms import (
    AND, COORD, NIL, SENT_C, SUB, T,
    Const, E, G, app, arrow, normalize, typecheck,
)

from gen import (
    flat_discourse_text, four_call_parse_sentence_words, outcome, pipeline_cases,
    random_closed_term, random_discourse, random_sentence, sentence_pool, sentence_words,
    staged_build_sentence, subst_consts, substitution_compose, subterms, term_preorder,
)
from oracle import logically_equiv

LEX = default_lexicon()
KC = "g>g>g"
PHIC = f"({KC})>g>g>t"
SYM_SIG = {"s1": SENT_C, "s2": SENT_C, "s3": SENT_C}

S_NEG = parse_sentence_words("john doesnt own (a car)", LEX)
S_POS = parse_sentence_words("john owns (a car)", LEX)
S_RED = parse_sentence_words("it is red", LEX)


# ---------------------------------------------------------------------------
# sentence parsing

def test_parse_sentence_words():
    assert S_NEG == Sentence(ProperN("john"), Verb("own", Det("a", "car")), True)
    assert S_RED == Sentence(Pron("it"), CopulaAdj("red"), False)
    assert parse_sentence_words("mary walks", LEX) == \
        Sentence(ProperN("mary"), Verb("walks", None), False)
    # The AST keeps each word as the registry spells it.
    assert parse_sentence_words("JOHN Doesn't OWNS (A Car)", LEX) == S_NEG
    assert parse_sentence_words("It IS Red", LEX) == S_RED


def test_parse_sentence_rejects_unknown_words():
    with pytest.raises(DiscourseError):
        parse_sentence_words("john frobnicates", LEX)


# ---------------------------------------------------------------------------
# build_sentence

def test_loves_a_woman_normal_form():
    ast = parse_sentence_words("john loves (a woman)", LEX)
    nf = normalize(build_sentence(ast, LEX, Profile.A))
    expected = parse_term(
        r"\e:g. \phi:g>t. Ex (\y:e. woman y & (love j y & phi (y::e)))",
        LEX.signature())
    assert nf == expected


def test_it_is_red_profile_b_applies_red_to_sel():
    term = build_sentence(S_RED, LEX, Profile.B)
    assert typecheck(term) == Profile.B.sentence_type
    # Feed concrete environments: the adjective must land on sel(E1++E2).
    applied = normalize(app(term, parse_term("(&)"), Const("E1", G), Const("E2", G),
                            parse_term(r"\c:t>t>t. \e1:g. \e2:g. top")))
    sel_red = parse_term(r"\e1:g. \e2:g. red (sel (e1 ++ e2))", LEX.signature())
    wanted = normalize(app(sel_red, Const("E1", G), Const("E2", G)))
    assert wanted in set(subterms(applied))


def test_transitive_verb_requires_object():
    ast = Sentence(ProperN("john"), Verb("own", None), False)
    with pytest.raises(ArityMismatch):
        build_sentence(ast, LEX, Profile.B)


def test_intransitive_verb_rejects_object():
    ast = Sentence(ProperN("john"), Verb("walks", Det("a", "car")), False)
    with pytest.raises(ArityMismatch):
        build_sentence(ast, LEX, Profile.B)


def test_unknown_word_propagates():
    ast = Sentence(ProperN("zorp"), Verb("own", Det("a", "car")), False)
    with pytest.raises(UnknownWord):
        build_sentence(ast, LEX, Profile.B)


@pytest.mark.parametrize("profile", [Profile.A, Profile.B, Profile.C])
@pytest.mark.parametrize("ast", [
    Sentence(ProperN("car"), CopulaAdj("red")),
    Sentence(ProperN("john"), CopulaAdj("car")),
    Sentence(Det("john", "car"), CopulaAdj("red")),
])
def test_ill_categorized_words_are_rejected(ast, profile):
    with pytest.raises(ArityMismatch):
        build_sentence(ast, LEX, profile)


def test_profile_c_rejects_negation():
    with pytest.raises(ProfileMismatch):
        build_sentence(S_NEG, LEX, Profile.C)


@pytest.mark.parametrize("profile", [Profile.A, Profile.B, Profile.C])
@pytest.mark.parametrize("ast,message", [
    (Sentence(ProperN("john"), Verb("own", None)),
     "transitive verb 'own' needs an object"),
    (Sentence(ProperN("john"), Verb("walks", Det("a", "car"))),
     "intransitive verb 'walks' takes no object"),
    (Sentence(ProperN("john"), CopulaAdj("red"), True),
     "the copula cannot be negated"),
    (Sentence(ProperN("john"), Verb("red", None)), "'red' is not a verb"),
    (Sentence(Pron("john"), CopulaAdj("red")), "'john' has category pnoun, not pron"),
])
def test_shape_errors_agree_across_profiles(ast, message, profile):
    with pytest.raises(ArityMismatch) as exc:
        build_sentence(ast, LEX, profile)
    assert str(exc.value) == message


# The default lexicon without `is` and `doesnt`, so that the order in which
# the walk reaches them shows in which error comes first.
THIN = Lexicon({w: row for w, row in LEX._words.items() if w not in ("is", "doesnt")},
               {(e.word, e.profile): e for e in LEX.entries() if e.word not in ("is", "doesnt")},
               LEX._aliases)


@pytest.mark.parametrize("profile", [Profile.A, Profile.B, Profile.C])
def test_one_walk_matches_the_staged_walks(profile):
    """On every sentence of the pool, with the default lexicon and THIN, and
    on 20 000 random ones, `build_sentence` gives the staged reference's term
    or its error class and message, and every term it builds has the
    profile's sentence type: the sentence terms are of type t by construction."""
    rng = random.Random(14)
    cases = [(ast, lex) for ast in sentence_pool() for lex in (LEX, THIN)]
    seen = set()
    for ast, lex in cases + [(random_sentence(rng), LEX) for _ in range(20_000)]:
        got = outcome(build_sentence, ast, lex, profile)
        assert got == outcome(staged_build_sentence, ast, lex, profile), ast
        if type(got) is tuple:
            seen.add((got[0], "in profile" in got[1]))
        else:
            assert typecheck(got).text == profile.sentence_type.text, ast
            seen.add("built")
    wanted = {"built", (UnknownWord, False), (ArityMismatch, False)}
    wanted.add((ProfileMismatch, True) if profile == Profile.C else (UnknownWord, True))
    assert wanted <= seen


# ---------------------------------------------------------------------------
# the sentence reader against its four-call reference

_TOKENS = ("john", "it", "a", "car", "loves", "walks", "red", "is", "doesnt",
           "owns", "JOHN", "doesn't", "(", ")", "zorp")


def test_reader_matches_the_four_call_reader():
    """Every token sequence up to length 4 and 20 000 random longer ones read
    to equal ASTs or identical diagnostics.  Half the longer ones are random
    sentences' words, some with a token inserted, so that many of them read."""
    rng = random.Random(14)
    longer = [rng.choices(_TOKENS, k=rng.randint(5, 9)) for _ in range(10_000)]
    while len(longer) < 20_000:
        words = sentence_words(random_sentence(rng)).replace("(", "( ").replace(")", " )").split()
        if rng.random() < 0.5:
            words.insert(rng.randint(0, len(words)), rng.choice(_TOKENS))
        if len(words) > 4:
            longer.append(words)
    built = 0
    for seq in [*itertools.chain.from_iterable(
            itertools.product(_TOKENS, repeat=n) for n in range(5)), *longer]:
        text = " ".join(seq)
        got = outcome(parse_sentence_words, text, LEX)
        assert got == outcome(four_call_parse_sentence_words, text, LEX), text
        built += type(got) is Sentence
    assert built > 2_000


def test_reader_matches_the_four_call_reader_on_odd_registries():
    """Spellings the table does not hold (other cases, apostrophes) and
    several aliases of one row read as the four-call reader reads them."""
    odd = Lexicon({"john": (Category.PROPER_NOUN, "j"), "y": (Category.PROPER_NOUN, "y"),
                   "walks": (Category.INTRANSITIVE_VERB, "walk")},
                  {}, {"x": "y", "a1": "walks", "a2": "walks", "owns": "walks"})
    tokens = ("John", "john", "Y", "y'", "x", "a1", "a2", "A1", "walks", "Owns", "owns", "zorp")
    for n in range(4):
        for seq in itertools.product(tokens, repeat=n):
            text = " ".join(seq)
            assert outcome(parse_sentence_words, text, odd) == \
                outcome(four_call_parse_sentence_words, text, odd), text


def test_reader_calls_the_registry_once_per_registered_spelling():
    """One call into `lexicon` per word whose spelling the table holds."""
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call"
                   and frame.f_code.co_filename == lexicon.__file__ and calls.append(frame))
    try:
        parse_sentence_words("john doesnt own (a car)", LEX)
        parse_sentence_words("(a woman) loves it", LEX)
    finally:
        sys.setprofile(None)
    assert len(calls) == 5 + 4


# ---------------------------------------------------------------------------
# compose

def test_seq_profile_a_composition_shape():
    tree = Seq(Leaf(parse_sentence_words("john loves (a woman)", LEX)),
               Leaf(S_RED))
    composed = compose(tree, LEX, Profile.A)
    s1 = build_sentence(tree.left.sentence, LEX, Profile.A)
    s2 = build_sentence(tree.right.sentence, LEX, Profile.A)
    template = parse_term(r"\e:g. \phi:g>t. LHS_ e (\e':g. RHS_ e' phi)",
                          {"LHS_": typecheck(s1), "RHS_": typecheck(s2)})
    assert composed == subst_consts(template, {"LHS_": s1, "RHS_": s2})


def test_coordination_only_in_profile_c():
    with pytest.raises(ProfileMismatch):
        compose(CoordN(Leaf(S_POS), Leaf(S_RED)), LEX, Profile.B)
    with pytest.raises(ProfileMismatch):
        compose(Seq(SymLeaf("s1"), SymLeaf("s2")), LEX, Profile.C)


@pytest.mark.parametrize("node,composes,name", [
    (Seq, (Profile.A, Profile.B), "plain sequencing (.)"),
    (CoordN, (Profile.C,), "coordination (.c)"),
    (SubN, (Profile.C,), "subordination (.s)"),
])
@pytest.mark.parametrize("profile", [Profile.A, Profile.B, Profile.C])
def test_connective_profile_matrix(node, composes, name, profile):
    tree = node(SymLeaf("s1"), SymLeaf("s2"))
    if profile in composes:
        assert typecheck(compose(tree, LEX, profile)) == profile.sentence_type
        return
    with pytest.raises(ProfileMismatch) as exc:
        compose(tree, LEX, profile)
    assert str(exc.value) == f"{name} is not available in profile {profile.value}"


def test_coord_sub_definitional_laws():
    rng = random.Random(5)
    envs = [NIL, app(parse_term("(::)"), Const("j", E), NIL)]
    for _ in range(10):
        e1 = rng.choice(envs)
        e2 = rng.choice(envs)
        assert normalize(app(COORD, e1, e2)) == normalize(e2)
        assert normalize(app(SUB, e1, e2)) == \
            normalize(app(parse_term("(++)"), e1, e2))


# ---------------------------------------------------------------------------
# symbolic expansions

EXPECTED_EXPANSIONS = {
    "cc": (CoordN(SymLeaf("s1"), CoordN(SymLeaf("s2"), SymLeaf("s3"))),
           f"\\c:{KC}. \\e1:g. \\e2:g. \\phi:{PHIC}."
           f" s1 c e1 e2 (\\c2:{KC}. \\f1:g. \\f2:g."
           f" s2 Coord f1 (c e1 e2) (\\c3:{KC}. \\g1:g. \\g2:g."
           f" s3 Coord g1 (c e1 e2) phi))"),
    "cs": (CoordN(SymLeaf("s1"), SubN(SymLeaf("s2"), SymLeaf("s3"))),
           f"\\c:{KC}. \\e1:g. \\e2:g. \\phi:{PHIC}."
           f" s1 c e1 e2 (\\c2:{KC}. \\f1:g. \\f2:g."
           f" s2 Coord f1 (c e1 e2) (\\c3:{KC}. \\g1:g. \\g2:g."
           f" s3 Sub g1 (c e1 e2) phi))"),
    "sc": (SubN(SymLeaf("s1"), CoordN(SymLeaf("s2"), SymLeaf("s3"))),
           f"\\c:{KC}. \\e1:g. \\e2:g. \\phi:{PHIC}."
           f" s1 c e1 e2 (\\c2:{KC}. \\f1:g. \\f2:g."
           f" s2 Sub f1 (c e1 e2) (\\c3:{KC}. \\g1:g. \\g2:g."
           f" s3 Coord g1 (f1 ++ (c e1 e2)) phi))"),
    "ss": (SubN(SymLeaf("s1"), SubN(SymLeaf("s2"), SymLeaf("s3"))),
           f"\\c:{KC}. \\e1:g. \\e2:g. \\phi:{PHIC}."
           f" s1 c e1 e2 (\\c2:{KC}. \\f1:g. \\f2:g."
           f" s2 Sub f1 (c e1 e2) (\\c3:{KC}. \\g1:g. \\g2:g."
           f" s3 Sub g1 (f1 ++ (c e1 e2)) phi))"),
}


@pytest.mark.parametrize("key", sorted(EXPECTED_EXPANSIONS))
def test_symbolic_expansions(key):
    tree, expected_text = EXPECTED_EXPANSIONS[key]
    expected = parse_term(expected_text, SYM_SIG)
    assert normalize(expected) == expected  # transcription is already normal
    assert expand_symbolic(tree, LEX) == expected


def test_leaf_walk_is_stack_safe():
    concrete, symbolic = Leaf(S_RED), SymLeaf("s0")
    for _ in range(5000):
        concrete = Seq(concrete, Leaf(S_RED))
        symbolic = CoordN(symbolic, SymLeaf("s1"))
    assert not has_symbolic_leaves(concrete)
    assert has_symbolic_leaves(Seq(concrete, SymLeaf("s1")))
    with pytest.raises(ProfileMismatch):     # found before anything composes
        expand_symbolic(CoordN(symbolic, Leaf(S_RED)), LEX)


def _count_consts(term, name):
    return sum(isinstance(t, Const) and t.name == name for t in subterms(term))


def test_compose_is_stack_safe():
    concrete, symbolic = Leaf(S_RED), SymLeaf("s0")
    for _ in range(5000):
        concrete = Seq(concrete, Leaf(S_RED))
        symbolic = CoordN(symbolic, SymLeaf("s1"))
    for profile in (Profile.A, Profile.B):
        assert _count_consts(compose(concrete, LEX, profile), "red") == 5001
    assert _count_consts(compose(symbolic, LEX, Profile.C), "s1") == 5000


@pytest.mark.parametrize("profile", [Profile.A, Profile.C])
def test_flat_1000_sentence_discourses_compose(profile):
    tree = parse_discourse(flat_discourse_text(profile, 1000), LEX).tree
    assert _count_consts(compose(tree, LEX, profile), "red") == 500   # one per `it is red`


@pytest.mark.parametrize("profile,lengths", [
    (Profile.A, (1, 2, 3, 5, 8, 12, 24)),
    (Profile.B, (1, 2, 3, 4, 5, 6)),
    (Profile.C, (1, 2, 3, 5, 8, 12, 24)),
])
def test_compose_matches_the_substitution_reference(profile, lengths):
    """Each connective, built directly, is its named template (in `gen`)
    with the subtrees' terms substituted for LHS_ and RHS_: the same term
    and the same text."""
    rng = random.Random(20261019 + len(profile.value))
    for n in lengths:
        for _ in range(5):
            tree = random_discourse(rng, LEX, profile, n)
            composed = compose(tree, LEX, profile)
            reference = substitution_compose(tree, LEX, profile)
            assert composed == reference
            assert pretty(composed) == pretty(reference)


@pytest.mark.parametrize("profile", [Profile.A, Profile.C])
def test_flat_3000_sentence_discourses_match_the_reference(profile):
    assert sys.getrecursionlimit() <= 1000
    tree = parse_discourse(flat_discourse_text(profile, 3000), LEX).tree
    composed, reference = compose(tree, LEX, profile), substitution_compose(tree, LEX, profile)
    assert term_preorder(composed) == term_preorder(reference)   # too deep for ==
    assert pretty(composed) == pretty(reference)


def test_deep_discourse_expressions_are_read():
    depth = 5000
    head = "profile A\nsentence s0 = john loves (a woman)\nsentence s1 = it is red\n"
    leaves = [Leaf(parse_sentence_words("john loves (a woman)", LEX)), Leaf(S_RED)]
    nested_left = "(" * (depth - 1) + "s0" + "".join(
        f" . s{i % 2})" for i in range(1, depth))
    nested_right = " . (".join(f"s{i % 2}" for i in range(depth)) + ")" * (depth - 1)
    node = parse_discourse(f"{head}discourse = {nested_left}\n", LEX).tree
    for i in reversed(range(1, depth)):      # trees this deep cannot use ==
        assert type(node) is Seq and node.right == leaves[i % 2]
        node = node.left
    assert node == leaves[0]
    node = parse_discourse(f"{head}discourse = {nested_right}\n", LEX).tree
    for i in range(depth - 1):
        assert type(node) is Seq and node.left == leaves[i % 2]
        node = node.right
    assert node == leaves[(depth - 1) % 2]


def test_expand_symbolic_requires_profile_c_and_symbolic_leaves():
    tree = CoordN(SymLeaf("s1"), SymLeaf("s2"))
    with pytest.raises(ProfileMismatch):
        expand_symbolic(tree, LEX, Profile.B)
    with pytest.raises(ProfileMismatch):
        expand_symbolic(CoordN(Leaf(S_POS), SymLeaf("s2")), LEX)


# ---------------------------------------------------------------------------
# interpret

def _names(r) -> list[str]:
    """A report's candidates as printed: a variable by its binder's name."""
    return [r.names[c.level] if isinstance(c, EntVar) else c.name for c in r.candidates]


def test_interpret_negated_discourse_golden():
    raw, simp = interpret(Seq(Leaf(S_NEG), Leaf(S_RED)), LEX, Profile.B)
    assert formula_text(simp) == "(~ Ex y. (car y & own j y)) & red(sel(j::nil))"
    (r,) = report(simp)
    assert _names(r) == ["j"]


def test_interpret_single_positive_sentence():
    raw, simp = interpret(Leaf(S_POS), LEX, Profile.B)
    assert formula_text(simp) == "Ex y. (car y & own j y)"
    assert logically_equiv(raw, simp, 3)


def test_interpret_profile_a_loves_woman():
    ast = parse_sentence_words("john loves (a woman)", LEX)
    raw, simp = interpret(Leaf(ast), LEX, Profile.A)
    assert formula_text(raw) == "Ex y. (woman y & love j y & top)"
    assert formula_text(simp) == "Ex y. (woman y & love j y)"


def test_interpret_rejects_symbolic_leaves():
    with pytest.raises(DiscourseError):
        interpret(Seq(SymLeaf("s1"), Leaf(S_RED)), LEX, Profile.B)


@pytest.mark.parametrize("args", [
    (AND, NIL, NIL),                                         # wrong arity
    (AND, NIL, Const("j", E), default_initial_args(Profile.B).args[3]),  # wrong type
])
def test_initial_args_are_checked(args):
    with pytest.raises(DiscourseError):
        InitialArgs(Profile.B, args)


@pytest.mark.parametrize("profile", list(Profile))
def test_default_initial_args_are_checked_once(profile, monkeypatch):
    checked = []
    monkeypatch.setattr(discourse, "typecheck",
                        lambda t, _fn=discourse.typecheck: checked.append(t) or _fn(t))
    default_initial_args.cache_clear()
    first = default_initial_args(profile)
    assert checked == list(first.args)
    assert default_initial_args(profile) is first and checked == list(first.args)


def test_initial_args_of_another_profile_are_rejected():
    tree = Seq(Leaf(S_POS), Leaf(S_RED))
    with pytest.raises(DiscourseError):
        interpret(tree, LEX, Profile.B, default_initial_args(Profile.A))
    with pytest.raises(DiscourseError):
        run_pipeline(tree, LEX, Profile.B, default_initial_args(Profile.C))


def test_applied_term_is_a_proposition():
    # The pipeline does not typecheck the applied term; the checks where
    # input enters (entries, word categories, initial arguments) make it t.
    for tree, profile in pipeline_cases(LEX):
        result = run_pipeline(tree, LEX, profile, default_initial_args(profile))
        assert typecheck(result.applied) == T


def _run_and_watch(monkeypatch, *args, **kwargs):
    """run_pipeline's result or error, and whether the collector was on
    while it normalized."""
    seen = []
    monkeypatch.setattr(discourse, "normalize",
                        lambda *a: seen.append(gc.isenabled()) or normalize(*a))
    try:
        return outcome(run_pipeline, *args, **kwargs), seen
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("enabled", [True, False])
def test_pipeline_pauses_the_collector_and_restores_it(monkeypatch, enabled):
    """The collector is off while a run normalizes, and afterwards as the
    caller had it, thresholds included, after a result, a ContsemError and
    StepBudgetExceeded."""
    tree = Seq(Leaf(S_POS), Leaf(S_RED))
    threshold = gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    try:
        runs = [_run_and_watch(monkeypatch, tree, LEX, Profile.B, default_initial_args(Profile.B)),
                _run_and_watch(monkeypatch, tree, LEX, Profile.B, default_initial_args(Profile.B), 3),
                _run_and_watch(monkeypatch, CoordN(Leaf(S_POS), Leaf(S_RED)), LEX, Profile.B,
                               default_initial_args(Profile.B)),
                _run_and_watch(monkeypatch, tree, LEX, Profile.B, None)]
        assert gc.isenabled() is enabled and gc.get_threshold() == threshold
    finally:
        gc.enable()
    kinds = [(result[0] if type(result) is tuple else type(result)).__name__
             for result, _ in runs]
    assert kinds == ["Interpretation", "StepBudgetExceeded", "ProfileMismatch", "Interpretation"]
    assert [seen for _, seen in runs] == [[False], [False], [], [False]]


def test_repeated_pipeline_runs_leave_nothing_for_the_collector():
    trees = [random_discourse(random.Random(seed), LEX, profile, 6)
             for seed in range(3) for profile in (Profile.A, Profile.B)]
    run = lambda: [run_pipeline(t, LEX, p, default_initial_args(p))
                   for t, p in zip(trees, [Profile.A, Profile.B] * 3)]
    run()
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(20):
        run()
    gc.collect()
    assert len(gc.get_objects()) <= before


def test_b_threading_positive_vs_negated():
    _, simp_pos = interpret(Seq(Leaf(S_POS), Leaf(S_RED)), LEX, Profile.B)
    (r_pos,) = report(simp_pos)
    names = _names(r_pos)
    assert names == ["y", "j"]

    _, simp_neg = interpret(Seq(Leaf(S_NEG), Leaf(S_RED)), LEX, Profile.B)
    (r_neg,) = report(simp_neg)
    assert _names(r_neg) == ["j"]


def test_interpret_raw_equiv_simplified_on_shipped_discourses():
    c1 = parse_sentence_words("john owns (a car)", LEX)
    c2 = parse_sentence_words("mary owns (a dog)", LEX)
    cases = [
        (Seq(Leaf(S_NEG), Leaf(S_RED)), Profile.B, 3),
        (Seq(Leaf(S_POS), Leaf(S_RED)), Profile.B, 3),
        (Leaf(parse_sentence_words("john loves (a woman)", LEX)), Profile.A, 3),
        (CoordN(Leaf(c1), CoordN(Leaf(c2), Leaf(S_RED))), Profile.C, 2),
        (SubN(Leaf(c1), CoordN(Leaf(c2), Leaf(S_RED))), Profile.C, 2),
    ]
    for tree, profile, domain in cases:
        raw, simp = interpret(tree, LEX, profile)
        assert logically_equiv(raw, simp, domain)


# ---------------------------------------------------------------------------
# profile C concrete accessibility

S_C1 = parse_sentence_words("john owns (a car)", LEX)
S_C2 = parse_sentence_words("mary owns (a dog)", LEX)


def test_rfc_coordination_closes_first_unit():
    tree = CoordN(Leaf(S_C1), CoordN(Leaf(S_C2), Leaf(S_RED)))
    _, simp = interpret(tree, LEX, Profile.C)
    (r,) = report(simp)
    names = _names(r)
    assert names == ["y1", "mary"]
    assert "j" not in names and "y" not in names


def test_rfc_subordination_keeps_first_unit_open():
    tree = SubN(Leaf(S_C1), CoordN(Leaf(S_C2), Leaf(S_RED)))
    _, simp = interpret(tree, LEX, Profile.C)
    (r,) = report(simp)
    assert _names(r) == ["y1", "mary", "y", "j"]


def test_second_unit_sees_first_in_coordination():
    # s2's own pronoun can still reach s1's referents: s1 is on the right
    # frontier when s2 attaches.
    s2 = parse_sentence_words("it is red", LEX)
    tree = CoordN(Leaf(S_C1), Leaf(s2))
    _, simp = interpret(tree, LEX, Profile.C)
    (r,) = report(simp)
    assert _names(r) == ["y", "j"]


# ---------------------------------------------------------------------------
# DSL

def test_parse_discourse_file():
    text = """
    # comment
    profile B
    sentence s1 = john doesnt own (a car)
    sentence s2 = it is red
    discourse = s1 . s2
    """
    parsed = parse_discourse(text, LEX)
    assert parsed.profile == Profile.B
    assert not parsed.symbolic
    assert parsed.tree == Seq(Leaf(S_NEG), Leaf(S_RED))


def test_parse_discourse_symbolic_and_parens():
    text = "profile C\nsymbolic\ndiscourse = s1 .s (s2 .c s3)\n"
    parsed = parse_discourse(text, LEX)
    assert parsed.tree == SubN(SymLeaf("s1"), CoordN(SymLeaf("s2"), SymLeaf("s3")))


def test_parse_discourse_left_associates():
    text = "profile B\nsentence s1 = john owns (a car)\n" \
           "sentence s2 = it is red\ndiscourse = s1 . s2 . s1\n"
    parsed = parse_discourse(text, LEX)
    assert parsed.tree == Seq(Seq(Leaf(S_POS), Leaf(S_RED)), Leaf(S_POS))


def test_parse_discourse_undefined_id_without_symbolic():
    with pytest.raises(DiscourseError):
        parse_discourse("profile B\ndiscourse = s1 . s2\n", LEX)


def test_parse_discourse_requires_tree():
    with pytest.raises(DiscourseError):
        parse_discourse("profile B\n", LEX)


@pytest.mark.parametrize("expr,err", [
    ("", "expected a sentence id, found end of expression"),
    ("s .", "expected a sentence id, found end of expression"),
    (". s", "expected a sentence id, found '.'"),
    ("s . . s", "expected a sentence id, found '.'"),
    ("()", "expected a sentence id, found ')'"),
    ("(s", "missing `)` in discourse expression"),
    ("s)", "unexpected trailing ')'"),
    ("s s", "unexpected trailing 's'"),
    ("s (s)", "unexpected trailing '('"),
    ("(s (s))", "missing `)` in discourse expression"),
    ("s $", "bad character '$' in discourse expression"),
    ("$ (", "bad character '$' in discourse expression"),    # before syntax
    ("s . x", "undefined sentence id 'x'"),
    ("x )", "undefined sentence id 'x'"),                     # before syntax
    ("s.s1", "undefined sentence id '1'"),                    # read `s .s 1`
])
def test_discourse_expression_diagnostics(expr, err):
    with pytest.raises(DiscourseError) as exc:
        parse_discourse(f"profile A\nsentence s = john walks\ndiscourse = {expr}\n", LEX)
    assert str(exc.value) == err


@pytest.mark.parametrize("line", [
    "profileA", "profileX A", "sentences1 = john walks", "discourses = s",
    "symbolicX", "symbolic A", "= s",
])
def test_directive_keywords_are_whole_words(line):
    with pytest.raises(DiscourseError) as exc:
        parse_discourse(f"sentence s = john walks\n{line}\ndiscourse = s\n", LEX)
    assert str(exc.value) == f"line 2: unrecognized directive {line!r}"


def test_directive_keywords_may_touch_their_arguments():
    parsed = parse_discourse("profile\tA\nsentence s= john walks\ndiscourse=s\n", LEX)
    assert parsed.profile == Profile.A
    assert parsed.tree == Leaf(parse_sentence_words("john walks", LEX))
    with pytest.raises(DiscourseError, match="line 1: unknown profile 'X A'"):
        parse_discourse("profile X A\ndiscourse = s\n", LEX)


def test_undefined_ids_are_symbolic_leaves_under_symbolic():
    parsed = parse_discourse("profile C\nsymbolic\nsentence s = john walks\n"
                             "discourse = (s .c x) .s (y)\n", LEX)
    s = Leaf(parse_sentence_words("john walks", LEX))
    assert parsed.tree == SubN(CoordN(s, SymLeaf("x")), SymLeaf("y"))


# ---------------------------------------------------------------------------
# Node classes

def test_discourse_nodes_cannot_be_assigned_or_deleted():
    init = default_initial_args(Profile.A)
    for attempt in (lambda: setattr(S_NEG, "negated", False),
                    lambda: delattr(S_NEG.subject, "word"),
                    lambda: setattr(init, "args", ())):
        with pytest.raises(AttributeError):
            attempt()
    assert S_NEG.negated and init == default_initial_args(Profile.A)


def test_discourse_nodes_of_different_classes_differ():
    a, b = SymLeaf("a"), SymLeaf("b")
    assert Seq(a, b) != CoordN(a, b) and CoordN(a, b) != SubN(a, b)
    assert Seq(a, b) != SubN(a, b) and ProperN("it") != Pron("it")
    assert len({Seq(a, b), CoordN(a, b), SubN(a, b), Seq(a, b)}) == 3


def test_equal_discourse_trees_hash_equally():
    one = parse_discourse("profile A\nsentence s0 = john owns (a car)\n"
                          "sentence s1 = it is red\ndiscourse = s0 . s1\n").tree
    two = Seq(Leaf(S_POS), Leaf(S_RED))
    assert one == two and hash(one) == hash(two)


def test_discourse_nodes_take_keywords_and_defaults():
    assert Verb(word="walks") == Verb("walks", None) and Verb("walks").obj is None
    s = Sentence(subject=ProperN("john"), predicate=CopulaAdj("red"))
    assert s == Sentence(ProperN("john"), CopulaAdj("red"), False) and not s.negated
    assert InitialArgs(profile=Profile.A, args=default_initial_args(Profile.A).args) \
        == default_initial_args(Profile.A)


def test_discourse_repr_keeps_its_text():
    assert repr(S_NEG) == (
        "Sentence(subject=ProperN(word='john'), predicate=Verb(word='own', "
        "obj=Det(word='a', noun='car')), negated=True)")
    assert repr(CoordN(SymLeaf("a"), Leaf(Sentence(Pron("it"), CopulaAdj("red"))))) == (
        "CoordN(left=SymLeaf(name='a'), right=Leaf(sentence=Sentence("
        "subject=Pron(word='it'), predicate=CopulaAdj(word='red'), negated=False)))")
