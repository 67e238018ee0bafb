"""Acceptance suite: one test per criterion, each printing a PASS line
(visible with `pytest -s tests/test_acceptance.py`).  All comparisons are
exact unless the criterion is an oracle equivalence, which runs the
brute-force model checker at the stated domain size."""
import random

from contsem.discourse import (
    CoordN, Leaf, Seq, SubN, SymLeaf,
    expand_symbolic, interpret, parse_sentence_words,
)
from contsem.lexicon import CATEGORY_TYPES, Profile, default_lexicon
from contsem.logic import (
    And, Atom, Bot, ConsE, EntConst, EntVar, Exists, NilE, Not, Or, SelOf, reify, simplify,
)
from contsem.resolver import report
from contsem.syntax import parse_term
from contsem.terms import (
    AND, NIL, OR, SENT_C,
    App, Lam, Var, app, normalize, typecheck,
)
from contsem.reduction import reduce_once

from gen import applicative_normalize, random_closed_term, random_formula
from oracle import logically_equiv

LEX = default_lexicon()
SEED = 20260810

KB = "t>t>t"
PHIB = f"({KB})>g>g>t"
SB = f"({KB})>g>g>({PHIB})>t"
KC = "g>g>g"
PHIC = f"({KC})>g>g>t"

J = EntConst("j")
Y = EntVar(0)


def _report_names(formula):
    return [[r.names[c.level] if isinstance(c, EntVar) else c.name for c in r.candidates]
            for r in report(formula)]


def test_criterion_1_basic_continuation_golden():
    ast = parse_sentence_words("john loves (a woman)", LEX)
    from contsem.discourse import build_sentence
    nf = normalize(build_sentence(ast, LEX, Profile.A))
    expected = parse_term(
        r"\e:g. \phi:g>t. Ex (\y:e. woman y & (love j y & phi (y::e)))",
        LEX.signature())
    assert nf == expected
    print("criterion 1: PASS - profile A normal form is exact")


def test_criterion_2_ownership_derivation():
    own_acar = app(LEX.entry("own", Profile.B),
                   app(LEX.entry("a", Profile.B), LEX.entry("car", Profile.B)))
    nf = normalize(own_acar)

    # Expected pre-fusion form; its bracketed application only shares the
    # continuation, so both sides are normalized before comparing.
    pre_fusion = parse_term(
        rf"\S:(e>{SB})>{SB}. S (\x:e. \c:{KB}. \e1:g. \e2:g. \phi:{PHIB}."
        rf" Ex (\y:e."
        rf" (\phi':{PHIB}. (c (car y) (phi' c e1 e2)) & (c (own x y) (phi' c e1 e2)))"
        rf" (\c':{KB}. \e1':g. \e2':g. phi c e1' (y::e2'))))",
        LEX.signature())
    assert nf == normalize(pre_fusion)

    # Structural pre-fusion check: under the binders the body is a
    # conjunction of two separate connective applications sharing one
    # continuation; the fusion into c(car&own)(...) is logic-level only.
    body = nf.body.arg.body.body.body.body.body.arg.body
    assert isinstance(body, App) and body.fn.fn == AND
    car_part, own_part = body.fn.arg, body.arg
    assert car_part.fn.fn == Var(4) and own_part.fn.fn == Var(4)
    assert car_part.fn.arg.fn.name == "car"
    assert own_part.fn.arg.fn.fn.name == "own"
    assert car_part.arg == own_part.arg

    # Fused final line: equivalent at both connective instantiations, under a
    # shared concrete subject and continuation.
    fused = parse_term(
        rf"\S:(e>{SB})>{SB}. S (\x:e. \c:{KB}. \e1:g. \e2:g. \phi:{PHIB}."
        rf" Ex (\y:e. c (car y & own x y) (phi c e1 (y::e2))))",
        LEX.signature())
    john = LEX.entry("john", Profile.B)
    phi_e = parse_term(r"\c:t>t>t. \e1:g. \e2:g. ~(c top bot)")
    for conn in (AND, OR):
        unfused_f = reify(normalize(app(nf, john, conn, NIL, NIL, phi_e)))
        fused_f = reify(normalize(app(fused, john, conn, NIL, NIL, phi_e)))
        assert logically_equiv(unfused_f, fused_f, 3)
    print("criterion 2: PASS - pre-fusion normal form matches; fused form equivalent at c:=and,or")


def test_criterion_3_connective_fusion_truth_tables():
    cases = 0
    for c in (lambda a, b: a and b, lambda a, b: a or b):
        for phi in (False, True):
            for psi in (False, True):
                for k in (False, True):
                    assert (c(phi, k) and c(psi, k)) == c(phi and psi, k)
                    cases += 1
    assert cases == 16
    print("criterion 3: PASS - 8-row fusion tables hold for both connectives")


EXPECTED_SIMPLIFIED_NEG = And(
    Not(Exists(And(Atom("car", (Y,)), Atom("own", (J, Y))))),
    Atom("red", (SelOf(ConsE(J, NilE())),)))

RAW_NEGATED_REFERENCE = Not(Exists(Or(
    And(Atom("car", (Y,)), Atom("own", (J, Y))),
    Or(Not(Atom("red", (SelOf(ConsE(J, NilE())),))), Bot()))))


def test_criterion_4_end_to_end_golden():
    s1 = parse_sentence_words("john doesnt own (a car)", LEX)
    s2 = parse_sentence_words("it is red", LEX)
    raw, simp = interpret(Seq(Leaf(s1), Leaf(s2)), LEX, Profile.B)
    assert simp == EXPECTED_SIMPLIFIED_NEG
    assert logically_equiv(raw, RAW_NEGATED_REFERENCE, 3)
    print("criterion 4: PASS - simplified form exact; raw form equivalent to the intermediate at domain 3")


# Hand beta-reduction of the positive variant (committed oracle): s2 receives
# e1 = j::nil and e2 = y::nil, so the selection environment evaluates to
# y::j::nil with the existential's referent most recent.
EXPECTED_SIMPLIFIED_POS = Exists(And(
    And(Atom("car", (Y,)), Atom("own", (J, Y))),
    Atom("red", (SelOf(ConsE(Y, ConsE(J, NilE()))),))))


def test_criterion_5_accessibility_goldens():
    s2 = parse_sentence_words("it is red", LEX)
    neg = parse_sentence_words("john doesnt own (a car)", LEX)
    pos = parse_sentence_words("john owns (a car)", LEX)

    _, simp_neg = interpret(Seq(Leaf(neg), Leaf(s2)), LEX, Profile.B)
    assert _report_names(simp_neg) == [["j"]]

    _, simp_pos = interpret(Seq(Leaf(pos), Leaf(s2)), LEX, Profile.B)
    assert simp_pos == EXPECTED_SIMPLIFIED_POS
    assert _report_names(simp_pos) == [["y", "j"]]
    print("criterion 5: PASS - reports are [j] under negation and [y, j] for the positive variant")


def test_criterion_6_symbolic_expansion_goldens():
    sig = {"s1": SENT_C, "s2": SENT_C, "s3": SENT_C}
    head = f"\\c:{KC}. \\e1:g. \\e2:g. \\phi:{PHIC}. s1 c e1 e2"
    tail = {
        "cc": f"(\\c2:{KC}. \\f1:g. \\f2:g. s2 Coord f1 (c e1 e2)"
              f" (\\c3:{KC}. \\g1:g. \\g2:g. s3 Coord g1 (c e1 e2) phi))",
        "cs": f"(\\c2:{KC}. \\f1:g. \\f2:g. s2 Coord f1 (c e1 e2)"
              f" (\\c3:{KC}. \\g1:g. \\g2:g. s3 Sub g1 (c e1 e2) phi))",
        "sc": f"(\\c2:{KC}. \\f1:g. \\f2:g. s2 Sub f1 (c e1 e2)"
              f" (\\c3:{KC}. \\g1:g. \\g2:g. s3 Coord g1 (f1 ++ (c e1 e2)) phi))",
        "ss": f"(\\c2:{KC}. \\f1:g. \\f2:g. s2 Sub f1 (c e1 e2)"
              f" (\\c3:{KC}. \\g1:g. \\g2:g. s3 Sub g1 (f1 ++ (c e1 e2)) phi))",
    }
    s1, s2, s3 = SymLeaf("s1"), SymLeaf("s2"), SymLeaf("s3")
    trees = {
        "cc": CoordN(s1, CoordN(s2, s3)),
        "cs": CoordN(s1, SubN(s2, s3)),
        "sc": SubN(s1, CoordN(s2, s3)),
        "ss": SubN(s1, SubN(s2, s3)),
    }
    for key, tree in trees.items():
        expected = parse_term(f"{head} {tail[key]}", sig)
        assert normalize(expected) == expected
        assert expand_symbolic(tree, LEX) == expected, key
    print("criterion 6: PASS - all four two-connective expansions match exactly")


def test_criterion_7_concrete_right_frontier_accessibility():
    s1 = parse_sentence_words("john owns (a car)", LEX)
    s2 = parse_sentence_words("mary owns (a dog)", LEX)
    s3 = parse_sentence_words("it is red", LEX)

    # Coordination at the top: (c e1 e2) = e2 = nil, so the pronoun in s3
    # sees only s2's referents.
    _, simp = interpret(CoordN(Leaf(s1), CoordN(Leaf(s2), Leaf(s3))), LEX, Profile.C)
    (names,) = _report_names(simp)
    assert names == ["y1", "mary"]
    assert "j" not in names and "y" not in names

    # Subordination at the top: (c e1 e2) = e1 ++ e2 keeps s1's referents on
    # the frontier.
    _, simp = interpret(SubN(Leaf(s1), CoordN(Leaf(s2), Leaf(s3))), LEX, Profile.C)
    (names,) = _report_names(simp)
    assert names == ["y1", "mary", "y", "j"]
    print("criterion 7: PASS - coordination hides the first unit's referent, subordination keeps it")


def test_criterion_8_property_suites():
    rng = random.Random(SEED)
    for _ in range(500):
        t = random_closed_term(rng)
        ty = typecheck(t)
        nf = normalize(t)                       # terminates within budget
        assert typecheck(nf) == ty              # subject reduction
        assert reduce_once(nf) is None
        assert nf == applicative_normalize(t)  # strategies agree

    rng = random.Random(SEED + 1)
    for _ in range(200):
        f = random_formula(rng)
        s = simplify(f)
        assert logically_equiv(f, s, 3)
        assert simplify(s) == s

    for entry in LEX.entries():
        expected = CATEGORY_TYPES[entry.profile][entry.category]
        assert typecheck(entry.term) == expected
    print("criterion 8: PASS - 500-term and 200-formula suites plus lexicon-wide typecheck")


def test_criterion_9_rejected_negation_demonstration():
    s1 = parse_sentence_words("john doesnt own (a car)", LEX)
    s2 = parse_sentence_words("it is red", LEX)
    tree = Seq(Leaf(s1), Leaf(s2))

    def red_under_negation(f, under=False):
        if isinstance(f, Not):
            return red_under_negation(f.body, True)
        if isinstance(f, (And, Or)):
            return (red_under_negation(f.left, under)
                    or red_under_negation(f.right, under))
        if isinstance(f, Exists):
            return red_under_negation(f.body, under)
        return isinstance(f, Atom) and f.pred == "red" and under

    def has_red(f):
        if isinstance(f, Not):
            return has_red(f.body)
        if isinstance(f, (And, Or)):
            return has_red(f.left) or has_red(f.right)
        if isinstance(f, Exists):
            return has_red(f.body)
        return isinstance(f, Atom) and f.pred == "red"

    _, simp_rejected = interpret(tree, LEX.with_rejected_negation(), Profile.A)
    assert red_under_negation(simp_rejected)

    _, simp_accepted = interpret(tree, LEX, Profile.A)
    assert has_red(simp_accepted) and not red_under_negation(simp_accepted)
    print("criterion 9: PASS - rejected variant drags the continuation under the negation")
