import copy
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import contsem
from contsem.lexicon import CATEGORY_TYPES, Profile, default_lexicon
from contsem.discourse import (
    CoordN, Det, Seq, SymLeaf, Verb, default_initial_args, parse_discourse, run_pipeline,
)
from contsem.logic import Atom, Bot, EntConst, EntVar, NilE, Not, Top
from contsem.terms import (
    App, Arrow, Base, Const, E, G, Lam, T, Var,
    KAPPA_B, KAPPA_C, SENT_A, SENT_B, SENT_C,
    StepBudgetExceeded, TypeMismatch, UnboundVariable,
    app, arrow, normalize, paused_collector, typecheck,
)
from contsem.reduction import reduce_once, trace
from contsem.syntax import parse_term, parse_type

from gen import (
    GEN_SIG, applicative_normalize, constants, distinct_nodes, flat_discourse_text, is_closed,
    random_closed_term, random_type,
    random_typecheck_case, recursive_type_text, recursive_typecheck, size, subterms,
    term_preorder,
)

J = Const("j", E)


def test_arrow_is_right_associative():
    assert arrow(E, T, G) == Arrow(E, Arrow(T, G))
    assert arrow(arrow(G, T), T).text == "(g>t)>t"


def test_type_abbreviations_expand():
    assert KAPPA_B == arrow(T, T, T)
    assert KAPPA_C == arrow(G, G, G)
    assert SENT_A == arrow(G, arrow(G, T), T)
    assert SENT_B == arrow(KAPPA_B, G, G, arrow(KAPPA_B, G, G, T), T)
    assert SENT_C == arrow(KAPPA_C, G, G, arrow(KAPPA_C, G, G, T), T)


def test_typecheck_identity():
    assert typecheck(Lam(E, Var(0))) == Arrow(E, E)


def test_typecheck_application_mismatch():
    with pytest.raises(TypeMismatch) as exc:
        typecheck(App(J, J))
    assert exc.value.position == ("fn",)


def test_typecheck_unbound_variable():
    with pytest.raises(UnboundVariable):
        typecheck(Lam(E, Var(3)))
    with pytest.raises(UnboundVariable):
        typecheck(Lam(E, Var(-1)))


@pytest.mark.parametrize("source,message", [
    (r"\x:e. own (own x j j) j",
     "type mismatch at body.fn.arg.fn: expected a function type, found t"),
    (r"\x:e. own x p", "type mismatch at body.arg: expected e, found t"),
    (r"\e:g. \x:e. ~ (car (sel (x::e)) & own x (sel (x::p)))",
     "type mismatch at body.body.arg.arg.arg.arg.arg: expected g, found t"),
])
def test_typecheck_error_positions(source, message):
    sig = {"j": E, "car": arrow(E, T), "own": arrow(E, E, T), "p": T}
    with pytest.raises(TypeMismatch) as exc:
        typecheck(parse_term(source, sig))
    assert str(exc.value) == message
    assert ".".join(exc.value.position) == message.split()[3][:-1]


def test_unbound_variable_position():
    own = Const("own", arrow(E, E, T))
    with pytest.raises(UnboundVariable) as exc:
        typecheck(Lam(E, App(App(own, Var(0)), Lam(E, Var(4)))))
    assert str(exc.value) == "unbound variable #4 at body.arg.body"
    assert exc.value.position == ("body", "arg", "body")


def _typecheck_outcome(check, term, ctx):
    try:
        return check(term, ctx)
    except (TypeMismatch, UnboundVariable) as exc:
        return type(exc), str(exc), exc.position


def test_typecheck_matches_recursive_reference():
    rng = random.Random(13)
    cases = [random_typecheck_case(rng) for _ in range(20_000)]
    outcomes = [_typecheck_outcome(typecheck, t, ctx) for t, ctx in cases]
    assert [c for c, o in zip(cases, outcomes)
            if o != _typecheck_outcome(recursive_typecheck, *c)] == []
    failures = [o[0] for o in outcomes if type(o) is tuple]
    assert 0.4 < len(failures) / len(cases) < 0.6
    assert {TypeMismatch, UnboundVariable} <= set(failures)


def test_typecheck_deep_terms():
    """At the default recursion limit: a 10 000-deep negation chain and a
    3 000-deep nest of entity binders."""
    t = Const("top", T)
    for _ in range(10_000):
        t = App(Const("~", arrow(T, T)), t)
    assert typecheck(t) == T
    t = Var(2_999)
    for _ in range(3_000):
        t = Lam(E, t)
    assert typecheck(t).text == "e>" * 3_000 + "e"


def test_normalize_identity_redex():
    assert normalize(App(Lam(E, Var(0)), J)) == J


def test_normalize_under_binders():
    t = parse_term(r"\x:e. (\y:e. y) x")
    assert normalize(t) == Lam(E, Var(0))


def test_step_budget_is_enforced():
    with pytest.raises(StepBudgetExceeded):
        normalize(App(Lam(E, Var(0)), J), max_steps=0)


def test_alpha_eq_is_structural():
    assert Lam(E, Var(0)) == Lam(E, Var(0))
    assert Lam(E, Var(0)) != Lam(T, Var(0))


def test_alpha_eq_ignores_surface_names():
    sig = {"j": E, "woman": arrow(E, T), "love": arrow(E, E, T)}
    a = parse_term(r"\e:g. \phi:g>t. Ex (\y:e. woman y & (love j y & phi (y::e)))", sig)
    b = parse_term(r"\env:g. \k:g>t. Ex (\w:e. woman w & (love j w & k (w::env)))", sig)
    assert a == b


def test_reduce_once_finds_leftmost_outermost():
    inner = App(Lam(E, Var(0)), J)
    t = App(Lam(E, Var(0)), inner)
    reduced, path = reduce_once(t)
    assert path == ()
    assert reduced == inner


def test_trace_single_step():
    steps = trace(App(Lam(E, Var(0)), J))
    assert len(steps) == 1
    assert steps[0].term == J


def test_trace_of_normal_term_is_empty():
    assert trace(J) == []
    assert trace(Lam(E, Var(0))) == []


# (\x:e. walk x) ((\y:e. y) j): two steps by normal order and by NbE.
WALK_ID_J = App(Lam(E, App(Const("walk", arrow(E, T)), Var(0))), App(Lam(E, Var(0)), J))


def test_trace_at_exactly_its_budget():
    """A normal form reached at the last step the budget allows is returned."""
    assert normalize(WALK_ID_J, max_steps=2) == parse_term("walk j", {"walk": arrow(E, T), "j": E})
    assert [s.step for s in trace(WALK_ID_J, max_steps=2)] == [0, 1]
    for reducer in (normalize, trace):
        with pytest.raises(StepBudgetExceeded) as exc:
            reducer(WALK_ID_J, max_steps=1)
        assert exc.value.max_steps == 1


def test_subterm_trace_positions():
    t = Lam(E, App(Lam(E, Var(0)), Var(0)))
    steps = trace(t)
    assert steps[0].position == ("body",)


SEED = 20260810


def test_random_terms_normalize_and_preserve_types():
    rng = random.Random(SEED)
    for _ in range(150):
        t = random_closed_term(rng)
        assert is_closed(t)
        assert size(t) <= 40
        ty = typecheck(t)
        nt = normalize(t)
        assert typecheck(nt) == ty
        assert reduce_once(nt) is None


def test_reduction_strategies_agree():
    rng = random.Random(SEED + 1)
    for _ in range(150):
        t = random_closed_term(rng)
        assert normalize(t) == applicative_normalize(t)


def test_trace_endpoint_matches_normalize():
    rng = random.Random(SEED + 2)
    for _ in range(60):
        t = random_closed_term(rng, fuel=18)
        steps = trace(t)
        end = steps[-1].term if steps else t
        assert end == normalize(t)


def test_alpha_eq_is_an_equivalence_on_generated_terms():
    rng = random.Random(SEED + 3)
    terms = [random_closed_term(rng, fuel=12) for _ in range(40)]
    for t in terms:
        assert t == t
    for a in terms[:10]:
        for b in terms[:10]:
            assert (a == b) == (b == a)
            for c in terms[:5]:
                if a == b and b == c:
                    assert a == c


def test_app_helper_left_associates():
    f = GEN_SIG["q2"]
    assert app(f, J, J) == App(App(f, J), J)


def test_constants_in_preorder_of_first_occurrence():
    rng = random.Random(4)
    for _ in range(1000):
        t = random_closed_term(rng)
        expected = {s.name: s.ty for s in subterms(t) if isinstance(s, Const)}
        assert list(constants(t).items()) == list(expected.items())


# ---------------------------------------------------------------------------
# Node classes and type text

def test_term_fields_cannot_be_assigned_or_deleted():
    lam = Lam(arrow(E, T), Var(0))
    attempts = [lambda: setattr(lam, "ty", E), lambda: delattr(lam, "body"),
                lambda: setattr(lam, "extra", 1), lambda: setattr(E, "name", "t"),
                lambda: setattr(lam.ty, "text", "t"), lambda: delattr(lam.ty, "text")]
    for attempt in attempts:
        with pytest.raises(AttributeError):
            attempt()
    assert lam == Lam(arrow(E, T), Var(0)) and lam.ty.text == "e>t"


def test_equal_terms_are_equal_across_classes_only_by_fields():
    a, b = (App(Lam(E, Var(0)), Const("j", E)) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, App(Lam(E, Var(0)), Const("k", E))}) == 2
    assert Var(0) != Base("e") and Const("e", E) != Base("e")
    assert Arrow(E, T) != Arrow(T, E) and hash(Arrow(E, T)) == hash(arrow(E, T))


def test_deep_values_compare_and_hash_at_the_default_limit():
    """`Node`'s `__eq__` and `__hash__` walk an explicit stack, comparing
    classes at every level."""
    assert sys.getrecursionlimit() <= 1000
    a, b = (parse_type("e>" * 3000 + "t") for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_type("e>" * 3000 + "g") and a != parse_type("e>" * 2999 + "t")
    x, y = (parse_term("~ " * 5000 + "top") for _ in range(2))
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != parse_term("~ " * 5000 + "bot") and x != parse_term("~ " * 4999 + "top")
    assert Seq(SymLeaf("a"), SymLeaf("b")) != CoordN(SymLeaf("a"), SymLeaf("b"))
    assert NilE() != Top() and Not(Top()) != Not(Bot()) and Not(Top()) == Not(Top())
    assert Verb("own", None) != Verb("own", Det("a", "car")) != Verb("own", Det("a", "dog"))
    assert Atom("p", (EntConst("x"),)) != Atom("p", (EntVar(0),))


def test_equality_and_hash_agree_with_preorders():
    """Two random terms are equal exactly when their preorders are, and equal
    terms hash alike; each term is built twice."""
    terms = [random_closed_term(random.Random(seed)) for seed in range(40)]
    twins = [random_closed_term(random.Random(seed)) for seed in range(40)]
    for a, b in itertools.product(terms, twins):
        assert (a == b) == (term_preorder(a) == term_preorder(b)), (a, b)
        assert a != b or hash(a) == hash(b)
    assert all(a == b for a, b in zip(terms, twins))


def test_terms_take_keywords_and_defaults():
    assert Lam(ty=E, body=Var(index=0)) == Lam(E, Var(0))
    assert Atom(pred="p") == Atom("p", ()) and Atom("p").args == ()
    assert Arrow(dom=E, cod=T).text == "e>t"
    with pytest.raises(TypeError):
        App(Var(0))


def test_terms_copy_and_pickle():
    t = Lam(arrow(arrow(E, T), T), App(Var(0), Const("j", E)))
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin == t and twin.ty.text == "(e>t)>t"


def test_term_repr_keeps_its_text():
    t = Lam(arrow(E, T), App(Const("p", arrow(E, T)), Var(0)))
    assert repr(t) == (
        "Lam(ty=Arrow(Base('e'), Base('t')), body=App(fn=Const(name='p', "
        "ty=Arrow(Base('e'), Base('t'))), arg=Var(index=0)))")
    assert repr(Atom("p")) == "Atom(pred='p', args=())"


def test_deep_values_show_pickle_and_copy_at_the_default_limit():
    """`repr` and the flat form pickle reads walk an explicit stack; a copy
    of an immutable value is the value itself."""
    assert sys.getrecursionlimit() <= 1000
    ty = parse_type("e>" * 3000 + "t")
    term = parse_term("~ " * 5000 + "top")
    assert repr(ty) == "Arrow(Base('e'), " * 3000 + "Base('t')" + ")" * 3000
    assert repr(term) == (
        "App(fn=Const(name='~', ty=Arrow(Base('t'), Base('t'))), arg=" * 5000
        + "Const(name='top', ty=Base('t'))" + ")" * 5000)
    for value in (ty, term, Lam(ty, Var(0)), Atom("p", (EntConst("x"),) * 3)):
        twin = pickle.loads(pickle.dumps(value))
        assert twin == value and twin is not value and repr(twin) == repr(value)
        assert copy.copy(value) is value and copy.deepcopy(value) is value
    assert pickle.loads(pickle.dumps(ty)).text == ty.text


def test_deep_copies_of_a_discourse_file_copy_its_dict():
    parsed = parse_discourse(flat_discourse_text(Profile.B, 2), default_lexicon())
    twin = copy.deepcopy(parsed)
    assert twin == parsed and twin.sentences is not parsed.sentences
    assert copy.copy(parsed) is parsed


def test_pickle_and_copy_keep_shared_subterms_shared():
    """A profile-B normal form is a DAG; its copies share what it shares."""
    lex = default_lexicon()
    parsed = parse_discourse(flat_discourse_text(Profile.B, 8), lex)
    nf = run_pipeline(parsed.tree, lex, Profile.B, default_initial_args(Profile.B)).normal
    assert sum(1 for _ in subterms(nf)) > 10 * distinct_nodes(nf)
    twin = pickle.loads(pickle.dumps(nf))
    assert twin == nf and distinct_nodes(twin) == distinct_nodes(nf)
    assert copy.deepcopy(nf) is nf
    x = App(Var(0), Var(0))
    pair = pickle.loads(pickle.dumps(App(x, x)))
    assert pair.fn is pair.arg and pair.fn.fn is not pair.fn.arg


def test_importing_the_cli_leaves_dataclasses_unloaded():
    """`dataclasses` pulls in `inspect` and friends, `typing` is as costly,
    and `pathlib` brings `urllib.parse` and `ipaddress`: each is a fixed cost
    of every run.  -S keeps site hooks from loading them first."""
    src = Path(contsem.__file__).resolve().parent.parent
    code = ("import sys, contsem.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)},
                         check=True)
    assert out.stdout == "[]\n"


def test_type_text_matches_the_recursive_rendering():
    lex = default_lexicon()
    types = [typecheck(e.term) for e in lex.entries()]
    types += [s.ty for e in lex.entries() for s in subterms(e.term)
              if isinstance(s, Lam)]
    types += [ty for row in CATEGORY_TYPES.values() for ty in row.values()]
    rng = random.Random(11)
    types += [random_type(rng, 4) for _ in range(2000)]
    assert sum(isinstance(ty, Arrow) and isinstance(ty.dom, Arrow) for ty in types) > 300
    for ty in types:
        assert ty.text == recursive_type_text(ty)
        assert parse_type(ty.text) == ty


def test_deep_arrow_types_take_linear_memory():
    """A long arrow builds its text on its first read, with a loop, and
    its long parts keep none: a 5000-deep type is parsed and rendered at the
    default recursion limit in memory linear in its depth."""
    assert sys.getrecursionlimit() <= 1000
    text = "e>" * 5000 + "t"
    tracemalloc.start()
    try:
        ty = parse_type(text)
        assert ty.text == text and ty.text is ty.text     # built once, then the slot
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000     # the text of every suffix took 25 MB
    left = parse_type("(" * 3000 + "e" + ">t)" * 3000 + ">t")
    assert left.text == "(" * 3000 + "e" + ">t)" * 3000 + ">t"


def test_type_checks_compare_texts_not_nodes():
    """The type checks where input enters (lexicon entries, initial
    arguments) and typecheck's argument check compare the types' texts: no
    generated `__eq__` of a type or term runs under them."""
    from contsem import discourse, lexicon, terms
    eqs = {cls.__eq__.__code__ for cls in (Base, Arrow, Var, Lam, App, Const)}
    checks = {lexicon.Lexicon.__init__.__code__, discourse.InitialArgs.__init__.__code__,
              terms.typecheck.__code__}
    seen = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in eqs:
            caller = frame.f_back
            while caller is not None and caller.f_code not in checks:
                caller = caller.f_back
            if caller is not None:
                seen.append(caller.f_code.co_name)

    sys.setprofile(profiler)
    try:
        entries = default_lexicon.__wrapped__().entries()  # parses and checks every profile
        for profile in lexicon.Profile:
            discourse.default_initial_args.__wrapped__(profile)
    finally:
        sys.setprofile(None)
    assert len(entries) == 18
    assert seen == []


def test_paused_collector_goes_off_before_it_allocates():
    """At a threshold of 1 an allocation while the collector is on starts a
    collection; none starts from the call to the block's end, nested or not,
    and each block leaves the collector as it found it."""
    window, started, threshold = [False], [], gc.get_threshold()
    watch = lambda phase, info: phase == "start" and started.append(window[0])
    gc.callbacks.append(watch)
    gc.set_threshold(1)
    try:
        for _ in range(200):
            window[0] = True
            with paused_collector():
                with paused_collector():
                    pass
                assert not gc.isenabled()
            window[0] = False
            assert gc.isenabled() and {frozenset({1})}     # sets have no free list: a collection
        gc.disable()
        with paused_collector():
            pass
        assert not gc.isenabled()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(watch)
        gc.enable()
    assert False in started and True not in started
