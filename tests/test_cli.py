import argparse
import contextlib
import errno
import gc
import io
import json
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from contsem import cli, discourse, logic, syntax, terms as tm
from contsem.cli import main
from contsem.discourse import (
    PHI_B, InitialArgs, default_initial_args, interpret, parse_discourse, run_pipeline,
)
from contsem.lexicon import Profile, default_lexicon, load_word_file
from contsem.logic import (
    And, Atom, Bot, ConsE, EntConst, EntVar, Exists, NilE, Not, Or, SelOf, Top,
    UnionE, formula_json, formula_text, json_text,
)
from contsem.node import Node
from contsem.resolver import report, report_line, resolve

from gen import (
    discourse_file, flat_discourse_text, pipeline_cases, random_formula, reference_json,
    reference_report_json,
)

SAMPLES = Path(__file__).parent.parent / "samples"
GOLDEN = SAMPLES / "golden"


@pytest.mark.parametrize("sample", sorted(p.name for p in SAMPLES.glob("*.dsc")))
def test_samples_match_committed_goldens(sample, capsys):
    code = main(["run", str(SAMPLES / sample)])
    out = capsys.readouterr().out
    assert code == 0
    golden = (GOLDEN / sample.replace(".dsc", ".out")).read_text()
    assert out == golden


@pytest.mark.parametrize("sample", sorted(p.name for p in SAMPLES.glob("*.dsc")))
def test_samples_match_committed_json_goldens(sample, capsys):
    code = main(["run", str(SAMPLES / sample), "--format", "json", "--resolve", "recency"])
    golden = (GOLDEN / sample.replace(".dsc", ".json")).read_text()
    assert code == 0
    assert capsys.readouterr() == (golden, "")


def test_key_golden_lines(capsys):
    main(["run", str(SAMPLES / "doesnt_own_car.dsc")])
    out = capsys.readouterr().out.splitlines()
    assert "simplified: (~ Ex y. (car y & own j y)) & red(sel(j::nil))" in out
    assert "sel#0 env=j::nil candidates=[j]" in out


_USAGE = "usage: contsem run <file> [options]\n"


def test_missing_file_is_usage_error(capsys):
    assert main(["run", "no/such/file.dsc"]) == 2
    assert capsys.readouterr() == ("", f"contsem: no such file: no/such/file.dsc\n{_USAGE}")


def test_unreadable_input_is_usage_error(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    first, usage = err.splitlines(keepends=True)
    assert out == "" and usage == _USAGE
    assert first.startswith(f"contsem: cannot read {tmp_path}: ")


def test_non_utf8_input_is_pipeline_error(tmp_path, capsys):
    f = tmp_path / "latin1.dsc"
    f.write_bytes(b"profile A\nsentence s = j\xf6hn walks\ndiscourse = s\n")
    assert main(["run", str(f)]) == 1
    assert capsys.readouterr() == ("", f"contsem: {f} is not UTF-8 text\n")


class _Unwritable:
    """A standard output whose writes fail with `error`; its descriptor is a
    file of the test's, which a failed run points at the null device."""
    def __init__(self, error, fd):
        self.error, self.fd = error, fd

    def write(self, text):
        raise self.error

    def flush(self):
        raise self.error

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("error,err", [
    (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),     # quiet, as Python's SIGPIPE note asks
    (OSError(errno.ENOSPC, "No space left on device"),
     "contsem: cannot write the output: No space left on device\n"),
], ids=["closed-pipe", "full-device"])
@pytest.mark.parametrize("flags", [[], ["--format", "json"], ["--mode", "term-eval"]])
def test_a_failed_write_exits_1_with_stdout_on_the_null_device(
        error, err, flags, tmp_path, monkeypatch, capsys):
    """A closed pipe or a full device ends the run with exit status 1, no
    traceback, and standard output pointed at the null device, so that the
    interpreter's flush at exit fails no more."""
    sample = SAMPLES / ("terms/quantifier.lam" if flags == ["--mode", "term-eval"]
                        else "doesnt_own_car.dsc")
    with open(tmp_path / "stdout", "w") as held:
        monkeypatch.setattr(sys, "stdout", _Unwritable(error, held.fileno()))
        assert main(["run", str(sample), *flags]) == 1
        monkeypatch.undo()
        assert os.path.samestat(os.fstat(held.fileno()), os.stat(os.devnull))
    assert capsys.readouterr() == ("", err)


def test_running_out_of_memory_in_the_json_writer_exits_1(monkeypatch, capsys):
    def exhausted(text):
        raise MemoryError
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", exhausted)
    assert main(["run", str(SAMPLES / "doesnt_own_car.dsc"), "--format", "json"]) == 1
    assert capsys.readouterr() == ("", "contsem: out of memory\n")


def test_symbolic_requires_profile_c(capsys):
    code = main(["run", str(SAMPLES / "doesnt_own_car.dsc"), "--symbolic"])
    assert code == 2
    assert "profile C" in capsys.readouterr().err


def test_profile_override(capsys):
    code = main(["run", str(SAMPLES / "rfc_coord_coord.dsc"), "--profile", "C"])
    assert code == 0


def test_bad_discourse_is_pipeline_error(tmp_path, capsys):
    bad = tmp_path / "bad.dsc"
    bad.write_text("profile B\nsentence s1 = john frobs\ndiscourse = s1\n")
    code = main(["run", str(bad)])
    assert code == 1
    assert "contsem:" in capsys.readouterr().err


def test_connective_or_starts_profile_b_from_disjunction(capsys):
    """`--connective or` prints, text and JSON, what the pipeline gives from
    `|`; on a profile A or C file it changes nothing."""
    sample = SAMPLES / "doesnt_own_car.dsc"
    lex = default_lexicon()
    result = run_pipeline(parse_discourse(sample.read_text(), lex).tree, lex, Profile.B,
                          InitialArgs(Profile.B, (tm.OR, tm.NIL, tm.NIL, PHI_B)))
    reports = report(result.simplified)
    assert main(["run", str(sample), "--connective", "or"]) == 0
    assert capsys.readouterr() == ("\n".join([
        f"composed: {syntax.pretty(result.composed)}", f"normal: {syntax.pretty(result.normal)}",
        f"raw: {formula_text(result.raw)}", f"simplified: {formula_text(result.simplified)}",
        *map(report_line, reports)]) + "\n", "")
    assert formula_text(result.simplified) == "(~ Ex y. (car y & own j y)) | red(sel(j::nil))"
    assert main(["run", str(sample), "--connective", "or", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    formulas = {"raw_formula": result.raw, "simplified_formula": result.simplified}
    assert doc == {
        "profile": "B", "composed_term": syntax.pretty(result.composed),
        "normal_form": syntax.pretty(result.normal),
        **{key: {"text": formula_text(f), "tree": reference_json(f)}
           for key, f in formulas.items()},
        "access_reports": list(map(reference_report_json, reports)),
        "resolved_formula": None}
    for name in ("loves_woman", "rfc_concrete_sub"):      # profiles A and C
        assert main(["run", str(SAMPLES / f"{name}.dsc"), "--connective", "or"]) == 0
        assert capsys.readouterr() == ((GOLDEN / f"{name}.out").read_text(), "")


def test_no_profile_is_usage_error(tmp_path, capsys):
    f = tmp_path / "d.dsc"
    f.write_text("sentence s = john walks\ndiscourse = s\n")
    assert main(["run", str(f)]) == 2
    assert capsys.readouterr() == (
        "", "contsem: no profile given (add a `profile` line or --profile)\n")


def test_module_entry_point_reproduces_the_golden():
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "contsem.cli", "run",
                           str(SAMPLES / "owns_car.dsc")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, (GOLDEN / "owns_car.out").read_text(), "")


def test_resolve_recency_appends_resolved_line(capsys):
    main(["run", str(SAMPLES / "doesnt_own_car.dsc"), "--resolve", "recency"])
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "resolved: (~ Ex y. (car y & own j y)) & red j"


def test_no_raw_suppresses_raw_line(capsys):
    main(["run", str(SAMPLES / "doesnt_own_car.dsc"), "--no-raw"])
    out = capsys.readouterr().out
    assert "\nraw:" not in out
    assert "simplified:" in out


def test_json_output_schema(capsys):
    main(["run", str(SAMPLES / "doesnt_own_car.dsc"), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["profile"] == "B"
    assert set(doc) >= {"composed_term", "normal_form", "raw_formula",
                        "simplified_formula", "access_reports",
                        "resolved_formula"}
    assert doc["simplified_formula"]["text"] == \
        "(~ Ex y. (car y & own j y)) & red(sel(j::nil))"
    assert doc["access_reports"][0]["site"] == 0
    assert doc["access_reports"][0]["candidates"] == \
        [{"entity": "const", "name": "j"}]
    assert doc["resolved_formula"] is None


def test_json_mode_builds_no_text_lines(monkeypatch, capsys):
    """JSON output needs neither the reports' nor the trace's text lines."""
    for name in ("report_line", "_trace_lines"):
        monkeypatch.setattr(cli, name, lambda *_: pytest.fail("a text line was built"))
    for sample in sorted(SAMPLES.glob("*.dsc")):
        argv = ["run", str(sample), "--format", "json", "--resolve", "recency", "--trace"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{sample.stem}.json").read_text()


def test_trace_lines_appear(capsys):
    main(["run", str(SAMPLES / "loves_woman.dsc"), "--trace"])
    out = capsys.readouterr().out
    assert "step 0 @" in out


def test_term_eval_mode(tmp_path, capsys):
    f = tmp_path / "term.lam"
    f.write_text(r"(\x:e. x) j")
    code = main(["run", str(f), "--mode", "term-eval"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1] == "type: e"
    assert out[-1] == "normal: j"


def test_term_eval_type_error_is_pipeline_error(tmp_path, capsys):
    f = tmp_path / "term.lam"
    f.write_text("j j")
    assert main(["run", str(f), "--mode", "term-eval"]) == 1


def test_max_steps_flag(tmp_path, capsys):
    f = tmp_path / "term.lam"
    f.write_text(r"(\x:e. x) j")
    assert main(["run", str(f), "--mode", "term-eval", "--max-steps", "0"]) == 1


def test_trace_at_exactly_max_steps(tmp_path, capsys):
    """`--trace` and the normalizer both take two steps on this term."""
    f = tmp_path / "term.lam"
    f.write_text(r"(\x:e. walk x) ((\y:e. y) j)")
    argv = ["run", str(f), "--mode", "term-eval", "--trace", "--max-steps"]
    assert main([*argv, "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        r"step 0 @ root: walk ((\x1:e. x1) j)", "step 1 @ arg: walk j", "normal: walk j"]
    assert main([*argv, "1"]) == 1
    assert capsys.readouterr() == ("", "contsem: normalization exceeded 1 steps\n")


TERMS = SAMPLES / "terms"


@pytest.mark.parametrize("sample", sorted(p.name for p in TERMS.glob("*.lam")))
def test_term_samples_match_committed_goldens(sample, capsys):
    assert main(["run", str(TERMS / sample), "--mode", "term-eval"]) == 0
    golden = (TERMS / "golden" / sample.replace(".lam", ".out")).read_text()
    assert capsys.readouterr() == (golden, "")


@pytest.mark.parametrize("name", sorted(
    str(p.relative_to(SAMPLES)) for p in [*SAMPLES.glob("*.dsc"), *TERMS.glob("*.lam")]))
def test_a_leading_byte_order_mark_is_skipped(name, tmp_path, capsys):
    """Some editors save UTF-8 with a byte-order mark; the file reads as without."""
    sample = SAMPLES / name
    f = tmp_path / sample.name
    f.write_bytes(b"\xef\xbb\xbf" + sample.read_bytes())
    flags = ["--mode", "term-eval"] if sample.suffix == ".lam" else []
    assert main(["run", str(f), *flags]) == 0
    golden = sample.parent / "golden" / sample.with_suffix(".out").name
    assert capsys.readouterr() == (golden.read_text(), "")


@pytest.mark.parametrize("text,err", [
    ("love j $ mary", "unexpected character '$' (line 1, column 8)"),
    (r"\nil:g. nil", "'nil' is reserved and cannot be bound (line 1, column 2)"),
    (r"\x e. x", "expected ':', found 'e' (line 1, column 4)"),
    (r"\x:e x", "expected '.', found 'x' (line 1, column 6)"),
    (r"\x:e>q. x", "expected a type, found 'q' (line 1, column 6)"),
    ("\\x:(e>t. x\n", "expected ')', found '.' (line 1, column 8)"),
    (r"top & \x:e. red x", r"expected a term, found '\\' (line 1, column 7)"),
    ("nil ++ ~ top", "expected a term, found '~' (line 1, column 8)"),
    ("(& top", "expected a term, found '&' (line 1, column 2)"),
    ("(top & bot", "expected ')', found '' (line 1, column 11)"),
    ("(\\x:e.\n   red x\n   & walk x ~)\n", "expected ')', found '~' (line 3, column 13)"),
    ("top & bot)", "unexpected ')' after term (line 1, column 10)"),
    ("red j .", "unexpected '.' after term (line 1, column 7)"),
    ("red mystery", "unknown identifier 'mystery'"),
    ("top |", "expected a term, found '' (line 1, column 6)"),
    ("", "expected a term, found '' (line 1, column 1)"),
])
def test_malformed_term_diagnostics(text, err, tmp_path, capsys):
    f = tmp_path / "bad.lam"
    f.write_text(text)
    assert main(["run", str(f), "--mode", "term-eval"]) == 1
    assert capsys.readouterr() == ("", f"contsem: {err}\n")


def test_deeply_nested_term_is_pipeline_error(tmp_path, capsys):
    f = tmp_path / "deep.lam"
    f.write_text("~ " * 3000 + "top")
    assert main(["run", str(f), "--mode", "term-eval"]) == 1
    assert "contsem: input nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("profile", [Profile.A, Profile.C])
def test_flat_256_sentence_discourse_runs(profile, tmp_path, capsys):
    f = tmp_path / "flat.dsc"
    f.write_text(flat_discourse_text(profile, 256))
    assert main(["run", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("sel#") for line in out) == 128   # one per `it`


def test_deeply_nested_discourse_is_pipeline_error(tmp_path, capsys):
    expr = "s0"
    for i in range(1, 512):
        expr = f"({expr} . s{i % 2})"
    f = tmp_path / "deep.dsc"
    f.write_text("profile A\nsentence s0 = john loves (a woman)\n"
                 f"sentence s1 = it is red\ndiscourse = {expr}\n")
    assert main(["run", str(f)]) == 1
    assert "contsem: input nested too deeply" in capsys.readouterr().err



def _count_calls(monkeypatch, *names):
    """Wrap each named function where `cli` looks it up, or in `logic` if `cli`
    does not; count the calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        home = cli if hasattr(cli, name) else logic
        def counted(*args, _fn=getattr(home, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(home, name, counted)
    return calls


_GOLDEN_LINES = (GOLDEN / "doesnt_own_car.out").read_text().splitlines()
_RESOLVED = "resolved: (~ Ex y. (car y & own j y)) & red j"


@pytest.mark.parametrize("flags,lines,formulas", [
    ([], _GOLDEN_LINES, 2),                                        # raw, simplified
    (["--no-raw"], [x for x in _GOLDEN_LINES if not x.startswith("raw:")], 1),
    (["--resolve", "recency"], _GOLDEN_LINES + [_RESOLVED], 3),    # and resolved
])
def test_text_mode_renders_each_artifact_once(flags, lines, formulas, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "pretty", "formula_text", "formula_json")
    assert main(["run", str(SAMPLES / "doesnt_own_car.dsc"), *flags]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    assert calls == {"pretty": 2, "formula_text": formulas, "formula_json": 0}


@pytest.mark.parametrize("flags,formulas", [
    ([], 2),
    (["--no-raw"], 2),                 # the JSON doc keeps the raw formula
    (["--resolve", "recency"], 3),
])
def test_json_mode_renders_each_formula_once(flags, formulas, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "pretty", "formula_text", "formula_json")
    sample = SAMPLES / "doesnt_own_car.dsc"
    assert main(["run", str(sample), "--format", "json", *flags]) == 0
    doc = json.loads(capsys.readouterr().out)
    # The JSON writer reads the formula, environment and candidate nodes itself.
    assert calls == {"pretty": 2, "formula_text": formulas, "formula_json": 0}
    golden = dict(line.split(": ", 1) for line in _GOLDEN_LINES if ": " in line)
    assert doc["composed_term"] == golden["composed"]
    assert doc["normal_form"] == golden["normal"]
    assert doc["raw_formula"]["text"] == golden["raw"]
    assert doc["simplified_formula"]["text"] == golden["simplified"]
    assert doc["raw_formula"]["tree"]["node"] == "not"
    raw, simplified = interpret(parse_discourse(sample.read_text(), default_lexicon()).tree)
    assert doc["raw_formula"]["tree"] == reference_json(raw) == formula_json(raw)
    assert doc["simplified_formula"]["tree"] == reference_json(simplified)
    resolved = resolve(simplified, "recency") if "recency" in flags else None
    assert doc["resolved_formula"] == (resolved and {
        "text": formula_text(resolved), "tree": reference_json(resolved)})
    assert doc["access_reports"] == list(map(reference_report_json, report(simplified)))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_term_eval_renders_each_term_once(fmt, tmp_path, monkeypatch, capsys):
    f = tmp_path / "term.lam"
    f.write_text(r"(\x:e. x) j")
    calls = _count_calls(monkeypatch, "pretty")
    assert main(["run", str(f), "--mode", "term-eval", "--format", fmt]) == 0
    assert calls == {"pretty": 2}


def test_term_eval_json_builds_no_trace_lines(tmp_path, monkeypatch, capsys):
    """Under --format json the trace still runs, so its step budget still
    fails the run, but no trace line is built."""
    monkeypatch.setattr(cli, "_trace_lines", lambda *_: pytest.fail("a trace line was built"))
    for sample in sorted(TERMS.glob("*.lam")):
        argv = ["run", str(sample), "--mode", "term-eval", "--format", "json"]
        assert main(argv) == 0
        alone = capsys.readouterr()
        assert main([*argv, "--trace"]) == 0
        assert capsys.readouterr() == alone
    f = tmp_path / "term.lam"
    f.write_text(r"(\p:t. p & p) ((\q:t. q) top)")     # normal order: 3 steps; NbE: 2
    argv = ["run", str(f), "--mode", "term-eval", "--format", "json", "--max-steps", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--trace"]) == 1
    assert capsys.readouterr() == ("", "contsem: normalization exceeded 2 steps\n")


def test_library_and_cli_give_the_same_formulas(tmp_path, capsys):
    lex = default_lexicon()
    f = tmp_path / "d.dsc"
    for tree, profile in pipeline_cases(lex):
        f.write_text(discourse_file(tree, profile))
        assert main(["run", str(f), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        raw, simplified = interpret(tree, lex, profile)
        assert doc["raw_formula"]["text"] == formula_text(raw)
        assert doc["simplified_formula"]["text"] == formula_text(simplified)


def test_cli_runs_each_stage_once(monkeypatch, capsys):
    """One discourse, one call of each stage (a stage's calls to itself
    are not counted), and no typecheck: the initial arguments are checked
    once per process, here by the first line."""
    init_args = list(default_initial_args(Profile.B).args)
    calls = dict.fromkeys(["compose", "normalize", "reify", "simplify"], 0)
    active = dict.fromkeys(calls, False)
    for name in calls:
        def counted(*args, _fn=getattr(discourse, name), _name=name):
            calls[_name] += not active[_name]
            outer, active[_name] = active[_name], True
            try:
                return _fn(*args)
            finally:
                active[_name] = outer
        monkeypatch.setattr(discourse, name, counted)
    typechecked = []
    monkeypatch.setattr(discourse, "typecheck",
                        lambda t, _fn=discourse.typecheck: typechecked.append(t) or _fn(t))
    assert main(["run", str(SAMPLES / "doesnt_own_car.dsc")]) == 0
    assert capsys.readouterr().out == (GOLDEN / "doesnt_own_car.out").read_text()
    assert calls == dict.fromkeys(calls, 1)
    assert init_args and typechecked == []


_RED = "sentence s1 = it is red\n"


@pytest.mark.parametrize("profile,text,expr,err", [
    ("C", "john doesnt own (a car)", "s0",
     "negation is not available in profile C"),
    ("C", "john doesnt own", "s0", "negation is not available in profile C"),
    ("A", "john is car", "s0",
     "cannot parse sentence 'john is car': 'car' is not an adjective"),
    ("A", "john owns", "s0", "transitive verb 'own' needs an object"),
    ("C", "john owns", "s0", "transitive verb 'own' needs an object"),
    ("A", "john doesnt loves", "s0", "transitive verb 'loves' needs an object"),
    ("C", "mary walks (a dog)", "s0", "intransitive verb 'walks' takes no object"),
    ("A", "john doesnt walk (a car)", "s0",
     "intransitive verb 'walks' takes no object"),
    # A word with a registry row but no entry in the profile is reported
    # where the walk reaches it, before a later arity error.
    ("A", "mary walks (a dog)", "s0", "no entry for 'mary' in profile A"),
    ("B", "mary walks", "s0", "no entry for 'mary' in profile B"),
    ("B", "john doesnt walk", "s0", "no entry for 'walks' in profile B"),
    ("B", "it is happy", "s0", "no entry for 'happy' in profile B"),
    ("A", "john owns (a car)\n" + _RED, "s0 .c s1",
     "coordination (.c) is not available in profile A"),
    ("B", "john owns (a car)\n" + _RED, "s0 .s s1",
     "subordination (.s) is not available in profile B"),
    ("C", "john owns (a car)\n" + _RED, "s0 . s1",
     "plain sequencing (.) is not available in profile C"),
    # Each directive, and each sentence id, appears once.
    ("A", "john owns (a car)\nprofile A", "s0", "line 3: duplicate profile line"),
    ("A", "john owns (a car)\nsentence s0 = it is red", "s0",
     "line 3: duplicate sentence id 's0'"),
    ("A", "john owns (a car)", "s0\ndiscourse = s0 . s0", "line 4: duplicate discourse line"),
    # Each directive's own shape.
    ("A", "john owns (a car)\nsentence s1 it is red", "s0",
     "line 3: expected `sentence <id> = <words>`"),
    ("A", "john owns (a car)\nsentence 1x = it is red", "s0", "line 3: bad sentence id '1x'"),
    ("A", "john owns (a car)", "s0\ndiscourse s0", "line 4: expected `discourse = <expr>`"),
])
def test_ill_formed_discourse_diagnostics(profile, text, expr, err, tmp_path, capsys):
    f = tmp_path / "bad.dsc"
    f.write_text(f"profile {profile}\nsentence s0 = {text}\ndiscourse = {expr}\n")
    assert main(["run", str(f)]) == 1
    assert capsys.readouterr() == ("", f"contsem: {err}\n")


def test_quantified_names_skip_constants_of_a_word_file(tmp_path, monkeypatch, capsys):
    """A noun `y` and a name `y1` hold the first two quantifier names, so
    the two indefinites are bound as y2 and y3."""
    monkeypatch.setattr(cli, "default_lexicon",
                        lambda: load_word_file(["noun y", "pnoun y1"]))
    f = tmp_path / "y.dsc"
    f.write_text("profile A\nsentence s0 = y1 loves (a y)\n"
                 "sentence s1 = (a y) loves it\ndiscourse = s0 . s1\n")
    assert main(["run", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "normal: Ex (\\x1:e. y x1 & love y1 x1 & Ex (\\x2:e. y x2 & "
        "love x2 (sel (x2::x1::nil)) & top))",
        "raw: Ex y2. (y y2 & love y1 y2 & Ex y3. (y y3 & love y3(sel(y3::y2::nil)) & top))",
        "simplified: Ex y2. (y y2 & love y1 y2 & Ex y3. (y y3 & love y3(sel(y3::y2::nil))))",
        "sel#0 env=y3::y2::nil candidates=[y3, y2]",
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pretty_renders_once_without_a_name_clash(fmt, capsys):
    """No constant of `loves_woman.dsc` is named like a fresh binder (x1,
    x2, ...), so each `pretty` call of a run makes exactly one `_render` pass."""
    names = {syntax.pretty.__code__: "pretty", syntax._render.__code__: "_render"}
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code in names
                   and calls.append(names[frame.f_code]))
    try:
        assert main(["run", str(SAMPLES / "loves_woman.dsc"), "--format", fmt]) == 0
    finally:
        sys.setprofile(None)
    assert capsys.readouterr().out and calls.count("pretty") >= 2
    assert calls.count("_render") == calls.count("pretty")


# ---------------------------------------------------------------------------
# JSON output

_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff", "é"]))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(st.lists(_JSON, max_size=3) | st.dictionaries(_TEXT, _JSON, max_size=3))
def test_json_text_is_json_dumps_with_indent(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


def test_json_text_renders_nesting_the_stdlib_cannot():
    """The stdlib's indenting encoder recurses once per level.  The depth is
    a few times the recursion limit, not more: with indent 2 the text of a
    d-deep list grows with d squared (about 18 MB at 3000)."""
    depth = 3 * sys.getrecursionlimit()
    doc: list = []
    for _ in range(depth):
        doc = [doc]
    with pytest.raises(RecursionError):
        json.dumps(doc, indent=2)
    text = json_text(doc)
    assert text == ("".join(f"[\n{'  ' * (i + 1)}" for i in range(depth)) + "[]"
                    + "".join(f"\n{'  ' * i}]" for i in reversed(range(depth))))


def _json_of_nodes(x) -> str:
    """What the writer must print for a node: the recursive references' JSON
    tree of its named form, in a document."""
    return json.dumps({"t": [reference_json(x)]}, indent=2)


def test_json_text_writes_a_node_as_its_formula_json():
    """Random formulas, each entity term and environment in them, and names
    that need escaping: each node, written by the writer, reads as the
    recursive references write it, and `formula_json` reads that text."""
    rng = random.Random(23)
    nodes, stack = [], [random_formula(rng) for _ in range(400)]
    while stack:                    # every node in them, entity terms and environments too
        node = stack.pop()
        stack += [v for v in node._values() if isinstance(v, Node)]
        stack += [a for v in node._values() if type(v) is tuple for a in v]
        nodes.append(node)
    assert {type(n) for n in nodes} == {Top, Bot, Not, And, Or, Exists, Atom, EntConst,
                                        EntVar, SelOf, NilE, ConsE, UnionE}
    odd = EntConst('\u00e9"\\\n')
    nodes += [odd, Exists(Atom("p\udc80", (odd, EntVar(0)))),
              SelOf(ConsE(odd, NilE())), Atom("r", ())]
    for x in nodes:
        assert json_text({"t": [x]}) == _json_of_nodes(x)
        assert formula_json(x) == reference_json(x)


@pytest.mark.parametrize("n", [3, 6, 9])
def test_json_text_writes_shifted_copies_out(n):
    """A flat profile-B discourse's raw formula reads each existential it
    meets again at one depth as one shared node, where it once held a
    `Shifted` copy.  The writer writes each occurrence out, each binder
    named afresh, as the recursive references write the named form, for
    the formula and for each shared existential."""
    lex = default_lexicon()
    parsed = parse_discourse(flat_discourse_text(Profile.B, n), lex)
    raw = run_pipeline(parsed.tree, lex, Profile.B, default_initial_args(Profile.B)).raw
    seen, shared, stack = set(), {}, [raw]     # ids seen; existentials met again, by id
    while stack:
        g = stack.pop()
        if id(g) in seen:
            if type(g) is Exists:
                shared[id(g)] = g
            continue
        seen.add(id(g))
        stack += [v for v in g._values() if isinstance(v, Node)]
    assert type(raw) is Not and type(raw.body) is Exists and len(shared) >= (n - 1) // 2
    for x in (raw, *shared.values()):
        assert json_text(x) == json.dumps(reference_json(x), indent=2)


def test_json_text_writes_a_formula_deeper_than_the_recursion_limit():
    depth = 3 * sys.getrecursionlimit()
    f = Top()
    for _ in range(depth):
        f = Not(f)
    text = json_text(f)
    assert text == ("".join(f'{{\n{"  " * (i + 1)}"node": "not",\n{"  " * (i + 1)}"body": '
                            for i in range(depth))
                    + f'{{\n{"  " * (depth + 1)}"node": "top"\n{"  " * depth}}}'
                    + "".join(f"\n{'  ' * i}}}" for i in reversed(range(depth))))


# ---------------------------------------------------------------------------
# One parser per process

def _alone(argv):
    """(exit status, stdout, stderr) of `argv` run in a fresh interpreter."""
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys; from contsem.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src),
                                          "COLUMNS": "80"})
    return proc.returncode, proc.stdout, proc.stderr


def test_calls_in_one_process_print_what_they_print_alone(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["run", str(SAMPLES / "rfc_coord_sub.dsc"), "--symbolic", "--format", "json"],
        ["run", str(SAMPLES / "owns_car.dsc")],
        ["run", str(SAMPLES / "owns_car.dsc"), "--format", "yaml"],
        ["run", str(SAMPLES / "loves_woman.dsc"), "--no-raw", "--resolve", "recency"],
    ]
    together = []
    for argv in calls:
        code = main(argv)
        together.append((code, *capsys.readouterr()))
    assert [code for code, _, _ in together] == [0, 0, 2, 0]
    assert together[1][1] == (GOLDEN / "owns_car.out").read_text()
    assert "invalid choice: 'yaml'" in together[2][2]
    assert together == [_alone(argv) for argv in calls]


_HELP = """\
usage: contsem [-h] {run} ...

Interpret discourses as first-order logical forms and report which referents
each pronoun can reach.

positional arguments:
  {run}
    run       run the pipeline on a discourse file

options:
  -h, --help  show this help message and exit
"""

_RUN_HELP = """\
usage: contsem run [-h] [--profile {A,B,C}]
                   [--mode {interpret,symbolic-expand,term-eval}] [--symbolic]
                   [--resolve {symbolic,recency}] [--raw | --no-raw] [--trace]
                   [--max-steps N] [--format {text,json}]
                   [--connective {and,or}]
                   file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --profile {A,B,C}
  --mode {interpret,symbolic-expand,term-eval}
  --symbolic            shorthand for --mode symbolic-expand
  --resolve {symbolic,recency}
  --raw, --no-raw       print the unsimplified formula (default on)
  --trace               print the whole term at every reduction step; meant
                        for small inputs
  --max-steps N         fail after N beta contractions, each a closure
                        application (--trace: a normal-order step); default
                        100000
  --format {text,json}
  --connective {and,or}
                        initial connective for profile B (default: and)

In profile B the normal form and the raw formula (`normal:`, `raw:`; JSON
`normal_form`, `raw_formula`) grow exponentially with the number of
indefinites; the simplified formula does not.
"""
if sys.version_info < (3, 11):      # argparse added the default itself then
    _RUN_HELP = _RUN_HELP.replace(
        "(default on)\n", "(default on) (default:\n                        True)\n")


@pytest.mark.parametrize("argv,text", [(["--help"], _HELP), (["run", "--help"], _RUN_HELP)])
def test_help_text_is_unchanged(argv, text, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr() == (text, "")


def test_the_parser_is_built_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    cli._parser.cache_clear()
    for argv in (["run", str(SAMPLES / "owns_car.dsc")], ["run", "--bogus"],
                 ["run", str(SAMPLES / "owns_car.dsc"), "--format", "json"], ["--help"]):
        main(argv)
    capsys.readouterr()
    assert len(built) == 2          # `contsem` and its `run` subparser


# ---------------------------------------------------------------------------
# Plain argvs, read without argparse as argparse reads them

_FLAGS = [flag for flag, *_ in cli._OPTIONS] + ["--no-raw", "--help"]
_STEPS = ["5", "0010", "-5", "+5", "1_000", "\u00b2", "\u0665"]
_VALUES = [v for *_, kind, _ in cli._OPTIONS if isinstance(kind, tuple) for v in kind]
_VALUES += _STEPS + ["yaml", "D", "", "-A"]
_PAIRS = [[flag, v] for flag, *_, kind, _ in cli._OPTIONS if kind is not None
          for v in (_STEPS if kind is int else kind)]
_WORDS = st.sampled_from(
    [flag[:n] for flag in _FLAGS for n in range(3, len(flag) + 1)]
    + [f"{flag}={v}" for flag in _FLAGS for v in _VALUES]
    + _VALUES + ["-h", "--", "-", "run", "f.dsc"]) | st.text(max_size=6)
_ITEMS = (st.sampled_from([[flag] for flag in _FLAGS] + _PAIRS)
          | st.lists(st.sampled_from(_FLAGS + _VALUES) | _WORDS, min_size=1, max_size=2))
_ARGVS = st.builds(lambda head, items: head + sum(items, []),
                   st.sampled_from([["run", "f.dsc"]] * 4 + [[], ["run"]]),
                   st.lists(_ITEMS, max_size=4))


def _argparse_reads(argv):
    """vars() of argparse's namespace for `argv`, None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_ARGVS)
def test_the_plain_reader_reads_what_argparse_reads(argv):
    plain = cli._plain_args(argv)
    assert plain is None or vars(plain) == _argparse_reads(argv)


_OWNS = str(SAMPLES / "owns_car.dsc")


@pytest.mark.parametrize("argv", [
    ["run", _OWNS, "--form", "json"], ["run", _OWNS, "--format=json"],
    ["run", "--format", "json", _OWNS], ["run", _OWNS, "--", "--trace"],
    ["run", _OWNS, "-h"], ["run", _OWNS, "--no-trace"], ["run", _OWNS, "--format"],
    *(["run", _OWNS, "--max-steps", n] for n in ("-5", "+5", "1_000", "\u00b2", "\u0665", " 5")),
])
def test_other_spellings_go_to_argparse(argv):
    assert cli._plain_args(argv) is None


def test_every_option_is_read_plainly():
    argv = ["run", _OWNS, "--profile", "C", "--mode", "term-eval", "--symbolic", "--raw",
            "--no-raw", "--trace", "--max-steps", "0010", "--format", "json",
            "--connective", "or", "--resolve", "recency", "--profile", "B"]
    assert vars(cli._plain_args(argv)) == _argparse_reads(argv)


def test_a_plain_run_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    cli._parser.cache_clear()
    assert main(["run", str(SAMPLES / "loves_woman.dsc"), "--no-raw", "--resolve", "recency"]) == 0
    assert built == []
    assert capsys.readouterr().err == ""


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    for argv in (["run", _OWNS], ["run", "--format=json", "--resolve=recency", _OWNS]):
        monkeypatch.setattr(sys, "argv", ["contsem", *argv])
        assert main() == 0
    assert capsys.readouterr().out == ((GOLDEN / "owns_car.out").read_text()
                                       + (GOLDEN / "owns_car.json").read_text())


def test_a_plain_run_loads_neither_argparse_nor_json():
    """-S keeps site hooks from loading either first."""
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys\nfrom contsem.cli import main\n"
            f"main(['run', {_OWNS!r}, '--no-raw', '--resolve', 'recency'])\n"
            "print(sorted({'argparse', 'json', 'contsem.reduction'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


_PIPELINE = ["contsem", *(f"contsem.{m}" for m in (
    "cli", "discourse", "errors", "lexicon", "logic", "node", "resolver", "syntax", "terms"))]


def _loaded_after_run(*flags) -> list[str]:
    """The `contsem` modules a fresh interpreter holds after one `main` run
    on a sample; -S keeps site hooks from importing anything first."""
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys\nfrom contsem.cli import main\n"
            f"main(['run', {_OWNS!r}, *{list(flags)!r}])\n"
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'contsem'))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return out.stdout.splitlines()[-1].split()


def test_a_plain_run_loads_exactly_the_pipeline_modules():
    assert _loaded_after_run("--no-raw", "--resolve", "recency") == _PIPELINE


def test_trace_adds_exactly_the_reducer():
    assert _loaded_after_run("--trace") == sorted([*_PIPELINE, "contsem.reduction"])


def test_the_package_holds_only_modules_a_run_loads():
    """No module in the package is there for the tests alone: each one is
    loaded by a plain run or a `--trace` run."""
    package = Path(cli.__file__).parent
    held = [f"contsem.{m.name}" for m in pkgutil.iter_modules([str(package)])]
    assert sorted(["contsem", *held]) == _loaded_after_run("--trace")


# The cyclic collector during a run

def _bench_like(tmp_path) -> list[list[str]]:
    """Flat A24 and C24 as long-ac runs them, and flat B6 as branching-b does."""
    argvs = []
    for profile, n, flags in ((Profile.A, 24, []), (Profile.C, 24, []),
                              (Profile.B, 6, ["--no-raw"])):
        f = tmp_path / f"flat_{profile.value}{n}.dsc"
        f.write_text(flat_discourse_text(profile, n))
        argvs += [["run", str(f), *flags], ["run", str(f), "--format", "json", *flags]]
    return argvs


def test_no_collection_starts_inside_a_run(tmp_path, capsys):
    """Reference counting frees what a run allocates, so `main` keeps the
    collector off from argv to print: with the threshold as it is, no
    collection starts inside a call (without the pause, a long-ac pass started 8)."""
    argvs = [["run", str(SAMPLES / p.name), *flags] for p in sorted(SAMPLES.glob("*.dsc"))
             for flags in ([], ["--format", "json", "--resolve", "recency"])]
    argvs += [["run", str(p), "--mode", "term-eval", "--trace"]
              for p in sorted(TERMS.glob("*.lam"))]
    argvs += _bench_like(tmp_path)
    inside, started = [None], []
    watch = lambda phase, info: phase == "start" and started.append(inside[0])
    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(watch)
    try:
        for _ in range(3):
            for argv in argvs:
                inside[0] = argv
                assert main(argv) == 0, argv
                inside[0] = None
                capsys.readouterr()
    finally:
        gc.callbacks.remove(watch)
        (gc.enable if enabled else gc.disable)()
    assert started and [argv for argv in started if argv is not None] == []


@pytest.mark.parametrize("enabled", [True, False])
def test_a_plain_run_leaves_no_garbage_and_the_collector_as_found(enabled, tmp_path, capsys):
    """After each exit, a result, a budget or depth failure and a usage error,
    the collector is on or off as the caller had it and finds nothing to free."""
    for profile, n in ((Profile.B, 16), (Profile.A, 600)):
        (tmp_path / f"flat_{profile.value}{n}.dsc").write_text(flat_discourse_text(profile, n))
    cases = [(_OWNS, 0, ""), (str(tmp_path / "flat_B16.dsc"), 1, "normalization exceeded"),
             (str(tmp_path / "flat_A600.dsc"), 1, "input nested too deeply"),
             (str(tmp_path / "missing.dsc"), 2, "no such file")]
    flags, was = gc.get_debug(), gc.isenabled()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for path, code, err in cases:
            (gc.enable if enabled else gc.disable)()
            gc.garbage.clear()
            assert main(["run", path]) == code
            assert gc.isenabled() is enabled
            assert err in capsys.readouterr().err
            gc.collect()
            assert gc.garbage == [], path
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        (gc.enable if was else gc.disable)()
