import json
from pathlib import Path

import pytest

from contsem import cli
from contsem.cli import main

SAMPLES = Path(__file__).parent.parent / "samples"
GOLDEN = SAMPLES / "golden"


@pytest.mark.parametrize("sample", sorted(p.name for p in SAMPLES.glob("*.dsc")))
def test_samples_match_committed_goldens(sample, capsys):
    code = main(["run", str(SAMPLES / sample)])
    out = capsys.readouterr().out
    assert code == 0
    golden = (GOLDEN / sample.replace(".dsc", ".out")).read_text()
    assert out == golden


def test_key_golden_lines(capsys):
    main(["run", str(SAMPLES / "doesnt_own_car.dsc")])
    out = capsys.readouterr().out.splitlines()
    assert "simplified: (~ Ex y. (car y & own j y)) & red(sel(j::nil))" in out
    assert "sel#0 env=j::nil candidates=[j]" in out


def test_missing_file_is_usage_error(capsys):
    code = main(["run", "no/such/file.dsc"])
    err = capsys.readouterr().err
    assert code == 2
    assert "usage" in err


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


def test_deeply_nested_term_is_pipeline_error(tmp_path, capsys):
    f = tmp_path / "deep.lam"
    f.write_text("~ " * 3000 + "top")
    assert main(["run", str(f), "--mode", "term-eval"]) == 1
    assert "contsem: input nested too deeply" in capsys.readouterr().err


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
    """Wrap each named function where `cli` looks it up; count the calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(cli, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
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
    sample = str(SAMPLES / "doesnt_own_car.dsc")
    assert main(["run", sample, "--format", "json", *flags]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert calls == {"pretty": 2, "formula_text": formulas, "formula_json": formulas}
    golden = dict(line.split(": ", 1) for line in _GOLDEN_LINES if ": " in line)
    assert doc["composed_term"] == golden["composed"]
    assert doc["normal_form"] == golden["normal"]
    assert doc["raw_formula"]["text"] == golden["raw"]
    assert doc["simplified_formula"]["text"] == golden["simplified"]
    assert doc["raw_formula"]["tree"]["node"] == "not"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_term_eval_renders_each_term_once(fmt, tmp_path, monkeypatch, capsys):
    f = tmp_path / "term.lam"
    f.write_text(r"(\x:e. x) j")
    calls = _count_calls(monkeypatch, "pretty")
    assert main(["run", str(f), "--mode", "term-eval", "--format", fmt]) == 0
    assert calls == {"pretty": 2}
