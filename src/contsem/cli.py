"""Command-line front end.

    contsem run <file> [--profile A|B|C] [--mode MODE] [--symbolic]
                 [--resolve recency|symbolic] [--raw | --no-raw] [--trace]
                 [--max-steps N] [--format text|json]

Modes: `interpret` (default) runs the full pipeline on a discourse file;
`symbolic-expand` (or --symbolic) prints the normalized interpretation of an
all-symbolic profile-C discourse; `term-eval` treats the input as a single
term in the named lambda syntax and normalizes it.

Exit status: 0 on success, 1 on any pipeline error, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .errors import ContsemError, DepthLimitExceeded
from . import terms as tm
from .discourse import (
    InitialArgs, default_initial_args, has_symbolic_leaves, parse_discourse,
    run_pipeline,
)
from .lexicon import Profile, default_lexicon
from .logic import formula_json, formula_text
from .resolver import report, report_line, resolve
from .syntax import parse_term, pretty
from .terms import normalize, trace, typecheck


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="contsem",
        description="Interpret discourses as first-order logical forms and "
                    "report which referents each pronoun can reach.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the pipeline on a discourse file")
    run.add_argument("input", metavar="file")
    run.add_argument("--profile", choices=["A", "B", "C"])
    run.add_argument("--mode", choices=["interpret", "symbolic-expand", "term-eval"],
                     default="interpret")
    run.add_argument("--symbolic", action="store_true",
                     help="shorthand for --mode symbolic-expand")
    run.add_argument("--resolve", choices=["symbolic", "recency"],
                     default="symbolic", dest="resolve_strategy")
    run.add_argument("--raw", action=argparse.BooleanOptionalAction,
                     default=True, dest="show_raw",
                     help="print the unsimplified formula (default on)")
    run.add_argument("--trace", action="store_true",
                     help="print the reduction sequence")
    run.add_argument("--max-steps", type=int, default=100_000, dest="max_steps",
                     metavar="N", help="fail after N beta contractions, each a "
                     "closure application (--trace: a normal-order step); "
                     "default %(default)s")
    run.add_argument("--format", choices=["text", "json"], default="text",
                     dest="output")
    run.add_argument("--connective", choices=["and", "or"], default="and",
                     help="initial connective for profile B (default: and)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.symbolic:
        ns.mode = "symbolic-expand"
    return run(ns)


def run(ns: argparse.Namespace) -> int:
    try:
        with open(ns.input, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        reason = (f"no such file: {ns.input}" if isinstance(exc, FileNotFoundError)
                  else f"cannot read {ns.input}: {exc.strerror}")
        print(f"contsem: {reason}", file=sys.stderr)
        print("usage: contsem run <file> [options]", file=sys.stderr)
        return 2
    except UnicodeDecodeError:
        print(f"contsem: {ns.input} is not UTF-8 text", file=sys.stderr)
        return 1
    try:
        if ns.mode == "term-eval":
            return _run_term(ns, text)
        return _run_discourse(ns, text)
    except (ContsemError, RecursionError) as exc:
        if isinstance(exc, RecursionError):
            exc = DepthLimitExceeded()
        print(f"contsem: {exc}", file=sys.stderr)
        return 1


def _json_text(doc) -> str:
    """`json.dumps(doc, indent=2)` for dicts, lists, str, int, bool and None,
    from an explicit stack: json's encoder with `indent` is pure Python and recurses."""
    out, stack = [], [(doc, "\n")]    # pending text, or (value, its line start)
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        value, newline = item
        if type(value) is str:
            out.append(encode_basestring_ascii(value))
        elif not value or not isinstance(value, (dict, list)):
            out.append(json.dumps(value))   # the same text with or without indent
        else:
            inner, brackets = newline + "  ", "{}" if type(value) is dict else "[]"
            pairs = ([(f"{encode_basestring_ascii(k)}: ", v) for k, v in value.items()]
                     if brackets == "{}" else [("", v) for v in value])
            out.append(brackets[0])
            stack.append(newline + brackets[1])
            for i in range(len(pairs) - 1, -1, -1):
                stack += (pairs[i][1], inner), ("," if i else "") + inner + pairs[i][0]
    return "".join(out)


def _emit(ns: argparse.Namespace, lines: list[str], doc: dict) -> int:
    if ns.output == "json":
        print(_json_text(doc))
    else:
        for line in lines:
            print(line)
    return 0


def _trace_lines(term, max_steps):
    out = []
    for step in trace(term, max_steps):
        where = ".".join(step.position) or "root"
        out.append(f"step {step.step} @ {where}: {pretty(step.term)}")
    return out


def _run_discourse(ns: argparse.Namespace, text: str) -> int:
    lexicon = default_lexicon()
    parsed = parse_discourse(text, lexicon)
    profile = Profile(ns.profile) if ns.profile else parsed.profile
    if profile is None:
        print("contsem: no profile given (add a `profile` line or --profile)",
              file=sys.stderr)
        return 2
    symbolic = ns.mode == "symbolic-expand" or (
        ns.mode == "interpret" and parsed.symbolic
        and has_symbolic_leaves(parsed.tree))
    if symbolic and profile != Profile.C:
        print("contsem: symbolic expansion requires profile C", file=sys.stderr)
        return 2

    init = None if symbolic else default_initial_args(profile)
    if profile == Profile.B and ns.connective == "or":
        init = InitialArgs(profile, (tm.OR,) + init.args[1:])
    result = run_pipeline(parsed.tree, lexicon, profile, init, ns.max_steps)
    composed_text, normal_text = pretty(result.composed), pretty(result.normal)
    lines = [f"composed: {composed_text}"]
    if ns.trace:
        lines.extend(_trace_lines(result.composed if symbolic else result.applied,
                                  ns.max_steps))
    lines.append(f"{'expanded' if symbolic else 'normal'}: {normal_text}")
    json_out = ns.output == "json"
    doc: dict = {
        "profile": profile.value,
        "composed_term": composed_text,
        "normal_form": normal_text,
        "raw_formula": None,
        "simplified_formula": None,
        "access_reports": [],
        "resolved_formula": None,
    }
    if symbolic:
        return _emit(ns, lines, doc)

    def formula_doc(f, text):
        return {"text": text, "tree": formula_json(f)} if json_out else None

    raw, simplified = result.raw, result.simplified
    if ns.show_raw or json_out:
        raw_text = formula_text(raw)
        if ns.show_raw:
            lines.append(f"raw: {raw_text}")
        doc["raw_formula"] = formula_doc(raw, raw_text)
    simplified_text = formula_text(simplified)
    lines.append(f"simplified: {simplified_text}")
    doc["simplified_formula"] = formula_doc(simplified, simplified_text)

    reports = report(simplified)
    for r in reports:
        lines.append(report_line(r))
    if json_out:
        doc["access_reports"] = [
            {"site": r.site_id,
             "env": formula_json(r.env),
             "candidates": [formula_json(c) for c in r.candidates]}
            for r in reports
        ]

    if ns.resolve_strategy == "recency":
        resolved = resolve(simplified, "recency")
        resolved_text = formula_text(resolved)
        lines.append(f"resolved: {resolved_text}")
        doc["resolved_formula"] = formula_doc(resolved, resolved_text)
    return _emit(ns, lines, doc)


def _run_term(ns: argparse.Namespace, text: str) -> int:
    lexicon = default_lexicon()
    term = parse_term(text.strip(), lexicon.signature())
    ty = typecheck(term)
    doc = {"term": pretty(term), "type": tm.type_text(ty), "normal_form": None}
    lines = [f"term: {doc['term']}", f"type: {doc['type']}"]
    if ns.trace:
        lines.extend(_trace_lines(term, ns.max_steps))
    doc["normal_form"] = pretty(normalize(term, ns.max_steps))
    lines.append(f"normal: {doc['normal_form']}")
    return _emit(ns, lines, doc)


if __name__ == "__main__":
    sys.exit(main())
