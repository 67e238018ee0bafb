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
from .logic import expand, formula_json, formula_text
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
    run = sub.add_parser(
        "run", help="run the pipeline on a discourse file",
        epilog="In profile B the normal form and the raw formula (`normal:`, `raw:`; "
               "JSON `normal_form`, `raw_formula`) grow exponentially with the number "
               "of indefinites; the simplified formula does not.")
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
                     help="print the whole term at every reduction step; "
                     "meant for small inputs")
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


def _trace_lines(steps) -> list[str]:
    return [f"step {step.step} @ {'.'.join(step.position) or 'root'}: {pretty(step.term)}"
            for step in steps]


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
    json_out = ns.output == "json"
    composed_text, normal_text = pretty(result.composed), pretty(result.normal)
    steps = trace(result.composed if symbolic else result.applied,
                  ns.max_steps) if ns.trace else ()
    simplified = result.simplified      # None in symbolic expansion
    raw = result.raw if not symbolic and (ns.show_raw or json_out) else None
    reports = () if symbolic else report(simplified)
    recency = not symbolic and ns.resolve_strategy == "recency"
    resolved = resolve(simplified, "recency") if recency else None
    if json_out:
        def formula_doc(f):     # profile B's raw copies are written out once, for both
            return None if f is None else {"text": formula_text(f), "tree": formula_json(f)}

        print(_json_text({
            "profile": profile.value,
            "composed_term": composed_text,
            "normal_form": normal_text,
            "raw_formula": formula_doc(expand(raw) if profile == Profile.B else raw),
            "simplified_formula": formula_doc(simplified),
            "access_reports": [{"site": r.site_id,
                                "env": formula_json(r.env),
                                "candidates": [formula_json(c) for c in r.candidates]}
                               for r in reports],
            "resolved_formula": formula_doc(resolved),
        }))
        return 0
    lines = [f"composed: {composed_text}", *_trace_lines(steps),
             f"{'expanded' if symbolic else 'normal'}: {normal_text}"]
    if not symbolic:
        if ns.show_raw:
            lines.append(f"raw: {formula_text(raw)}")
        lines.append(f"simplified: {formula_text(simplified)}")
        lines += map(report_line, reports)
        if resolved is not None:
            lines.append(f"resolved: {formula_text(resolved)}")
    print("\n".join(lines))
    return 0


def _run_term(ns: argparse.Namespace, text: str) -> int:
    lexicon = default_lexicon()
    term = parse_term(text.strip(), lexicon.signature())
    ty = typecheck(term)
    doc = {"term": pretty(term), "type": tm.type_text(ty), "normal_form": None}
    lines = [f"term: {doc['term']}", f"type: {doc['type']}"]
    if ns.trace:
        lines.extend(_trace_lines(trace(term, ns.max_steps)))
    doc["normal_form"] = pretty(normalize(term, ns.max_steps))
    lines.append(f"normal: {doc['normal_form']}")
    print(_json_text(doc) if ns.output == "json" else "\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
