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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ContsemError, DepthLimitExceeded
from . import terms as tm
from .discourse import (
    InitialArgs, compose, default_initial_args, has_symbolic_leaves,
    parse_discourse,
)
from .lexicon import Profile, default_lexicon
from .logic import entity_json, env_json, formula_json, formula_text, reify, simplify
from .resolver import report, report_line, resolve
from .syntax import parse_term, pretty
from .terms import app, normalize, trace, typecheck


@dataclass
class RunConfig:
    input: Path
    profile: Optional[Profile] = None
    mode: str = "interpret"            # interpret | symbolic-expand | term-eval
    resolve_strategy: str = "symbolic"  # symbolic | recency
    show_raw: bool = True
    trace: bool = False
    max_steps: int = 100_000
    output: str = "text"               # text | json
    connective: str = "and"            # initial connective, profile B only


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contsem",
        description="Interpret discourses as first-order logical forms and "
                    "report which referents each pronoun can reach.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the pipeline on a discourse file")
    run.add_argument("file", type=Path)
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = RunConfig(
        input=ns.file,
        profile=Profile(ns.profile) if ns.profile else None,
        mode="symbolic-expand" if ns.symbolic else ns.mode,
        resolve_strategy=ns.resolve_strategy,
        show_raw=ns.show_raw,
        trace=ns.trace,
        max_steps=ns.max_steps,
        output=ns.output,
        connective=ns.connective,
    )
    return run(config)


def run(config: RunConfig) -> int:
    if not config.input.exists():
        print(f"contsem: no such file: {config.input}", file=sys.stderr)
        print("usage: contsem run <file> [options]", file=sys.stderr)
        return 2
    try:
        text = config.input.read_text()
        if config.mode == "term-eval":
            return _run_term(config, text)
        return _run_discourse(config, text)
    except (ContsemError, RecursionError) as exc:
        if isinstance(exc, RecursionError):
            exc = DepthLimitExceeded()
        print(f"contsem: {exc}", file=sys.stderr)
        return 1


def _emit(config: RunConfig, lines: list[str], doc: dict) -> int:
    if config.output == "json":
        print(json.dumps(doc, indent=2))
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


def _run_discourse(config: RunConfig, text: str) -> int:
    lexicon = default_lexicon()
    parsed = parse_discourse(text, lexicon)
    profile = config.profile or parsed.profile
    if profile is None:
        print("contsem: no profile given (add a `profile` line or --profile)",
              file=sys.stderr)
        return 2
    mode = config.mode
    if mode == "interpret" and parsed.symbolic and has_symbolic_leaves(parsed.tree):
        mode = "symbolic-expand"
    if mode == "symbolic-expand" and profile != Profile.C:
        print("contsem: symbolic expansion requires profile C", file=sys.stderr)
        return 2

    composed = compose(parsed.tree, lexicon, profile)
    lines = [f"composed: {pretty(composed)}"]
    doc: dict = {
        "profile": profile.value,
        "composed_term": pretty(composed),
        "normal_form": None,
        "raw_formula": None,
        "simplified_formula": None,
        "access_reports": [],
        "resolved_formula": None,
    }

    if mode == "symbolic-expand":
        expanded = normalize(composed, config.max_steps)
        if config.trace:
            lines.extend(_trace_lines(composed, config.max_steps))
        lines.append(f"expanded: {pretty(expanded)}")
        doc["normal_form"] = pretty(expanded)
        return _emit(config, lines, doc)

    init = default_initial_args(profile)
    if profile == Profile.B and config.connective == "or":
        init = InitialArgs(profile, (tm.OR,) + init.args[1:])
    applied = app(composed, *init.args)
    if config.trace:
        lines.extend(_trace_lines(applied, config.max_steps))
    nf = normalize(applied, config.max_steps)
    lines.append(f"normal: {pretty(nf)}")
    doc["normal_form"] = pretty(nf)

    raw = reify(nf)
    simplified = simplify(raw)
    if config.show_raw:
        lines.append(f"raw: {formula_text(raw)}")
    doc["raw_formula"] = {"text": formula_text(raw), "tree": formula_json(raw)}
    lines.append(f"simplified: {formula_text(simplified)}")
    doc["simplified_formula"] = {"text": formula_text(simplified),
                                 "tree": formula_json(simplified)}

    reports = report(simplified)
    for r in reports:
        lines.append(report_line(r))
    doc["access_reports"] = [
        {"site": r.site_id,
         "env": env_json(r.env),
         "candidates": [entity_json(c) for c in r.candidates]}
        for r in reports
    ]

    if config.resolve_strategy == "recency":
        resolved = resolve(simplified, "recency")
        lines.append(f"resolved: {formula_text(resolved)}")
        doc["resolved_formula"] = {"text": formula_text(resolved),
                                   "tree": formula_json(resolved)}
    return _emit(config, lines, doc)


def _run_term(config: RunConfig, text: str) -> int:
    lexicon = default_lexicon()
    term = parse_term(text.strip(), lexicon.signature())
    ty = typecheck(term)
    lines = [f"term: {pretty(term)}", f"type: {tm.type_text(ty)}"]
    if config.trace:
        lines.extend(_trace_lines(term, config.max_steps))
    nf = normalize(term, config.max_steps)
    lines.append(f"normal: {pretty(nf)}")
    doc = {"term": pretty(term), "type": tm.type_text(ty), "normal_form": pretty(nf)}
    return _emit(config, lines, doc)


if __name__ == "__main__":
    sys.exit(main())
