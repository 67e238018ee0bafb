"""Command-line front end.

    contsem run <file> [--profile A|B|C] [--mode MODE] [--symbolic]
                 [--resolve recency|symbolic] [--raw | --no-raw] [--trace]
                 [--max-steps N] [--format text|json]

Modes: `interpret` (default) runs the full pipeline on a discourse file;
`symbolic-expand` (or --symbolic) prints the normalized interpretation of an
all-symbolic profile-C discourse; `term-eval` treats the input as a single
term in the named lambda syntax and normalizes it.

`main` reads a plain argv, `run FILE` then whole long options with valid
values, itself.  argparse, imported and built on first need, reads every other
argv (help, usage errors, abbreviations, `--opt=value`, options before the
file) and is the reference the plain reader is tested against; both read
`_OPTIONS`.  `main` pauses the cyclic collector from argv to print.

Exit status: 0 on success, 1 on any pipeline or write error, 2 on usage errors.
"""
from __future__ import annotations

import os
import sys
from functools import lru_cache
from types import SimpleNamespace

from .errors import ContsemError, DepthLimitExceeded
from . import terms as tm
from .discourse import (
    InitialArgs, default_initial_args, has_symbolic_leaves, parse_discourse,
    run_pipeline,
)
from .lexicon import Profile, default_lexicon
from .logic import formula_text, json_text
from .resolver import rendered, report_line, resolve
from .syntax import parse_term, pretty
from .terms import normalize, typecheck

# The `run` options: flag, destination, default, choices (`int`: a number; None:
# a switch, with a `--no-` form when it defaults on) and help.
_OPTIONS = (
    ("--profile", "profile", None, ("A", "B", "C"), None),
    ("--mode", "mode", "interpret", ("interpret", "symbolic-expand", "term-eval"), None),
    ("--symbolic", "symbolic", False, None, "shorthand for --mode symbolic-expand"),
    ("--resolve", "resolve_strategy", "symbolic", ("symbolic", "recency"), None),
    ("--raw", "show_raw", True, None, "print the unsimplified formula (default on)"),
    ("--trace", "trace", False, None,
     "print the whole term at every reduction step; meant for small inputs"),
    ("--max-steps", "max_steps", tm.MAX_STEPS, int, "fail after N beta contractions, each a "
     "closure application (--trace: a normal-order step); default %(default)s"),
    ("--format", "output", "text", ("text", "json"), None),
    ("--connective", "connective", "and", ("and", "or"),
     "initial connective for profile B (default: and)"),
)
_SWITCHES = {flag: (dest, True) for flag, dest, _, kind, _ in _OPTIONS if kind is None}
_SWITCHES.update({"--no-" + flag[2:]: (dest, False)
                  for flag, dest, default, kind, _ in _OPTIONS if kind is None and default})
_VALUED = {flag: (dest, kind) for flag, dest, _, kind, _ in _OPTIONS if kind is not None}


@lru_cache(maxsize=None)
def _parser():
    """The argument parser, built on first use and shared by every call."""
    import argparse
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
    for flag, dest, default, kind, text in _OPTIONS:
        how = ({"action": argparse.BooleanOptionalAction if default else "store_true"}
               if kind is None else {"type": int, "metavar": "N"} if kind is int
               else {"choices": kind})
        run.add_argument(flag, default=default, dest=dest, help=text, **how)
    return parser


def _plain_args(argv) -> SimpleNamespace | None:
    """The namespace argparse reads from `run FILE` followed by whole flags of
    `_OPTIONS`, each with a valid value (`--max-steps`: ASCII digits); None for
    every other argv."""
    if len(argv) < 2 or argv[0] != "run" or argv[1][:1] in ("", "-"):
        return None
    ns = SimpleNamespace(command="run", input=argv[1], **{o[1]: o[2] for o in _OPTIONS})
    args = iter(argv[2:])
    for arg in args:
        if arg in _SWITCHES:
            dest, value = _SWITCHES[arg]
        elif arg in _VALUED:
            dest, kind = _VALUED[arg]
            value = next(args, "")      # int() converts up to 640 digits at least
            if kind is int and value.isascii() and value.isdigit() and len(value) <= 640:
                value = int(value)
            elif kind is int or value not in kind:
                return None
        else:
            return None
        setattr(ns, dest, value)
    return ns


def main(argv: list[str] | None = None) -> int:
    with tm.paused_collector():     # argv to print: a plain run allocates no cycle
        argv = sys.argv[1:] if argv is None else argv
        ns = _plain_args(argv)
        if ns is None:
            try:
                ns = _parser().parse_args(argv)
            except SystemExit as exc:
                return int(exc.code or 0)
        if ns.symbolic:
            ns.mode = "symbolic-expand"
        return run(ns)


def run(ns) -> int:
    try:
        with open(ns.input, encoding="utf-8") as f:
            text = f.read().removeprefix("\ufeff")     # a byte-order mark some editors write
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
    except (ContsemError, RecursionError, MemoryError) as exc:
        if not isinstance(exc, ContsemError):
            exc = DepthLimitExceeded() if isinstance(exc, RecursionError) else "out of memory"
        print(f"contsem: {exc}", file=sys.stderr)
        return 1


def _write(text: str) -> int:
    """Print `text`.  A failed write exits 1, a closed pipe quietly, and points
    stdout at devnull, where the flush at exit cannot fail (Python's SIGPIPE note)."""
    try:
        print(text, flush=True)
        return 0
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"contsem: cannot write the output: {exc.strerror}", file=sys.stderr)
        return 1


def _trace(term, ns) -> list:
    """The normal-order steps `--trace` prints; only `--trace` loads the reducer."""
    if not ns.trace:
        return []
    from .reduction import trace
    return trace(term, ns.max_steps)


def _trace_lines(steps) -> list[str]:
    return [f"step {step.step} @ {tm._path_text(step.position)}: {pretty(step.term)}"
            for step in steps]


def _run_discourse(ns, text: str) -> int:
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
    composed_text = pretty(result.composed, lexicon.entry_templates(profile))
    normal_text = pretty(result.normal)
    steps = _trace(result.composed if symbolic else result.applied, ns)
    simplified = result.simplified      # None in symbolic expansion
    recency = ns.resolve_strategy == "recency"
    simplified_text, reports, resolved_text = (
        (None, (), None) if symbolic else rendered(simplified, recency))
    if ns.output == "json":     # each formula None, or its text and its tree
        raw = result.raw
        resolved = resolved_text and resolve(simplified, "recency")     # for its tree
        return _write(json_text({
            "profile": profile.value,
            "composed_term": composed_text,
            "normal_form": normal_text,
            "raw_formula": raw and {"text": formula_text(raw), "tree": raw},
            "simplified_formula": simplified and {"text": simplified_text, "tree": simplified},
            "access_reports": reports,
            "resolved_formula": resolved and {"text": resolved_text, "tree": resolved},
        }))
    lines = [f"composed: {composed_text}", *_trace_lines(steps),
             f"{'expanded' if symbolic else 'normal'}: {normal_text}"]
    if not symbolic:
        if ns.show_raw:
            lines.append(f"raw: {formula_text(result.raw)}")
        lines.append(f"simplified: {simplified_text}")
        lines += map(report_line, reports)
        if resolved_text is not None:
            lines.append(f"resolved: {resolved_text}")
    return _write("\n".join(lines))


def _run_term(ns, text: str) -> int:
    lexicon = default_lexicon()
    term = parse_term(text.strip(), lexicon.signature())
    ty = typecheck(term)
    steps = _trace(term, ns)      # run in JSON too: its step budget can fail the run
    doc = {"term": pretty(term), "type": ty.text,
           "normal_form": pretty(normalize(term, ns.max_steps))}
    if ns.output == "json":
        return _write(json_text(doc))
    return _write("\n".join([f"term: {doc['term']}", f"type: {doc['type']}",
                             *_trace_lines(steps), f"normal: {doc['normal_form']}"]))


if __name__ == "__main__":
    sys.exit(main())
