"""Which statements of `src/contsem/` the command line never runs.

Runs `cli.main` under `sys.settrace` on every sample under each flag set,
on the term samples in text, JSON and `--trace`, on every call of the three
benchmark corpora at seed 1 (`bench/corpus.py`) and on argvs that end in
help, a usage error or a pipeline error, then prints, per module, its
statements, how many never ran and their line ranges.  A statement is an
`ast` statement other than a definition, an import, a docstring, `global`
or `nonlocal`; it ran when a line of its own (not of a statement nested in
it) did.  The package is imported under the tracer, so the statements that
run at import count as run.  Python switches the tracer off when a call
reaches the recursion limit inside it; the rest of such a call is not
counted, and the report names the calls where that happened.

    PYTHONPATH=src python tests/census.py

Standard library only; pytest does not collect this file.
"""
from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contsem"
SAMPLES = ROOT / "samples"
sys.path.insert(0, str(ROOT / "bench"))
import corpus  # noqa: E402

FLAG_SETS = ([], ["--format", "json", "--resolve", "recency"], ["--trace"], ["--no-raw"],
             ["--symbolic"], ["--connective", "or"], ["--format=json"])
TERM_FLAG_SETS = ([], ["--format", "json"], ["--trace"])
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Global, ast.Nonlocal)


def _argvs(scratch: Path) -> list[list[str]]:
    samples = sorted(SAMPLES.glob("*.dsc"))
    out = [["run", str(s), *flags] for s in samples for flags in FLAG_SETS]
    out += [["run", str(t), "--mode", "term-eval", *flags]
            for t in sorted((SAMPLES / "terms").glob("*.lam")) for flags in TERM_FLAG_SETS]
    for workload in ("short-mixed", "long-ac", "branching-b"):
        for i, call in enumerate(corpus.calls(workload, 1, SAMPLES)):
            if isinstance(call.item, corpus.Discourse):   # the samples are run above
                path = scratch / f"{workload}-{i}.dsc"
                path.write_text(call.item.dsc())
                out.append(["run", str(path), *call.flags])
    deep = scratch / "deep.lam"                     # deeper than the recursion limit
    deep.write_text("~ " * 3000 + "top\n")
    latin1 = scratch / "latin1.dsc"
    latin1.write_bytes(b"profile A\nsentence s = caf\xe9 walks\ndiscourse = s\n")
    unknown = scratch / "unknown.dsc"
    unknown.write_text("profile A\nsentence s = john sees (a car)\ndiscourse = s\n")
    out += [[], ["--help"], ["run", "--help"], ["run"], ["run", str(samples[0]), "--bogus"],
            ["run", str(scratch / "missing.dsc")], ["run", str(samples[0]), "--max-steps", "3"],
            ["run", str(deep), "--mode", "term-eval"], ["run", str(latin1)], ["run", str(unknown)],
            ["run", str(samples[0]), "--profile", "C"]]
    return out


def _statements(tree: ast.Module) -> list[tuple[int, int, set[int]]]:
    """(first line, last line, own lines) of each counted statement."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue                                # a docstring
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                own -= set(range(child.lineno, child.end_lineno + 1))
        out.append((node.lineno, node.end_lineno, own))
    return out


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for n in sorted(lines):
        if spans and n <= spans[-1][1] + 1:
            spans[-1][1] = max(spans[-1][1], n)
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    cut = []        # the calls in which the tracer was switched off
    with tempfile.TemporaryDirectory() as scratch:
        argvs = _argvs(Path(scratch))
        sys.settrace(calls)
        try:
            from contsem.cli import main as cli_main
            for argv in argvs:
                sys.settrace(calls)
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli_main(argv)
                if sys.gettrace() is None:
                    cut.append(" ".join([Path(a).name if "/" in a else a for a in argv]))
        finally:
            sys.settrace(None)

    print(f"Statements of src/contsem/ never run by {len(argvs)} `cli.main` calls")
    for argv in cut:
        print(f"(the tracer stopped at the recursion limit in `{argv}`)")
    print("```")
    print(f"{'module':<14} {'statements':>10} {'never run':>10}  lines")
    total = never = 0
    for name, path in files.items():
        statements = _statements(ast.parse(path.read_text()))
        missed = [s for s in statements if not s[2] & ran[name]]
        lines = [n for first, last, _ in missed for n in range(first, last + 1)]
        total, never = total + len(statements), never + len(missed)
        print(f"{path.name:<14} {len(statements):>10} {len(missed):>10}  {_ranges(lines)}")
    print(f"{'total':<14} {total:>10} {never:>10}")
    print("```")
    return 0


if __name__ == "__main__":
    sys.exit(main())
