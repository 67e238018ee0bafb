"""Referent accessibility: evaluate environments at selection sites."""
from __future__ import annotations

from .errors import ContsemError
from .logic import (
    AccessReport, Atom, EntConst, EntityTerm, EntVar, Formula, SelOf, _render, env_entries,
    formula_text, map_atoms,
)


class EmptyEnvironment(ContsemError):
    def __init__(self, site_id: int):
        self.site_id = site_id
        super().__init__(f"selection site #{site_id} has no accessible referents")


def rendered(f: Formula, recency: bool = False) -> tuple[str, list[AccessReport], str | None]:
    """What one text walk of the root formula `f` gives: its text, as
    `formula_text` writes it, its access reports (`report`) and, if `recency`,
    the text of `resolve(f, "recency")`, else None.  That text is `f`'s with
    each site's `(sel(...))` replaced by a space and its first candidate's
    name: the resolved formula's constants are among `f`'s, so its binders
    are named alike, unless the walk skipped constants' names or a site sits
    in another's environment; then the resolved formula is printed itself.
    An empty environment raises EmptyEnvironment as `resolve` does."""
    out, sites, skipped = _render(f, None, ())
    reports = report(f, sites)
    text = "".join(out)
    if not recency:
        return text, reports, None
    pieces, end = [], 0     # the resolved text of out[:end]
    for r, (*_, s, e) in zip(reports, sites):
        if skipped or s < end:
            return text, reports, formula_text(resolve(f, "recency"))
        if not r.candidates:
            raise EmptyEnvironment(r.site_id)
        pieces += out[end:s - 1]
        pieces.append(" " + _name(r.candidates[0], r.names))
        end = e + 1
    pieces += out[end:]
    return text, reports, "".join(pieces)


def report(f: Formula, sites: list | None = None) -> list[AccessReport]:
    """One AccessReport per selection site of the root formula `f`, in textual
    order, which numbers the sites; each names its binders in scope and
    writes its environment as `formula_text` does.  `sites` are the sites of
    a text walk of `f` (`_render`) made already; without them `f` is walked."""
    if sites is None:
        sites = _render(f, None, ())[1]
    return [AccessReport(i, env, env_entries(env), names, env_text)
            for i, (env, names, env_text, _, _) in enumerate(sites)]


def resolve(f: Formula, strategy: str) -> Formula:
    """Commit selection sites to referents.

    'symbolic' leaves the formula unchanged; 'recency' substitutes each
    site's most recent candidate.
    """
    if strategy == "symbolic":
        return f
    if strategy != "recency":
        raise ContsemError(f"unknown strategy {strategy!r}")

    # Sites are picked left to right, so an empty environment is reported
    # at the first one in reading order, numbered as `report` numbers it.
    sites = [0]

    def pick(a: EntityTerm) -> EntityTerm:
        if type(a) is not SelOf:
            return a
        candidates = env_entries(a.env)
        if not candidates:
            raise EmptyEnvironment(sites[0])
        stack = [a]
        while stack:        # past `a` and each site a hand-built environment of it holds
            x = stack.pop()
            sites[0] += type(x) is SelOf
            stack += x._values() if type(x) is not EntConst and type(x) is not EntVar else ()
        return candidates[0]

    return map_atoms(f, lambda g: Atom(g.pred, tuple(pick(a) for a in g.args)))


def _name(c: EntityTerm, names: tuple[str, ...]) -> str:
    """A candidate's text under binders named `names`, by level."""
    if type(c) is EntConst:
        return c.name
    if type(c) is EntVar:
        return names[c.level] if c.level < len(names) else f"#{c.level}"
    return "".join(_render(c, None, names)[0])     # a selection, in a hand-built environment


def report_line(r: AccessReport) -> str:
    """The `sel#` line of a report: its environment's text, as the walk that
    made the report wrote it, and its candidates' names."""
    names = ", ".join([_name(c, r.names) for c in r.candidates])
    return f"sel#{r.site_id} env={r.env_text} candidates=[{names}]"
