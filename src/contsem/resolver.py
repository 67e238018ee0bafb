"""Referent accessibility: evaluate environments at selection sites."""
from __future__ import annotations

from .errors import ContsemError
from .logic import (
    AccessReport, Atom, EntityTerm, Formula, SelOf, _render, env_entries, map_atoms,
)


class EmptyEnvironment(ContsemError):
    def __init__(self, site_id: int):
        self.site_id = site_id
        super().__init__(f"selection site #{site_id} has no accessible referents")


def report(f: Formula) -> list[AccessReport]:
    """One AccessReport per selection site of the root formula `f`, in textual
    order, which numbers the sites; each names its binders in scope as
    `formula_text` does."""
    return [AccessReport(i, env, env_entries(env), names)
            for i, (env, names) in enumerate(_render(f, None, ())[1])]


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
        sites[0] += 1
        return candidates[0]

    return map_atoms(f, lambda g: Atom(g.pred, tuple(pick(a) for a in g.args)))


def report_line(r: AccessReport) -> str:
    names = ", ".join(_render(c, None, r.names)[0] for c in r.candidates)
    return f"sel#{r.site_id} env={_render(r.env, None, r.names)[0]} candidates=[{names}]"
