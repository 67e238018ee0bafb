"""Referent accessibility: evaluate environments at selection sites."""
from __future__ import annotations

from .errors import ContsemError
from .logic import Atom, EntityTerm, Formula, SelOf, env_entries, formula_text, map_atoms
from .node import Node


class EmptyEnvironment(ContsemError):
    def __init__(self, site_id: int):
        self.site_id = site_id
        super().__init__(f"selection site #{site_id} has no accessible referents")


class AccessReport(Node):
    __slots__ = {"site_id": "int", "env": "EnvExpr",
                 "candidates": "tuple[EntityTerm, ...]"}


def report(f: Formula) -> list[AccessReport]:
    """One AccessReport per selection site, in site id order."""
    sites: list[SelOf] = []

    def note(g: Atom) -> Atom:      # each atom, copies written out, left to right
        sites.extend(a for a in g.args if isinstance(a, SelOf))
        return g

    map_atoms(f, note)
    sites.sort(key=lambda s: s.site_id)
    return [AccessReport(s.site_id, s.env, env_entries(s.env)) for s in sites]


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
    # at the first one in reading order.
    return map_atoms(f, lambda g: Atom(g.pred, tuple(_pick(a) for a in g.args)))


def _pick(a: EntityTerm) -> EntityTerm:
    if isinstance(a, SelOf):
        candidates = env_entries(a.env)
        if not candidates:
            raise EmptyEnvironment(a.site_id)
        return candidates[0]
    return a


def report_line(r: AccessReport) -> str:
    names = ", ".join(formula_text(c) for c in r.candidates)
    return f"sel#{r.site_id} env={formula_text(r.env)} candidates=[{names}]"
