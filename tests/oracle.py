"""Brute-force equivalence oracle over small entity domains: the model
checker the tests hold `contsem.logic`'s rewrites and the pipeline's
formulas to."""
from __future__ import annotations

import itertools
import random
from collections.abc import Callable

from contsem.errors import ContsemError
from contsem.logic import (And, Atom, Bot, EntConst, EntVar, Exists, Formula, Not, Or,
                           SelOf, Top, map_atoms)
from contsem.resolver import report


class SignatureTooLarge(ContsemError):
    pass


_EXHAUSTIVE_MAX_ARITY = 2
_EXHAUSTIVE_MAX_ATOMS = 6
_EXHAUSTIVE_MAX_INTERPS = 4_000_000


def logically_equiv(f1: Formula, f2: Formula, domain_size: int,
                    method: str = "auto", samples: int = 10_000,
                    seed: int = 0) -> bool:
    """True iff no interpretation over a domain of the given size separates
    the two formulas.

    Selection sites are frozen to entity constants first; sites whose
    environments evaluate to the same referent sequence, a variable read as
    the name the printers give its binder, share a constant.
    All interpretations are enumerated when every predicate has arity <= 2
    and the formulas mention at most 6 distinct atoms (and the model space is
    small enough to walk); otherwise `samples` random interpretations are
    checked.  method='exhaustive' insists on enumeration and raises
    SignatureTooLarge beyond those bounds; method='sampled' always samples.
    """
    if not 1 <= domain_size <= 4:
        raise ContsemError("domain_size must be between 1 and 4")
    if method not in ("auto", "exhaustive", "sampled"):
        raise ContsemError(f"unknown method {method!r}")

    frozen: dict[tuple, str] = {}
    f1 = _freeze_sels(f1, frozen)
    f2 = _freeze_sels(f2, frozen)

    preds: dict[str, int] = {}
    consts: set[str] = set()
    atoms: set[tuple] = set()
    for f in (f1, f2):
        _signature(f, preds, consts, atoms)
    const_names = sorted(consts)
    pred_names = sorted(preds)

    n = domain_size
    cells = [n ** preds[p] for p in pred_names]
    total = float(n) ** len(const_names)
    for c in cells:
        total *= float(2) ** c

    within_bounds = (
        all(preds[p] <= _EXHAUSTIVE_MAX_ARITY for p in pred_names)
        and len(atoms) <= _EXHAUSTIVE_MAX_ATOMS
        and total <= _EXHAUSTIVE_MAX_INTERPS
    )
    if method == "exhaustive" and not within_bounds:
        raise SignatureTooLarge(
            f"{len(atoms)} atoms, max arity "
            f"{max((preds[p] for p in pred_names), default=0)}, "
            f"{total:.3g} interpretations"
        )
    exhaustive = within_bounds if method == "auto" else method == "exhaustive"

    const_index = {c: i for i, c in enumerate(const_names)}
    pred_index = {p: i for i, p in enumerate(pred_names)}
    eval1 = _compile(f1, const_index, pred_index, preds, 0, n)
    eval2 = _compile(f2, const_index, pred_index, preds, 0, n)

    if exhaustive:
        factors = [range(n)] * len(const_names) + [range(2 ** c) for c in cells]
        split = len(const_names)
        for point in itertools.product(*factors):
            cvals, masks = point[:split], point[split:]
            if eval1(cvals, masks, ()) != eval2(cvals, masks, ()):
                return False
        return True

    rng = random.Random(seed)
    for _ in range(samples):
        cvals = tuple(rng.randrange(n) for _ in const_names)
        masks = tuple(rng.randrange(2 ** c) for c in cells)
        if eval1(cvals, masks, ()) != eval2(cvals, masks, ()):
            return False
    return True


def _freeze_sels(f: Formula, frozen: dict[tuple, str]) -> Formula:
    # A site's key is its referents, a variable by the name the printers give
    # its binder; `map_atoms` meets the sites in the order `report` lists them.
    reports = iter(report(f))

    def ent(a):
        if isinstance(a, SelOf):
            r = next(reports)
            key = tuple((type(c), r.names[c.level] if isinstance(c, EntVar) else c.name)
                        for c in r.candidates)
            if key not in frozen:
                frozen[key] = f"_sel{len(frozen)}"
            return EntConst(frozen[key])
        return a

    return map_atoms(f, lambda g: Atom(g.pred, tuple(ent(a) for a in g.args)))


def _signature(f, preds, consts, atoms):
    def note(g: Atom) -> Atom:      # each atom occurrence of f
        arity = len(g.args)
        if preds.setdefault(g.pred, arity) != arity:
            raise ContsemError(f"predicate {g.pred!r} used at inconsistent arities")
        atoms.add((g.pred, g.args))
        for a in g.args:
            if isinstance(a, EntConst):
                consts.add(a.name)
        return g

    map_atoms(f, note)


def _compile(f, const_index, pred_index, preds, depth, n) -> Callable:
    """Compile a formula into a closure over (const values, pred masks, var
    values, by level) at binder depth `depth`.  Predicate tables are bitmasks
    over domain tuples."""
    if isinstance(f, Top):
        return lambda C, M, V: True
    if isinstance(f, Bot):
        return lambda C, M, V: False
    if isinstance(f, Not):
        body = _compile(f.body, const_index, pred_index, preds, depth, n)
        return lambda C, M, V: not body(C, M, V)
    if isinstance(f, And):
        left = _compile(f.left, const_index, pred_index, preds, depth, n)
        right = _compile(f.right, const_index, pred_index, preds, depth, n)
        return lambda C, M, V: left(C, M, V) and right(C, M, V)
    if isinstance(f, Or):
        left = _compile(f.left, const_index, pred_index, preds, depth, n)
        right = _compile(f.right, const_index, pred_index, preds, depth, n)
        return lambda C, M, V: left(C, M, V) or right(C, M, V)
    if isinstance(f, Exists):
        body = _compile(f.body, const_index, pred_index, preds, depth + 1, n)
        return lambda C, M, V: any(body(C, M, V + (d,)) for d in range(n))
    pi = pred_index[f.pred]
    arg_fns = []
    for a in f.args:
        if isinstance(a, EntConst):
            ci = const_index[a.name]
            arg_fns.append(lambda C, V, ci=ci: C[ci])
        elif isinstance(a, EntVar):
            if a.level >= depth:
                raise ContsemError(f"free entity variable at level {a.level}")
            arg_fns.append(lambda C, V, slot=a.level: V[slot])

    def atom(C, M, V):
        idx = 0
        for g in reversed(arg_fns):
            idx = idx * n + g(C, V)
        return bool((M[pi] >> idx) & 1)

    return atom
