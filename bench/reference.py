"""Output check for the benchmark, written without contsem.

Nothing here imports contsem.  The check reads what `contsem run` printed
and compares it with:

  (a) the committed golden file, for the nine samples;
  (b) counts predicted from the generated sentences: one `sel` site per
      pronoun, no `|` (the DSL has no disjunction and the initial
      connective is `and`), and every content predicate exactly as often
      as the discourse uses it;
  (c) for profiles A and B, each site's candidates as a DRT-style
      accessibility rule predicts them (see `accessible`);
  (d) exit status 1 only with a `contsem:` diagnostic the reference
      explains: an empty site under `--resolve recency`;
  (e) the JSON run: it parses, has the seven documented fields, and agrees
      with the text run of the same discourse.

Profile C candidates follow the right frontier and have no reference here;
the committed frontier goldens cover them.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from corpus import Discourse, Sample, Sentence, symbol

JSON_FIELDS = ("profile", "composed_term", "normal_form", "raw_formula",
               "simplified_formula", "access_reports", "resolved_formula")

_EMPTY_SITE = re.compile(r"contsem: selection site #(\d+) has no accessible referents")
_SITE_LINE = re.compile(r"sel#(\d+) env=(\S+) candidates=\[(.*)\]\Z")


# ---------------------------------------------------------------------------
# Formula text, as `contsem run` prints it
#
#   f   := g ('|' f)?            g := u ('&' g)?
#   u   := '~' u | 'Ex' v '.' u | 'top' | 'bot' | '(' f ')' | atom
#   atom:= pred arg*             arg := name | '(' 'sel' '(' env ')' ')'
#   env := e ('::' env | '++' e)?  e := 'nil' | name | sel | '(' env ')'
#
# Trees are tuples: ("or"|"and", l, r), ("not", b), ("ex", v, b), ("top",),
# ("bot",), ("atom", pred, args); args are ("name", x) or ("sel", entries)
# with the environment flattened to its entry list.

_TOKEN = re.compile(r"\s*(::|\+\+|[()~&|.]|[A-Za-z_][A-Za-z0-9_]*)")


class FormulaSyntax(ValueError):
    pass


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise FormulaSyntax(f"bad character at {pos} in {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _union(left: list, right: list) -> list:
    """Entries of `left ++ right`: the documented reading of `++` at
    selection sites lists the right operand's entries first, then the
    left's, keeping each entry's oldest position."""
    merged = right + left
    return list(reversed(list(dict.fromkeys(reversed(merged)))))


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self, k=0):
        i = self.pos + k
        return self.toks[i] if i < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise FormulaSyntax(f"expected {want or 'a token'}, found {tok!r}")
        self.pos += 1
        return tok

    def formula(self):
        left = self.conj()
        if self.peek() == "|":
            self.take()
            return ("or", left, self.formula())
        return left

    def conj(self):
        left = self.unary()
        if self.peek() == "&":
            self.take()
            return ("and", left, self.conj())
        return left

    def unary(self):
        tok = self.peek()
        if tok == "~":
            self.take()
            return ("not", self.unary())
        if tok == "Ex":
            self.take()
            var = self.take()
            self.take(".")
            return ("ex", var, self.unary())
        if tok in ("top", "bot"):
            self.take()
            return (tok,)
        if tok == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        pred = self.take()
        if not pred[0].isalpha():
            raise FormulaSyntax(f"expected a predicate, found {pred!r}")
        args = []
        while True:
            tok = self.peek()
            if tok == "(" and self.peek(1) == "sel":
                self.take("(")
                args.append(self.sel())
                self.take(")")
            elif tok is not None and tok[0].isalpha() and tok not in ("Ex", "top", "bot"):
                args.append(("name", self.take()))
            else:
                return ("atom", pred, tuple(args))

    def sel(self):
        self.take("sel")
        self.take("(")
        entries = self.env()
        self.take(")")
        return ("sel", tuple(entries))

    def env(self) -> list:
        left = self.env_atom()
        if self.peek() == "::":
            self.take()
            return left + self.env()
        if self.peek() == "++":
            self.take()
            return _union(left, self.env_atom())
        return left

    def env_atom(self) -> list:
        tok = self.peek()
        if tok == "nil":
            self.take()
            return []
        if tok == "(":
            self.take()
            entries = self.env()
            self.take(")")
            return entries
        if tok == "sel":
            return [self.sel()]
        return [("name", self.take())]


def parse_formula(text: str):
    p = _Parser(text)
    f = p.formula()
    if p.peek() is not None:
        raise FormulaSyntax(f"trailing {p.peek()!r} in {text!r}")
    return f


def formula_from_json(doc: dict):
    """The same tuple tree, from `contsem run --format json`'s `tree`."""
    node = doc["node"]
    if node in ("top", "bot"):
        return (node,)
    if node == "not":
        return ("not", formula_from_json(doc["body"]))
    if node in ("and", "or"):
        return (node, formula_from_json(doc["left"]), formula_from_json(doc["right"]))
    if node == "exists":
        return ("ex", doc["var"], formula_from_json(doc["body"]))
    return ("atom", doc["pred"], tuple(_entity_from_json(a) for a in doc["args"]))


def _entity_from_json(doc: dict):
    if doc["entity"] == "sel":
        return ("sel", tuple(_env_from_json(doc["env"])))
    return ("name", doc["name"])


def _env_from_json(doc: dict) -> list:
    if doc["env"] == "nil":
        return []
    if doc["env"] == "cons":
        return [_entity_from_json(doc["head"])] + _env_from_json(doc["tail"])
    return _union(_env_from_json(doc["left"]), _env_from_json(doc["right"]))


def node_count(f) -> int:
    """Connectives, quantifiers and atoms, plus one node per atom argument,
    per `sel`, per environment entry and per environment's `nil`."""
    tag = f[0]
    if tag in ("and", "or"):
        return 1 + node_count(f[1]) + node_count(f[2])
    if tag == "not":
        return 1 + node_count(f[1])
    if tag == "ex":
        return 1 + node_count(f[2])
    if tag == "atom":
        return 1 + sum(_entity_count(a) for a in f[2])
    return 1


def _entity_count(a) -> int:
    if a[0] == "sel":
        return 2 + sum(_entity_count(e) for e in a[1])   # sel node and nil
    return 1


@dataclass
class _Site:
    entries: tuple          # candidate entity terms, as printed
    scope: tuple[str, ...]  # quantified variables in scope, outermost first


def _shape(f):
    """Sel sites in textual order, predicate counts, whether `|` occurs,
    the predicates applied to each quantified variable alone, and whether
    `top` or `bot` is left in the formula."""
    sites: list[_Site] = []
    atoms: Counter = Counter()
    nouns: dict[str, set] = {}
    has_or = residue = False

    def walk(g, scope):
        nonlocal has_or, residue
        tag = g[0]
        residue = residue or tag in ("top", "bot")
        if tag in ("and", "or"):
            has_or = has_or or tag == "or"
            walk(g[1], scope)
            walk(g[2], scope)
        elif tag == "not":
            walk(g[1], scope)
        elif tag == "ex":
            walk(g[2], scope + (g[1],))
        elif tag == "atom":
            atoms[g[1]] += 1
            args = g[2]
            if len(args) == 1 and args[0][0] == "name" and args[0][1] in scope:
                nouns.setdefault(args[0][1], set()).add(g[1])
            sites.extend(_Site(a[1], scope) for a in args if a[0] == "sel")

    walk(f, ())
    return sites, atoms, has_or, nouns, residue


# ---------------------------------------------------------------------------
# The reference: which referents each pronoun may reach

@dataclass(frozen=True)
class Referent:
    kind: str        # "name" | "indef"
    word: str        # content constant of the name, or the noun


def accessible(profile: str, sentences: tuple[Sentence, ...]) -> list[list[Referent]]:
    """Candidates of every pronoun in reading order, newest first.

    DRT-style accessibility: a referent is accessible if it was introduced
    earlier and not inside a negation the pronoun is outside of.

      A: earlier indefinites, newest first.  An indefinite subject is
         already accessible to the object of its own sentence.
      B: the same indefinites, then the names, newest first, each name
         once; names stay accessible even when introduced inside a
         negation.  Names do not enter the profile-A environment.
    """
    if profile not in ("A", "B"):
        raise ValueError(f"no accessibility reference for profile {profile}")
    indefs: list[Referent] = []
    names: list[Referent] = []
    out = []
    for s in sentences:
        local = list(indefs)
        for np in s.nps():
            if np.kind == "pron":
                seen = list(reversed(local))
                if profile == "B":
                    seen += list(dict.fromkeys(reversed(names)))
                out.append(seen)
            elif np.kind == "indef":
                local.append(Referent("indef", np.word))
            elif profile == "B":
                names.append(Referent("name", symbol(np.word)))
        if not s.negated:
            indefs = local
    return out


def first_negation(d: Discourse) -> Optional[int]:
    """Where ROADMAP item 4's defect may start: the first negated sentence
    of a profile-B discourse, or None.

    Profile B's `doesnt` hands its dual connective to the rest of the
    discourse, so from that sentence on, sentences may be joined by `|` or
    lost; the final empty continuation is built with it too, so a lone
    `john doesnt own (a car)` simplifies to `~ Ex y. top`.  What is read
    before it is not touched."""
    if d.profile != "B":
        return None
    return next((i for i, s in enumerate(d.sentences) if s.negated), None)


# ---------------------------------------------------------------------------
# Checks

@dataclass
class Run:
    """What one `contsem run` call returned."""
    code: Optional[int]      # None when cli.main raised
    out: str
    err: str


@dataclass
class Verdict:
    problems: list[str]
    known_defect: bool = False      # every problem is ROADMAP item 4's
    simplified_nodes: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _field(lines: list[str], prefix: str) -> Optional[str]:
    found = [l[len(prefix):] for l in lines if l.startswith(prefix)]
    return found[0] if len(found) == 1 else None


def _site_lines(lines: list[str]) -> list[tuple[int, list[str]]]:
    out = []
    for line in lines:
        if line.startswith("sel#"):
            m = _SITE_LINE.match(line)
            if not m:
                raise FormulaSyntax(f"malformed site line {line!r}")
            cands = [c for c in m.group(3).split(", ") if c]
            if m.group(2) != "::".join(cands + ["nil"]):
                raise FormulaSyntax(f"site env is not its candidate list: {line!r}")
            out.append((int(m.group(1)), cands))
    return out


def _entry_text(e) -> str:
    return e[1] if e[0] == "name" else "sel(...)"


def _text_output(out: str):
    """(simplified formula, sites, resolved formula or None) of a text run."""
    lines = out.splitlines()
    text = _field(lines, "simplified: ")
    if text is None:
        raise FormulaSyntax("no single `simplified:` line")
    resolved = _field(lines, "resolved: ")
    return (parse_formula(text), _site_lines(lines),
            None if resolved is None else parse_formula(resolved))


def _json_output(out: str):
    """(document, simplified formula, sites) of a JSON run."""
    doc = json.loads(out)
    missing = [k for k in JSON_FIELDS if k not in doc]
    if missing:
        raise FormulaSyntax(f"JSON lacks {missing}")
    sf = doc["simplified_formula"]
    if sf is None:
        return doc, None, None
    f = parse_formula(sf["text"])
    if formula_from_json(sf["tree"]) != f:
        raise FormulaSyntax("JSON simplified tree differs from its text")
    sites = [(r["site"], [c["name"] for c in r["candidates"]])
             for r in doc["access_reports"]]
    return doc, f, sites


def _check_formula(d: Discourse, f, listed) -> list[tuple[str, bool]]:
    """(b) and (c) on a parsed simplified formula and its site list.

    Each problem comes with whether it fits ROADMAP item 4's signature
    (see `first_negation`): a `|`, or atoms and sites missing, either no
    more than the sentences from the first negation on use, or with a
    `top` or `bot` left where the broken continuation absorbed them.
    Extra atoms or sites, and any site whose candidates differ from the
    reference, do not fit it: the defect changes connectives, not
    environments."""
    problems = []
    k = first_negation(d)
    tail = d.sentences[k:] if k is not None else ()
    sites, atoms, has_or, nouns, residue = _shape(f)

    def lost_fits(lost: int, lost_in_tail: int) -> bool:
        return k is not None and 0 < lost and (lost <= lost_in_tail or residue)

    pronouns = sum(s.pronouns() for s in d.sentences)
    if len(sites) != pronouns:
        problems.append((f"{len(sites)} sel sites for {pronouns} pronouns",
                         lost_fits(pronouns - len(sites),
                                   sum(s.pronouns() for s in tail))))
    if has_or:
        problems.append(("`|` in the simplified formula", k is not None))
    used = Counter(p for s in d.sentences for p in s.atoms())
    used_tail = Counter(p for s in tail for p in s.atoms())
    for pred in sorted(used | atoms):
        if atoms[pred] < used[pred]:
            problems.append((f"{pred}: {atoms[pred]} atoms for {used[pred]} uses",
                             lost_fits(used[pred] - atoms[pred], used_tail[pred])))
        elif atoms[pred] > used[pred]:
            problems.append((f"{pred}: {atoms[pred]} atoms for {used[pred]} uses",
                             False))
    ids = [sid for sid, _ in listed]
    if ids != sorted(set(ids)):
        problems.append((f"site ids not increasing: {ids}", False))
    printed = [[_entry_text(e) for e in site.entries] for site in sites]
    if [c for _, c in listed] != printed:
        problems.append(("site lines disagree with the formula's sel sites", False))
    if d.profile in ("A", "B") and len(sites) == pronouns:
        expect = accessible(d.profile, d.sentences)
        for n, (site, want) in enumerate(zip(sites, expect)):
            problem = _match_site(site, want, nouns)
            if problem:
                problems.append((f"pronoun {n}: {problem}", False))
    elif d.profile in ("A", "B") and len(sites) < pronouns:
        # The sites left must be those of some pronouns, in reading order.
        expect = iter(accessible(d.profile, d.sentences))
        if not all(any(_match_site(site, want, nouns) is None for want in expect)
                   for site in sites):
            problems.append(("the sel sites left match no pronouns' "
                             "candidates in reading order", False))
    return problems


def _match_site(site: _Site, want: list[Referent], nouns) -> Optional[str]:
    got = site.entries
    if len(got) != len(want):
        return f"{len(got)} candidates, reference has {len(want)}"
    depths = []
    for e, r in zip(got, want):
        name = e[1] if e[0] == "name" else None
        if r.kind == "name":
            if name != r.word:
                return f"expected name {r.word}, got {_entry_text(e)}"
        elif name not in site.scope:
            return f"expected a bound {r.word} referent, got {_entry_text(e)}"
        elif r.word not in nouns.get(name, ()):
            return f"{name} is not a {r.word}"
        else:
            depths.append(site.scope.index(name))
    if depths != sorted(set(depths), reverse=True):
        return "indefinite candidates are not distinct and newest first"
    return None


def _resolve(f, sites):
    """The formula with each sel site replaced by its first candidate."""
    tag = f[0]
    if tag in ("and", "or"):
        left = _resolve(f[1], sites)
        return (tag, left, _resolve(f[2], sites))
    if tag == "not":
        return ("not", _resolve(f[1], sites))
    if tag == "ex":
        return ("ex", f[1], _resolve(f[2], sites))
    if tag == "atom":
        return ("atom", f[1], tuple(next(sites)[0] if a[0] == "sel" else a
                                    for a in f[2]))
    return f


def _failed(run: Run) -> Optional[str]:
    if run.code is None:
        return f"raised: {run.err.strip().splitlines()[-1:]}"
    if run.code != 0 or run.err:
        return f"exit {run.code}, stderr {run.err.strip()[:200]!r}"
    return None


def check_discourse(d: Discourse, runs: dict[tuple, Run]) -> Verdict:
    """Checks (b) to (e) on every run of one generated discourse."""
    problems: list[str] = []    # anything but a wrong formula
    wrong: list[tuple[str, bool]] = []  # (b) and (c), and whether each
                                        # fits ROADMAP item 4's signature
    formulas = {}
    for flags, run in runs.items():
        mode = "json" if "json" in flags else "text"
        m = _EMPTY_SITE.fullmatch(run.err.strip())
        if mode == "text" and "recency" in flags and run.code == 1 and m:
            # (d): an empty site is correct when the reference has one and
            # the JSON run, if any, names the same first empty site.
            expect = accessible(d.profile, d.sentences) if d.profile in "AB" else []
            if not any(not c for c in expect):
                problems.append(f"unexplained empty site: {run.err.strip()!r}")
            formulas[(mode, "empty")] = int(m.group(1))
            continue
        failure = _failed(run)
        if failure:
            problems.append(f"{mode}: {failure}")
            continue
        try:
            if mode == "text":
                f, listed, resolved = _text_output(run.out)
                if "recency" in flags:
                    sites = _shape(f)[0]
                    if any(not s.entries for s in sites):
                        problems.append("recency run succeeded with an empty site")
                    elif resolved != _resolve(f, iter(s.entries for s in sites)):
                        problems.append("`resolved:` is not the simplified formula "
                                        "with each site's first candidate")
            else:
                doc, f, listed = _json_output(run.out)
                if doc["resolved_formula"] is not None:
                    problems.append("JSON resolved_formula set without --resolve recency")
        except (FormulaSyntax, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{mode}: unreadable output: {exc}")
            continue
        wrong += [(f"{mode}: {p}", fits) for p, fits in _check_formula(d, f, listed)]
        formulas[mode] = (f, listed)
    if "text" in formulas and "json" in formulas and formulas["text"] != formulas["json"]:
        problems.append("JSON simplified formula or sites differ from the text run")
    if ("text", "empty") in formulas and "json" in formulas:
        empty = [sid for sid, c in formulas["json"][1] if not c][:1]
        if empty != [formulas[("text", "empty")]]:
            problems.append("JSON run does not list the diagnostic's empty site first")
    main = formulas.get("text") or formulas.get("json")
    nodes = node_count(main[0]) if main else 0
    known = bool(wrong) and not problems and all(fits for _, fits in wrong)
    return Verdict(sorted(set(problems + [p for p, _ in wrong])), known, nodes)


def check_sample(sample: Sample, runs: dict[tuple, Run]) -> Verdict:
    """(a) on the text run, (e) on the JSON run against the text run."""
    text = runs[()]
    if _failed(text) or text.out != sample.golden:
        return Verdict([f"{sample.name}: output differs from samples/golden "
                        f"({_failed(text) or 'exit 0'})"])
    lines = text.out.splitlines()
    simplified = _field(lines, "simplified: ")
    nodes = node_count(parse_formula(simplified)) if simplified is not None else 0
    run = runs.get(("--format", "json"))
    if run is None:
        return Verdict([], False, nodes)
    failure = _failed(run)
    if failure:
        return Verdict([f"json: {failure}"], False, nodes)
    try:
        doc, f, listed = _json_output(run.out)
    except (FormulaSyntax, ValueError, KeyError, TypeError) as exc:
        return Verdict([f"json: unreadable output: {exc}"], False, nodes)
    problems = []
    if doc["composed_term"] != _field(lines, "composed: "):
        problems.append("JSON composed_term differs from the text run")
    expanded = _field(lines, "expanded: ")
    if expanded is not None:
        if doc["normal_form"] != expanded:
            problems.append("JSON normal_form differs from `expanded:`")
    elif (f, listed) != (parse_formula(simplified), _site_lines(lines)):
        problems.append("JSON simplified formula or sites differ from the text run")
    return Verdict(problems, False, nodes)
