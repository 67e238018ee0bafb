"""Seeded discourse corpora for the benchmark's three workloads.

The generator keeps its own copy of each profile's vocabulary and sentence
shapes; contsem only ever sees the `.dsc` files written from it.  The same
workload name and seed always give the same corpus.

Each workload is a fixed list of slots.  A slot's plan -- how many
sentences, each sentence's role (how many indefinites and pronouns it
brings), which sentences are negated -- and its bracketing come from a
stream keyed by the slot's name, because they set the cost: the A24 slot
takes 0.9 s right-nested and 3.2 s left-nested.  The seed picks the words
and each sentence's form within its role, so the work per pass stays
comparable across seeds while the inputs differ.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Vocab:
    names: tuple[str, ...]
    nouns: tuple[str, ...]
    tverbs: tuple[str, ...]
    iverbs: tuple[str, ...]
    adjs: tuple[str, ...]
    negation: bool


# What each profile's lexicon knows.  Profile A stores entries for ten
# words, profile B for eight; profile C builds leaves from word categories
# and so accepts every registered content word, but has no negation.
VOCAB = {
    "A": Vocab(("john",), ("woman", "car"), ("loves", "owns"), (), ("red",), True),
    "B": Vocab(("john",), ("car",), ("owns",), (), ("red",), True),
    "C": Vocab(("john", "mary"), ("woman", "man", "car", "dog"),
               ("loves", "owns"), ("walks",), ("red", "happy"), False),
}

# Content constant each word contributes to the logical form.
SYMBOL = {"john": "j", "mary": "mary", "loves": "love", "owns": "own",
          "walks": "walk"}

# Surface form after `doesnt`: `own` is the lexicon's canonical verb, and
# `loves` has no bare form.
_BARE = {"owns": "own"}


def symbol(word: str) -> str:
    return SYMBOL.get(word, word)


@dataclass(frozen=True)
class NP:
    kind: str          # "name" | "indef" | "pron"
    word: str = ""     # the name, or the indefinite's noun

    def text(self) -> str:
        if self.kind == "name":
            return self.word
        if self.kind == "indef":
            return f"(a {self.word})"
        return "it"


PRON = NP("pron")


@dataclass(frozen=True)
class Sentence:
    subject: NP
    verb: str                  # a transitive or intransitive verb, or "is"
    obj: Optional[NP] = None   # object of a transitive verb
    adj: str = ""              # adjective after "is"
    negated: bool = False

    def nps(self) -> tuple[NP, ...]:
        """Noun phrases in the order the sentence is read."""
        return (self.subject,) if self.obj is None else (self.subject, self.obj)

    def text(self) -> str:
        words = [self.subject.text()]
        if self.negated:
            words += ["doesnt", _BARE.get(self.verb, self.verb)]
        else:
            words.append(self.verb)
        if self.verb == "is":
            words.append(self.adj)
        elif self.obj is not None:
            words.append(self.obj.text())
        return " ".join(words)

    def words(self) -> list[str]:
        return self.text().replace("(", " ").replace(")", " ").split()

    def pronouns(self) -> int:
        return sum(np.kind == "pron" for np in self.nps())

    def atoms(self) -> list[str]:
        """Content predicates the sentence asserts (or denies)."""
        preds = [np.word for np in self.nps() if np.kind == "indef"]
        preds.append(self.adj if self.verb == "is" else symbol(self.verb))
        return preds


@dataclass(frozen=True)
class Discourse:
    name: str
    profile: str
    sentences: tuple[Sentence, ...]
    expr: str                  # bracketing over s0 .. s{n-1}

    def dsc(self) -> str:
        lines = [f"profile {self.profile}"]
        lines += [f"sentence s{i} = {s.text()}" for i, s in enumerate(self.sentences)]
        lines.append(f"discourse = {self.expr}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Sample:
    """A committed sample discourse and its golden output."""
    name: str
    path: Path
    golden: str


@dataclass(frozen=True)
class Call:
    """One `contsem run` invocation of a pass."""
    item: object               # Discourse or Sample
    flags: tuple[str, ...]
    sentences: int


# ---------------------------------------------------------------------------
# Sentences from roles
#
# A slot's plan gives each sentence a role and a negation flag; the seed
# then picks the words and one of the role's forms.  Every form of a role
# introduces the same number of indefinites and pronouns.
#
#   intro   one indefinite and one name        john loves (a woman)
#   intro2  two indefinites                    (a man) owns (a dog)
#   mixed   an indefinite subject, a pronoun   (a woman) loves it
#   pron    one pronoun, no indefinite         it is red / john owns it
#   names   names only                         mary walks

ROLES = ("intro", "intro2", "mixed", "pron", "names")


def _np(rng: random.Random, v: Vocab, kind: str) -> NP:
    if kind == "name":
        return NP("name", rng.choice(v.names))
    if kind == "indef":
        return NP("indef", rng.choice(v.nouns))
    return PRON


def _forms(role: str, profile: str, negated: bool) -> list[tuple]:
    """(subject, object) kinds of a role's transitive forms, plus
    ("is", subject) and ("iv", subject) for copula and intransitive forms,
    which cannot be negated."""
    v = VOCAB[profile]
    if profile == "B":
        # Profile B's subjects are `john` or a pronoun, as in its samples:
        # an indefinite subject's referent never reaches the object there.
        forms = {"intro": [("name", "indef")],
                 "pron": [("name", "pron"), ("is", "pron")],
                 "names": [("is", "name")]}[role]
    else:
        forms = {"intro": [("name", "indef"), ("indef", "name")],
                 "intro2": [("indef", "indef")],
                 "mixed": [("indef", "pron")],
                 "pron": [("name", "pron"), ("pron", "name"), ("is", "pron")]
                         + [("iv", "pron")] * bool(v.iverbs),
                 "names": [("name", "name"), ("is", "name")]
                          + [("iv", "name")] * bool(v.iverbs)}[role]
    if negated:
        forms = [f for f in forms if f[0] not in ("is", "iv")]
    return forms


def realize(role: str, negated: bool, profile: str, rng: random.Random) -> Sentence:
    v = VOCAB[profile]
    a, b = rng.choice(_forms(role, profile, negated))
    if a == "is":
        return Sentence(_np(rng, v, b), "is", adj=rng.choice(v.adjs))
    if a == "iv":
        return Sentence(_np(rng, v, b), rng.choice(v.iverbs))
    return Sentence(_np(rng, v, a), rng.choice(v.tverbs), _np(rng, v, b),
                    negated=negated)


def _bracket(ids: list[str], ops: tuple[str, ...], rng: random.Random) -> str:
    """A uniformly split random binary bracketing of the sentence ids."""
    if len(ids) == 1:
        return ids[0]
    k = rng.randint(1, len(ids) - 1)
    left = _bracket(ids[:k], ops, rng)
    right = _bracket(ids[k:], ops, rng)
    left = left if k == 1 else f"({left})"
    right = right if len(ids) - k == 1 else f"({right})"
    return f"{left} {rng.choice(ops)} {right}"


def _slot_rng(name: str) -> random.Random:
    """A stream fixed per slot, independent of the seed: it draws the
    slot's plan and bracketing, which set its cost."""
    return random.Random(f"slot:{name}")


def _discourse(name: str, profile: str, plan, rng: random.Random) -> Discourse:
    sentences = tuple(realize(role, neg, profile, rng) for role, neg in plan)
    ops = (".c", ".s") if profile == "C" else (".",)
    ids = [f"s{i}" for i in range(len(sentences))]
    return Discourse(name, profile, sentences, _bracket(ids, ops, _slot_rng(name)))


# ---------------------------------------------------------------------------
# Workloads

SHORT_LENGTHS = (1, 2, 3, 4)
SHORT_PER_LENGTH = 4
LONG_LENGTHS = (12, 16, 20, 24)
LONG_NEGATION_EVERY = 8      # profile A: one negated sentence in eight
# (sentences, indefinites, negations) of each branching-b discourse.
BRANCHING_SLOTS = ((3, 2, 1), (4, 2, 1), (4, 3, 2), (5, 3, 1), (5, 3, 2),
                   (6, 3, 2), (6, 4, 2))

WORKLOADS = ("short-mixed", "long-ac", "branching-b")


def _short_plan(profile: str, n: int, shape: random.Random) -> list[tuple]:
    roles = ("intro", "pron", "names") if profile == "B" else ROLES
    plan: list[tuple] = []
    while len(plan) < n:
        role = shape.choice(roles)
        # A profile-C pronoun reads only the previous unit's referents and
        # the right frontier, so it must follow a sentence that introduces
        # some; then no profile-C site is empty.  Profiles A and B may
        # start with a pronoun: their reference predicts the empty site.
        if profile == "C" and role in ("pron", "mixed") and (
                not plan or plan[-1][0] == "pron"):
            continue
        negated = (VOCAB[profile].negation and role != "names"
                   and shape.random() < 0.3)
        plan.append((role, negated))
    return plan


def short_mixed(rng: random.Random) -> list[Discourse]:
    out = []
    for profile in "ABC":
        for n in SHORT_LENGTHS:
            for k in range(SHORT_PER_LENGTH):
                name = f"{profile}{n}-{k}"
                plan = _short_plan(profile, n, _slot_rng(name))
                out.append(_discourse(name, profile, plan, rng))
    return out


def long_ac(rng: random.Random) -> list[Discourse]:
    out = []
    for profile in "AC":
        for n in LONG_LENGTHS:
            name = f"{profile}{n}"
            negated = set()
            if profile == "A":
                negated = set(_slot_rng(name).sample(range(0, n, 2),
                                                      n // LONG_NEGATION_EVERY))
            plan = [("intro" if i % 2 == 0 else "pron", i in negated)
                    for i in range(n)]
            out.append(_discourse(name, profile, plan, rng))
    return out


def branching_b(rng: random.Random) -> list[Discourse]:
    out = []
    for n, indefinites, negations in BRANCHING_SLOTS:
        name = f"B{n}-{indefinites}i{negations}n"
        shape = _slot_rng(name)
        # Sentence 0 introduces `john` with an indefinite, so every later
        # pronoun has a candidate under --resolve recency.
        intro = {0} | set(shape.sample(range(1, n), indefinites - 1))
        negated = set(shape.sample(range(n), negations))
        plan = [("intro" if i in intro else "pron", i in negated) for i in range(n)]
        out.append(_discourse(name, "B", plan, rng))
    return out


_BUILDERS = {"short-mixed": short_mixed, "long-ac": long_ac,
             "branching-b": branching_b}

_FLAGS = {
    "short-mixed": (("--resolve", "recency"), ("--format", "json")),
    "long-ac": ((),),
    "branching-b": (("--no-raw", "--resolve", "recency"),),
}


def discourses(workload: str, seed: int) -> list[Discourse]:
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def load_samples(samples_dir: Path) -> list[Sample]:
    if not samples_dir.is_dir():
        raise FileNotFoundError(f"no samples directory at {samples_dir}")
    out = []
    for path in sorted(samples_dir.glob("*.dsc")):
        golden = samples_dir / "golden" / (path.stem + ".out")
        out.append(Sample(path.stem, path, golden.read_text()))
    return out


def calls(workload: str, seed: int, samples_dir: Path) -> list[Call]:
    """One pass of the workload, in the order it is compiled."""
    out = []
    if workload == "short-mixed":
        for sample in load_samples(samples_dir):
            n = _sample_sentences(sample)
            out.append(Call(sample, (), n))
            out.append(Call(sample, ("--format", "json"), n))
    for d in discourses(workload, seed):
        for flags in _FLAGS[workload]:
            out.append(Call(d, flags, len(d.sentences)))
    return out


def _sample_sentences(sample: Sample) -> int:
    """Sentence leaves in a sample's discourse expression."""
    for line in sample.path.read_text().splitlines():
        if line.startswith("discourse"):
            expr = line.split("=", 1)[1]
            for tok in ("(", ")", ".c", ".s", "."):
                expr = expr.replace(tok, " ")
            return len(expr.split())
    return 0
