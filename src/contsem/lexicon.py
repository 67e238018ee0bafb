"""Profile-indexed lexicon of typed lambda-term entries.

Three calculi ("profiles") share one word registry:

  A - plain continuation semantics, sentence type g>(g>t)>t;
  B - sentences abstract over a logical connective and carry two referent
      environments (proper nouns in the first, existentials in the second),
      which lets negation block indefinites while letting names through;
  C - sentences abstract over an environment combinator (Coord/Sub) for
      right-frontier bookkeeping; C has no per-word entries, leaves are
      assembled directly by the discourse module from word categories.

Entries are authored in the concrete term syntax and parsed once.  Content
words follow category templates, so new nouns/verbs/names can be minted
without touching the core entries.

The registry row is the only source of a word's category: a Lexicon rejects
an entry whose word has no row (UnknownWord) or whose category differs from
its row, and `extended` adds rows for new words but never rewrites one.
It also rejects a row or alias that no lookup reaches.
"""
from __future__ import annotations

from collections.abc import Collection, Iterable
from enum import Enum
from functools import lru_cache

from .errors import ContsemError
from .node import Node
from .syntax import parse_term
from .terms import (
    E, T, SemType, Term, TypeMismatch, arrow, typecheck,
    CONT_A, CONT_B, CONT_C, KAPPA_B, KAPPA_C, SENT_A, SENT_B, SENT_C,
)


class Profile(Enum):
    A = "A"
    B = "B"
    C = "C"

    def __init__(self, value: str):
        # Its sentence, continuation and connective types; A has no connective.
        self.sentence_type, self.continuation_type, self.connective_type = {
            "A": (SENT_A, CONT_A, None), "B": (SENT_B, CONT_B, KAPPA_B),
            "C": (SENT_C, CONT_C, KAPPA_C)}[value]


class Category(Enum):
    PROPER_NOUN = "pnoun"
    COMMON_NOUN = "noun"
    TRANSITIVE_VERB = "tverb"
    INTRANSITIVE_VERB = "iverb"
    DETERMINER = "det"
    PRONOUN = "pron"
    COPULA = "copula"
    ADJECTIVE = "adj"
    NEGATION_AUX = "neg"


class UnknownWord(ContsemError):
    def __init__(self, word: str, profile: Profile | None = None):
        self.word = word
        self.profile = profile
        where = f" in profile {profile.value}" if profile else ""
        super().__init__(f"no entry for {word!r}{where}")


class UnsupportedCategory(ContsemError):
    def __init__(self, category: Category, profile: Profile):
        self.category = category
        self.profile = profile
        super().__init__(
            f"no {category.value} template in profile {profile.value}"
        )


class LexEntry(Node):
    __slots__ = {"word": "str", "category": "Category", "profile": "Profile",
                 "term": "Term"}


# ---------------------------------------------------------------------------
# Types of each category, per profile

def _category_types(sent: SemType) -> dict[Category, SemType]:
    np = arrow(arrow(E, sent), sent)
    prop = arrow(E, sent)
    adj = arrow(prop, E, sent)
    return {
        Category.PROPER_NOUN: np,
        Category.COMMON_NOUN: prop,
        Category.TRANSITIVE_VERB: arrow(np, np, sent),
        Category.INTRANSITIVE_VERB: arrow(np, sent),
        Category.DETERMINER: arrow(prop, prop, sent),
        Category.PRONOUN: np,
        Category.COPULA: arrow(adj, np, sent),
        Category.ADJECTIVE: adj,
        Category.NEGATION_AUX: arrow(arrow(np, sent), np, sent),
    }


CATEGORY_TYPES: dict[Profile, dict[Category, SemType]] = {
    Profile.A: _category_types(SENT_A),
    Profile.B: _category_types(SENT_B),
}


_PREDICATE = arrow(E, T)
_CONTENT_TYPES = {Category.PROPER_NOUN: E, Category.TRANSITIVE_VERB: arrow(E, E, T)}


def content_type(category: Category) -> SemType:
    """Type of the content constant a template introduces (shared objects)."""
    return _CONTENT_TYPES.get(category, _PREDICATE)


# ---------------------------------------------------------------------------
# Entry sources

# Entry sources name the profile's types: phi and k its continuation and
# connective types, a category's value that category's type.
TYPE_NAMES = {p: {"phi": p.continuation_type, **({"k": p.connective_type} if p.connective_type
                                                 else {}),
                  **{c.value: ty for c, ty in CATEGORY_TYPES.get(p, {}).items()}}
              for p in Profile}

# Content-word templates; {p} is the content constant.
_TEMPLATES: dict[Profile, dict[Category, str]] = {
    Profile.A: {
        Category.PROPER_NOUN: r"\P:noun. P {p}",
        Category.COMMON_NOUN: r"\x:e. \e:g. \phi:phi. {p} x & phi e",
        Category.TRANSITIVE_VERB: (
            r"\O:pnoun. \S:pnoun. S (\x:e. O (\y:e. \e:g. \phi:phi. {p} x y & phi e))"),
        Category.INTRANSITIVE_VERB: r"\S:pnoun. S (\x:e. \e:g. \phi:phi. {p} x & phi e)",
        Category.ADJECTIVE: r"\P:noun. \x:e. \e:g. \phi:phi. (P x e phi) & {p} x",
    },
    Profile.B: {
        Category.PROPER_NOUN: (
            r"\P:noun. \c:k. \e1:g. \e2:g. \phi:phi. P {p} c ({p}::e1) e2 phi"),
        Category.COMMON_NOUN: (
            r"\x:e. \c:k. \e1:g. \e2:g. \phi:phi. c ({p} x) (phi c e1 e2)"),
        Category.TRANSITIVE_VERB: (
            r"\O:pnoun. \S:pnoun. S (\x:e. O (\y:e. \c:k. \e1:g. \e2:g. \phi:phi."
            r" c ({p} x y) (phi c e1 e2)))"),
        Category.INTRANSITIVE_VERB: (
            r"\S:pnoun. S (\x:e. \c:k. \e1:g. \e2:g. \phi:phi. c ({p} x) (phi c e1 e2))"),
        Category.ADJECTIVE: (
            r"\P:noun. \x:e. \c:k. \e1:g. \e2:g. \phi:phi. (P x c e1 e2 phi) & {p} x"),
    },
}

# Word-specific entries that have no content slot; their categories are in
# the registry.
_FIXED: dict[Profile, dict[str, str]] = {
    Profile.A: {
        "a": (r"\P:noun. \Q:noun. \e:g. \phi:phi."
              r" Ex (\x:e. P x e (\e':g. Q x (x::e') phi))"),
        "it": r"\P:noun. \e:g. \phi:phi. P (sel e) e phi",
        "is": (r"\A:adj. \S:pnoun. S (\x:e. \e:g. \phi:phi."
               r" (A (\y:e. \e0:g. \phi0:phi. top) x e phi) & phi e)"),
        "doesnt": r"\V:iverb. \S:pnoun. \e:g. \phi:phi. ~(V S e (\e':g. top)) & phi e",
    },
    Profile.B: {
        "a": (r"\P:noun. \Q:noun. \c:k. \e1:g. \e2:g. \phi:phi."
              r" Ex (\x:e. (\phi':phi. (P x c e1 e2 phi') & (Q x c e1 e2 phi'))"
              r" (\c':k. \e1':g. \e2':g. phi c e1' (x::e2')))"),
        "it": r"\P:noun. \c:k. \e1:g. \e2:g. \phi:phi. P (sel (e1 ++ e2)) c e1 e2 phi",
        "is": (r"\A:adj. \S:pnoun. S (\x:e. \c:k. \e1:g. \e2:g. \phi:phi."
               r" c (A (\y:e. \c0:k. \f1:g. \f2:g. \psi:phi. top)"
               r" x c e1 e2 phi) (phi c e1 e2))"),
        "doesnt": (r"\V:iverb. \S:pnoun. \c:k. \e1:g. \e2:g. \phi:phi."
                   r" ~(V S (\a:t. \b:t. ~(c (~a) (~b))) e1 e2"
                   r" (\c':k. \e1':g. \e2':g. ~(phi c' e1' e2)))"),
    },
}

# The alternative negation entry: the continuation goes inside the negation,
# so everything after the negated sentence ends up negated too.  Kept only to
# demonstrate why the shipped entry quarantines the negation instead.
_REJECTED_NEGATION_A = r"\V:iverb. \S:pnoun. \e:g. \phi:phi. ~(V S e (\e':g. phi e'))"

# Default word registry: word -> (category, content symbol).
_DEFAULT_WORDS: dict[str, tuple[Category, str]] = {
    "john": (Category.PROPER_NOUN, "j"),
    "mary": (Category.PROPER_NOUN, "mary"),
    "loves": (Category.TRANSITIVE_VERB, "love"),
    "own": (Category.TRANSITIVE_VERB, "own"),
    "woman": (Category.COMMON_NOUN, "woman"),
    "man": (Category.COMMON_NOUN, "man"),
    "car": (Category.COMMON_NOUN, "car"),
    "dog": (Category.COMMON_NOUN, "dog"),
    "walks": (Category.INTRANSITIVE_VERB, "walk"),
    "red": (Category.ADJECTIVE, "red"),
    "happy": (Category.ADJECTIVE, "happy"),
    "a": (Category.DETERMINER, ""),
    "it": (Category.PRONOUN, ""),
    "is": (Category.COPULA, ""),
    "doesnt": (Category.NEGATION_AUX, ""),
}

# Surface inflections folded onto a canonical word.
_ALIASES = {"owns": "own", "walk": "walks"}

# Words with stored term entries per profile (profile B carries exactly the
# eight core entries; profile C composes leaves from categories instead).
_STORED_WORDS = {
    Profile.A: ("john", "loves", "woman", "own", "car", "a", "it", "is",
                "red", "doesnt"),
    Profile.B: ("john", "own", "car", "a", "it", "is", "red", "doesnt"),
}


def _build_term(category: Category, profile: Profile, symbol: str) -> Term:
    templates = _TEMPLATES.get(profile, {})
    if category not in templates:
        raise UnsupportedCategory(category, profile)
    return parse_term(templates[category].format(p=symbol),
                      {symbol: content_type(category)}, TYPE_NAMES[profile])


class Lexicon:
    """Store of typechecked entries plus the shared word registry; the default
    entries of the `unread` profiles are parsed on first read, unless given."""

    def __init__(self, words: dict[str, tuple[Category, str]],
                 entries: dict[tuple[str, Profile], LexEntry],
                 aliases: dict[str, str] | None = None, unread: Iterable[Profile] = ()):
        self._words = dict(words)
        self._entries = dict(entries)
        self._aliases = dict(aliases or {})
        self._unread = frozenset(unread)
        self._check(self._entries.values(), self._words)
        self._known = {w: w for w in self._words} | self._aliases  # valid once checked below
        for word, target in self._known.items():    # as `canonical` reads a spelling
            if word != word.lower().replace("'", "") or target not in self._words:
                raise ContsemError(f"no lookup reaches {word!r}: a lookup folds the spelling "
                                   "(lower case, no apostrophe), then follows one alias to a row")

    def _check(self, entries: Collection[LexEntry], rows: Iterable[str] = ()) -> None:
        """Reject a row or an entry under an alias, and an entry without a row, of
        another category than its row's, or not of its category's type."""
        for word in [*rows, *(e.word for e in entries)]:
            if word in self._aliases:
                raise ContsemError(f"{word!r} is an inflection of {self._aliases[word]!r}")
        for entry in entries:
            if entry.word not in self._words:
                raise UnknownWord(entry.word)
            registered = self._words[entry.word][0]
            if registered != entry.category:
                raise ContsemError(
                    f"{entry.word!r} is registered as {registered.value}; its "
                    f"profile {entry.profile.value} entry says {entry.category.value}")
            expected = CATEGORY_TYPES.get(entry.profile, {}).get(entry.category)
            if expected is None:
                raise UnsupportedCategory(entry.category, entry.profile)
            found = typecheck(entry.term)
            if found.text != expected.text:
                raise TypeMismatch(expected, found)

    def _load(self, *profiles: Profile) -> None:
        """Parse and check the default entries of those profiles still due."""
        for profile in self._unread.intersection(profiles):
            entries = {}
            for word in _STORED_WORDS[profile]:
                category, symbol = _DEFAULT_WORDS[word]
                term = (parse_term(_FIXED[profile][word], {}, TYPE_NAMES[profile])
                        if word in _FIXED[profile] else _build_term(category, profile, symbol))
                entries[(word, profile)] = LexEntry(word, category, profile, term)
            self._check(entries.values())
            # Rebound, not changed in place: no reader in another thread sees a size change.
            self._entries = {**entries, **self._entries}
            self._unread = self._unread - {profile}

    def canonical(self, word: str) -> str:
        """The word lower-cased, unquoted and uninflected; known ones from a table."""
        known = self._known.get(word)
        if known is None:
            known = word.lower().replace("'", "")
            known = self._aliases.get(known, known)
        return known

    def knows(self, word: str) -> bool:
        return self.canonical(word) in self._words

    def _read(self, spelling: str) -> tuple[str, Category | None]:
        """The spelling's word and its category (None if unregistered).  The
        table is read inline: the DSL reader's one registry call per token."""
        word = self._known.get(spelling) or self.canonical(spelling)
        row = self._words.get(word)
        return word, row and row[0]

    def _row(self, word: str) -> tuple[Category, str]:
        row = self._words.get(self.canonical(word))
        if row is None:
            raise UnknownWord(word)
        return row

    def category(self, word: str) -> Category:
        return self._row(word)[0]

    def symbol(self, word: str) -> str:
        """Content constant for the word (entity name or predicate)."""
        return self._row(word)[1]

    def entry(self, word: str, profile: Profile) -> Term:
        if profile in self._unread:
            self._load(profile)
        entry = self._entries.get((self.canonical(word), profile))
        if entry is None:
            raise UnknownWord(word, profile)
        return entry.term

    def entries(self, profile: Profile | None = None) -> list[LexEntry]:
        self._load(*([profile] if profile else self._unread))
        out = [e for e in self._entries.values()
               if profile is None or e.profile == profile]
        return sorted(out, key=lambda e: (e.profile.value, e.word))

    def signature(self) -> dict[str, SemType]:
        """Content constants of all registered words, for the term parser."""
        return {symbol: content_type(category)
                for category, symbol in self._words.values() if symbol}

    def extended(self, new_entries: Iterable[LexEntry]) -> "Lexicon":
        """New lexicon with extra entries.  A new word gets a registry row
        (its category, the word as content symbol); an existing row is never
        changed, so an entry of another category is rejected.  The profiles
        still unread stay unread in the new lexicon."""
        words = dict(self._words)
        entries = dict(self._entries)
        for entry in new_entries:
            words.setdefault(entry.word, (entry.category, entry.word))
            entries[(entry.word, entry.profile)] = entry
        return Lexicon(words, entries, self._aliases, self._unread)

    def with_rejected_negation(self) -> "Lexicon":
        """Variant lexicon whose profile-A negation is the rejected entry."""
        return self.extended([LexEntry(
            "doesnt", Category.NEGATION_AUX, Profile.A,
            negation_variant(Profile.A, rejected=True))])


def make_entry(category: Category, word: str, profile: Profile,
               symbol: str | None = None) -> LexEntry:
    """Instantiate the category's template for a new content word.

    The entry is shaped exactly like the corresponding core entry with the
    content constant renamed: by default, to the symbol of the word's row in
    the default lexicon, as every profile reads it, else to the word itself.
    """
    word, registry = word.lower().replace("'", ""), default_lexicon()
    term = _build_term(category, profile, symbol or (
        registry.knows(word) and registry.symbol(word)) or word)
    return LexEntry(word, category, profile, term)


def negation_variant(profile: Profile, rejected: bool = False) -> Term:
    """The negation-auxiliary entry.

    rejected=True returns the discarded alternative (profile A only), where
    the continuation sits inside the negation.
    """
    if rejected:
        if profile != Profile.A:
            raise ContsemError("the rejected negation variant exists only for profile A")
        return parse_term(_REJECTED_NEGATION_A, {}, TYPE_NAMES[profile])
    if profile not in _FIXED:
        raise UnknownWord("doesnt", profile)
    return parse_term(_FIXED[profile]["doesnt"], {}, TYPE_NAMES[profile])


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    """The default words; each profile's entries are parsed on its first read."""
    return Lexicon(_DEFAULT_WORDS, {}, _ALIASES, _STORED_WORDS)


_FILE_CATEGORIES = {c.value: c for c in Category
                    if c in (Category.PROPER_NOUN, Category.COMMON_NOUN,
                             Category.TRANSITIVE_VERB,
                             Category.INTRANSITIVE_VERB, Category.ADJECTIVE)}


def load_word_file(lines: Iterable[str], base: Lexicon | None = None) -> Lexicon:
    """Extend a lexicon from `category word` lines (e.g. `noun dog`,
    `tverb sees`, `pnoun mary`).  Blank lines and `#` comments are skipped."""
    base = base or default_lexicon()
    new: list[LexEntry] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in _FILE_CATEGORIES:
            raise ContsemError(
                f"lexicon file line {lineno}: expected `category word`, got {raw!r}"
            )
        category, word = _FILE_CATEGORIES[parts[0]], parts[1]
        symbol = base.symbol(word) if base.knows(word) else None     # a known word keeps its row's
        for profile in (Profile.A, Profile.B):
            new.append(make_entry(category, word, profile, symbol))
    return base.extended(new)
