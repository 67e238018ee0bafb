"""Discourse interpretation through typed continuations.

Sentences denote functions over referent environments and continuations;
composing them and beta-normalizing yields first-order logical forms in which
every pronoun site records exactly the discourse referents it may access.
"""

from .terms import (
    Arrow, Base, SemType, E, T, G, arrow,
    Var, Lam, App, Const, Term, app,
    KAPPA_B, KAPPA_C, SENT_A, SENT_B, SENT_C,
    normalize, typecheck,
)
from .syntax import parse_term, parse_type, pretty
from .logic import (
    Formula, Top, Bot, Not, And, Or, Exists, Atom,
    EntConst, EntVar, SelOf, NilE, ConsE, UnionE,
    formula_json, formula_text, json_text, reify, simplify,
)
from .lexicon import (
    Category, LexEntry, Lexicon, Profile,
    default_lexicon, load_word_file, make_entry, negation_variant,
)
from .discourse import (
    CopulaAdj, CoordN, Det, DiscourseTree, InitialArgs, Interpretation, Leaf,
    Pron, ProperN, Seq, Sentence, SubN, SymLeaf, Verb,
    build_sentence, compose, default_initial_args, expand_symbolic,
    interpret, parse_discourse, parse_sentence_words, run_pipeline,
)
from .resolver import AccessReport, rendered, report, report_line, resolve

__version__ = "0.1.0"
