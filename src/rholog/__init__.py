"""rholog — an interpreter for a strategic hedge-transformation language.

Programs are conditional transformation rules over hedges (sequences of
terms) controlled by strategies; queries are solved by depth-first
backtracking with negation-as-failure, and strategy combinators build
complex transformations from simple ones.

Quick use::

    from rholog import Session, consult_text

    program = consult_text('''
        str1 :: (s_1, a, s_2) ==> (s_1, f(a), s_2).
    ''')
    for answer in Session(program).solve_text(
            "str1 :: (a, b, a) ==> s_X"):
        print(answer)
"""

from .engine import (
    Answer,
    ConsultError,
    DepthLimitExceeded,
    ModeError,
    Program,
    Session,
    consult,
    consult_text,
)
from .matching import decompositions, match_hedge, plug
from .program import (
    Abbreviation,
    CutLiteral,
    OpDirective,
    PredClause,
    PredLiteral,
    RhoClause,
    RhoLiteral,
    SourceProgram,
)
from .strategies import COMBINATORS, Interaction, corpus_path, corpus_source
from .syntax import (
    OperatorTable,
    ParseError,
    default_operators,
    format_hedge,
    format_literal,
    format_value,
    parse_hedge,
    parse_program,
    parse_query,
    parse_term,
)
from .terms import (
    EMPTY_HEDGE,
    HOLE,
    Apply,
    Hedge,
    Var,
    apply_context,
    apply_subst,
    singleton,
)
from .wellmoded import ModeTable, Violation, check_clause, check_program, check_query

__version__ = "0.1.0"

__all__ = [
    "Answer", "ConsultError", "DepthLimitExceeded", "ModeError", "Program",
    "Session", "consult", "consult_text",
    "decompositions", "match_hedge", "plug",
    "Abbreviation", "CutLiteral", "OpDirective", "PredClause", "PredLiteral",
    "RhoClause", "RhoLiteral", "SourceProgram",
    "COMBINATORS", "Interaction", "corpus_path", "corpus_source",
    "OperatorTable", "ParseError", "default_operators", "format_hedge",
    "format_literal", "format_value", "parse_hedge", "parse_program",
    "parse_query", "parse_term",
    "EMPTY_HEDGE", "HOLE", "Apply", "Hedge", "Var",
    "apply_context", "apply_subst", "singleton",
    "ModeTable", "Violation", "check_clause", "check_program", "check_query",
    "__version__",
]
