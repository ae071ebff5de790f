"""Kiselman's semigroup: canonical words, arithmetic, enumeration and
zero-equation structure, all machine-checked at small ranks.
"""

from .algebra import (
    Element,
    antiautomorphism,
    content,
    display,
    from_word,
    generator,
    identity,
    idempotent,
    multiply,
    prefix_before_one,
    sort_key,
    zero,
    zero_threshold,
)
from .enumeration import Semigroup, enumerate_canonical_words
from .equations import (
    SolutionDecomposition,
    ZeroSolutionSet,
    construct_right_zero_solutions,
    solve_right_zero,
)
from .errors import (
    DomainError,
    InvariantError,
    ResourceLimitError,
    ValidationError,
)
from .rewrite import (
    Reduction,
    ReductionKind,
    ReductionTrace,
    all_normal_forms,
    canonical_form,
    reduction_trace,
)
from .verify import SUITE_NAMES, run_suites
from .words import (
    Word,
    idempotent_word,
    is_canonical,
    letter_subsets,
    parse_word,
)

__version__ = "0.1.0"
