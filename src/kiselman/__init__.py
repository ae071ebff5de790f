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
from .enumeration import (
    EnumerationResult,
    ParityReport,
    Semigroup,
    enumerate_canonical_words,
    enumerate_elements,
    filter_by_content,
    generated_submonoid,
    parity_report,
)
from .equations import (
    CancellationReport,
    SolutionDecomposition,
    ZeroSolutionSet,
    characterize_zero,
    construct_right_zero_solutions,
    solution_multiply,
    solution_rule,
    solution_word,
    solve_left_zero,
    solve_right_zero,
    verify_zero_cancellation,
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
    one_step_reductions,
    reduction_trace,
)
from .verify import SUITE_NAMES, SuiteResult, run_suites
from .words import (
    Word,
    idempotent_word,
    is_canonical,
    is_quasi_subword,
    is_subword,
    letter_subsets,
    mirror,
    occurrence_counts,
    parse_word,
    word_from_indices,
)

__version__ = "0.1.0"
