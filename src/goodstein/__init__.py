"""Goodstein sequences over exact naturals, with termination certificates.

The package splits into five parts: ``numerals`` (base-independent digit
sequences and radix arithmetic), ``hereditary`` (hereditary base notation
as base-free trees), ``sequences`` (decreasing, weak, and strong runs as
record streams), ``descent`` (descent certificates for every kind), and
``cli`` (the command line front end).
"""

from .descent import (
    DescentCertificate,
    check_step,
    rank,
    verify_run,
)
from .errors import (
    ArityExceeded,
    CoefficientOutOfRange,
    DigitOutOfRange,
    DomainError,
    EmptyRun,
    GoodsteinError,
    InvalidBase,
    MagnitudeCapExceeded,
    StepMismatch,
    Underflow,
)
from .hereditary import (
    HereditaryTree,
    build_hereditary,
    eval_tree,
    iter_nodes,
    render_tree_dot,
    render_tree_text,
)
from .numerals import (
    Digits,
    Ordering,
    decrement_in_base,
    from_digits,
    lex_compare,
    power_predecessor,
    render,
    to_digits,
)
from .sequences import (
    DEFAULT_MAX_BITS,
    DEFAULT_MAX_STEPS,
    RunConfig,
    RunKind,
    RunOutcome,
    RunStatus,
    StepRecord,
    run,
    run_collected,
    strong_step,
    weak_step,
)

__all__ = [
    "ArityExceeded",
    "CoefficientOutOfRange",
    "DEFAULT_MAX_BITS",
    "DEFAULT_MAX_STEPS",
    "DescentCertificate",
    "DigitOutOfRange",
    "Digits",
    "DomainError",
    "EmptyRun",
    "GoodsteinError",
    "HereditaryTree",
    "InvalidBase",
    "MagnitudeCapExceeded",
    "Ordering",
    "RunConfig",
    "RunKind",
    "RunOutcome",
    "RunStatus",
    "StepMismatch",
    "StepRecord",
    "Underflow",
    "build_hereditary",
    "check_step",
    "decrement_in_base",
    "eval_tree",
    "from_digits",
    "iter_nodes",
    "lex_compare",
    "power_predecessor",
    "rank",
    "render",
    "render_tree_dot",
    "render_tree_text",
    "run",
    "run_collected",
    "strong_step",
    "to_digits",
    "verify_run",
    "weak_step",
]
