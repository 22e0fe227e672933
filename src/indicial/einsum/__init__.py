"""Index-notation expression language: parse, validate, plan, execute."""

from .executor import execute
from .planner import ContractionPlan, Mode, order_contractions, validate
from .syntax import Statement, parse

__all__ = [
    "ContractionPlan",
    "Mode",
    "Statement",
    "execute",
    "order_contractions",
    "parse",
    "validate",
]
