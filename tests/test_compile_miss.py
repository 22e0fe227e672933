"""A compile miss builds each term's replay once, where it is scheduled.

``order_contractions`` reschedules the terms of three or more factors.  As
in ``test_warm_path.py``, the Python frames it enters are pinned exactly, by
file and function name: one ``_schedule`` for the one such term, with its
pair picks and transposes, then the new plan's constructor, which keeps the
rescheduled term tuples as its replay.  A frame that builds a per-step
object or copies a term into a second representation fails here.
"""

from __future__ import annotations

from test_warm_path import _frames_entered

from indicial.einsum import order_contractions, parse, validate
from indicial.objects import DOWN, UP


def test_a_rescheduled_miss_schedules_once_and_copies_no_term():
    sigs = {"a": (3, (UP, DOWN), 0), "b": (3, (UP, DOWN), 0), "x": (3, (UP,), 0)}
    plan = validate(parse("y^r = 2.5 * a^r_s b^s_t x^t"), sigs)
    entered = _frames_entered(order_contractions.__wrapped__, plan)
    # list comprehensions are frames of their own only before Python 3.12
    assert [f for f in entered if not f.endswith(":<listcomp>")] == [
        "planner.py:order_contractions",
        "planner.py:_schedule",
        "planner.py:_smallest_pair", "planner.py:_perm", "planner.py:_perm",
        "planner.py:_smallest_pair", "planner.py:_perm", "planner.py:_perm",
        "planner.py:_perm",  # the output transpose
        "<string>:__init__", "planner.py:__post_init__",
    ]
    ordered = order_contractions.__wrapped__(plan)
    assert ordered.total_cost < plan.total_cost
    assert ordered._replay[2] is ordered.terms
