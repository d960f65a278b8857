"""Constraint-set contraction: fixpoint iteration of HC4-revise.

The contractor narrows a box against *all* conjuncts of a path condition,
repeating the sweep until either the box stops shrinking appreciably or the
configured iteration budget is exhausted.  The result is always a box that
contains every solution of the conjunction lying in the input box (or ``None``
when the conjunction is certainly unsatisfiable there).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.icp.config import ICPConfig, PAPER_CONFIG
from repro.icp.hc4 import HC4Program
from repro.intervals.box import Box
from repro.lang import ast


class Contractor:
    """The conjuncts of ``pc`` compiled once for boxes over ``variables``.

    Not to be shared between threads (the compiled programs keep state).
    """

    def __init__(self, pc: ast.PathCondition, variables: Sequence[str], config: ICPConfig = PAPER_CONFIG) -> None:
        self._variables = tuple(variables)
        self._programs = tuple(HC4Program(constraint, self._variables) for constraint in pc.constraints)
        self._config = config

    def contract(self, box: Box) -> Optional[Box]:
        """The narrowed box, or None when some conjunct is certainly unsatisfiable over ``box``."""
        lo, hi = box.bound_lists()
        if any(low > high for low, high in zip(lo, hi)):
            return None
        for _ in range(self._config.max_contractor_iterations):
            widths = [high - low for low, high in zip(lo, hi)]
            for program in self._programs:
                if not program.revise(lo, hi):
                    return None
            if not _made_progress(widths, lo, hi, self._config.contraction_tolerance):
                break
        return Box.from_bound_lists(self._variables, lo, hi)

    def certainly_holds(self, box: Box, strict_boundaries: bool = False) -> bool:
        """True when every conjunct certainly holds over the whole box."""
        lo, hi = box.bound_lists()
        return all(program.certainly_holds(lo, hi, strict_boundaries) for program in self._programs)


def contract(pc: ast.PathCondition, box: Box, config: ICPConfig = PAPER_CONFIG) -> Optional[Box]:
    """Contract ``box`` with respect to every conjunct of ``pc``.

    Returns the narrowed box, or ``None`` when some conjunct is certainly
    unsatisfiable over the box (the conjunction has no solution there).
    """
    return Contractor(pc, box.variables, config).contract(box)


def _made_progress(widths: List[float], lo: List[float], hi: List[float], tolerance: float) -> bool:
    """True when at least one dimension shrank by more than ``tolerance`` (relative)."""
    for old_width, low, high in zip(widths, lo, hi):
        if old_width != 0.0 and (old_width - (high - low)) / old_width > tolerance:
            return True
    return False
