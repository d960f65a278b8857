"""ICP paving at the paper's configuration: seconds per subject and bit identity.

Paving, not sampling, dominates a quantification at the paper's 30k budget,
so the paving solver gets its own benchmark.  The workload is every distinct
factor that the paper subjects hand to :meth:`ICPSolver.pave` at
``PAPER_CONFIG``: Apollo, Conflict and Turn Logic (quantified), the ATRIAL
``points >= 10`` and VOL ``count >= 20`` rows and the safety monitor
(analysed).  Those factors, with the exact pavings they produced, are pinned
in ``tests/data/paving_golden.json`` (every bound as ``float.hex``).

For each subject the benchmark re-paves its factors from the golden file and
records the median paving seconds over a few repeats; ``bit_identical`` says
whether every paving (boxes, inner flags, effort counters) still equals the
golden one, and ``time_budget_hits`` counts pavings cut by the solver's
wall-clock budget (a cut paving depends on machine speed, so it must be 0).
The summary lands in ``benchmarks/BENCH_icp.json`` and is gated by
``benchmarks/check_regression.py`` (``bit_identical`` hard, seconds against
the committed baseline with a relative ceiling plus absolute slack).

Run directly (``python benchmarks/bench_icp.py``) for the table, or via
pytest for the assertion-checked version.  ``--write-golden`` re-collects the
factors by running the subjects and rewrites the golden file; only do that
for an intentional change of the pavings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from typing import Dict, List

try:
    from benchmarks.conftest import FULL_SCALE, record_bench, write_bench_summary
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import FULL_SCALE, record_bench, write_bench_summary
from repro.analysis.results import Table
from repro.icp import PAPER_CONFIG, ICPSolver
from repro.intervals.box import Box
from repro.intervals.interval import Interval
from repro.lang import ast

#: Summary file of this benchmark family.
SUMMARY = "BENCH_icp.json"

#: The golden pavings (shared with ``tests/test_paving_golden.py``).
GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "data", "paving_golden.json"
)

#: Timed repeats per subject (the median is reported).
REPEATS = 7 if FULL_SCALE else 5

#: Sampling seed of the collection run (pavings do not depend on it).
SEED = 1


# --------------------------------------------------------------------------- #
# Exact JSON form of factors and pavings
# --------------------------------------------------------------------------- #
def encode_expression(expression: ast.Expression) -> list:
    """Exact JSON form of an expression tree (constants as ``float.hex``)."""
    if isinstance(expression, ast.Constant):
        return ["c", float(expression.value).hex()]
    if isinstance(expression, ast.Variable):
        return ["v", expression.name]
    if isinstance(expression, ast.UnaryOp):
        return ["u", expression.operator, encode_expression(expression.operand)]
    if isinstance(expression, ast.BinaryOp):
        return ["b", expression.operator, encode_expression(expression.left), encode_expression(expression.right)]
    if isinstance(expression, ast.FunctionCall):
        return ["f", expression.name, [encode_expression(argument) for argument in expression.arguments]]
    raise TypeError(f"cannot encode {type(expression).__name__}")


def decode_expression(payload: list) -> ast.Expression:
    """Inverse of :func:`encode_expression`."""
    kind = payload[0]
    if kind == "c":
        return ast.Constant(float.fromhex(payload[1]))
    if kind == "v":
        return ast.Variable(payload[1])
    if kind == "u":
        return ast.UnaryOp(payload[1], decode_expression(payload[2]))
    if kind == "b":
        return ast.BinaryOp(payload[1], decode_expression(payload[2]), decode_expression(payload[3]))
    if kind == "f":
        return ast.FunctionCall(payload[1], tuple(decode_expression(argument) for argument in payload[2]))
    raise ValueError(f"unknown expression tag {kind!r}")


def encode_factor(pc: ast.PathCondition, domain: Box, integer_variables) -> dict:
    """Exact JSON form of one paving input."""
    return {
        "constraints": [
            [constraint.operator, encode_expression(constraint.left), encode_expression(constraint.right)]
            for constraint in pc.constraints
        ],
        "domain": [[name, float(iv.lo).hex(), float(iv.hi).hex()] for name, iv in domain.items()],
        "integer_variables": sorted(integer_variables),
    }


def decode_factor(factor: dict):
    """``(pc, domain, integer_variables)`` of an encoded paving input."""
    pc = ast.PathCondition.of(
        ast.Constraint(operator, decode_expression(left), decode_expression(right))
        for operator, left, right in factor["constraints"]
    )
    domain = Box({name: Interval(float.fromhex(lo), float.fromhex(hi)) for name, lo, hi in factor["domain"]})
    return pc, domain, tuple(factor["integer_variables"])


def encode_paving(paving) -> dict:
    """Exact JSON form of a paving: every box bound as ``float.hex``."""
    return {
        "boxes": [
            {
                "lo": [float(iv.lo).hex() for _, iv in paved.box.items()],
                "hi": [float(iv.hi).hex() for _, iv in paved.box.items()],
                "inner": paved.inner,
            }
            for paved in paving.boxes
        ],
        "boxes_explored": paving.boxes_explored,
        "contraction_passes": paving.contraction_passes,
    }


def load_golden() -> dict:
    """The committed golden pavings."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- #
# Collection (``--write-golden``)
# --------------------------------------------------------------------------- #
def _subjects():
    from repro.subjects import aerospace, programs, volcomp_suite

    subjects = [
        (subject.name, lambda session, subject=subject: session.quantify(subject.constraint_set, subject.profile()))
        for subject in (aerospace.apollo(), aerospace.tsafe_conflict(), aerospace.tsafe_turn_logic())
    ]
    for name, label in (("ATRIAL", "points >= 10"), ("VOL", "count >= 20")):
        subject = volcomp_suite.subject_by_name(name)
        source = subject.program_source(subject.assertion(label))
        subjects.append(
            (f"{name} {label}", lambda session, source=source: session.analyze(source, volcomp_suite.TARGET_EVENT))
        )
    subjects.append(
        (
            "safety monitor",
            lambda session: session.analyze(programs.SAFETY_MONITOR, programs.SAFETY_MONITOR_EVENT),
        )
    )
    return subjects


def collect_golden() -> dict:
    """Run every subject at the default configuration and record each distinct paving."""
    from repro.api import Session

    original = ICPSolver.pave
    seen: Dict[str, dict] = {}
    current: List[str] = []

    def recording_pave(self, pc, domain, integer_variables=()):
        paving = original(self, pc, domain, integer_variables)
        if self.config == PAPER_CONFIG:
            factor = encode_factor(pc, domain, integer_variables)
            key = json.dumps(factor, sort_keys=True)
            entry = seen.setdefault(key, {"subjects": [], "factor": factor, "paving": encode_paving(paving)})
            if current[0] not in entry["subjects"]:
                entry["subjects"].append(current[0])
        return paving

    ICPSolver.pave = recording_pave
    try:
        for name, build in _subjects():
            current[:] = [name]
            with Session() as session:
                build(session).seed(SEED).run()
    finally:
        ICPSolver.pave = original
    return {"config": repr(PAPER_CONFIG), "factors": list(seen.values())}


# --------------------------------------------------------------------------- #
# Benchmark
# --------------------------------------------------------------------------- #
def run_benchmark() -> dict:
    """Re-pave every golden factor; time per subject and check bit identity."""
    golden = load_golden()
    factors = [(entry, decode_factor(entry["factor"])) for entry in golden["factors"]]
    solver = ICPSolver(PAPER_CONFIG)
    bit_identical = True
    budget_hits = 0
    for entry, (pc, domain, integers) in factors:
        paving = solver.pave(pc, domain, integer_variables=integers)
        bit_identical = bit_identical and encode_paving(paving) == entry["paving"]
        budget_hits += int(paving.timed_out)

    subjects = []
    for name in dict.fromkeys(subject for entry in golden["factors"] for subject in entry["subjects"]):
        own = [decoded for entry, decoded in factors if name in entry["subjects"]]
        timings = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            for pc, domain, integers in own:
                solver.pave(pc, domain, integer_variables=integers)
            timings.append(time.perf_counter() - started)
        subjects.append(
            {
                "subject": name,
                "factors": len(own),
                "pave_seconds": round(statistics.median(timings), 4),
            }
        )
    return {
        "config": golden["config"],
        "repeats": REPEATS,
        "factors": len(factors),
        "bit_identical": bit_identical,
        "time_budget_hits": budget_hits,
        "total_pave_seconds": round(sum(row["pave_seconds"] for row in subjects), 4),
        "subjects": subjects,
    }


def test_icp_paving_benchmark():
    payload = run_benchmark()
    assert payload["bit_identical"], "pavings diverged from tests/data/paving_golden.json"
    assert payload["time_budget_hits"] == 0, payload
    record_bench("icp", payload, summary=SUMMARY)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-golden", action="store_true", help="re-collect and rewrite the golden pavings")
    args = parser.parse_args()
    if args.write_golden:
        golden = collect_golden()
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, separators=(",", ":"))
            handle.write("\n")
        print(f"{len(golden['factors'])} distinct factors written to {GOLDEN_PATH}")
        return
    payload = run_benchmark()
    table = Table(
        title=f"ICP paving at PAPER_CONFIG (median of {payload['repeats']})",
        headers=("factors", "pave seconds"),
    )
    for row in payload["subjects"]:
        table.add_row(row["subject"], str(row["factors"]), f"{row['pave_seconds']:.4f}")
    print(table.render())
    print(
        f"total {payload['total_pave_seconds']:.4f}s   bit identical: {payload['bit_identical']}   "
        f"time-budget hits: {payload['time_budget_hits']}"
    )
    record_bench("icp", payload, summary=SUMMARY)
    print(f"\nsummary written to {write_bench_summary(SUMMARY)}")


if __name__ == "__main__":
    main()
