"""Golden pavings: the ICP layer is bit-identical on its own, not only through sampling.

``tests/data/paving_golden.json`` pins every distinct factor the paper
subjects (Apollo, Conflict, Turn Logic, ATRIAL ``points >= 10``, VOL
``count >= 20``, the safety monitor) hand to the paving solver at
``PAPER_CONFIG``, with the exact paving each produced: every box bound as
``float.hex``, the inner flags and both effort counters.  Re-paving a factor
must reproduce its entry exactly.

Regenerate only after an intentional change of the pavings::

    PYTHONPATH=src python benchmarks/bench_icp.py --write-golden
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"))

from bench_icp import decode_factor, encode_factor, encode_paving, load_golden  # noqa: E402

from repro.icp import PAPER_CONFIG, ICPSolver  # noqa: E402

GOLDEN = load_golden()


def test_golden_covers_every_paper_subject():
    subjects = {subject for entry in GOLDEN["factors"] for subject in entry["subjects"]}
    assert subjects == {
        "Apollo",
        "Conflict",
        "Turn Logic",
        "ATRIAL points >= 10",
        "VOL count >= 20",
        "safety monitor",
    }
    assert GOLDEN["config"] == repr(PAPER_CONFIG)


@pytest.mark.parametrize("index", range(len(GOLDEN["factors"])))
def test_paving_matches_golden(index):
    entry = GOLDEN["factors"][index]
    pc, domain, integers = decode_factor(entry["factor"])
    assert encode_factor(pc, domain, integers) == entry["factor"]
    paving = ICPSolver(PAPER_CONFIG).pave(pc, domain, integer_variables=integers)
    assert not paving.timed_out
    assert encode_paving(paving) == entry["paving"]
