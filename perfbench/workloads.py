"""The benchmark's three workloads: their inputs, operations and answer checks.

Every input is a pure function of the workload seed.  The seed picks every
operation's sampling seed and, on serve-mixed, the request sequence (edit
counts, Conflict jitter variants, which requests stream).  The subjects and
the shape of each pass stay fixed, so two seeds measure the same work.

Why these workloads
-------------------
``paper-30k``
    The paper's budget and configuration (30k samples, ``QCoralConfig()``
    defaults, in-thread sampling, a fresh Session per query, no store).
    Planning -- ICP paving, symbolic execution, key canonicalisation --
    is most of its wall time; sampling is a minority.
``sigma-target``
    Time to a stated accuracy on one shared two-worker thread Session.
    Sampling through ``Executor.map`` is most of its wall time; it is the
    only workload on the sharded RNG path and on importance sampling.  A
    planning-only change should predict no change here, and a sampling
    change none on ``paper-30k``.
``serve-mixed``
    A ``qcoral serve`` process (memory store, memory ledger, two concurrent
    runs, a two-worker thread pool) driven by two closed-loop clients,
    about one request in ten over SSE.  The only workload that parses large
    constraint texts (Apollo), reads the shared store next to merges,
    appends to a ledger, answers warm hits that still re-pave, and goes
    through the HTTP layer.

``BENCHMARK.json`` lists ``paper-30k`` and ``serve-mixed`` only.  On a shared
two-core host the wall time of the same pass drifts by 20-40% over minutes,
so a run must be long to be steady, and the time all runs may take allows
that for two workloads, not three.  ``sigma-target`` is the one left out:
every layer it stresses is also measured on another (``exec`` and the
sharded sampling path through the server's worker pool), and
``--workload sigma-target`` or ``all`` still runs it.

Constraint sets are rendered as text here, as ``" || ".join(str(pc) ...)``:
``str(ConstraintSet)`` wraps every path condition in parentheses, and
``parse_constraint_set`` rejects that text (``ParseError: expected ')' but
found '<='`` on Apollo).  That defect is in ``lang/ast.py`` and is left to a
later change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

WORKLOADS = ("paper-30k", "sigma-target", "serve-mixed")

#: A run makes ``--seconds / PASS_SECONDS`` passes: the longest a pass took
#: while the shared host was slowest (two to three times as long as when it
#: was fastest).  The pass count, and with it which operation a percentile
#: picks, is then the same in every run of the same length; a run on a
#: faster host ends early.  Were the count set by the clock instead, a fast
#: spell would add passes and move ``op_tail_ms`` from one subject's
#: latencies to another's.
PASS_SECONDS = {"paper-30k": 9.5, "sigma-target": 13.0, "serve-mixed": 7.0}

#: Closed-form truths used by the answer checks.
SAFETY_MONITOR_TRUTH = 0.737848
TRUTH_SIGMAS = 5.0

#: sigma-target's accuracy goals and per-factor budget cap.  The goals keep
#: the five queries' latencies well apart (safety monitor < Apollo < EGFR <
#: Conflict < Turn Logic), so the median and the tail operation each read
#: one subject's values rather than jump between two.
SIGMA_TARGETS = {
    "Apollo": 3e-4,
    "Conflict": 1.4e-3,
    "Turn Logic": 9e-4,
    "safety monitor": 3e-4,
    "EGFR EPI f1 - f >= 0.1": 6e-5,
}
SIGMA_BUDGET_CAP = 2_000_000


def pass_count(workload: str, seconds: float) -> int:
    """Passes a run of ``seconds`` makes on a host no slower than the slowest seen."""
    return max(2, int(seconds / PASS_SECONDS[workload]))


def op_seeds(seed: int, count: int) -> List[int]:
    """``count`` sampling seeds derived from the workload seed."""
    rng = random.Random(f"ops:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


# --------------------------------------------------------------------------- #
# In-process workloads (run by worker.py in a fresh interpreter per pass)
# --------------------------------------------------------------------------- #
@dataclass
class Operation:
    """One timed ``Query.run()`` and the truth its answer is checked against.

    ``build(session)`` makes the query on ``session``.
    """

    name: str
    build: Callable
    truth: Optional[float] = None
    needs_target: bool = False


def _aerospace():
    from repro.subjects import aerospace

    return [aerospace.apollo(), aerospace.tsafe_conflict(), aerospace.tsafe_turn_logic()]


def _quantify(subject):
    return lambda session: session.quantify(subject.constraint_set, subject.profile())


def _analyze(source, event):
    return lambda session: session.analyze(source, event)


def _paper_subjects() -> List[Tuple[str, Callable, Optional[float]]]:
    from repro.subjects import programs, volcomp_suite

    subjects: List[Tuple[str, Callable, Optional[float]]] = [
        (subject.name, _quantify(subject), None) for subject in _aerospace()
    ]
    for subject_name, label in (("ATRIAL", "points >= 10"), ("VOL", "count >= 20")):
        subject = volcomp_suite.subject_by_name(subject_name)
        source = subject.program_source(subject.assertion(label))
        subjects.append((f"{subject_name} {label}", _analyze(source, volcomp_suite.TARGET_EVENT), None))
    subjects.append(
        ("safety monitor", _analyze(programs.SAFETY_MONITOR, programs.SAFETY_MONITOR_EVENT), SAFETY_MONITOR_TRUTH)
    )
    return subjects


def paper_30k_operations(seed: int) -> List[Operation]:
    """Apollo, Conflict and Turn Logic, the ATRIAL and VOL rows, the safety monitor.

    Each runs at the ``QCoralConfig()`` defaults on a fresh Session.
    """
    subjects = _paper_subjects()
    return [
        Operation(name, lambda session, build=build, op_seed=op_seed: build(session).seed(op_seed), truth)
        for (name, build, truth), op_seed in zip(subjects, op_seeds(seed, len(subjects)))
    ]


def sigma_target_operations(seed: int) -> List[Operation]:
    """Apollo, Conflict, Turn Logic, the safety monitor and EGFR EPI to a sigma goal."""
    from repro.subjects import volcomp_suite

    egfr = volcomp_suite.subject_by_name("EGFR EPI")
    subjects = [entry for entry in _paper_subjects() if entry[0] in SIGMA_TARGETS]
    subjects.append(
        (
            "EGFR EPI f1 - f >= 0.1",
            _analyze(egfr.program_source(egfr.assertion("f1 - f >= 0.1")), volcomp_suite.TARGET_EVENT),
            None,
        )
    )

    def goal(build, name, op_seed):
        def make(session):
            query = (
                build(session)
                .with_budget(SIGMA_BUDGET_CAP)
                .until(std=SIGMA_TARGETS[name])
                .allocation("neyman")
                .seed(op_seed)
            )
            return query.method("importance") if name.startswith("EGFR") else query

        return make

    return [
        Operation(name, goal(build, name, op_seed), truth, needs_target=True)
        for (name, build, truth), op_seed in zip(subjects, op_seeds(seed, len(subjects)))
    ]


# --------------------------------------------------------------------------- #
# serve-mixed traffic
# --------------------------------------------------------------------------- #
#: Closed-form truths of the evolution fixture's edited factors
#: (``edited_version``), in factor order.
EDITED_FACTOR_TRUTHS = (
    math.pi * 0.9 / 4.0,
    math.asin(0.7) / 2.0,
    (0.4 ** (1.0 / 3.0) + 1.0) / 2.0,
    0.7 * 0.7 / 2.0,
    (3.0 - math.acos(0.3)) / 3.0,
)

#: Client 0's evolution requests open with these edit counts.  Every one
#: after the first adds exactly one factor not seen before (a new lowest or
#: highest edit count), so each pass has one fully cold evolution request,
#: five partly warm ones, and -- since every later one lies between the
#: extremes -- only fully warm ones after them, whatever the seed.
EVOLUTION_OPENINGS = ((2, 3, 1, 4, 0, 5), (3, 2, 4, 1, 5, 0))

#: Generator seeds of the Conflict threshold jitter and its decision-tree
#: depth.  Each seed's first request in a pass is cold; later ones are
#: store hits that still re-pave.
CONFLICT_VARIANTS = (42, 43, 44)
CONFLICT_DEPTH = 2
#: Client 0 repeats: one evolution request, then this many Conflict ones.
CONFLICTS_PER_EVOLUTION = 2
#: Upper bound on client 0's requests per pass; it stops earlier, as soon
#: as client 1's fixed list is done.
CLIENT0_REQUESTS = 600

#: Client 1's fixed list: the Apollo variant (about 114 KB of constraint
#: text), requested this many times per pass -- once cold, then warm.
APOLLO_VARIANT = 2014
APOLLO_REPEATS = 4

#: Share of requests sent to the SSE endpoint.
STREAM_SHARE = 0.1


@dataclass
class Request:
    """One HTTP request of a serve-mixed client."""

    family: str
    payload: Dict[str, object]
    stream: bool
    truth: Optional[float] = None


def evolution_truth(edits: int) -> float:
    """Truth of ``edited_version(edits)``: the product of its factors' truths."""
    from repro.subjects.evolution import FACTOR_TRUTH_V1

    return math.prod(EDITED_FACTOR_TRUTHS[:edits] + tuple(FACTOR_TRUTH_V1.values())[edits:])


def constraint_text(constraint_set) -> str:
    """Parseable text of a constraint set (see the module docstring)."""
    return " || ".join(str(pc) for pc in constraint_set.path_conditions)


def serve_clients(seed: int) -> Tuple[List[Request], List[Request]]:
    """The two clients' request sequences.

    Client 0 sends evolution-fixture and Conflict families, client 1 Apollo
    ones.  No canonical factor is shared between the clients, so which
    request finds a warm store never depends on thread timing.

    Client 1's list is the pass's fixed work; client 0 keeps sending until
    it is done, so the two contend for the whole pass.  Two of every three
    client 0 requests are Conflict ones, about 0.1 s each under load.  A
    request of a few milliseconds waits for the interpreter lock behind the
    other client's request for as long as thread scheduling decides, so
    with such requests in the majority the median latency would follow the
    scheduler rather than the work.
    """
    from repro.subjects import aerospace, evolution

    rng = random.Random(f"serve:{seed}")
    opening = list(EVOLUTION_OPENINGS[rng.randrange(len(EVOLUTION_OPENINGS))])
    low, high = min(opening), max(opening)
    conflicts = {}
    for variant in CONFLICT_VARIANTS:
        subject = aerospace.tsafe_conflict(depth=CONFLICT_DEPTH, seed=variant)
        conflicts[variant] = (constraint_text(subject.constraint_set), _bounds(subject.bounds))

    client0: List[Request] = []
    edit_counts = iter(opening)
    while len(client0) < CLIENT0_REQUESTS:
        edits = next(edit_counts, None)
        if edits is None:
            edits = rng.randint(low, high)
        payload = {
            "constraints": evolution.edited_version(edits),
            "domains": dict(evolution.EVOLUTION_DOMAINS),
            "seed": rng.randrange(1, 2**31),
        }
        client0.append(Request(f"evolution-{edits}", payload, False, evolution_truth(edits)))
        for _ in range(CONFLICTS_PER_EVOLUTION):
            variant = CONFLICT_VARIANTS[rng.randrange(len(CONFLICT_VARIANTS))]
            text, bounds = conflicts[variant]
            payload = {"constraints": text, "domains": bounds, "seed": rng.randrange(1, 2**31)}
            client0.append(Request(f"conflict-{variant}", payload, False))

    apollo = aerospace.apollo(seed=APOLLO_VARIANT)
    text, bounds = constraint_text(apollo.constraint_set), _bounds(apollo.bounds)
    client1 = [
        Request(f"apollo-{APOLLO_VARIANT}", {"constraints": text, "domains": bounds, "seed": rng.randrange(1, 2**31)}, False)
        for _ in range(APOLLO_REPEATS)
    ]

    for requests in (client0, client1):
        for index in rng.sample(range(len(requests)), max(1, round(STREAM_SHARE * len(requests)))):
            requests[index].stream = True
    return client0, client1


def _bounds(bounds) -> Dict[str, List[float]]:
    return {name: [low, high] for name, (low, high) in bounds.items()}


# --------------------------------------------------------------------------- #
# Answer checks
# --------------------------------------------------------------------------- #
def answer_error(mean: float, std: float, truth: Optional[float]) -> Optional[str]:
    """Why an answer fails its closed-form check, or None when it passes."""
    if truth is None:
        return None
    if not math.isfinite(mean) or not math.isfinite(std):
        return f"non-finite answer mean={mean} std={std}"
    if abs(mean - truth) > TRUTH_SIGMAS * max(std, 1e-12):
        return f"mean {mean:.6f} is more than {TRUTH_SIGMAS:g} sigma (std {std:.3e}) from the truth {truth:.6f}"
    return None
