"""End-to-end probabilistic software analysis pipeline (paper Figure 1).

The pipeline glues the three stages together: parse a program, symbolically
execute it to collect the path conditions reaching a target event, and hand
the resulting constraint set (plus the usage profile) to qCORAL.  It also
quantifies the probability mass of the paths that hit the execution bound,
which the paper proposes as a confidence measure for the bounded result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.core.cache import CacheStatistics
from repro.core.estimate import Estimate
from repro.core.profiles import UsageProfile
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig, QCoralResult, RoundReport
from repro.errors import AnalysisError
from repro.exec.executor import Executor
from repro.obs import Observability
from repro.store.backends import EstimateStore
from repro.symexec.ast import Program
from repro.symexec.parser import parse_program
from repro.symexec.symbolic import SymbolicExecutionResult, execute_program


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of an end-to-end analysis of one target event."""

    event: str
    probability: Estimate
    bounded_probability: Estimate
    qcoral_result: QCoralResult
    symbolic_result: SymbolicExecutionResult

    @property
    def mean(self) -> float:
        """Estimated probability of the target event."""
        return self.probability.mean

    @property
    def std(self) -> float:
        """Standard deviation of the probability estimate."""
        return self.probability.std

    @property
    def rounds(self) -> int:
        """Sampling rounds the adaptive loop executed for the target event."""
        return self.qcoral_result.rounds

    @property
    def round_reports(self) -> Tuple[RoundReport, ...]:
        """Per-round convergence records of the target-event analysis."""
        return self.qcoral_result.round_reports

    @property
    def executor_label(self) -> Optional[str]:
        """Resolved backend the analysis sampled on (None = the calling thread).

        Comes from the analyzer's executor instance, so a pool passed to the
        pipeline constructor is reported even when the config names none.
        """
        return self.qcoral_result.executor

    @property
    def store_label(self) -> Optional[str]:
        """Label of the persistent estimate store used (None = no store)."""
        return self.qcoral_result.store

    @property
    def cache_statistics(self) -> CacheStatistics:
        """Two-tier cache counters of the whole pipeline run.

        The event analysis and the bounded-path analysis share one analyzer,
        so these counters cover both — including persistent-store hits, warm
        starts, and merges when a store is configured.
        """
        return self.qcoral_result.cache_statistics

    @property
    def confidence_note(self) -> str:
        """Human-readable statement of the bounded-path probability mass."""
        return (f"probability mass of paths hitting the execution bound: " f"{self.bounded_probability.mean:.6f}")


def require_event(symbolic: SymbolicExecutionResult, event: str) -> None:
    """Raise :class:`AnalysisError` when ``event`` occurs on no explored path.

    Shared by the pipeline and the Session facade so the two surfaces can
    never drift apart in validation or message.
    """
    if event not in symbolic.events():
        raise AnalysisError(
            f"event {event!r} never occurs on any explored path; "
            f"known events: {list(symbolic.events())}"
        )


def bounded_probability_estimate(analyzer: QCoralAnalyzer, symbolic: SymbolicExecutionResult) -> Estimate:
    """Probability mass of the paths that hit the execution bound.

    The paper proposes this as a confidence measure for the bounded result;
    an exploration with no bound-hitting paths has exactly zero mass.  Shared
    by the pipeline and the Session facade.
    """
    bounded_set = symbolic.bounded_constraint_set()
    if not bounded_set.path_conditions:
        return Estimate.zero()
    return analyzer.analyze(bounded_set).estimate


class ProbabilisticAnalysisPipeline:
    """Program + usage profile + target event → probability estimate."""

    def __init__(
        self,
        program: Union[str, Program],
        profile: Optional[UsageProfile] = None,
        config: QCoralConfig = QCoralConfig(),
        max_depth: int = 50,
        max_paths: int = 100_000,
        executor: Optional[Executor] = None,
        store: Optional[EstimateStore] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        self._program = parse_program(program) if isinstance(program, str) else program
        self._profile = profile if profile is not None else UsageProfile.uniform(self._program.input_bounds())
        self._config = config
        self._max_depth = max_depth
        self._max_paths = max_paths
        self._executor = executor
        self._store = store
        self._observability = observability
        self._symbolic_result: Optional[SymbolicExecutionResult] = None
        self._analyzer: Optional[QCoralAnalyzer] = None
        self._closed = False

    @property
    def program(self) -> Program:
        """The parsed program under analysis."""
        return self._program

    @property
    def profile(self) -> UsageProfile:
        """The usage profile describing the inputs."""
        return self._profile

    def symbolic_execution(self) -> SymbolicExecutionResult:
        """Run (and cache) the bounded symbolic execution of the program."""
        if self._symbolic_result is None:
            self._symbolic_result = execute_program(self._program, max_depth=self._max_depth, max_paths=self._max_paths)
        return self._symbolic_result

    def analyzer(self) -> QCoralAnalyzer:
        """The single qCORAL analyzer shared by all analyses of this pipeline.

        Sharing one analyzer means the event analysis and the bounded-path
        analysis (and analyses of further events) draw from one factor cache:
        path-condition factors quantified once are reused instead of being
        re-sampled by a second analyzer with the same seed — which previously
        also replayed the identical RNG stream.

        The executor backend and the persistent estimate store are plumbed
        from the configuration (or instances passed to the pipeline
        constructor are borrowed), so every analysis of this pipeline samples
        on the same worker pool and reuses/merges against the same store.
        """
        if self._analyzer is None:
            self._analyzer = QCoralAnalyzer(
                self._profile,
                self._config,
                executor=self._executor,
                store=self._store,
                observability=self._observability,
            )
        return self._analyzer

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Shut down any executor pool or store handle the analyzer created.

        Idempotent, like :meth:`QCoralAnalyzer.close`: repeated calls (e.g.
        nested context-manager entry) are no-ops, and borrowed instances
        (passed to the constructor) stay open for their owner in every case.
        """
        if self._closed:
            return
        self._closed = True
        if self._analyzer is not None:
            self._analyzer.close()

    def __enter__(self) -> "ProbabilisticAnalysisPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def analyze(self, event: str) -> PipelineResult:
        """Quantify the probability that ``event`` occurs during execution."""
        symbolic = self.symbolic_execution()
        require_event(symbolic, event)
        constraint_set = symbolic.constraint_set_for(event)
        analyzer = self.analyzer()
        result = analyzer.analyze(constraint_set)
        bounded = bounded_probability_estimate(analyzer, symbolic)

        return PipelineResult(
            event=event,
            probability=result.estimate,
            bounded_probability=bounded,
            qcoral_result=result,
            symbolic_result=symbolic,
        )


def analyze_program(
    source: Union[str, Program],
    event: str,
    profile: Optional[UsageProfile] = None,
    config: QCoralConfig = QCoralConfig(),
    max_depth: int = 50,
) -> PipelineResult:
    """One-shot convenience wrapper around :class:`ProbabilisticAnalysisPipeline`.

    Any executor pool the configuration requests is shut down on return.
    """
    with ProbabilisticAnalysisPipeline(source, profile, config, max_depth=max_depth) as pipeline:
        return pipeline.analyze(event)
