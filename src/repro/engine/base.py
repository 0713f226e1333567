"""The unified summarizer abstraction: one result shape, one entry point.

Every summarization method in the library — SLUGGER and the five flat
baselines — historically had its own driver signature and result object.
:class:`Summarizer` is the common protocol the engine registry dispatches
through: ``summarize(graph, seed=...)`` always returns an
:class:`EngineResult` with the summary, shared wall-clock timing, the
per-iteration history (when the method produces one), and method-specific
details.  Adapters only implement :meth:`Summarizer._run`; timing and
result packaging live here so every method is measured the same way.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Union

from repro.engine.execution import ExecutionConfig
from repro.engine.hooks import GraphResources, RunControl
from repro.graphs.graph import Graph
from repro.model.flat import FlatSummary
from repro.model.summary import HierarchicalSummary
from repro.utils.rng import SeedLike
from repro.utils.validation import require_type

__all__ = ["AnySummary", "EngineResult", "Summarizer"]

AnySummary = Union[HierarchicalSummary, FlatSummary]


@dataclass
class EngineResult:
    """Outcome of running one summarizer on one graph.

    Attributes
    ----------
    method:
        Registry name of the method that produced the result.
    summary:
        The (lossless) summary, hierarchical or flat.
    runtime_seconds:
        Wall-clock duration measured by the engine around the whole run.
    history:
        Per-iteration records for iterative methods (empty otherwise).
    details:
        Method-specific extras (e.g. SLUGGER's pruning counters).
    """

    method: str
    summary: AnySummary
    runtime_seconds: float
    history: List[Dict[str, float]] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    def cost(self) -> int:
        """Model-comparable encoding cost (Eq. 1 / Eq. 11)."""
        if isinstance(self.summary, FlatSummary):
            return self.summary.cost_eq11()
        return self.summary.cost()

    def relative_size(self, graph: Graph) -> float:
        """Relative output size with respect to ``graph`` (Eq. 10 / Eq. 11)."""
        return self.summary.relative_size(graph)

    def validate(self, graph: Graph) -> None:
        """Raise unless the summary represents ``graph`` exactly."""
        self.summary.validate(graph)


class Summarizer(ABC):
    """A named, configured summarization method.

    Subclasses set :attr:`name` (the registry key), declare whether they
    honor an ``iterations`` option via :attr:`iteration_controlled`, and
    implement the one hook :meth:`_run`, which receives the full run
    surface — seed, execution, progress/cancel control and shared
    substrate resources — and may ignore what it does not use.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""
    #: Whether the method exposes an ``iterations`` knob (SLUGGER, SWeG).
    iteration_controlled: ClassVar[bool] = False
    #: Whether the method honors an :class:`ExecutionConfig` (its phases
    #: can shard across worker processes).  Methods without the
    #: capability silently run serially; output never depends on it.
    supports_parallel: ClassVar[bool] = False

    def summarize(
        self,
        graph: Graph,
        seed: SeedLike = None,
        execution: Optional[ExecutionConfig] = None,
        control: Optional[RunControl] = None,
        resources: Optional[GraphResources] = None,
    ) -> EngineResult:
        """Run the method on ``graph`` with shared timing bookkeeping.

        ``execution`` is honored by parallel-capable methods (see
        :attr:`supports_parallel`); for a fixed seed the summary is
        bit-identical regardless of the execution configuration.
        ``control`` (progress/cancel) and ``resources`` (shared
        substrate views) are honored by the methods that use them and
        are inert for the rest; neither can change the summary.
        """
        require_type(graph, Graph, "graph")
        started = time.perf_counter()
        summary, history, details = self._run(
            graph, seed, execution, control, resources
        )
        elapsed = time.perf_counter() - started
        if execution is not None:
            details = dict(details)
            details["execution"] = {
                "workers": execution.workers,
                "parallel_capable": self.supports_parallel,
            }
        return EngineResult(
            method=self.name,
            summary=summary,
            runtime_seconds=elapsed,
            history=history,
            details=details,
        )

    @abstractmethod
    def _run(
        self,
        graph: Graph,
        seed: SeedLike,
        execution: Optional[ExecutionConfig],
        control: Optional[RunControl],
        resources: Optional[GraphResources],
    ) -> Tuple[AnySummary, List[Dict[str, float]], Dict[str, Any]]:
        """Produce ``(summary, history, details)`` for one graph."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
