"""The SLUGGER driver (Algorithm 1) as a staged phase pipeline.

``Slugger.summarize`` runs ``T`` iterations, each an explicit pipeline of
five phases over the shared :class:`IterationContext`:

``shingle → group → decide-merges → apply-merges → recost``

* **shingle** draws the iteration's candidate seed and (when a parallel
  execution is configured) pre-computes the first shingle round's values
  in contiguous id-range shards over the frozen CSR view;
* **group** forms the candidate root sets (Sect. III-B2) and draws one
  merge seed per set — the same RNG stream the serial reference consumes;
* **decide-merges** optimistically computes each candidate set's merge
  decisions in worker processes that were forked against the
  iteration-start state (a copy-on-write snapshot: workers simulate
  merges on their private image, the parent's state stays untouched),
  returning compact merge *traces*;
* **apply-merges** walks the candidate sets in canonical order and, per
  set, either replays its trace (when a conflict check proves the
  decisions match what the serial reference would have decided) or falls
  back to processing the set serially; merges therefore mutate the real
  state in exactly the serial order;
* **recost** records the iteration history entry and optionally verifies
  the incremental indices.

Determinism guarantee
---------------------
The output is **bit-identical for a fixed seed regardless of worker
count**.  The apply phase enforces this: a trace is replayed only when
the set of roots the group read provably saw the same state the serial
reference would have shown it (no earlier-applied merge and no
worker-local simulation touched its footprint — see
:meth:`~repro.core.state.SluggerState.group_footprint`); every other
group is re-processed serially with its own seed, which *is* the serial
reference computation.  Worker-count changes can therefore only move
work between the replay and fallback paths, never change a decision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.candidates import generate_candidate_sets
from repro.core.coloring import colored_apply_sweep, first_color_class
from repro.core.config import SluggerConfig
from repro.core.merging import apply_merge_trace, process_candidate_set
from repro.core.pruning import prune
from repro.core.shingles import DenseShingleCache, sharded_shingles
from repro.core.state import SluggerState
from repro.engine.execution import (
    ExecutionConfig,
    executor_for,
    shard_bounds,
    worker_context,
)
from repro.engine.hooks import GraphResources, RunControl
from repro.graphs.graph import Graph
from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry
from repro.model.summary import HierarchicalSummary
from repro.utils.rng import ensure_rng
from repro.utils.validation import require_type

__all__ = [
    "ApplyPhase",
    "DecidePhase",
    "GroupPhase",
    "IterationContext",
    "IterationPipeline",
    "MergeTrace",
    "PHASE_NAMES",
    "RecostPhase",
    "ShinglePhase",
    "Slugger",
    "SluggerResult",
    "summarize",
]

#: A recorded merge decision sequence for one candidate set (see
#: :func:`~repro.core.merging.process_candidate_set` for the encoding).
MergeTrace = List[Tuple[int, int]]

PHASE_NAMES = ("shingle", "group", "decide", "apply", "recost")


@dataclass
class SluggerResult:
    """Outcome of one SLUGGER run.

    Attributes
    ----------
    summary:
        The final hierarchical summary (after pruning, unless disabled).
    config:
        The configuration the run used.
    history:
        One record per iteration with the iteration number, the merging
        threshold, the number of merges, the number of remaining root
        supernodes, and the encoding cost at the end of the iteration.
    prune_stats:
        Per-substep change counters returned by the pruning step.
    prune_profile:
        Per-substep wall times and the serial-vs-parallel split of the
        pruning step (see
        :func:`repro.analysis.cost_breakdown.pruning_profile`); empty
        when pruning is disabled.
    runtime_seconds:
        Wall-clock duration of the whole run (monotonic clock).
    phase_seconds:
        Wall-clock seconds spent in each pipeline phase, accumulated
        over all iterations (plus the final ``prune`` step).
    execution_stats:
        Counters of the parallel decide/apply machinery: how many
        candidate groups were processed, how many decide traces were
        replayed, how many groups fell back to the serial path, and —
        for colored zero-threshold sweeps — how many decide rounds ran
        and how many groups were replayed from or serially processed in
        them.  All zeros under pure serial execution.
    """

    summary: HierarchicalSummary
    config: SluggerConfig
    history: List[Dict[str, float]] = field(default_factory=list)
    prune_stats: Dict[str, int] = field(default_factory=dict)
    prune_profile: Dict[str, object] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    execution_stats: Dict[str, int] = field(default_factory=dict)

    def cost(self) -> int:
        """Encoding cost of the final summary (Eq. 1)."""
        return self.summary.cost()

    def relative_size(self, graph: Graph) -> float:
        """Relative output size (Eq. 10) with respect to ``graph``."""
        return self.summary.relative_size(graph)


@dataclass
class IterationContext:
    """Everything one pipeline iteration reads and produces.

    The driver creates one context per run and resets the per-iteration
    slots before each pass; phases communicate exclusively through it,
    which keeps every phase independently testable and replaceable.
    """

    state: SluggerState
    config: SluggerConfig
    execution: Optional[ExecutionConfig]
    rng: object  # random.Random: the run's single RNG stream
    phase_seconds: Dict[str, float]
    stats: Dict[str, int]
    history: List[Dict[str, float]] = field(default_factory=list)
    # Per-iteration slots, reset by the driver:
    iteration: int = 0
    threshold: float = 0.0
    candidate_seed: Optional[int] = None
    shingle_caches: Dict[int, DenseShingleCache] = field(default_factory=dict)
    candidate_sets: List[List[int]] = field(default_factory=list)
    merge_seeds: List[int] = field(default_factory=list)
    decisions: Optional[Iterator[List[Optional[MergeTrace]]]] = None
    colored_ready: Optional[List[int]] = None
    executor: Optional[object] = None
    merges: int = 0
    # Run-lifetime (not reset per iteration): the shingle pool's context
    # — the frozen CSR view and the label list — is immutable for the
    # whole run, so one forked pool serves every iteration.  A warm pool
    # borrowed from a service graph store outlives the run; the owner
    # closes it, not this context (``owns_shingle_executor``).
    shingle_executor: Optional[object] = None
    owns_shingle_executor: bool = True
    # Telemetry sinks (null objects by default — observation only, the
    # pipeline's decisions never read them).
    metrics: object = NULL_METRICS
    tracer: object = NULL_TRACER

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.threshold = self.config.threshold(iteration)
        self.candidate_seed = None
        self.shingle_caches = {}
        self.candidate_sets = []
        self.merge_seeds = []
        self.decisions = None
        self.colored_ready = None
        self.merges = 0

    def close_executor(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None

    def close_run(self) -> None:
        self.close_executor()
        if self.shingle_executor is not None:
            if self.owns_shingle_executor:
                self.shingle_executor.close()
            self.shingle_executor = None


class _DecideContext:
    """Worker-side context of the decide phase (inherited via fork).

    ``local_dirty`` accumulates, per worker process, the footprints of
    every group whose simulation performed at least one merge: the
    worker's private state image has diverged from the iteration-start
    snapshot on (at most) those roots, so later groups whose footprint
    touches them must not trust this worker's simulation.
    """

    __slots__ = ("state", "candidate_sets", "threshold", "config", "seeds",
                 "local_dirty", "telemetry")

    def __init__(self, state: SluggerState, candidate_sets: List[List[int]],
                 threshold: float, config: SluggerConfig, seeds: List[int],
                 telemetry: bool = False) -> None:
        self.state = state
        self.candidate_sets = candidate_sets
        self.threshold = threshold
        self.config = config
        self.seeds = seeds
        self.local_dirty: Set[int] = set()
        self.telemetry = telemetry


def _decide_shard(
    bounds: Tuple[int, int],
) -> Tuple[List[Optional[MergeTrace]], Optional[dict]]:
    """Decide the merges of candidate sets ``bounds`` on this worker's image.

    Returns ``(results, telemetry)``.  ``results`` holds one entry per
    group: the recorded merge trace, or ``None`` when the group is
    *tainted* — its footprint intersects state this worker already
    mutated while simulating an earlier group, so its decisions cannot
    be certified and the apply phase must fall back to the serial path
    for it.

    ``telemetry`` is ``None`` unless the run has metrics/tracing
    enabled, in which case it carries a shard-local
    :class:`~repro.obs.MetricsRegistry` snapshot plus the shard's raw
    ``perf_counter`` interval — plain picklable data the parent merges
    into its own registry (order-independent) and converts onto its
    span timeline.  Purely observational: the decide results are
    byte-identical with telemetry on or off.
    """
    context: _DecideContext = worker_context()
    state = context.state
    candidate_sets = context.candidate_sets
    local_dirty = context.local_dirty
    results: List[Optional[MergeTrace]] = []
    start, stop = bounds
    perf_start = time.perf_counter() if context.telemetry else 0.0
    tainted = 0
    for index in range(start, stop):
        members = candidate_sets[index]
        # The footprint must be taken *before* simulating: the group's
        # writes re-key (and can delete) entries of exactly these roots.
        footprint = state.group_footprint(members)
        if local_dirty and not local_dirty.isdisjoint(footprint):
            results.append(None)
            tainted += 1
            continue
        trace: MergeTrace = []
        process_candidate_set(
            state, members, context.threshold, context.config,
            seed=context.seeds[index], trace=trace,
        )
        if trace:
            local_dirty.update(footprint)
        results.append(trace)
    if not context.telemetry:
        return results, None
    seconds = time.perf_counter() - perf_start
    shard_metrics = MetricsRegistry()
    shard_metrics.histogram("slugger_decide_shard_seconds").observe(seconds)
    shard_metrics.counter("slugger_decide_groups_total").inc(stop - start)
    if tainted:
        shard_metrics.counter("slugger_decide_tainted_total").inc(tainted)
    return results, {
        "metrics": shard_metrics.snapshot(),
        "perf_start": perf_start,
        "seconds": seconds,
        "bounds": bounds,
        "tainted": tainted,
    }


# ----------------------------------------------------------------------
# Pipeline phases
# ----------------------------------------------------------------------
class ShinglePhase:
    """Draw the candidate seed; batch-compute first-round shingles in shards.

    The pre-computation runs only when it can pay for its dispatch: a
    parallel execution is configured, the graph clears the size floor,
    and the first shingle round is guaranteed to take the bulk path
    (more roots than the candidate-size cap).  Injected or not, the
    cache contents are bit-identical to what candidate generation would
    compute on its own.
    """

    name = "shingle"

    def run(self, ctx: IterationContext) -> None:
        ctx.candidate_seed = ctx.rng.randrange(2**61)
        execution = ctx.execution
        state = ctx.state
        if (
            execution is None
            or not execution.parallel
            or state.dense.num_nodes < execution.shingle_parallel_min_nodes
            or len(state.roots) <= ctx.config.max_candidate_size
            or ctx.config.shingle_rounds < 1
        ):
            return
        # The first in-function draw of generate_candidate_sets for this
        # seed is the first round's hash-function seed; preview it so the
        # pre-built cache lands under the right key.
        first_round_seed = ensure_rng(ctx.candidate_seed).randrange(2**61)
        bounds = shard_bounds(state.dense.num_nodes, execution.workers)
        executor = ctx.shingle_executor
        if executor is None:
            # The context (frozen CSR + labels) is immutable for the whole
            # run, so the pool is forked once and reused every iteration;
            # the driver closes it when the run ends.
            csr = state.csr_view()
            labels = state.dense.index.labels()
            executor = ctx.shingle_executor = executor_for(
                execution, len(bounds), context=(csr, labels)
            )
        shingles = sharded_shingles(executor, bounds, first_round_seed)
        ctx.shingle_caches[first_round_seed] = DenseShingleCache.from_shingles(
            state.dense, first_round_seed, shingles
        )


class GroupPhase:
    """Form candidate root sets and draw one merge seed per set.

    Seeds are drawn up front in canonical set order — the exact sequence
    the serial reference consumes interleaved with processing — so the
    run's RNG stream is independent of how the later phases execute.
    """

    name = "group"

    def run(self, ctx: IterationContext) -> None:
        state = ctx.state
        ctx.candidate_sets = generate_candidate_sets(
            state.dense,
            state.summary.hierarchy,
            sorted(state.roots),
            ctx.config,
            seed=ctx.candidate_seed,
            shingle_caches=ctx.shingle_caches,
        )
        rng = ctx.rng
        ctx.merge_seeds = [rng.randrange(2**61) for _ in ctx.candidate_sets]


class DecidePhase:
    """Fork workers against the iteration-start state and start deciding.

    The phase only *launches* the shard computation (the result iterator
    is lazy), so the apply phase can consume early chunks while later
    ones are still running.  All worker processes are forked before this
    phase returns, pinning their snapshot to the pre-apply state.  On
    serial configurations the phase is a no-op and the apply phase runs
    the serial reference loop directly.

    Zero-threshold iterations under the ``serial_zero_threshold``
    heuristic — where near-every group merges and optimistic decisions
    would be discarded — instead try a *colored* sweep
    (``colored_zero_threshold``): when the first independent class of
    the group interaction graph is big enough, the phase hands it to the
    apply phase, which runs :func:`~repro.core.coloring
    .colored_apply_sweep` in rounds.  When coloring degenerates (class
    below ``colored_min_class``) the phase falls back to the optimistic
    replay launch below; with the colored path disabled it stays a
    no-op, exactly as before.
    """

    name = "decide"

    def run(self, ctx: IterationContext) -> None:
        execution = ctx.execution
        if execution is None or not execution.parallel:
            return
        groups = len(ctx.candidate_sets)
        if execution.effective_workers(groups) <= 1:
            return
        if execution.serial_zero_threshold and ctx.threshold <= 0.0:
            if not execution.colored_zero_threshold:
                return
            ready = first_color_class(ctx.state, ctx.candidate_sets)
            if len(ready) >= execution.colored_min_class:
                ctx.colored_ready = ready
                return
            # Degenerate coloring: the optimistic replay path below is
            # still exact (every trace is conflict-checked at apply
            # time), just less likely to pay off.
        chunks = shard_bounds(groups, execution.workers * execution.chunks_per_worker)
        context = _DecideContext(
            ctx.state, ctx.candidate_sets, ctx.threshold, ctx.config, ctx.merge_seeds,
            telemetry=ctx.metrics.enabled or ctx.tracer.enabled,
        )
        ctx.executor = executor_for(execution, groups, context=context)
        ctx.decisions = ctx.executor.map_shards(_decide_shard, chunks)


class ApplyPhase:
    """Apply merges serially in canonical group order.

    Without decisions (serial mode) this is the reference loop: process
    every candidate set with its pre-drawn seed.  With decisions, each
    group's trace is replayed iff the conflict check certifies that the
    worker decided it against state indistinguishable from what the
    serial reference would have seen; otherwise the group is processed
    serially, which is exactly the reference computation.  ``dirty``
    tracks the footprints of all groups that merged anything — the roots
    on which the real state has moved past the iteration-start snapshot.

    When the decide phase handed over a colored first class instead
    (zero-threshold iterations), the whole iteration is delegated to
    :func:`~repro.core.coloring.colored_apply_sweep`, whose class
    construction makes every replay structurally exact.
    """

    name = "apply"

    def run(self, ctx: IterationContext) -> None:
        state = ctx.state
        config = ctx.config
        threshold = ctx.threshold
        seeds = ctx.merge_seeds
        candidate_sets = ctx.candidate_sets
        if ctx.colored_ready is not None:
            ctx.merges = colored_apply_sweep(
                state, candidate_sets, seeds, threshold, config,
                ctx.execution, ctx.stats, first_ready=ctx.colored_ready,
                tracer=ctx.tracer,
            )
            ctx.stats["groups"] += len(candidate_sets)
            ctx.stats["parallel_iterations"] += 1
            return
        if ctx.decisions is None:
            merges = 0
            for index, members in enumerate(candidate_sets):
                merges += process_candidate_set(
                    state, members, threshold, config, seed=seeds[index]
                )
            ctx.merges = merges
            ctx.stats["groups"] += len(candidate_sets)
            return

        merges = 0
        dirty: Set[int] = set()
        index = 0
        shard_number = 0
        for chunk, shard_info in ctx.decisions:
            if shard_info is not None:
                # Per-shard registries merge order-independently, and the
                # shard's raw perf_counter interval lands on the parent
                # timeline (CLOCK_MONOTONIC is system-wide across a fork).
                ctx.metrics.merge(shard_info["metrics"])
                ctx.tracer.add(
                    "decide-shard",
                    perf_start=shard_info["perf_start"],
                    duration=shard_info["seconds"],
                    lane=f"shard-{shard_number}",
                    groups=shard_info["bounds"][1] - shard_info["bounds"][0],
                    tainted=shard_info["tainted"],
                )
            shard_number += 1
            for trace in chunk:
                members = candidate_sets[index]
                footprint: Optional[Set[int]] = None
                valid = trace is not None
                if valid and dirty:
                    # Live maps are safe to read here: if any member was
                    # touched by an earlier merge it is itself in ``dirty``
                    # (members are always part of a writer's footprint),
                    # and members ⊆ footprint makes the single disjointness
                    # test catch it before any re-keyed entry could be
                    # misread.
                    footprint = state.group_footprint(members)
                    valid = dirty.isdisjoint(footprint)
                if valid:
                    ctx.stats["replayed"] += 1
                    if trace:
                        if footprint is None:
                            footprint = state.group_footprint(members)
                        merges += apply_merge_trace(state, trace, config)
                        dirty.update(footprint)
                else:
                    ctx.stats["fallbacks"] += 1
                    if footprint is None:
                        footprint = state.group_footprint(members)
                    fallback_trace: MergeTrace = []
                    merges += process_candidate_set(
                        state, members, threshold, config,
                        seed=seeds[index], trace=fallback_trace,
                    )
                    if fallback_trace:
                        dirty.update(footprint)
                index += 1
        ctx.merges = merges
        ctx.stats["groups"] += len(candidate_sets)
        ctx.stats["parallel_iterations"] += 1


class RecostPhase:
    """Record the iteration history entry; optionally verify invariants."""

    name = "recost"

    def run(self, ctx: IterationContext) -> None:
        history_entry = {
            "iteration": float(ctx.iteration),
            "threshold": ctx.threshold,
            "merges": float(ctx.merges),
            "roots": float(len(ctx.state.roots)),
            "cost": float(ctx.state.summary.cost()),
        }
        ctx.history.append(history_entry)
        if ctx.config.check_invariants:
            ctx.state.check_consistency()


class IterationPipeline:
    """The staged per-iteration pipeline SLUGGER's driver runs.

    Phases execute in order against a shared :class:`IterationContext`;
    each phase runs inside one tracer span and its duration accumulates
    into ``ctx.phase_seconds`` — the span *is* the measurement, so the
    per-phase numbers in :class:`SluggerResult`, the progress events,
    and the trace file can never drift apart.  (The null tracer's spans
    still self-time, so the disabled path measures identically.)  The
    executor opened by the decide phase is closed when the iteration
    ends, successfully or not.
    """

    def __init__(self) -> None:
        self.phases = (
            ShinglePhase(), GroupPhase(), DecidePhase(), ApplyPhase(), RecostPhase()
        )

    def run_iteration(self, ctx: IterationContext, iteration: int) -> None:
        ctx.begin_iteration(iteration)
        try:
            for phase in self.phases:
                with ctx.tracer.span(phase.name, iteration=iteration) as span:
                    phase.run(ctx)
                ctx.phase_seconds[phase.name] = (
                    ctx.phase_seconds.get(phase.name, 0.0) + span.duration
                )
        finally:
            ctx.close_executor()


class Slugger:
    """Scalable lossless summarization of graphs with hierarchy.

    ``execution`` selects how the pipeline's parallelizable phases run
    (see :class:`~repro.engine.execution.ExecutionConfig`); the default
    keeps everything on the serial reference path.  For a fixed seed the
    summary is bit-identical under every execution configuration.

    Examples
    --------
    >>> from repro.graphs import caveman_graph
    >>> graph = caveman_graph(4, 5, seed=0)
    >>> result = Slugger(SluggerConfig(iterations=5, seed=0)).summarize(graph)
    >>> result.summary.validate(graph)
    >>> result.cost() < graph.num_edges
    True
    """

    def __init__(
        self,
        config: Optional[SluggerConfig] = None,
        execution: Optional[ExecutionConfig] = None,
        **overrides,
    ) -> None:
        if config is None:
            config = SluggerConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config object or keyword overrides, not both")
        self.config = config
        self.execution = execution
        self.pipeline = IterationPipeline()

    def summarize(
        self,
        graph: Graph,
        control: Optional[RunControl] = None,
        resources: Optional[GraphResources] = None,
    ) -> SluggerResult:
        """Summarize ``graph`` under the hierarchical model (Problem 1).

        ``control`` receives one progress event per iteration and its
        cancel token is checked *between* iterations (a cancelled run
        raises :class:`~repro.exceptions.JobCancelled`; no partial
        summary escapes).  ``resources`` supplies prebuilt substrate
        views and a warm shingle pool (service graph-store interning);
        both default to ``None`` and cannot change the summary.

        Checkpoint/resume rides on ``control`` too: when it carries a
        ``checkpoint_sink``, the run hands over an iteration-boundary
        snapshot (summary, RNG stream position, history so far) after
        every iteration; when it carries a ``resume_payload``, the run
        restores that snapshot and continues at iteration ``k + 1``.
        Because every random draw of a run comes from the single
        ``ensure_rng(seed)`` stream and each iteration consumes a
        deterministic prefix of it, restoring the summary plus the RNG
        state at a boundary makes the resumed run bit-identical to the
        uninterrupted one.
        """
        require_type(graph, Graph, "graph")
        config = self.config
        started = time.perf_counter()
        rng = ensure_rng(config.seed)
        metrics = control.metrics if control is not None else NULL_METRICS
        tracer = control.tracer if control is not None else NULL_TRACER
        telemetry = metrics.enabled or tracer.enabled

        state = SluggerState(
            graph,
            dense=resources.dense() if resources is not None else None,
            csr=resources.csr() if resources is not None else None,
        )
        history: List[Dict[str, float]] = []
        phase_seconds: Dict[str, float] = {}
        stats: Dict[str, int] = {
            "groups": 0, "replayed": 0, "fallbacks": 0, "parallel_iterations": 0,
            "colored_rounds": 0, "colored_replayed": 0, "colored_serial": 0,
        }

        start_iteration = 0
        resume = control.resume_payload if control is not None else None
        if resume is not None and graph.num_edges > 0:
            state.restore_summary(resume["summary"])
            rng.setstate(resume["rng_state"])
            history.extend(resume["history"])
            start_iteration = min(int(resume["iteration"]), config.iterations)

        if graph.num_edges > 0:
            ctx = IterationContext(
                state=state,
                config=config,
                execution=self.execution,
                rng=rng,
                phase_seconds=phase_seconds,
                stats=stats,
                history=history,
                metrics=metrics,
                tracer=tracer,
            )
            if resources is not None:
                warm_pool = resources.shingle_executor(self.execution)
                if warm_pool is not None:
                    ctx.shingle_executor = warm_pool
                    ctx.owns_shingle_executor = False
            try:
                for iteration in range(start_iteration + 1, config.iterations + 1):
                    if control is not None:
                        control.checkpoint()
                    phase_before = dict(phase_seconds) if telemetry else None
                    with tracer.span("iteration", number=iteration):
                        self.pipeline.run_iteration(ctx, iteration)
                    if telemetry:
                        # One measurement source: the per-phase numbers
                        # below are the span durations run_iteration just
                        # accumulated, so events/metrics cannot drift
                        # from ``SluggerResult.phase_seconds``.
                        deltas = {
                            name: phase_seconds.get(name, 0.0)
                                  - phase_before.get(name, 0.0)
                            for name in PHASE_NAMES
                        }
                        for name in PHASE_NAMES:
                            metrics.histogram(
                                "slugger_phase_seconds", phase=name
                            ).observe(deltas[name])
                        metrics.counter("slugger_iterations_total").inc()
                        metrics.counter("slugger_merges_total").inc(ctx.merges)
                        if control is not None:
                            control.emit("phases", iteration=iteration,
                                         seconds=deltas)
                    if control is not None:
                        entry = history[-1]
                        control.emit(
                            "iteration",
                            iteration=iteration,
                            iterations=config.iterations,
                            threshold=entry["threshold"],
                            merges=int(entry["merges"]),
                            roots=int(entry["roots"]),
                            cost=int(entry["cost"]),
                        )
                        control.save_checkpoint({
                            "iteration": iteration,
                            "summary": state.summary,
                            "rng_state": rng.getstate(),
                            "history": history,
                        })
            finally:
                ctx.close_run()

        prune_stats: Dict[str, int] = {}
        prune_profile: Dict[str, object] = {}
        if config.prune:
            if control is not None:
                control.checkpoint()
            with tracer.span("prune") as prune_span:
                prune_stats = prune(
                    graph, state.summary, rounds=config.prune_rounds,
                    execution=self.execution, profile=prune_profile,
                )
            phase_seconds["prune"] = prune_span.duration
            if telemetry:
                metrics.histogram("slugger_phase_seconds", phase="prune").observe(
                    prune_span.duration
                )
            if control is not None:
                control.emit("prune", cost=int(state.summary.cost()))

        if config.validate_output:
            state.summary.validate(graph)

        if telemetry:
            # Replay/fallback/colored counters: one counter per
            # execution-stats key, so parallel efficiency is visible in
            # any exporter without reading SluggerResult.
            for key in sorted(stats):
                if stats[key]:
                    metrics.counter(f"slugger_{key}_total").inc(stats[key])
            metrics.gauge("slugger_final_cost").set(float(state.summary.cost()))

        return SluggerResult(
            summary=state.summary,
            config=config,
            history=history,
            prune_stats=prune_stats,
            prune_profile=prune_profile,
            runtime_seconds=time.perf_counter() - started,
            phase_seconds=phase_seconds,
            execution_stats=stats,
        )


def summarize(
    graph: Graph,
    config: Optional[SluggerConfig] = None,
    execution: Optional[ExecutionConfig] = None,
    control: Optional[RunControl] = None,
    resources: Optional[GraphResources] = None,
    **overrides,
) -> SluggerResult:
    """Convenience wrapper: ``Slugger(config, execution, **overrides).summarize(graph)``."""
    return Slugger(config, execution=execution, **overrides).summarize(
        graph, control=control, resources=resources
    )
