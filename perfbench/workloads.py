"""The three benchmark workloads.

Each workload builds its inputs from ``--seed`` (graphs written to text
edge lists, then read back, so the program only sees generated files),
times its operations for ``--seconds`` and checks every answer outside
the timed region.  ``run_summarize`` and ``run_serve`` return the
measured metric values, the tally of attempted and failed operations and
the :class:`harness.HostSpeed` samples taken between timed operations,
which ``run.py`` uses to scale the times; the units live in
``BENCHMARK.json``.

With ``trace`` off every end-to-end metric is measured and nothing is
recorded.  With ``trace`` on the operations alternate between an
untraced pass and one with a :class:`repro.obs.Tracer` and
:class:`repro.obs.MetricsRegistry` threaded through ``RunControl`` /
``SummaryService``; benchmark-side spans named ``<layer>.<call>`` wrap
each public call, and the per-layer metrics are read off those spans and
the program's own phase, shard, job and query spans.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import storage
from repro.algorithms.query import run_query
from repro.core import Slugger, SluggerConfig
from repro.engine import ExecutionConfig, RunControl
from repro.graphs import Graph, caveman_graph, read_edge_list, write_edge_list
from repro.graphs.generators import copying_model_graph
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.service import SummaryService
from repro.storage import summary_fingerprint

from harness import (
    PHASES,
    HostSpeed,
    SetupSamples,
    counter_total,
    histogram_totals,
    layer_self_seconds,
    median,
    peak_rss_mb,
    percentile,
    quiesce,
    scratch_dir,
    self_times,
    span_seconds,
    spans_within,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


@dataclass
class Tally:
    """Operations attempted and failed (raised or answered wrongly)."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def _ingest(graph, path: Path, tracer, attempt: int):
    """Write ``graph`` as a text edge list and read it back (``graphs`` layer)."""
    write_edge_list(graph, path)
    with tracer.span("graphs.read_edge_list", attempt=attempt):
        return read_edge_list(path)


# ----------------------------------------------------------------------
# summarize-web-w2 / summarize-er-w1
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SummarizeSpec:
    make_graph: Callable[[int], Any]
    graphs: int          # distinct inputs per run, summarized round-robin
    iterations: int      # T
    workers: int
    traced_graphs: int   # inputs the traced run covers (its counts sum over them)
    call_seconds: float  # nominal time of one call and its queries, sets the call count
    queries_per_call: int = 600   # neighbor queries per call (capped at |V|)

    def rounds(self, seconds: float, trace: bool) -> int:
        """Calls in a run: whole passes over the inputs filling ``seconds``
        on the nominal host (a traced round makes two calls)."""
        inputs = self.traced_graphs if trace else self.graphs
        per_pass = inputs * self.call_seconds * (2 if trace else 1)
        return inputs * max(1, round(seconds / per_pass))


SUMMARIZE_SPECS = {
    # Copying-model web graph (the CN/EU analogue generator), paper T=20.
    # Many small inputs, each summarized about once: how well a web graph
    # compresses and how long its slowest neighbor queries take vary from
    # graph to graph, and a run averages over 7200 nodes.
    "summarize-web-w2": SummarizeSpec(
        make_graph=lambda seed: copying_model_graph(600, 10, 0.85, seed=seed),
        graphs=12, iterations=20, workers=2, traced_graphs=6, call_seconds=2.5,
    ),
    # Incompressible Erdos-Renyi graph, serial, T=3.
    "summarize-er-w1": SummarizeSpec(
        make_graph=lambda seed: _gnm_graph(2000, 10_000, seed),
        graphs=2, iterations=3, workers=1, traced_graphs=2, call_seconds=0.85,
        queries_per_call=500,
    ),
}

#: Inputs the traced run also summarizes serially, for ``engine.speedup_vs_serial``.
SERIAL_GRAPHS = 3


def _gnm_graph(nodes: int, edges: int, seed: int) -> Graph:
    """Erdos-Renyi G(n, m): ``edges`` distinct uniform pairs, no O(n^2) sweep."""
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < edges:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    graph = Graph(nodes=range(nodes))
    for u, v in sorted(pairs):
        graph.add_edge(u, v)
    return graph


def _summarizer(iterations: int, seed: int, workers: int) -> Slugger:
    execution = ExecutionConfig(workers=workers) if workers > 1 else None
    return Slugger(SluggerConfig(iterations=iterations, seed=seed), execution=execution)


def _summarize_inputs(spec: SummarizeSpec, seed: int, workdir: Path, tracer,
                      attempt: int) -> List[Graph]:
    """Generate the inputs, write them as edge lists and read them back."""
    graphs = []
    for index in range(spec.graphs):
        graph = spec.make_graph(seed * 100 + index)
        path = workdir / f"s{attempt}-g{index}.txt"
        graphs.append(_ingest(graph, path, tracer, attempt))
    return graphs


def _serve_neighbors(summary, nodes, tracer):
    """Closed-loop neighbor queries answered off a summary (partial decompression).

    Returns the answers, each query's latency and the wall time of them all."""
    answers, latencies = [], []
    started = time.perf_counter()
    for node in nodes:
        with tracer.span("model.neighbors") as span:
            answers.append(summary.neighbors(node))
        latencies.append(span.duration)
    return answers, latencies, time.perf_counter() - started


def run_summarize(name: str, seed: int, seconds: float,
                  trace: bool) -> Tuple[Dict, Tally, HostSpeed]:
    with scratch_dir(name) as workdir:
        return _run_summarize(SUMMARIZE_SPECS[name], workdir, seed, seconds, trace)


def _run_summarize(spec: SummarizeSpec, workdir: Path, seed: int, seconds: float,
                   trace: bool) -> Tuple[Dict, Tally, HostSpeed]:
    tally = Tally()
    speed = HostSpeed()
    rounds = spec.rounds(seconds, trace)
    setup_tracer = Tracer() if trace else NULL_TRACER
    loop_tracer = Tracer() if trace else NULL_TRACER
    setups = SetupSamples(
        lambda attempt: _summarize_inputs(spec, seed, workdir, setup_tracer, attempt),
        lambda graphs: None, rounds, SETUP_REPEATS)
    graphs = setups.kept
    samples = [
        random.Random(seed * 7919 + index).sample(
            sorted(graph.nodes()), min(spec.queries_per_call, graph.num_nodes))
        for index, graph in enumerate(graphs)
    ]

    plain: List[float] = []      # untraced call wall times
    plain_graph: List[int] = []  # which input each untraced call summarized
    traced: List[float] = []     # traced call wall times (trace on)
    serial: List[float] = []     # serial calls (trace on, workers > 1)
    paired: List[float] = []     # the untraced call on each serially summarized input
    call_spans = []
    registries: List[MetricsRegistry] = []
    first_results: Dict[int, Any] = {}
    fingerprints: Dict[int, str] = {}
    latencies: List[float] = []  # neighbor-query latencies
    serve_wall = 0.0

    def call(index: int, *, workers: int, tracer, registry=None):
        graph = graphs[index]
        control = RunControl(metrics=registry, tracer=tracer) if registry is not None else None
        quiesce()
        tally.attempted += 1
        with tracer.span("core.summarize", graph=index) as span:
            try:
                result = _summarizer(spec.iterations, seed * 100 + 50 + index,
                                     workers).summarize(graph, control=control)
            except Exception as error:  # noqa: BLE001 - counted, run goes on
                tally.check(False, f"summarize raised {error!r}")
                return None, span
        fingerprint = summary_fingerprint(result.summary)
        reference = fingerprints.setdefault(index, fingerprint)
        tally.check(fingerprint == reference, f"graph {index}: summary changed between calls")
        first_results.setdefault(index, result)
        return result, span

    # Warm-up: one single-iteration call loads every lazily imported path.
    _summarizer(1, seed, spec.workers).summarize(graphs[0])
    for done in range(rounds):
        speed.sample()
        index = done % spec.graphs
        result, span = call(index, workers=spec.workers, tracer=NULL_TRACER)
        plain.append(span.duration)
        plain_graph.append(index)
        if trace:
            registry = MetricsRegistry()
            result, span = call(index, workers=spec.workers, tracer=loop_tracer,
                                registry=registry)
            traced.append(span.duration)
            call_spans.append(span)
            registries.append(registry)
            if spec.workers > 1 and done < SERIAL_GRAPHS:
                serial.append(call(index, workers=1, tracer=NULL_TRACER)[1].duration)
                paired.append(plain[-1])
        if result is not None:
            answers, batch, wall = _serve_neighbors(result.summary, samples[index], loop_tracer)
            latencies += batch
            serve_wall += wall
            graph = graphs[index]
            for node, answer in zip(samples[index], answers):
                tally.attempted += 1
                tally.check(answer == graph.neighbor_set(node),
                            f"graph {index}: wrong neighbors of {node!r}")
        setups.step()
    setups.complete()
    speed.sample()

    # Lossless check of one summary per input, outside the timed region.
    check_tracer = Tracer() if trace else NULL_TRACER
    validate_ms = []
    for index, result in sorted(first_results.items()):
        with check_tracer.span("model.validate") as span:
            try:
                result.summary.validate(graphs[index])
                ok = True
            except Exception:  # noqa: BLE001 - any failure is a wrong answer
                ok = False
        validate_ms.append(span.duration * 1000)
        tally.check(ok, f"graph {index}: summary is not lossless")
    tally.check(len(first_results) == min(rounds, spec.graphs), "an input was never summarized")

    if not trace:
        cost = sum(result.summary.cost() for result in first_results.values())
        edges = sum(graphs[index].num_edges for index in first_results)
        values = {
            "setup_s": median(setups.seconds),
            "summarize_s": _mean_of_medians(plain, plain_graph, spec.graphs),
            "relative_size": cost / edges if edges else 0.0,
            "peak_rss_mb": peak_rss_mb(),
            "serve_rps": len(latencies) / serve_wall if serve_wall else 0.0,
            "serve_p50_ms": percentile(latencies, 0.50) * 1000,
            "serve_p99_ms": percentile(latencies, 0.99) * 1000,
        }
        return values, tally, speed

    spans = loop_tracer.sorted_spans()
    per_call = [spans_within(spans, outer) for outer in call_spans]
    own = self_times(spans)
    cycle = registries[:spec.traced_graphs]
    snapshots = [registry.snapshot() for registry in cycle]
    replayed = sum(counter_total(s, "slugger_replayed_total") for s in snapshots)
    fallbacks = sum(counter_total(s, "slugger_fallbacks_total") for s in snapshots)
    profiles = [first_results[index].prune_profile for index in range(spec.traced_graphs)]
    scanned = sum(p.get("pairs_scanned", 0) for p in profiles)
    reencoded = sum(p.get("pairs_reencoded", 0) for p in profiles)
    values = {
        "graphs.ingest_s": median(_per_setup(setup_tracer, "graphs.read_edge_list")),
        "core.untraced_s": median([own[outer.span_id] for outer in call_spans]),
        "core.merges": sum(counter_total(s, "slugger_merges_total") for s in snapshots),
        "core.merge_groups": sum(counter_total(s, "slugger_groups_total") for s in snapshots),
        "core.prune.pairs_scanned": float(scanned),
        "core.prune.pairs_reencoded": float(reencoded),
        "core.prune.reencode_index_s": median(
            [p.get("reencode_index_seconds", 0.0) for p in profiles]),
        "core.prune.yield": reencoded / scanned if scanned else 0.0,
        "engine.replayed": replayed,
        "engine.fallbacks": fallbacks,
        "engine.replay_yield": (replayed / (replayed + fallbacks)
                                if replayed + fallbacks else 0.0),
        "engine.shard_busy_s": median([span_seconds(inner, "decide-shard")
                                       for inner in per_call]),
        "engine.speedup_vs_serial": sum(serial) / sum(paired) if serial else 0.0,
        "model.validate_ms": median(validate_ms),
        "obs.trace_overhead": median(traced) / median(plain) - 1.0,
    }
    for phase in PHASES:
        values[f"core.{phase}_s"] = median([span_seconds(inner, phase) for inner in per_call])
    for layer, total in layer_self_seconds(spans).items():
        values[f"{layer}.self_ms"] = total * 1000 / len(call_spans)
    return values, tally, speed


def _mean_of_medians(seconds: List[float], inputs: List[int], count: int) -> float:
    """Mean over the inputs of each input's median call time.

    Inputs differ in cost, so a plain median over round-robin calls would
    move with how many calls each input happened to get.
    """
    return sum(
        median([s for s, i in zip(seconds, inputs) if i == index]) for index in range(count)
    ) / count


def _per_setup(tracer, name: str) -> List[float]:
    """Total duration of ``name`` spans in each set-up (bucketed by ``attempt``)."""
    totals: Dict[Any, float] = {}
    for span in tracer.sorted_spans():
        if span.name == name:
            key = span.attrs.get("attempt")
            totals[key] = totals.get(key, 0.0) + span.duration
    return list(totals.values())


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
#: One deck of requests; a run plays ``REQUESTS_PER_SECOND * --seconds``
#: requests (whole decks), shuffled by seed.  Counts per deck are exact,
#: so every ratio over the run is too.
QUERY_GRAPHS = {
    "web": lambda seed: copying_model_graph(1000, 10, 0.85, seed=seed),
    "er": lambda seed: _gnm_graph(1000, 4000, seed),
}
QUERY_DECK = {"pagerank": 3, "bfs": 6, "components": 4, "triangles": 2, "cores": 5}
WARM_PER_DECK = 4
SUMMARY_COMPONENTS_PER_DECK = 3
COLD_PER_DECK = 3
DECK_SIZE = (len(QUERY_GRAPHS) * sum(QUERY_DECK.values()) + WARM_PER_DECK
             + SUMMARY_COMPONENTS_PER_DECK + COLD_PER_DECK)
REQUESTS_PER_SECOND = 65
QUERY_TOP = 20
BFS_SOURCES = 4
WARM_SEEDS = 3
WARM_OPTIONS = {"iterations": 5}
COLD_OPTIONS = {"iterations": 20}   # 20 per-iteration checkpoints per job
SMALL_GRAPH = "small"


def _small_graph(_seed: int):
    """The summary-job graph: a fixed fixture, so cold-job cost and
    ``relative_size`` vary only with the job seeds, not the run seed."""
    return caveman_graph(10, 8, 0.1, seed=0)


@dataclass
class ServeSetup:
    service: SummaryService
    graphs: Dict[str, Any] = field(default_factory=dict)
    stored: List[Any] = field(default_factory=list)
    sources: Dict[str, List[Any]] = field(default_factory=dict)
    warm: Dict[int, str] = field(default_factory=dict)  # seed -> cold-compute fingerprint
    containers: List[Path] = field(default_factory=list)  # for summary-components
    container_bytes: int = 0

    def close(self) -> None:
        self.service.shutdown()
        for handle in self.stored:
            handle.close()


def _serve_setup(seed: int, base: Path, attempt: int, setup_tracer,
                 service_tracer, metrics) -> ServeSetup:
    """Ingest, pack and mmap-load the graphs; prefill the summary cache."""
    base.mkdir(parents=True)
    service = SummaryService(mode="thread", summary_cache_dir=base / "summaries",
                             metrics=metrics, tracer=service_tracer)
    setup = ServeSetup(service)
    makers = dict(QUERY_GRAPHS, **{SMALL_GRAPH: _small_graph})
    for offset, (key, make) in enumerate(makers.items()):
        graph = _ingest(make(seed * 100 + offset), base / f"{key}.txt", setup_tracer, attempt)
        container = base / f"{key}.slg"
        with setup_tracer.span("storage.pack", attempt=attempt):
            storage.pack(graph, container)
        with setup_tracer.span("storage.load", attempt=attempt):
            stored = storage.load(container)
        setup.container_bytes += container.stat().st_size
        setup.stored.append(stored)
        setup.graphs[key] = graph
        service.register_graph(key, graph, csr=stored.csr(), dense=stored.dense())
    rng = random.Random(seed)
    for key in QUERY_GRAPHS:
        setup.sources[key] = rng.sample(sorted(setup.graphs[key].nodes()), BFS_SOURCES)
    for warm_seed in range(WARM_SEEDS):
        result = service.submit(method="slugger", graph_key=SMALL_GRAPH, seed=warm_seed,
                                options=WARM_OPTIONS).result()
        setup.warm[warm_seed] = summary_fingerprint(result.summary)
    setup.containers = sorted((base / "summaries").glob("*.slg"))
    return setup


def _plan(seed: int, requests: int) -> List[Tuple[str, Any, Any]]:
    """The request sequence: exact counts per deck, order shuffled by seed.

    Returns ``(op, graph key, argument)`` triples.  BFS sources, warm
    seeds and summary containers are drawn in plan order; cold seeds are
    never prefilled and distinct across the run.
    """
    rng = random.Random(seed * 31 + 1)
    ops: List[Tuple[str, Any, Any]] = []
    for _ in range(max(1, requests // DECK_SIZE)):
        for key in QUERY_GRAPHS:
            for kind, count in QUERY_DECK.items():
                ops.extend(("query", key, kind) for _ in range(count))
        ops.extend(("warm", None, None) for _ in range(WARM_PER_DECK))
        ops.extend(("summary-components", None, None)
                   for _ in range(SUMMARY_COMPONENTS_PER_DECK))
        ops.extend(("cold", None, None) for _ in range(COLD_PER_DECK))
    rng.shuffle(ops)
    plan = []
    cold_seeds = iter(range(1000, 1000 + len(ops)))
    for op, key, kind in ops:
        if op == "query":
            plan.append((op, key, (kind, rng.randrange(BFS_SOURCES))))
        elif op == "cold":
            plan.append((op, None, next(cold_seeds)))
        else:
            plan.append((op, None, rng.randrange(WARM_SEEDS)))
    return plan


def _request(setup: ServeSetup, op: str, key, arg, tracer):
    """Issue one request and wait for its answer."""
    service = setup.service
    if op == "query":
        kind, source = arg
        with tracer.span("service.query", kind=kind):
            return service.query(
                key, kind, top=QUERY_TOP,
                source=setup.sources[key][source] if kind == "bfs" else None,
            )
    if op == "summary-components":
        with tracer.span("storage.load_summary"):
            loaded = storage.load_summary(setup.containers[arg])
        try:
            with tracer.span("model.components"):
                return run_query(loaded.summary, "components")
        finally:
            loaded.close()
    with tracer.span("service.submit", kind=op):
        return service.submit(
            method="slugger", graph_key=SMALL_GRAPH, seed=arg,
            options=WARM_OPTIONS if op == "warm" else COLD_OPTIONS,
        ).result()


def _serve_references(setup: ServeSetup) -> Dict:
    """Expected answers, computed on the label-keyed graphs (not the mmap CSR)."""
    expected: Dict = {}
    for key in QUERY_GRAPHS:
        for kind in QUERY_DECK:
            for source in range(BFS_SOURCES) if kind == "bfs" else [0]:
                expected[key, kind, source] = run_query(
                    setup.graphs[key], kind, top=QUERY_TOP,
                    source=setup.sources[key][source] if kind == "bfs" else None,
                )
    components = run_query(setup.graphs[SMALL_GRAPH], "components").value
    expected["components"] = (components["count"], sorted(components["sizes"]))
    return expected


class ServeClient:
    """One closed-loop client on its own set-up; plays requests, then checks them."""

    def __init__(self, seed: int, workdir: Path, steps: int, repeats: int,
                 setup_tracer, tracer, metrics) -> None:
        self.setups = SetupSamples(
            lambda attempt: _serve_setup(seed, workdir / f"setup-{attempt}", attempt,
                                         setup_tracer, tracer, metrics),
            ServeSetup.close, steps, repeats)
        self.setup = self.setups.kept
        self.tracer, self.metrics = tracer, metrics
        self.records: List[Tuple] = []   # (op, key, arg, answer, latency seconds)
        self.wall = 0.0
        self.started: Optional[float] = None
        self.cold_results: List[Any] = []
        try:
            self.expected = _serve_references(self.setup)
            self.before = self._counters()
        except BaseException:
            self.setup.close()
            raise

    def _counters(self) -> Dict[str, Any]:
        return {
            "hits": self.setup.service.stats()["summary_cache_hits"],
            "checkpoints": self.setup.service.summary_cache.stats()["checkpoint_stores"],
            "metrics": self.metrics.snapshot() if self.metrics is not None else {},
        }

    def play(self, plan) -> None:
        quiesce()
        started = time.perf_counter()
        if self.started is None:
            self.started = started
        for op, key, arg in plan:
            sent = time.perf_counter()
            try:
                answer = _request(self.setup, op, key, arg, self.tracer)
            except Exception as error:  # noqa: BLE001 - counted as a failed request
                answer = error
            self.records.append((op, key, arg, answer, time.perf_counter() - sent))
        self.wall += time.perf_counter() - started

    def finish(self, tally: Tally) -> None:
        """Read the counters, check every answer and close the set-up."""
        try:
            self.after = self._counters()
            self.cold_results = _check_serve(self.setup, self.records, self.expected, tally)
        finally:
            self.setup.close()

    def latencies(self, op: Optional[str] = None) -> List[float]:
        return [r[4] for r in self.records if op is None or r[0] == op]

    def count(self, op: str) -> int:
        return sum(1 for r in self.records if r[0] == op)

    def delta(self, counter: str) -> float:
        return self.after[counter] - self.before[counter]


def _check_serve(setup: ServeSetup, records, expected, tally: Tally) -> List[Any]:
    """Check every answer; returns the cold results (each validated lossless)."""
    small = setup.graphs[SMALL_GRAPH]
    cold_results = []
    for op, key, arg, answer, _ in records:
        tally.attempted += 1
        if isinstance(answer, Exception):
            tally.check(False, f"{op} raised {answer!r}")
        elif op == "query":
            kind, source = arg
            want = expected[key, kind, source if kind == "bfs" else 0]
            tally.check(answer == want, f"{key} {kind}: answer differs from reference")
        elif op == "summary-components":
            got = (answer.value["count"], sorted(answer.value["sizes"]))
            tally.check(got == expected["components"], "summary components differ")
        elif op == "warm":
            tally.check(answer.details.get("summary_cache") == "hit"
                        and summary_fingerprint(answer.summary) == setup.warm[arg],
                        f"warm seed {arg}: not the cached summary")
        else:
            try:
                answer.summary.validate(small)
                ok = answer.details.get("summary_cache") != "hit"
            except Exception:  # noqa: BLE001 - any failure is a wrong answer
                ok = False
            tally.check(ok, f"cold seed {arg}: summary is not lossless")
            cold_results.append(answer)
    return cold_results


def run_serve(name: str, seed: int, seconds: float,
              trace: bool) -> Tuple[Dict, Tally, HostSpeed]:
    tally = Tally()
    speed = HostSpeed()
    requests = int(round(REQUESTS_PER_SECOND * seconds)) // (2 if trace else 1)
    plan = _plan(seed, requests)
    setup_tracer = Tracer() if trace else NULL_TRACER
    decks = [plan[start:start + DECK_SIZE] for start in range(0, len(plan), DECK_SIZE)]
    with scratch_dir(name) as workdir:
        plain = ServeClient(seed, workdir / "plain", len(decks), SETUP_REPEATS, setup_tracer,
                            NULL_TRACER, None)
        if not trace:
            try:
                speed.sample()
                for deck in decks:
                    plain.play(deck)
                    plain.setups.step()
                    speed.sample()
                plain.setups.complete()
            finally:
                plain.finish(tally)
            cold = plain.cold_results
            small_edges = plain.setup.graphs[SMALL_GRAPH].num_edges
            values = {
                "setup_s": median(plain.setups.seconds),
                "summarize_s": median(plain.latencies("cold")),
                "relative_size": (sum(r.summary.cost() for r in cold)
                                  / (small_edges * len(cold)) if cold else 0.0),
                "peak_rss_mb": peak_rss_mb(),
                "serve_rps": len(plain.records) / plain.wall,
                "serve_p50_ms": percentile(plain.latencies(), 0.50) * 1000,
                "serve_p99_ms": percentile(plain.latencies(), 0.99) * 1000,
            }
            return values, tally, speed
        # Decks alternate between an untraced and a traced service, so
        # obs.trace_overhead compares passes that saw the same host.
        tracer, metrics = Tracer(), MetricsRegistry()
        try:
            traced = ServeClient(seed, workdir / "traced", len(decks), 1, NULL_TRACER,
                                 tracer, metrics)
        except BaseException:
            plain.setup.close()
            raise
        try:
            speed.sample()
            for deck in decks:
                plain.play(deck)
                traced.play(deck)
                plain.setups.step()
                speed.sample()
            plain.setups.complete()
        finally:
            try:
                plain.finish(tally)
            finally:
                traced.finish(tally)
    return _serve_layers(plain, traced, setup_tracer, tracer), tally, speed


def _serve_layers(plain: ServeClient, traced: ServeClient, setup_tracer, tracer) -> Dict:
    offset = traced.started - tracer.epoch
    spans = [span for span in tracer.sorted_spans() if span.start >= offset]
    own = self_times(spans)
    jobs = [span for span in spans if span.name == "job"]
    per_job = [spans_within(spans, job) for job in jobs]
    before, after = traced.before["metrics"], traced.after["metrics"]

    def delta(name: str) -> float:
        return counter_total(after, name) - counter_total(before, name)

    def durations(name: str, **attrs) -> List[float]:
        return [span.duration for span in spans if span.name == name
                and all(span.attrs.get(k) == v for k, v in attrs.items())]

    wait_sum, wait_count = (a - b for a, b in zip(
        histogram_totals(after, "service_queue_seconds"),
        histogram_totals(before, "service_queue_seconds")))
    cold_jobs = traced.count("cold")
    values = {
        "graphs.ingest_s": median(_per_setup(setup_tracer, "graphs.read_edge_list")),
        "storage.pack_s": median(_per_setup(setup_tracer, "storage.pack")),
        "storage.load_s": median(_per_setup(setup_tracer, "storage.load")),
        "storage.container_bytes_per_edge": (
            plain.setup.container_bytes
            / sum(graph.num_edges for graph in plain.setup.graphs.values())),
        "storage.summary_load_ms": median(durations("storage.load_summary")) * 1000,
        "storage.summary_cache_hit_ratio": (
            traced.delta("hits") / (traced.count("warm") + cold_jobs)),
        "storage.checkpoint_stores": traced.delta("checkpoints") / cold_jobs,
        "core.untraced_s": median([own[job.span_id] for job in jobs]),
        "core.merges": delta("slugger_merges_total"),
        "core.merge_groups": delta("slugger_groups_total"),
        "model.summary_components_ms": median(durations("model.components")) * 1000,
        "service.queue_wait_ms": wait_sum / wait_count * 1000 if wait_count else 0.0,
        "service.warm_ms": median(traced.latencies("warm")) * 1000,
        "service.cold_ms": median(traced.latencies("cold")) * 1000,
        "obs.trace_overhead": traced.wall / plain.wall - 1.0,
    }
    for phase in PHASES:
        values[f"core.{phase}_s"] = median([span_seconds(inner, phase) for inner in per_job])
    for kind in QUERY_DECK:
        values[f"algorithms.{kind}_ms"] = median(durations("query", kind=kind)) * 1000
    for layer, total in layer_self_seconds(spans).items():
        values[f"{layer}.self_ms"] = total * 1000 / len(traced.records)
    return values
