"""Measurement plumbing shared by the workloads.

Nothing here touches the summarizer: it holds the statistics helpers,
the reference work that measures the host's speed, the span bookkeeping
that turns one :class:`repro.obs.Tracer` into per-layer self times,
peak-RSS readings and the checkout-local scratch directory every run
writes into.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import resource
import shutil
import statistics
import tempfile
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent

#: The layers the per-layer breakdown attributes self time to, named
#: after the ``repro`` packages.
LAYERS = ("graphs", "storage", "core", "engine", "algorithms", "model", "service")

#: Spans the program itself emits, mapped to the layer doing the work.
#: ``job`` wraps the summarizer run of a service job; ``query`` wraps the
#: ``run_query`` call inside ``SummaryService.query``.
PROGRAM_SPAN_LAYERS = {
    "iteration": "core", "shingle": "core", "group": "core", "decide": "core",
    "apply": "core", "recost": "core", "prune": "core", "job": "core",
    "colored-round": "engine", "colored-decide": "engine",
    "decide-shard": "engine", "query": "algorithms",
}

#: Phase spans reported one by one as ``core.<phase>_s``.
PHASES = ("shingle", "group", "decide", "apply", "recost", "prune")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """The nearest-rank ``share`` percentile (``share`` in ``(0, 1]``)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(share * len(ordered) - 1e-9)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest forked worker, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def quiesce() -> None:
    """Collect garbage between timed operations, never inside one."""
    gc.collect()


@contextmanager
def scratch_dir(label: str) -> Iterator[Path]:
    """A fresh directory under the checkout's ``.bench_tmp``, removed after."""
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still holds a directory there


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: What one pass of the reference work takes on the nominal host: a
#: 2-CPU x86_64 box running Python 3.11.7 at its usual speed.
REFERENCE_SECONDS = 0.05

#: Slots of the pointer-chasing ring (4 MiB of int32) and steps per pass.
RING_SLOTS = 1 << 20
RING_STEPS = 100_000


def _reference_graph() -> Dict[int, set]:
    """A fixed random graph (3000 nodes, ~15k edges) as a dict of sets."""
    rng = random.Random(12345)
    nodes = 3000
    adjacency: Dict[int, set] = {v: set() for v in range(nodes)}
    for _ in range(15_000):
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


def _reference_ring() -> array:
    """One random cycle through ``RING_SLOTS`` slots: slot i holds the next
    (Sattolo's shuffle, in place, so no list of a million ints is built)."""
    ring = array("i", range(RING_SLOTS))
    draw = random.Random(54321).random
    for i in range(RING_SLOTS - 1, 0, -1):
        j = int(draw() * i)
        ring[i], ring[j] = ring[j], ring[i]
    return ring


def _reference_work(adjacency: Dict[int, set], ring: array) -> int:
    """Pure-Python work shaped like the program's own inner loops: a
    min-hash grouping of neighbourhoods, set overlaps inside each group,
    three breadth-first sweeps, and a walk of dependent loads through a
    ring larger than the CPU's private caches.  It calls nothing in
    ``repro``."""
    rank = {v: (v * 2654435761) % 1_000_003 for v in adjacency}
    groups: Dict[int, List[int]] = {}
    for v, neighbours in adjacency.items():
        key = min(map(rank.__getitem__, neighbours)) if neighbours else rank[v]
        groups.setdefault(key, []).append(v)
    total = 0
    for members in groups.values():
        for a, b in zip(members, members[1:]):
            first, second = adjacency[a], adjacency[b]
            total += len(first & second) * 1000 // (len(first | second) or 1)
    for source in (0, 7, 99):
        seen, frontier = {source}, [source]
        while frontier:
            reached = []
            for u in frontier:
                for w in adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        reached.append(w)
            frontier = reached
        total += len(seen)
    slot = 0
    for _ in range(RING_STEPS):
        slot = ring[slot]
    return total + slot


class HostSpeed:
    """How fast the host runs Python during a run, from fixed reference work.

    The host is shared.  The same serial summarize call on the same input
    took 0.33 s and 0.65 s a few seconds apart with no steal time and
    ``process_time`` equal to wall time, and fast and slow spells last
    from under a second to minutes, so no median within a run absorbs
    them.  The benchmark therefore times a fixed piece of pure-Python work
    (``_reference_work``, which calls no program code) in the gaps between
    its timed operations, and reports every time divided by the run's
    ``slowdown``: the (trimmed) mean reference time over
    ``REFERENCE_SECONDS``.

    Each gap runs the reference work about ``SHARE`` of the time since the
    previous gap, so the samples cover the run evenly in time and their
    mean weighs each spell by how long it lasted, as the timed operations
    do.  A change to the program moves the scaled times as it moves the
    measured ones; a fast or slow host moves the reference work too.
    """

    WARMUP = 3
    SHARE = 0.1

    def __init__(self) -> None:
        self._adjacency = _reference_graph()
        self._ring = _reference_ring()
        self.seconds: List[float] = []
        for _ in range(self.WARMUP):
            _reference_work(self._adjacency, self._ring)
        self._since = time.perf_counter()

    def sample(self) -> None:
        """In a gap between timed operations: time the reference work."""
        elapsed = time.perf_counter() - self._since
        for _ in range(max(1, round(self.SHARE * elapsed / REFERENCE_SECONDS))):
            gc.disable()
            try:
                started = time.perf_counter()
                _reference_work(self._adjacency, self._ring)
                self.seconds.append(time.perf_counter() - started)
            finally:
                gc.enable()
        self._since = time.perf_counter()

    def slowdown(self) -> float:
        """Measured time over time on the nominal host, for this run.

        The mean leaves out the tenth of samples at either end, so one
        sample stretched by a preemption does not move it."""
        ordered = sorted(self.seconds)
        cut = len(ordered) // 10
        kept = ordered[cut:len(ordered) - cut]
        return statistics.fmean(kept) / REFERENCE_SECONDS


class SetupSamples:
    """A set-up timed ``repeats`` times, spread over the timed region.

    The host's speed drifts over tens of seconds, so set-ups bunched
    before the timed region would all see one speed.  The first build is
    kept for the run; the others are built between timed operations, one
    after each ``steps / repeats`` calls of ``step``, timed, and handed
    to ``finish``.  Spacing them by operation count, not by the clock,
    keeps what a run holds in memory at each point the same on every run.
    """

    def __init__(self, build: Callable[[int], Any], finish: Callable[[Any], None],
                 steps: int, repeats: int) -> None:
        self._build, self._finish = build, finish
        self._repeats = repeats
        self._steps = max(1, steps)
        self._done = 0
        self.seconds: List[float] = []
        self.kept = self._timed()

    def _timed(self) -> Any:
        quiesce()
        started = time.perf_counter()
        built = self._build(len(self.seconds))
        self.seconds.append(time.perf_counter() - started)
        quiesce()
        return built

    def step(self) -> None:
        """After a timed operation: time one more set-up if one is due."""
        self._done += 1
        due = len(self.seconds) * self._steps / self._repeats
        if len(self.seconds) < self._repeats and self._done >= due:
            self._finish(self._timed())

    def complete(self) -> List[float]:
        """Time any set-ups still owed; returns every set-up's seconds."""
        while len(self.seconds) < self._repeats:
            self._finish(self._timed())
        return self.seconds


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
def layer_of(name: str) -> Optional[str]:
    """Layer of a span: ``<layer>.<call>`` for benchmark spans, else the map."""
    head = name.split(".", 1)[0]
    if "." in name and head in LAYERS:
        return head
    return PROGRAM_SPAN_LAYERS.get(name)


def _end(span) -> float:
    return span.start + span.duration


def _covered(interval: Tuple[float, float], children: Iterable) -> float:
    """Length of ``interval`` covered by the union of the children's spans."""
    lo, hi = interval
    pieces = sorted((max(lo, c.start), min(hi, _end(c))) for c in children)
    covered = 0.0
    cursor = lo
    for start, stop in pieces:
        start = max(start, cursor)
        if stop > start:
            covered += stop - start
            cursor = stop
    return covered


def on_shard_lane(span) -> bool:
    """Spans a forked worker measured; they run beside the main thread."""
    return span.lane.startswith("shard-")


def self_times(spans: Sequence) -> Dict[int, float]:
    """Each main-thread span's duration minus the time its children cover.

    Children are linked by ``parent_id`` on one thread.  A parentless
    span opened on another thread (the service's ``job`` span on a
    dispatcher lane) is adopted by the parentless span that encloses it,
    which is the client's call waiting for that job.  Shard-lane spans
    are worker busy time beside the main thread and are left out.
    """
    live = [span for span in spans if not on_shard_lane(span)]
    children: Dict[int, List] = {}
    roots = sorted((s for s in live if s.parent_id is None), key=lambda s: s.start)
    starts = [s.start for s in roots]
    for span in live:
        parent = span.parent_id
        if parent is None:
            index = bisect.bisect_right(starts, span.start)
            for host in reversed(roots[max(0, index - 4):index]):
                if host is not span and host.lane != span.lane and _end(host) >= _end(span):
                    parent = host.span_id
                    break
        if parent is not None:
            children.setdefault(parent, []).append(span)
    return {
        span.span_id: span.duration - _covered(
            (span.start, _end(span)), children.get(span.span_id, ())
        )
        for span in live
    }


def layer_self_seconds(spans: Sequence) -> Dict[str, float]:
    """Total self time per layer over ``spans``."""
    by_id = {span.span_id: span for span in spans}
    totals = {layer: 0.0 for layer in LAYERS}
    for span_id, seconds in self_times(spans).items():
        layer = layer_of(by_id[span_id].name)
        if layer is not None:
            totals[layer] += seconds
    return totals


def span_seconds(spans: Iterable, name: str) -> float:
    return sum(span.duration for span in spans if span.name == name)


def spans_within(spans: Sequence, outer) -> List:
    """Spans (any lane) whose interval lies inside ``outer``'s."""
    lo, hi = outer.start, _end(outer)
    return [s for s in spans if s is not outer and s.start >= lo and _end(s) <= hi]


def counter_total(snapshot: Dict, name: str) -> float:
    family = snapshot.get(name)
    if not family:
        return 0.0
    return float(sum(series["value"] for series in family["series"]))


def histogram_totals(snapshot: Dict, name: str) -> Tuple[float, int]:
    """(sum, count) of a histogram family in a registry snapshot."""
    series = snapshot.get(name, {}).get("series", [])
    return sum(s["sum"] for s in series), sum(s["count"] for s in series)
