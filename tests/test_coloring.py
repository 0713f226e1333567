"""Tests for colored zero-threshold merge sweeps (repro.core.coloring).

Two guarantees are exercised: the structural one — every class the
greedy coloring emits has pairwise-disjoint footprints, which is what
makes colored decide rounds exact without replay checks — and the
behavioral one — a SLUGGER run whose zero-threshold iterations go
through the colored sweep is bit-identical to the serial reference at
every worker count.  ``REPRO_TEST_WORKERS`` (comma-separated counts)
restricts the sweep for the CI worker-matrix legs.
"""

from __future__ import annotations

import os

import pytest

from repro import ExecutionConfig, Slugger, SluggerConfig
from repro.core.candidates import generate_candidate_sets
from repro.core.coloring import color_classes, colored_apply_sweep, first_color_class
from repro.core.state import SluggerState
from repro.engine import execution
from repro.graphs import caveman_graph, erdos_renyi_graph


def worker_counts():
    env = os.environ.get("REPRO_TEST_WORKERS")
    if env:
        return tuple(int(part) for part in env.split(","))
    return (1, 2, 4)


def slugger_fingerprint(summary):
    return (
        summary.cost(),
        summary.num_p_edges,
        summary.num_n_edges,
        summary.num_h_edges,
        tuple(sorted(map(tuple, summary.p_edges()))),
        tuple(sorted(map(tuple, summary.n_edges()))),
    )


def colored_config(workers: int, **overrides) -> ExecutionConfig:
    """Zero-threshold iterations take the colored path, floors lowered."""
    defaults = dict(workers=workers, shingle_parallel_min_nodes=0,
                    colored_min_class=2, min_parallel_items=2)
    defaults.update(overrides)
    return ExecutionConfig(**defaults)


def separated_communities():
    # Fully separated cliques: candidate groups stay community-local, so
    # the interaction graph is sparse and coloring extracts large classes.
    return caveman_graph(30, 10, 0.0, seed=0)


def sparsely_connected():
    return caveman_graph(40, 8, 0.01, seed=2)


def candidate_groups(graph, seed=0):
    state = SluggerState(graph)
    groups = generate_candidate_sets(
        state.dense,
        state.summary.hierarchy,
        sorted(state.roots),
        SluggerConfig(iterations=3, seed=seed),
        seed=seed,
    )
    return state, groups


# ----------------------------------------------------------------------
# Coloring structure
# ----------------------------------------------------------------------
class TestColorClasses:
    @pytest.mark.parametrize("fixture", [separated_communities, sparsely_connected])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_class_has_pairwise_disjoint_footprints(self, fixture, seed):
        state, groups = candidate_groups(fixture(), seed=seed)
        classes = color_classes(state, groups)
        # A partition: every group appears in exactly one class.
        flattened = sorted(index for cls in classes for index in cls)
        assert flattened == list(range(len(groups)))
        for cls in classes:
            footprints = [state.group_footprint(groups[index]) for index in cls]
            for i in range(len(footprints)):
                for j in range(i + 1, len(footprints)):
                    assert footprints[i].isdisjoint(footprints[j]), (
                        f"class members {cls[i]} and {cls[j]} share footprint roots"
                    )

    def test_first_class_matches_running_union_criterion(self):
        state, groups = candidate_groups(separated_communities())
        ready = first_color_class(state, groups)
        assert ready, "separated communities must yield a non-empty first class"
        assert ready[0] == 0  # the first group is always admissible
        ready_set = set(ready)
        footprints = [state.group_footprint(members) for members in groups]
        for index in ready:
            for earlier in range(index):
                assert footprints[index].isdisjoint(footprints[earlier]), (
                    f"ready group {index} overlaps earlier group {earlier}"
                )
        # Completeness: a rejected group overlaps some earlier footprint.
        for index in range(len(groups)):
            if index not in ready_set:
                assert any(
                    not footprints[index].isdisjoint(footprints[earlier])
                    for earlier in range(index)
                )

    def test_classes_cover_interlocking_groups(self):
        # Dense fixture: groups interlock, so multiple classes are needed.
        state, groups = candidate_groups(erdos_renyi_graph(150, 0.08, seed=4))
        classes = color_classes(state, groups)
        assert sum(len(cls) for cls in classes) == len(groups)


# ----------------------------------------------------------------------
# End-to-end determinism
# ----------------------------------------------------------------------
@pytest.mark.skipif(not execution.process_execution_available(),
                    reason="process execution needs the fork start method")
class TestColoredSweepDeterminism:
    @pytest.mark.parametrize("fixture", [separated_communities, sparsely_connected])
    def test_colored_runs_are_bit_identical_across_worker_counts(self, fixture):
        graph = fixture()
        config = SluggerConfig(iterations=5, seed=0)
        fingerprints = {}
        colored_engaged = False
        for workers in worker_counts():
            exe = None if workers == 1 else colored_config(workers)
            result = Slugger(config, execution=exe).summarize(graph)
            fingerprints[workers] = slugger_fingerprint(result.summary)
            if workers > 1 and result.execution_stats["colored_rounds"] > 0:
                colored_engaged = True
        assert len(set(fingerprints.values())) == 1
        if len(worker_counts()) > 1:
            assert colored_engaged, "colored sweep never engaged on a colorable fixture"

    def test_degenerate_coloring_falls_back_and_stays_identical(self):
        # An interlocked fixture: the first class stays below the floor,
        # so zero-threshold iterations fall back to the replay path.
        graph = erdos_renyi_graph(200, 0.05, seed=6)
        config = SluggerConfig(iterations=4, seed=1)
        serial = Slugger(config).summarize(graph)
        parallel = Slugger(
            config, execution=colored_config(2, colored_min_class=10_000)
        ).summarize(graph)
        assert slugger_fingerprint(parallel.summary) == slugger_fingerprint(serial.summary)
        assert parallel.execution_stats["colored_rounds"] == 0

    def test_colored_disabled_preserves_serial_zero_threshold(self):
        graph = separated_communities()
        config = SluggerConfig(iterations=5, seed=0)
        serial = Slugger(config).summarize(graph)
        parallel = Slugger(
            config, execution=colored_config(2, colored_zero_threshold=False)
        ).summarize(graph)
        assert slugger_fingerprint(parallel.summary) == slugger_fingerprint(serial.summary)
        assert parallel.execution_stats["colored_rounds"] == 0

    def test_stats_split_replay_and_serial(self):
        graph = sparsely_connected()
        config = SluggerConfig(iterations=5, seed=3)
        result = Slugger(config, execution=colored_config(2)).summarize(graph)
        stats = result.execution_stats
        assert stats["colored_rounds"] > 0
        assert stats["colored_replayed"] > 0
        # Every zero-threshold group ends up replayed or serially applied.
        assert stats["colored_replayed"] + stats["colored_serial"] <= stats["groups"]


# ----------------------------------------------------------------------
# Sweep unit behavior (serial executor path)
# ----------------------------------------------------------------------
class TestSweepSerialFallback:
    def test_sweep_matches_reference_without_parallel_rounds(self):
        # With workers=1 the sweep cannot run a decide round; everything
        # goes through the serial reference branch and must match a plain
        # reference loop over the same groups and seeds.
        from repro.core.merging import process_candidate_set

        graph = separated_communities()
        config = SluggerConfig(iterations=3, seed=0)
        state_a, groups = candidate_groups(graph)
        state_b = SluggerState(graph)
        seeds = [17 * (index + 1) for index in range(len(groups))]
        stats = {"colored_rounds": 0, "colored_replayed": 0, "colored_serial": 0}
        merges_sweep = colored_apply_sweep(
            state_a, groups, seeds, 0.0, config,
            ExecutionConfig(workers=1), stats,
        )
        merges_reference = sum(
            process_candidate_set(state_b, members, 0.0, config, seed=seeds[index])
            for index, members in enumerate(groups)
        )
        assert merges_sweep == merges_reference
        assert stats["colored_rounds"] == 0
        assert stats["colored_serial"] == len(groups)
        assert slugger_fingerprint(state_a.summary) == slugger_fingerprint(state_b.summary)
