"""The merging step of SLUGGER (Algorithm 2).

Within each candidate root set, SLUGGER repeatedly picks a random root
``A``, finds the partner ``B`` with the largest saving, and — if the
saving clears the iteration's threshold θ(t) — merges the two trees and
re-encodes the superedges they are involved in:

* *Case 1*: the subedges between the two merged trees are re-encoded over
  the panel ``{A, children(A)} × {B, children(B)}``.
* *Case 2*: for every adjacent root tree ``C``, the subedges between the
  merged tree and ``C`` are re-encoded over ``{A∪B, A, B} × {C,
  children(C)}`` whenever that lowers the cost.

Both cases use the memoized local encoder and therefore cost O(1) pattern
search plus the work of counting/listing the affected subedges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import SluggerConfig
from repro.core.encoder import (
    Panel,
    apply_cross_plan,
    apply_intra_plan,
    plan_cross_encoding,
    plan_intra_encoding,
)
from repro.core.saving import best_partner
from repro.core.state import SluggerState
from repro.exceptions import SummaryInvariantError
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "apply_merge_trace",
    "decide_merges",
    "merge_and_update",
    "process_candidate_set",
]


def merge_and_update(
    state: SluggerState, root_a: int, root_b: int, config: SluggerConfig
) -> int:
    """Merge two root supernodes and locally re-encode the affected superedges.

    Returns the id of the new root supernode.  Exactness is preserved:
    every re-encoding removes all superedges between the affected trees
    and replaces them with a plan that reproduces the same subedges.
    """
    hierarchy = state.summary.hierarchy
    use_memo = config.use_memoized_encoder
    dense = state.dense

    # Case 1: re-encode the subedges between the two trees being merged,
    # while they are still separate roots (the panel endpoints are the two
    # roots and their direct children; the new root is not needed because
    # a blanket on it would also disturb the intra-tree encodings).
    cross_current = state.pn_cost_between(root_a, root_b)
    if cross_current > 0:
        panel_a = Panel(hierarchy, root_a)
        panel_b = Panel(hierarchy, root_b)
        plan = plan_cross_encoding(dense, hierarchy, panel_a, panel_b, use_memo=use_memo)
        if plan.cost < cross_current:
            state.remove_all_between(root_a, root_b)
            apply_cross_plan(
                plan, dense, hierarchy, panel_a, panel_b,
                lambda x, y, sign: state.add_superedge(root_a, root_b, x, y, sign),
            )

    merged = state.merge_roots(root_a, root_b)

    # Case 1 (continued): consider re-encoding the whole inside of the
    # merged tree at once — a self-loop p-edge on the new root plus a few
    # corrections is what collapses cliques and dense communities.
    intra_current = state.pn_cost_between(merged, merged)
    if intra_current > 1:
        panel_merged = Panel(hierarchy, merged)
        intra_plan = plan_intra_encoding(
            dense, hierarchy, merged, panel_merged, use_memo=use_memo
        )
        if intra_plan.cost < intra_current:
            state.remove_all_between(merged, merged)
            apply_intra_plan(
                intra_plan, dense, hierarchy, panel_merged,
                lambda x, y, sign: state.add_superedge(merged, merged, x, y, sign),
            )

    # Case 2: the new root can now act as a blanket endpoint towards every
    # adjacent root tree; re-encode those pairs when it helps.
    panel_merged = Panel(hierarchy, merged)
    for other in list(state.pn_count[merged]):
        if other == merged:
            continue
        current = state.pn_count[merged][other]
        if current < 2:
            # A pair already encoded with a single superedge cannot improve.
            continue
        panel_other = Panel(hierarchy, other)
        plan = plan_cross_encoding(dense, hierarchy, panel_merged, panel_other,
                                   use_memo=use_memo)
        if plan.cost < current:
            state.remove_all_between(merged, other)
            apply_cross_plan(
                plan, dense, hierarchy, panel_merged, panel_other,
                lambda x, y, sign: state.add_superedge(merged, other, x, y, sign),
            )
    return merged


def process_candidate_set(
    state: SluggerState,
    candidate_set: Iterable[int],
    threshold: float,
    config: SluggerConfig,
    seed: SeedLike = None,
    trace: Optional[List[Tuple[int, int]]] = None,
) -> int:
    """Run Algorithm 2 on one candidate root set; returns the number of merges.

    A position map (root id → queue slot) mirrors the queue so replacing a
    merged partner is O(1) instead of an O(n) ``list.index`` scan, and a
    partner that is unexpectedly absent raises a clear invariant error
    instead of ``ValueError``.

    With ``trace`` supplied, every performed merge is appended to it as an
    ``(a, b)`` pair in *trace encoding*: a non-negative value is a root id
    that existed when the call started, ``-(j + 1)`` refers to the result
    of the j-th merge recorded earlier in the same trace.  The encoding is
    position-independent — replaying the trace with
    :func:`apply_merge_trace` against a state whose visible neighborhood
    matches reproduces the exact same merges even though the replayed
    state assigns different merged-supernode ids.
    """
    rng = ensure_rng(seed)
    # dict.fromkeys dedups while keeping order: a duplicated root must get
    # one queue slot, or the position map would go out of sync with it.
    queue: List[int] = list(dict.fromkeys(
        root for root in candidate_set if root in state.roots
    ))
    position: Dict[int, int] = {root: index for index, root in enumerate(queue)}
    # Trace encoding of every root currently in play; merged roots get
    # negative codes so replays are independent of the id counter.
    code_of: Optional[Dict[int, int]] = None
    if trace is not None:
        code_of = {root: root for root in queue}
    merges = 0
    while len(queue) > 1:
        index = rng.randrange(len(queue))
        root_a = queue[index]
        del position[root_a]
        last = queue.pop()
        if index < len(queue):
            queue[index] = last
            position[last] = index
        value, root_b = best_partner(
            state, root_a, queue, height_bound=config.height_bound
        )
        if root_b < 0 or value < threshold:
            continue
        merged = merge_and_update(state, root_a, root_b, config)
        slot = position.pop(root_b, None)
        if slot is None:
            raise SummaryInvariantError(
                f"best_partner returned root {root_b}, which is not in the candidate queue"
            )
        queue[slot] = merged
        position[merged] = slot
        if code_of is not None:
            trace.append((code_of[root_a], code_of[root_b]))
            code_of[merged] = -(merges + 1)
        merges += 1
    return merges


def decide_merges(
    state: SluggerState,
    candidate_set: Iterable[int],
    threshold: float,
    config: SluggerConfig,
    seed: SeedLike = None,
) -> List[Tuple[int, int]]:
    """Decide one candidate set's merges; returns the merge trace (the *plan*).

    The decide half of the decide/apply split: it runs the full
    Algorithm-2 loop — partner search needs to observe each merge's
    effect on the group — so ``state`` is mutated and callers must hand
    in a disposable image (the execution layer forks the process, which
    makes the caller's own state an immutable snapshot).  The returned
    trace is id-independent (see :func:`process_candidate_set`) and can
    be replayed elsewhere with :func:`apply_merges`.

    Two parallel consumers exist: the optimistic decide phase (traces
    conflict-checked and possibly discarded at apply time) and the
    colored zero-threshold sweep of :mod:`repro.core.coloring`, whose
    footprint-disjoint classes let one forked worker decide several
    groups back-to-back on the same image with every trace staying
    exact.
    """
    trace: List[Tuple[int, int]] = []
    process_candidate_set(state, candidate_set, threshold, config, seed=seed,
                          trace=trace)
    return trace


def apply_merge_trace(
    state: SluggerState,
    trace: Iterable[Tuple[int, int]],
    config: SluggerConfig,
) -> int:
    """Replay a recorded merge trace against ``state``; returns the merge count.

    Trace entries use the encoding produced by :func:`process_candidate_set`
    (non-negative = pre-existing root id, ``-(j + 1)`` = result of the
    j-th replayed merge).  Replaying runs the full local re-encoding via
    :func:`merge_and_update`, so — provided the state visible to the
    merged trees matches the state the trace was decided against — the
    mutations are bit-identical to deciding and merging in one pass.
    """
    created: List[int] = []
    merges = 0
    for a_code, b_code in trace:
        root_a = created[-a_code - 1] if a_code < 0 else a_code
        root_b = created[-b_code - 1] if b_code < 0 else b_code
        created.append(merge_and_update(state, root_a, root_b, config))
        merges += 1
    return merges


#: The apply half of the decide/apply split (see :func:`decide_merges`).
apply_merges = apply_merge_trace
