"""Optimal bipartite assignment and the two supervision strategies.

``hungarian`` solves the rectangular linear assignment problem with a
dense shortest-augmenting-path solver that maintains dual potentials.
It starts warm, as the start phase of Jonker & Volgenant's LAPJV does:
each row takes its first free column at its row minimum, and only the
rows left unmatched run a Dijkstra search. It then refines ties so the
returned pair list is the lexicographically smallest one among all
optimal assignments: zero-cost dummy rows square the problem, and each
row in turn takes the smallest column that one alternating path over the
tight edges of the optimal duals can clear for it. It is skipped when
each row has one tight edge, its own: after the warm start alone, when
every row's other entries exceed its minimum by more than tau.
``brute_force_assign`` is the independent oracle: exhaustive enumeration
under a factorial guard, with the same tie rule. Every total here is
``cost._pairs_total``, the one sum of a pair list.

``global_instance_assignment`` matches ground truth to prediction slots
on whole-clip costs; ``locpro_assignment`` is the local-matching baseline
that assigns on each object's first frame and propagates, reported with
its whole-clip total so the two strategies are directly comparable.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .cost import LossWeights, _checked_pairs, _pairs_total, matching_cost_matrix
from .model import Assignment

BRUTE_FORCE_MAX_ROWS = 8
BRUTE_FORCE_MAX_COLS = 10
# tight-edge tolerance per unit of scale and row, in `_lexicographic_pairs`
_TAU_FACTOR = 64.0 * np.finfo(np.float64).eps


def _as_cost_matrix(matrix):
    """The float64 matrix and its largest |entry| (0.0 if empty), finite only if every entry is."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {a.shape}")
    abs_max = float(np.abs(a).max()) if a.size else 0.0
    if not math.isfinite(abs_max):
        raise ValueError("cost matrix entries must be finite")
    if a.shape[0] > a.shape[1]:
        raise ValueError(f"need rows <= cols, got shape {a.shape}")
    return a, abs_max


def _sap_solve(cost: np.ndarray):
    """Shortest-augmenting-path LAP solve for rows <= cols.

    Returns (col4row, u, v) where the dual potentials satisfy
    cost[i, j] - u[i] - v[j] >= 0 with equality on matched edges, v == 0
    on free columns and v <= 0 elsewhere.

    It starts like Jonker & Volgenant (1987): u holds the row minima, v = 0,
    and each row in turn takes its first free column at its minimum; only
    the rows left unmatched run a Dijkstra search. Columns are not reduced,
    which keeps v == 0 on free columns for `_lexicographic_pairs`. A search
    reads a copy of v with every closed column at -inf, so a closed
    column's reduced distance is +inf and it never competes again; the
    dual update touches only the rows scanned and the columns closed.

    A search step only lowers the shortest distances and records the
    scanned row's offset min_val - u[i]; predecessors are found lazily,
    for the columns of the augmenting path alone. A column's predecessor
    is the first row, among those scanned up to the step that closed it,
    that minimises (cost[row, j] + offset) - v[j]: the same float
    arithmetic as the step, and the row a strict `<` update would keep.
    """
    nr, nc = cost.shape
    u = cost.min(axis=1)
    v = np.zeros(nc)
    first = cost.argmin(axis=1).astype(np.int64, copy=False)
    if len(set(first.tolist())) == nr:
        return first, u, v          # distinct argmins: the loop below keeps them all
    col4row = [-1] * nr
    row4col = [-1] * nc
    for r, j in enumerate(first.tolist()):
        if row4col[j] != -1:
            j = next((k for k in np.flatnonzero(cost[r] == u[r]).tolist()
                      if row4col[k] == -1), -1)
            if j == -1:
                continue
        col4row[r] = j
        row4col[j] = r

    d = np.empty(nc)
    for cur_row in [r for r in range(nr) if col4row[r] == -1]:
        shortest = np.full(nc, np.inf)
        closed_v = v.copy()
        rows, cols, dists, offsets = [cur_row], [], [], []
        min_val = 0.0
        i = cur_row
        while True:
            offset = min_val - u[i]
            offsets.append(offset)
            np.add(cost[i], offset, out=d)
            d -= closed_v
            np.minimum(shortest, d, out=shortest)
            j = int(shortest.argmin())
            min_val = float(shortest[j])
            shortest[j] = np.inf
            closed_v[j] = -np.inf
            cols.append(j)
            dists.append(min_val)
            i = row4col[j]
            if i == -1:
                break
            rows.append(i)

        # walk the augmenting path back from the free column it reached;
        # the row scanned at step k > 0 held the column closed at step k - 1
        scanned, offsets = np.array(rows), np.array(offsets)
        k = len(cols) - 1
        while True:
            j = cols[k]
            k = int(((cost[scanned[:k + 1], j] + offsets[:k + 1]) - v[j]).argmin())
            i = rows[k]
            row4col[j] = i
            col4row[i] = j
            if k == 0:
                break
            k -= 1

        u[cur_row] += min_val
        u[rows[1:]] += min_val - np.array(dists[:-1])
        v[cols] -= min_val - np.array(dists)
    return np.array(col4row, dtype=np.int64), u, v


def _adjacency(mask: np.ndarray) -> list:
    """Ascending column lists of the True entries of each row of `mask`."""
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    cols = (np.flatnonzero(mask) % mask.shape[1]).tolist()
    return [cols[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _tight_edges(cost: np.ndarray, tau: float, col4row: np.ndarray,
                 u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """cost - u - v <= tau, with every matched edge. While v == 0 the duals
    are the warm start's (a search that lowers no v leaves u too), so cost - u
    is the reduced matrix bit for bit and each matched edge is exactly tight."""
    if np.count_nonzero(v):
        tight = cost - u[:, None] - v[None, :] <= tau
        tight[np.arange(len(u)), col4row] = True   # tight up to the searches' rounding
        return tight
    return cost - u[:, None] <= tau


def _lexicographic_pairs(cost: np.ndarray, abs_max: float, col4row: np.ndarray,
                         u: np.ndarray, v: np.ndarray) -> tuple:
    """Smallest pair list (rows ascending) among optimal assignments,
    read off the tight-edge graph of the optimal duals.

    The problem is squared with nc - nr zero-cost dummy rows that hold the
    free columns at potential 0. `_sap_solve` leaves v == 0 on free columns
    and v <= 0 elsewhere, so the extended duals stay feasible and every
    perfect matching on tight edges is optimal. A dummy row is tight on
    exactly the columns with v >= -tau. Each real row in turn then takes
    its smallest tight column that one alternating path can clear: the
    path shifts the column's owner, and the owners after it, along tight
    edges until the row's old column is taken over.

    With nr tight edges in all (each row keeps its own), every tight perfect
    matching is the incumbent, which is then returned at once.
    """
    nr, nc = cost.shape
    tau = _TAU_FACTOR * max(1.0, abs_max) * max(nr, 4)

    tight = _tight_edges(cost, tau, col4row, u, v)
    if np.count_nonzero(tight) == nr:
        return tuple(enumerate(col4row.tolist()))
    row_adj = _adjacency(tight)
    col_adj = _adjacency(tight.T)
    dummy_tight = (v >= -tau).tolist()

    col4row = col4row.tolist()
    row4col = [-1] * nc            # -1: the column is held by a dummy row
    for r, j in enumerate(col4row):
        row4col[j] = r

    pairs = []
    for r in range(nr):
        start = col4row[r]
        # the smallest tight column not held by an earlier row; the search
        # stops once it is reached, as no reachable column can beat it
        best = next(j for j in row_adj[r] if row4col[j] == -1 or row4col[j] >= r)
        # breadth-first search backwards from `start` over the rows after r
        # and the dummies: came_from[j] is the column that j's owner moves to
        # when j is cleared for row r (-1 at the root, -2 while unreached)
        came_from = [-2] * nc
        came_from[start] = -1
        queue = [start]
        dummies_reached = False
        for c in queue:
            if came_from[best] != -2:
                break
            for i in col_adj[c]:
                if i > r and came_from[col4row[i]] == -2:
                    came_from[col4row[i]] = c
                    queue.append(col4row[i])
            if dummy_tight[c] and not dummies_reached:
                dummies_reached = True
                for j in range(nc):
                    if row4col[j] == -1 and came_from[j] == -2:
                        came_from[j] = c
                        queue.append(j)
        chosen = next(j for j in row_adj[r] if came_from[j] != -2)
        j = chosen
        owner = r
        while j != -1:
            holder = row4col[j]
            row4col[j] = owner
            if owner != -1:
                col4row[owner] = j
            owner, j = holder, came_from[j]
        pairs.append((r, chosen))
    return tuple(pairs)


def hungarian(cost_matrix) -> Assignment:
    """Minimum-cost injective assignment of rows to columns.

    Ties between equally cheap assignments are broken in favor of the
    lexicographically smallest pair list. The SAP solution gives way to
    the tie refinement unless it is strictly cheaper in `_pairs_total`.
    """
    cost, abs_max = _as_cost_matrix(cost_matrix)
    if cost.shape[0] == 0:
        return Assignment._of((), 0.0)

    col4row, u, v = _sap_solve(cost)
    refined = _lexicographic_pairs(cost, abs_max, col4row, u, v)
    total = _pairs_total(cost, refined)
    solved = tuple(enumerate(col4row.tolist()))
    if refined == solved or total <= _pairs_total(cost, solved):
        return Assignment._of(refined, total)
    return Assignment._of(solved, _pairs_total(cost, solved))


@functools.cache
def _injections(nr: int, nc: int) -> np.ndarray:
    flat = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(nc), nr)),
                       dtype=np.int8, count=math.perm(nc, nr) * nr)
    return flat.reshape(-1, nr)


def brute_force_assign(cost_matrix) -> Assignment:
    """Exhaustive minimum over all injections; oracle for ``hungarian``.

    Injections are ranked by `_pairs_total`'s left-to-right sum. They are
    enumerated in lexicographic order and the first minimum wins, so equal
    totals go to the smallest pair list, as in ``hungarian``. Totals that are
    equal in exact arithmetic can round one ULP apart; the oracle then takes
    the cheaper one, which ``hungarian``'s refinement within tau may not see.
    """
    cost, _ = _as_cost_matrix(cost_matrix)
    nr, nc = cost.shape
    if nr > BRUTE_FORCE_MAX_ROWS or nc > BRUTE_FORCE_MAX_COLS:
        raise ValueError(f"brute force guard: shape {cost.shape} exceeds "
                         f"({BRUTE_FORCE_MAX_ROWS}, {BRUTE_FORCE_MAX_COLS})")
    if nr == 0:
        return Assignment._of((), 0.0)
    injections = _injections(nr, nc)
    totals = sum(cost[r, injections[:, r]] for r in range(nr))    # left to right, by row
    pairs = tuple(enumerate(injections[int(totals.argmin())].tolist()))
    return Assignment._of(pairs, _pairs_total(cost, pairs))


def build_global_cost_matrix(gt_tracks, pred_tracks, weights: LossWeights) -> np.ndarray:
    """Whole-clip cost of every (ground truth, prediction slot) pair."""
    n_gt, n_slots = len(gt_tracks), len(pred_tracks)
    if n_gt > n_slots:
        raise ValueError(f"{n_gt} ground-truth tracks exceed {n_slots} prediction slots")
    return matching_cost_matrix(gt_tracks, pred_tracks, weights)


def global_instance_assignment(gt_tracks, pred_tracks, weights: LossWeights) -> Assignment:
    """Optimal matching on whole-clip costs (the global strategy)."""
    return hungarian(build_global_cost_matrix(gt_tracks, pred_tracks, weights))


def _first_frame(track) -> int:
    present = np.flatnonzero(track.masks.reshape(track.masks.shape[0], -1).any(axis=1))
    if present.size == 0:
        raise ValueError("ground-truth track has no nonempty frame")
    return int(present[0])


def locpro_assignment(gt_tracks, pred_tracks, weights: LossWeights,
                      global_costs=None) -> Assignment:
    """Local match-and-propagate baseline.

    Objects are matched by frame-level cost at their first visible frame,
    earliest frames first; each stage only considers still-unmatched slots,
    and matched identities persist for the rest of the clip. The returned
    total is the whole-clip cost of the resulting pairs, so it is directly
    comparable with the global strategy. It is read from `global_costs`,
    the clip's ``build_global_cost_matrix``, which is built here when the
    caller does not pass it in.
    """
    n_gt, n_slots = len(gt_tracks), len(pred_tracks)
    if global_costs is None:
        global_costs = build_global_cost_matrix(gt_tracks, pred_tracks, weights)
    elif np.shape(global_costs) != (n_gt, n_slots):
        raise ValueError(f"global cost matrix has shape {np.shape(global_costs)}, "
                         f"expected {(n_gt, n_slots)}")
    first = [_first_frame(track) for track in gt_tracks]
    free_slots = list(range(n_slots))
    pairs = []
    for t in sorted(set(first)):
        rows = [g for g in range(n_gt) if first[g] == t]
        stage = matching_cost_matrix([gt_tracks[g] for g in rows],
                                     [pred_tracks[s] for s in free_slots], weights, frame=t)
        # hungarian pairs every row of the stage, in ascending order
        taken = [free_slots[ci] for _, ci in hungarian(stage).pairs]
        pairs.extend(zip(rows, taken))
        free_slots = [s for s in free_slots if s not in taken]
    pairs.sort()
    return Assignment._of(tuple(pairs), _pairs_total(global_costs, pairs))


def assignment_total_global_cost(assignment: Assignment, gt_tracks, pred_tracks,
                                 weights: LossWeights) -> float:
    """Recompute the whole-clip cost of an assignment from its inputs."""
    pairs = _checked_pairs(assignment.pairs, len(gt_tracks), len(pred_tracks))
    return _pairs_total(matching_cost_matrix(gt_tracks, pred_tracks, weights), pairs)
