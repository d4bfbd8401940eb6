"""Optimal bipartite assignment and the two supervision strategies.

``hungarian`` solves the rectangular linear assignment problem with a
dense shortest-augmenting-path solver that maintains dual potentials.
It starts warm, as the start phase of Jonker & Volgenant's LAPJV does:
each row takes its first free column at its row minimum, and only the
rows left unmatched run a Dijkstra search. It then refines ties so the
returned pair list is the lexicographically smallest one among all
optimal assignments: zero-cost dummy rows square the problem, and each
row in turn takes the smallest column that one alternating path over the
tight edges of the optimal duals can clear for it. ``brute_force_assign``
is the independent oracle: exhaustive enumeration under a factorial
guard, with the same tie rule.

``global_instance_assignment`` matches ground truth to prediction slots
on whole-clip costs; ``locpro_assignment`` is the local-matching baseline
that assigns on each object's first frame and propagates, reported with
its whole-clip total so the two strategies are directly comparable.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cost import LossWeights, global_matching_cost, matching_cost_matrix
from .model import Assignment

BRUTE_FORCE_MAX_ROWS = 8
BRUTE_FORCE_MAX_COLS = 10


def _as_cost_matrix(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("cost matrix entries must be finite")
    if a.shape[0] > a.shape[1]:
        raise ValueError(f"need rows <= cols, got shape {a.shape}")
    return a


def _pairs_total(cost: np.ndarray, cols) -> float:
    # canonical order: ascending row, left-to-right accumulation
    total = 0.0
    for r, c in enumerate(cols):
        total += float(cost[r, c])
    return total


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
    """
    nr, nc = cost.shape
    u = cost.min(axis=1)
    v = np.zeros(nc)
    col4row = [-1] * nr
    row4col = [-1] * nc
    for r, j in enumerate(cost.argmin(axis=1).tolist()):
        if row4col[j] != -1:
            j = next((k for k in np.flatnonzero(cost[r] == u[r]).tolist()
                      if row4col[k] == -1), -1)
            if j == -1:
                continue
        col4row[r] = j
        row4col[j] = r

    path = np.empty(nc, dtype=np.int64)
    d = np.empty(nc)
    for cur_row in [r for r in range(nr) if col4row[r] == -1]:
        shortest = np.full(nc, np.inf)
        closed_v = v.copy()
        rows, cols, dists = [cur_row], [], []
        min_val = 0.0
        i = cur_row
        while True:
            np.add(cost[i], min_val - u[i], out=d)
            d -= closed_v
            better = d < shortest
            np.copyto(shortest, d, where=better)
            path[better] = i
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

        u[cur_row] += min_val
        u[rows[1:]] += min_val - np.array(dists[:-1])
        v[cols] -= min_val - np.array(dists)

        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return np.array(col4row, dtype=np.int64), u, v


def _lexicographic_pairs(cost: np.ndarray, col4row: np.ndarray,
                         u: np.ndarray, v: np.ndarray) -> list:
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
    """
    nr, nc = cost.shape
    scale = max(1.0, float(np.abs(cost).max()))
    tau = 64.0 * np.finfo(np.float64).eps * scale * max(nr, 4)

    reduced = cost - u[:, None] - v[None, :]
    tight = reduced <= tau
    tight[np.arange(nr), col4row] = True
    row_adj = [np.flatnonzero(tight[r]).tolist() for r in range(nr)]
    col_adj = [np.flatnonzero(tight[:, j]).tolist() for j in range(nc)]
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
    return pairs


def hungarian(cost_matrix) -> Assignment:
    """Minimum-cost injective assignment of rows to columns.

    Ties between equally cheap assignments are broken in favor of the
    lexicographically smallest pair list.
    """
    cost = _as_cost_matrix(cost_matrix)
    nr = cost.shape[0]
    if nr == 0:
        return Assignment(pairs=(), total_cost=0.0)

    col4row, u, v = _sap_solve(cost)
    incumbent = [(r, int(col4row[r])) for r in range(nr)]
    best_total = _pairs_total(cost, col4row)

    refined = _lexicographic_pairs(cost, col4row, u, v)
    if refined != incumbent:
        refined_total = _pairs_total(cost, [c for _, c in refined])
        if refined_total == best_total:
            return Assignment(pairs=tuple(refined), total_cost=best_total)
    return Assignment(pairs=tuple(incumbent), total_cost=best_total)


_INJECTION_CACHE: dict = {}


def _injections(nr: int, nc: int) -> np.ndarray:
    key = (nr, nc)
    if key not in _INJECTION_CACHE:
        count = 1
        for k in range(nc, nc - nr, -1):
            count *= k
        flat = np.fromiter(itertools.chain.from_iterable(
            itertools.permutations(range(nc), nr)), dtype=np.int8, count=count * nr)
        _INJECTION_CACHE[key] = flat.reshape(count, nr)
    return _INJECTION_CACHE[key]


def brute_force_assign(cost_matrix) -> Assignment:
    """Exhaustive minimum over all injections; oracle for ``hungarian``.

    Enumeration is lexicographic in the pair list and only strict
    improvements replace the incumbent, so ties resolve identically to
    ``hungarian``.
    """
    cost = _as_cost_matrix(cost_matrix)
    nr, nc = cost.shape
    if nr > BRUTE_FORCE_MAX_ROWS or nc > BRUTE_FORCE_MAX_COLS:
        raise ValueError(f"brute force guard: shape {cost.shape} exceeds "
                         f"({BRUTE_FORCE_MAX_ROWS}, {BRUTE_FORCE_MAX_COLS})")
    if nr == 0:
        return Assignment(pairs=(), total_cost=0.0)
    injections = _injections(nr, nc)
    totals = cost[np.arange(nr)[None, :], injections].sum(axis=1)
    winner = injections[int(totals.argmin())]
    return Assignment(pairs=tuple((r, int(c)) for r, c in enumerate(winner)),
                      total_cost=_pairs_total(cost, winner))


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
    if n_gt > n_slots:
        raise ValueError(f"{n_gt} ground-truth tracks exceed {n_slots} prediction slots")
    first = [_first_frame(track) for track in gt_tracks]
    free_slots = list(range(n_slots))
    pairs = []
    for t in sorted(set(first)):
        rows = [g for g in range(n_gt) if first[g] == t]
        stage = matching_cost_matrix([gt_tracks[g] for g in rows],
                                     [pred_tracks[s] for s in free_slots], weights, frame=t)
        local = hungarian(stage)
        taken = [free_slots[ci] for _, ci in local.pairs]
        for ri, ci in local.pairs:
            pairs.append((rows[ri], free_slots[ci]))
        for s in taken:
            free_slots.remove(s)
    pairs.sort()
    if global_costs is None:
        global_costs = build_global_cost_matrix(gt_tracks, pred_tracks, weights)
    elif np.shape(global_costs) != (n_gt, n_slots):
        raise ValueError(f"global cost matrix has shape {np.shape(global_costs)}, "
                         f"expected {(n_gt, n_slots)}")
    return Assignment(pairs=tuple(pairs),
                      total_cost=_pairs_total(global_costs, [s for _, s in pairs]))


def assignment_total_global_cost(assignment: Assignment, gt_tracks, pred_tracks,
                                 weights: LossWeights) -> float:
    """Recompute the whole-clip cost of an assignment from its inputs."""
    n_gt, n_slots = len(gt_tracks), len(pred_tracks)
    total = 0.0
    for g, s in sorted(assignment.pairs):
        if not 0 <= g < n_gt or not 0 <= s < n_slots:
            raise ValueError(f"assignment pair ({g}, {s}) out of range")
        total += global_matching_cost(gt_tracks[g], pred_tracks[s], weights)
    return total
