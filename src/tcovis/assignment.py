"""Optimal bipartite assignment and the two supervision strategies.

``hungarian`` solves the rectangular linear assignment problem with a
dense shortest-augmenting-path solver that maintains dual potentials.
It first tries a certificate: when the row argmins are distinct and each
row has one entry within tau of its minimum, the duals u = row minima,
v = 0 prove the row-minimum assignment the only optimum, and it is
returned without a solve. Rows with distinct argmins but a tie within tau
are solved from their row minima alone. Any other matrix starts as Jonker
& Volgenant's LAPJV does: column reduction (square matrices only), each
row taking its first free column at its reduced minimum, reduction
transfer and two augmenting row reduction passes. Only the rows still
unmatched run a Dijkstra search. Free
columns end with v == 0. The solver then refines ties so the returned
pair list is the lexicographically smallest one among all optimal
assignments: zero-cost dummy rows square the problem, and each row in
turn takes the smallest column that one alternating path over the tight
edges of the optimal duals can clear for it. When the digraph of rows
tight on each other's columns has no cycle, the optimum is unique and is
returned at once; rows that reach no cycle, or hold their smallest open
tight column, are skipped.
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
# tight-edge tolerance per unit of scale and row, in `_tau`
_TAU_FACTOR = 64.0 * np.finfo(np.float64).eps
# bound on the largest |entry| times (cols + 1), in `_as_cost_matrix`
_ENTRY_LIMIT = float(np.finfo(np.float64).max) / 4.0


def _as_cost_matrix(matrix):
    """The float64 matrix and its largest |entry| (0.0 if empty).

    Entries must be finite and at most float64 max / (4 * (cols + 1)) in
    magnitude. The dual potentials are sums of entries over augmenting
    paths; past that limit they can overflow, and a reduced cost of
    inf - inf = nan keeps a Dijkstra search from ever reaching a free column.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {a.shape}")
    nr, nc = a.shape
    abs_max = float(np.abs(a).max()) if a.size else 0.0
    if not math.isfinite(abs_max):
        raise ValueError("cost matrix entries must be finite")
    if nr > nc:
        raise ValueError(f"need rows <= cols, got shape {a.shape}")
    if abs_max > _ENTRY_LIMIT / (nc + 1):
        raise ValueError(f"cost matrix entries must be at most float64 max / (4 * (cols + 1)) "
                         f"= {_ENTRY_LIMIT / (nc + 1):.6g} in magnitude, got {abs_max:.6g}")
    return a, abs_max


def _tau(abs_max: float, nr: int) -> float:
    """The tight-edge tolerance of an `nr`-row matrix whose largest |entry| is `abs_max`."""
    return _TAU_FACTOR * max(1.0, abs_max) * max(nr, 4)


def _lapjv_start(cost: np.ndarray, u: np.ndarray, first: np.ndarray):
    """LAPJV's initialisation: (col4row, row4col, u, v), -1 where unmatched.

    `u` and `first` are the row minima and argmins of `cost`. A square
    matrix has its columns reduced, v = cost.min(axis=0); a rectangular one
    keeps v = 0, as a column that ends free must hold v == 0. Each row then
    takes its first free column at its reduced minimum. If a row is left
    free, each matched row moves its runner-up gap into its column's v
    (reduction transfer), and two augmenting row reduction passes place the
    free rows. A row displaced in the first pass waits for the second, and
    one displaced in the second for the Dijkstra search. After the column
    reduction v only falls, and only on the columns that end matched.
    """
    nr, nc = cost.shape
    v = cost.min(axis=0) if nr == nc else np.zeros(nc)
    reduced = cost
    column_reduced = v.any()
    if column_reduced:
        reduced = cost - v
        u = reduced.min(axis=1)
        first = reduced.argmin(axis=1)
    col4row = [-1] * nr
    row4col = [-1] * nc
    for r, j in enumerate(first.tolist()):
        if row4col[j] != -1:
            j = next((k for k in np.flatnonzero(reduced[r] == u[r]).tolist()
                      if row4col[k] == -1), -1)
            if j == -1:
                continue
        col4row[r] = j
        row4col[j] = r

    free = [r for r in range(nr) if col4row[r] == -1]
    if not free:
        return col4row, row4col, u, v

    # reduction transfer: each matched row's runner-up becomes tight too
    held = np.array(col4row)
    matched = np.flatnonzero(held != -1)
    cols = held[matched]
    runner_up = reduced if column_reduced else cost.copy()
    runner_up[matched, cols] = np.inf
    v[cols] -= runner_up.min(axis=1)[matched] - u[matched]
    del reduced, runner_up

    # augmenting row reduction: a free row takes its cheapest column j1 and
    # lowers v[j1] until its runner-up ties it; on a tie it takes the
    # runner-up's column when j1 is held. The column's owner is displaced.
    for _ in range(2):
        displaced = []
        for i in free:
            row = cost[i] - v
            j1 = int(row.argmin())
            u1 = float(row[j1])
            row[j1] = np.inf
            j2 = int(row.argmin())
            u2 = float(row[j2])
            if u1 < u2:
                v[j1] -= u2 - u1
            elif row4col[j1] != -1:
                j1 = j2
            k = row4col[j1]
            if k != -1:
                col4row[k] = -1
                displaced.append(k)
            col4row[i] = j1
            row4col[j1] = i
        free = displaced

    if column_reduced or v.any():       # else u is still the row minima
        u = (cost - v).min(axis=1)
    return col4row, row4col, u, v


def _sap_solve(cost: np.ndarray):
    """Shortest-augmenting-path LAP solve for rows <= cols.

    Returns (col4row, u, v) where the dual potentials satisfy
    cost[i, j] - u[i] - v[j] >= 0 with equality on matched edges and
    v == 0 on free columns. When rows < cols, v <= 0 everywhere, which
    `_lexicographic_pairs`' dummy rows need; a square solve has no free
    column and may hold positive v from its column reduction.

    Rows with distinct argmins keep them, with u the row minima and v = 0.
    Any other matrix starts like Jonker & Volgenant (1987), in
    `_lapjv_start`, and only the rows it leaves unmatched run a Dijkstra
    search. A search reads a copy of v with every closed column at -inf, so a closed
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
    first = cost.argmin(axis=1).astype(np.int64, copy=False)
    if len(set(first.tolist())) == nr:
        return first, u, np.zeros(nc)   # distinct argmins: the start below keeps them all
    col4row, row4col, u, v = _lapjv_start(cost, u, first)

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
    return [row.nonzero()[0].tolist() for row in mask]


def _tight_edges(cost: np.ndarray, tau: float, col4row: np.ndarray,
                 u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """cost - u - v <= tau, with every matched edge, in one temporary: cost - u,
    then - v, the float steps of cost - u - v. While v == 0, u holds the row
    minima (no column was reduced or lowered, and a search that lowers no v
    leaves u too), so cost - u is the reduced matrix bit for bit."""
    t = cost - u[:, None]
    if np.count_nonzero(v):
        t -= v
        tight = t <= tau
        tight[np.arange(len(u)), col4row] = True   # tight up to the searches' rounding
        return tight
    return t <= tau


def _movable_rows(tight: np.ndarray, tau: float, col4row: np.ndarray,
                  v: np.ndarray) -> np.ndarray:
    """The rows from which the owner digraph reaches a cycle; any other row
    keeps its column in every tight perfect matching (Dulmage and Mendelsohn).
    Nodes: the real rows and D, the dummies. Edges: r -> r' when r is tight on
    r''s column, r -> D when r is tight on a free column, D -> r when
    v[col4row[r]] >= -tau; into[b, a] holds a -> b. Each step keeps the nodes
    with an edge into the last step's: one `any`, whatever the edge count."""
    nr = len(col4row)
    into = np.empty((nr + 1, nr + 1), dtype=bool)
    into[:nr, :nr] = tight.T[col4row]
    into[nr, :nr] = np.delete(tight, col4row, axis=1).any(axis=1)
    into[:nr, nr] = v[col4row] >= -tau
    np.fill_diagonal(into, False)
    alive, before = into.any(axis=0), nr + 1
    while 0 < (count := np.count_nonzero(alive)) < before:
        alive, before = into[alive].any(axis=0), count
    return alive[:nr]


def _lexicographic_pairs(cost: np.ndarray, abs_max: float, col4row: np.ndarray,
                         u: np.ndarray, v: np.ndarray) -> tuple:
    """Smallest pair list (rows ascending) among optimal assignments,
    read off the tight-edge graph of the optimal duals.

    The problem is squared with nc - nr zero-cost dummy rows that hold the
    free columns at potential 0. When nr < nc, `_sap_solve` reduces no
    column and leaves v == 0 on free columns and v <= 0 elsewhere, so the
    extended duals stay feasible and every perfect matching on tight edges
    is optimal. A dummy row is tight on exactly the columns with v >= -tau.
    A square problem has no dummy rows, and its v may be positive. Each real
    row in turn then takes its smallest tight column that one alternating
    path can clear: the path shifts the column's owner, and the owners
    after it, along tight edges until the row's old column is taken over.

    The incumbent is returned at once with nr tight edges, when no row can
    move (`_movable_rows`: the optimum is unique), or when each row that can
    holds its smallest tight column not held by an earlier row. Otherwise the
    search starts at the first that does not; it skips rows that cannot move.
    """
    nr, nc = cost.shape
    tau = _tau(abs_max, nr)

    tight = _tight_edges(cost, tau, col4row, u, v)
    incumbent = tuple(enumerate(col4row.tolist()))
    if np.count_nonzero(tight) == nr:
        return incumbent
    rows = np.flatnonzero(_movable_rows(tight, tau, col4row, v))
    held_by = np.full(nc, nr)          # the row of each column, nr for a dummy row
    held_by[col4row] = np.arange(nr)
    first = (tight[rows] & (held_by >= rows[:, None])).argmax(axis=1)
    unsettled = rows[first != col4row[rows]]
    if not unsettled.size:
        return incumbent
    col_adj = ()
    dummy_tight = (v >= -tau).tolist() if nr < nc else [False] * nc

    col4row = col4row.tolist()
    for r in rows[rows >= unsettled[0]].tolist():
        # the smallest tight column not held by an earlier row; the search
        # stops once it is reached, as no reachable column can beat it
        eligible = tight[r] & (held_by >= r)
        best = int(eligible.argmax())
        start = col4row[r]
        if best == start:
            continue
        col_adj = col_adj or _adjacency(tight.T)   # built on first need
        # breadth-first search backwards from `start` over the rows after r
        # and the dummies: came_from[j] is the column that j's owner moves to
        # when j is cleared for row r (-1 at the root)
        came_from, queue, dummies_reached = {start: -1}, [start], False
        for c in queue:
            for i in col_adj[c]:
                if i > r and col4row[i] not in came_from:
                    came_from[col4row[i]] = c
                    queue.append(col4row[i])
            if dummy_tight[c] and not dummies_reached:
                dummies_reached = True
                for j in np.flatnonzero(held_by == nr).tolist():
                    if j not in came_from:
                        came_from[j] = c
                        queue.append(j)
            if best in came_from:
                break
        j = next(j for j in range(best, start + 1) if j in came_from and eligible[j])
        owner = r
        while j != -1:
            holder = int(held_by[j])
            held_by[j] = owner
            if owner != nr:
                col4row[owner] = j
            owner, j = holder, came_from[j]
    return tuple(enumerate(col4row))


def hungarian(cost_matrix) -> Assignment:
    """Minimum-cost injective assignment of rows to columns.

    Ties between equally cheap assignments are broken in favor of the
    lexicographically smallest pair list. The row-minimum assignment is
    returned at once when its argmins are distinct and the duals u = row
    minima, v = 0 leave exactly nr tight edges: it is then the only optimum,
    the pair list every later step would return. Otherwise the SAP solution
    gives way to the tie refinement unless it is strictly cheaper in
    `_pairs_total`.
    """
    cost, abs_max = _as_cost_matrix(cost_matrix)
    nr, nc = cost.shape
    if nr == 0:
        return Assignment._of((), 0.0)

    first = cost.argmin(axis=1)
    cols = first.tolist()
    if len(set(cols)) == nr:
        tight = _tight_edges(cost, _tau(abs_max, nr), first, cost.min(axis=1), np.zeros(nc))
        if np.count_nonzero(tight) == nr:
            pairs = tuple(enumerate(cols))
            return Assignment._of(pairs, _pairs_total(cost, pairs))

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
