import itertools
import sys

import numpy as np
import pytest

from tcovis.assignment import (_sap_solve, assignment_total_global_cost,
                               brute_force_assign, build_global_cost_matrix,
                               global_instance_assignment, hungarian, locpro_assignment)
from tcovis.cost import LossWeights, frame_matching_cost, global_matching_cost
from tcovis.model import Assignment, GroundTruthTrack, PredictionTrack


def agree(a: Assignment, b: Assignment) -> bool:
    return a.pairs == b.pairs and a.total_cost == b.total_cost


def random_tracks(rng, n_gt=3, n_slots=4, T=3, h=6, w=6, K=3):
    gts = []
    for _ in range(n_gt):
        masks = (rng.random((T, h, w)) < 0.4).astype(np.uint8)
        masks[0, 0, 0] = 1
        gts.append(GroundTruthTrack(class_id=int(rng.integers(K)), masks=masks))
    preds = []
    for _ in range(n_slots):
        probs = rng.random((T, K + 1))
        probs /= probs.sum(axis=1, keepdims=True)
        preds.append(PredictionTrack(class_probs=probs,
                                     mask_probs=rng.random((T, h, w))))
    return gts, preds


def soft_track(binary_stack, class_vec, sharpness=12.0):
    logits = sharpness * (2.0 * np.asarray(binary_stack, float) - 1.0)
    probs = np.tile(np.asarray(class_vec, float), (len(binary_stack), 1))
    return PredictionTrack(class_probs=probs,
                           mask_probs=1.0 / (1.0 + np.exp(-logits)))


def identity_swap_clip():
    """One object, two slots. Slot 0 segments it perfectly on frame 1 only;
    slot 1 is slightly off on frame 1 but perfect afterwards. Frame-1
    matching prefers slot 0, whole-clip matching prefers slot 1."""
    T, h, w = 4, 8, 8
    square = np.zeros((h, w), np.uint8)
    square[2:5, 2:5] = 1
    shifted = np.roll(square, 1, axis=1)
    gt = GroundTruthTrack(class_id=0, masks=np.stack([square] * T))

    slot0 = np.stack([square] + [np.zeros((h, w), np.uint8)] * (T - 1))
    slot1 = np.stack([shifted] + [square] * (T - 1))
    class_vec = [0.9, 0.05, 0.05]
    preds = [soft_track(slot0, class_vec), soft_track(slot1, class_vec)]
    return [gt], preds


class TestHungarian:
    def test_single_entry(self):
        a = hungarian([[3.0]])
        assert a.pairs == ((0, 0),) and a.total_cost == 3.0

    def test_diagonal_dominance(self):
        a = hungarian([[1.0, 2.0], [2.0, 1.0]])
        assert a.pairs == ((0, 0), (1, 1)) and a.total_cost == 2.0

    def test_empty_matrix(self):
        a = hungarian(np.zeros((0, 3)))
        assert a.pairs == () and a.total_cost == 0.0

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            nr = int(rng.integers(1, 8))
            nc = int(rng.integers(nr, 10))
            matrix = rng.uniform(0, 10, (nr, nc))
            assert agree(hungarian(matrix), brute_force_assign(matrix))

    def test_matches_brute_force_on_tied_integer_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            nr = int(rng.integers(1, 6))
            nc = int(rng.integers(nr, 8))
            matrix = rng.integers(0, 4, (nr, nc)).astype(float)
            assert agree(hungarian(matrix), brute_force_assign(matrix))

    def test_lexicographic_tie_break(self):
        a = hungarian(np.ones((3, 3)))
        assert a.pairs == ((0, 0), (1, 1), (2, 2))

    def test_mandatory_column_tie_case(self):
        # both optima use the cheap last column; the lexicographically
        # smaller one parks row 0 on column 0
        a = hungarian([[0.0, 0.0, -5.0], [0.0, 0.0, -5.0]])
        b = brute_force_assign([[0.0, 0.0, -5.0], [0.0, 0.0, -5.0]])
        assert agree(a, b)
        assert a.pairs == ((0, 0), (1, 2))

    def test_negative_entries(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            nr = int(rng.integers(1, 6))
            nc = int(rng.integers(nr, 8))
            matrix = rng.integers(-5, 5, (nr, nc)).astype(float)
            assert agree(hungarian(matrix), brute_force_assign(matrix))

    @pytest.mark.parametrize("scale", [2.0, 0.5, 4.0])
    def test_scale_invariance_of_argmin(self, scale):
        rng = np.random.default_rng(3)
        for _ in range(20):
            matrix = rng.uniform(0, 10, (4, 6))
            assert hungarian(matrix).pairs == hungarian(scale * matrix).pairs

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            matrix = rng.uniform(0, 10, (4, 6))
            perm = rng.permutation(6)
            base = dict(hungarian(matrix).pairs)
            permuted = dict(hungarian(matrix[:, perm]).pairs)
            assert {r: perm[c] for r, c in permuted.items()} == base

    def test_rejects_more_rows_than_cols(self):
        with pytest.raises(ValueError, match="rows <= cols"):
            hungarian(np.zeros((3, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian([[np.nan, 1.0]])

    def test_dense_tie_graph_needs_no_deep_recursion(self):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        matrix = np.random.default_rng(0).integers(0, 2, (400, 400)).astype(float)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            a = hungarian(matrix)
        finally:
            sys.setrecursionlimit(limit)
        rows, cols = linear_sum_assignment(matrix)
        assert a.total_cost == matrix[rows, cols].sum()

    @pytest.mark.parametrize("shape", [(12, 16), (30, 40)])
    @pytest.mark.parametrize("low, high", [(0, 3), (-3, 3)])
    def test_lexicographic_rule_above_brute_force_guard(self, shape, low, high):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment

        def optimum(matrix):
            rows, cols = linear_sum_assignment(matrix)
            return matrix[rows, cols].sum()

        # integer entries keep every sum exact, so equality is the tie test
        rng = np.random.default_rng(6)
        nr, nc = shape
        for _ in range(4):
            matrix = rng.integers(low, high + 1, shape).astype(float)
            target = optimum(matrix)
            free, fixed, expected = list(range(nc)), 0.0, []
            for r in range(nr):
                for c in free:
                    rest = matrix[r + 1:][:, [k for k in free if k != c]]
                    if fixed + matrix[r, c] + optimum(rest) == target:
                        break
                expected.append((r, c))
                fixed += matrix[r, c]
                free.remove(c)
            assert hungarian(matrix).pairs == tuple(expected)


def _sap_cases():
    rng = np.random.default_rng(15)
    tied = rng.uniform(0, 10, (30, 40))
    tied[:, [3, 7, 8, 21]] = 4.0
    return {
        "uniform floats": rng.uniform(0, 10, (30, 40)),
        "tie-heavy integers": rng.integers(0, 4, (30, 40)).astype(float),
        "tied-column floats": tied,
        # every row's minimum in its own column: the warm start matches all
        "permutation": 1.0 - np.eye(25)[rng.permutation(25)],
        # every row the same: the warm start matches one row only
        "constant columns": np.tile(rng.uniform(-5, 5, 30), (20, 1)),
    }


class TestSapDuals:
    @pytest.mark.parametrize("name", sorted(_sap_cases()))
    def test_duals_certify_the_matching(self, name):
        cost = _sap_cases()[name]
        col4row, u, v = _sap_solve(cost)
        nr, nc = cost.shape
        tol = 1e-9 * max(1.0, float(np.abs(cost).max()))
        assert len(set(col4row.tolist())) == nr
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -tol
        assert np.abs(reduced[np.arange(nr), col4row]).max() <= tol
        free = np.setdiff1d(np.arange(nc), col4row)
        assert (v[free] == 0.0).all() and (v <= 0.0).all()
        if name == "permutation":
            # no search ran: the duals are still the warm start's
            assert (u == cost.min(axis=1)).all() and (v == 0.0).all()


class TestBruteForce:
    def test_empty(self):
        a = brute_force_assign(np.zeros((0, 2)))
        assert a.pairs == () and a.total_cost == 0.0

    def test_one_by_two(self):
        a = brute_force_assign([[5.0, 1.0]])
        assert a.pairs == ((0, 1),) and a.total_cost == 1.0

    def test_minimum_over_independent_enumeration(self):
        rng = np.random.default_rng(5)
        matrix = rng.uniform(0, 10, (4, 5))
        best = brute_force_assign(matrix)
        for cols in itertools.permutations(range(5), 4):
            total = sum(matrix[r, c] for r, c in enumerate(cols))
            assert best.total_cost <= total + 1e-12

    def test_guard_rejects_large_instances(self):
        with pytest.raises(ValueError, match="guard"):
            brute_force_assign(np.zeros((9, 9)))
        with pytest.raises(ValueError, match="guard"):
            brute_force_assign(np.zeros((2, 11)))


class TestGlobalCostMatrix:
    def test_entries_match_direct_calls(self):
        rng = np.random.default_rng(6)
        gts, preds = random_tracks(rng, n_gt=3, n_slots=4)
        w = LossWeights()
        matrix = build_global_cost_matrix(gts, preds, w)
        assert matrix.shape == (3, 4)
        for g in range(3):
            for s in range(4):
                assert matrix[g, s] == global_matching_cost(gts[g], preds[s], w)

    def test_perfect_predictions_give_small_diagonal(self):
        rng = np.random.default_rng(7)
        gts, _ = random_tracks(rng, n_gt=2, n_slots=2)
        preds = [soft_track(gt.masks, np.eye(4)[gt.class_id], sharpness=40.0)
                 for gt in gts]
        matrix = build_global_cost_matrix(gts, preds, LossWeights())
        assert matrix[0, 0] < 1e-6 and matrix[1, 1] < 1e-6
        assert matrix[0, 1] > 0.1 and matrix[1, 0] > 0.1

    def test_rejects_too_many_gt(self):
        rng = np.random.default_rng(8)
        gts, preds = random_tracks(rng, n_gt=3, n_slots=4)
        with pytest.raises(ValueError, match="exceed"):
            build_global_cost_matrix(gts, preds[:2], LossWeights())


class TestStrategies:
    def test_gia_recovers_generator_pairing(self):
        rng = np.random.default_rng(9)
        gts, _ = random_tracks(rng, n_gt=3, n_slots=3)
        preds = [soft_track(gt.masks, np.eye(4)[gt.class_id], sharpness=40.0)
                 for gt in gts]
        shuffled = [preds[1], preds[2], preds[0]]
        gia = global_instance_assignment(gts, shuffled, LossWeights())
        assert gia.pairs == ((0, 2), (1, 0), (2, 1))

    def test_identity_swap_clip_separates_strategies(self):
        gts, preds = identity_swap_clip()
        w = LossWeights()
        gia = global_instance_assignment(gts, preds, w)
        locpro = locpro_assignment(gts, preds, w)
        assert gia.pairs == ((0, 1),)      # whole-clip winner
        assert locpro.pairs == ((0, 0),)   # frame-one winner
        assert (assignment_total_global_cost(gia, gts, preds, w)
                < assignment_total_global_cost(locpro, gts, preds, w))

    def test_gia_never_costs_more_than_locpro(self):
        w = LossWeights()
        for seed in range(15):
            rng = np.random.default_rng(seed)
            gts, preds = random_tracks(rng, n_gt=3, n_slots=5)
            gia = global_instance_assignment(gts, preds, w)
            loc = locpro_assignment(gts, preds, w)
            assert gia.total_cost <= loc.total_cost + 1e-9

    def test_locpro_matches_gia_when_everything_is_perfect(self):
        rng = np.random.default_rng(10)
        gts, _ = random_tracks(rng, n_gt=3, n_slots=3)
        preds = [soft_track(gt.masks, np.eye(4)[gt.class_id], sharpness=40.0)
                 for gt in gts]
        w = LossWeights()
        assert locpro_assignment(gts, preds, w).pairs == \
            global_instance_assignment(gts, preds, w).pairs

    def test_locpro_stages_late_appearance(self):
        T, h, w_ = 4, 8, 8
        early = np.zeros((T, h, w_), np.uint8)
        early[:, 1:3, 1:3] = 1
        late = np.zeros((T, h, w_), np.uint8)
        late[2:, 5:7, 5:7] = 1  # appears at frame index 2
        gts = [GroundTruthTrack(class_id=0, masks=early),
               GroundTruthTrack(class_id=1, masks=late)]
        class0 = [0.9, 0.05, 0.05]
        class1 = [0.05, 0.9, 0.05]
        preds = [soft_track(early, class0), soft_track(late, class1),
                 soft_track(np.zeros_like(early), [0.05, 0.05, 0.9])]
        w = LossWeights()
        loc = locpro_assignment(gts, preds, w)
        assert loc.pairs == ((0, 0), (1, 1))
        # stage-2 matching happened at the appearance frame against free slots
        assert frame_matching_cost(gts[1], preds[1], 2, w) < \
            frame_matching_cost(gts[1], preds[2], 2, w)

    def test_locpro_total_reads_given_whole_clip_matrix(self):
        rng = np.random.default_rng(14)
        gts, preds = random_tracks(rng, n_gt=3, n_slots=5)
        w = LossWeights()
        costs = build_global_cost_matrix(gts, preds, w)
        own = locpro_assignment(gts, preds, w)
        shared = locpro_assignment(gts, preds, w, global_costs=costs)
        assert agree(own, shared)
        assert own.total_cost == assignment_total_global_cost(own, gts, preds, w)
        with pytest.raises(ValueError, match="shape"):
            locpro_assignment(gts, preds, w, global_costs=costs[:, :4])

    def test_locpro_rejects_empty_track(self):
        T, h, w_ = 3, 8, 8
        empty = GroundTruthTrack(class_id=0, masks=np.zeros((T, h, w_), np.uint8))
        pred = soft_track(np.zeros((T, h, w_), np.uint8), [0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match="nonempty"):
            locpro_assignment([empty], [pred, pred], LossWeights())


class TestTotalGlobalCost:
    def test_empty_assignment(self):
        assert assignment_total_global_cost(
            Assignment(pairs=(), total_cost=0.0), [], [], LossWeights()) == 0.0

    def test_gia_total_matches_recomputation(self):
        rng = np.random.default_rng(11)
        gts, preds = random_tracks(rng, n_gt=3, n_slots=4)
        w = LossWeights()
        gia = global_instance_assignment(gts, preds, w)
        recomputed = assignment_total_global_cost(gia, gts, preds, w)
        assert recomputed == pytest.approx(gia.total_cost, abs=1e-9)

    def test_rejects_out_of_range(self):
        rng = np.random.default_rng(12)
        gts, preds = random_tracks(rng, n_gt=1, n_slots=2)
        with pytest.raises(ValueError, match="out of range"):
            assignment_total_global_cost(Assignment(pairs=[(0, 9)], total_cost=0.0),
                                         gts, preds, LossWeights())
