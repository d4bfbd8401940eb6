import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tcovis import assignment, synth
from tcovis.assignment import (BRUTE_FORCE_MAX_COLS, BRUTE_FORCE_MAX_ROWS, _sap_solve,
                               assignment_total_global_cost,
                               brute_force_assign, build_global_cost_matrix,
                               global_instance_assignment, hungarian, locpro_assignment)
from tcovis.cli import _load_run_config
from tcovis.cost import LossWeights, _pairs_total, frame_matching_cost, global_matching_cost
from tcovis.model import Assignment, GroundTruthTrack, PredictionTrack

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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

    def test_keeps_the_refinement_when_the_sap_solution_rounds_dearer(self):
        # SAP reaches ((0, 2), (1, 0), (2, 1)), whose pair sum rounds to
        # 0.6000000000000001; the tie refinement's 0.6 must win
        matrix = [[0.3, 0.2, 0.1], [0.3, 0.3, 0.3], [0.2, 0.2, 0.1]]
        a = hungarian(matrix)
        assert agree(a, brute_force_assign(matrix))
        assert a.pairs == ((0, 1), (1, 0), (2, 2)) and a.total_cost == 0.6

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

    @pytest.mark.parametrize("solver", [hungarian, brute_force_assign],
                             ids=["hungarian", "brute_force_assign"])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, solver, entry):
        # the check is the finiteness of the largest |entry|, which NaN and
        # both infinities reach wherever they sit
        with pytest.raises(ValueError, match="^cost matrix entries must be finite$"):
            solver([[0.5, 1.0, 2.0], [3.0, entry, -1.0]])

    @pytest.mark.parametrize("solver", [hungarian, brute_force_assign],
                             ids=["hungarian", "brute_force_assign"])
    def test_rejects_entries_that_could_overflow_the_duals(self, solver):
        # past the limit a reduced cost can read inf - inf = nan, and a
        # Dijkstra search never reaches a free column; the check comes first
        with pytest.raises(ValueError, match=r"^cost matrix entries must be at most "
                                             r"float64 max / \(4 \* \(cols \+ 1\)\) = "):
            solver([[-1e308, 1e308], [-1e308, 1e308]])

    def test_entries_at_the_overflow_limit_solve(self):
        limit = np.finfo(np.float64).max / (4 * 3)
        matrix = np.array([[-limit, limit], [-limit, limit]])
        a = hungarian(matrix)
        assert agree(a, brute_force_assign(matrix)) and a.total_cost == 0.0
        with pytest.raises(ValueError, match="at most"):
            hungarian(np.nextafter(matrix, 2 * matrix))

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
        rng = np.random.default_rng(6)
        for _ in range(4):
            matrix = rng.integers(low, high + 1, shape).astype(float)
            assert hungarian(matrix).pairs == scipy_lexicographic_pairs(matrix)


def scipy_lexicographic_pairs(matrix) -> tuple:
    """The smallest optimal pair list, fixed row by row with scipy's solver
    on the rest. Entries must be whole numbers: every sum is then exact, so
    equality is the tie test."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment

    def optimum(m):
        rows, cols = linear_sum_assignment(m)
        return m[rows, cols].sum()

    nr, nc = matrix.shape
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
    return tuple(expected)


def solve_observed(monkeypatch, matrix):
    """`hungarian(matrix)`, the rows `_movable_rows` returned (None when the
    refinement left before it: nr tight edges in all) and the number of
    `_adjacency` builds, i.e. of refinements that ran a search."""
    seen = {"movable": None, "built": 0}
    movable_rows, adjacency = assignment._movable_rows, assignment._adjacency

    def movable(*args):
        seen["movable"] = movable_rows(*args)
        return seen["movable"]

    def counted(mask):
        seen["built"] += 1
        return adjacency(mask)

    monkeypatch.setattr(assignment, "_movable_rows", movable)
    monkeypatch.setattr(assignment, "_adjacency", counted)
    return hungarian(matrix), seen["movable"], seen["built"]


def sap_pairs(matrix) -> tuple:
    return tuple(enumerate(_sap_solve(np.asarray(matrix, dtype=float))[0].tolist()))


class TestRefinementEarlyExit:
    """`_lexicographic_pairs` returns the incumbent at once when every real
    row has one tight column, before the owner digraph is built; the search
    state is built only for a row that must search."""

    @staticmethod
    def one_tight_column_per_row(rng, nr, nc):
        # whole numbers: each row's own column costs 0 or 1, every other
        # column at least 3 more, so only the own column is tight
        matrix = rng.integers(4, 9, (nr, nc)).astype(float)
        own = rng.permutation(nc)[:nr]
        matrix[np.arange(nr), own] = rng.integers(0, 2, nr)
        return matrix, own

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (8, 10), (20, 26)])
    def test_exit_fires_and_agrees_with_the_oracles(self, monkeypatch, shape):
        rng = np.random.default_rng(21)
        for _ in range(10):
            matrix, own = self.one_tight_column_per_row(rng, *shape)
            a, movable, built = solve_observed(monkeypatch, matrix)
            assert movable is None and built == 0
            assert a.pairs == tuple(enumerate(own.tolist()))
            assert a.pairs == scipy_lexicographic_pairs(matrix)
            if shape[0] <= BRUTE_FORCE_MAX_ROWS and shape[1] <= BRUTE_FORCE_MAX_COLS:
                assert agree(a, brute_force_assign(matrix))

    @pytest.mark.parametrize("shape", [(2, 3), (5, 8), (8, 10), (20, 26)])
    def test_tie_heavy_matrices_take_the_full_refinement(self, monkeypatch, shape):
        rng = np.random.default_rng(22)
        nr, nc = shape
        for _ in range(10):
            # a zero row is tight on every column with v == 0: its own and
            # each free column, of which there is at least one, so the cycle
            # zero row -> D -> zero row keeps the certificate from firing
            matrix = rng.integers(0, 4, shape).astype(float)
            zero = rng.integers(nr)
            matrix[zero] = 0.0
            a, movable, built = solve_observed(monkeypatch, matrix)
            assert movable is not None and movable[zero]
            # the column adjacency is built once, and whenever a row moved
            assert built <= 1 and (built == 1 or a.pairs == sap_pairs(matrix))
            assert a.pairs == scipy_lexicographic_pairs(matrix)
            if nr <= BRUTE_FORCE_MAX_ROWS and nc <= BRUTE_FORCE_MAX_COLS:
                assert agree(a, brute_force_assign(matrix))

    @pytest.mark.parametrize("tied", [False, True], ids=["unique", "tied"])
    def test_adjacency_only_for_ties(self, monkeypatch, tied):
        # a corpus-sized matrix whose warm start matches every row; the tied
        # variant gives row 0 a second minimum in a free column, a cycle
        # row 0 -> D -> row 0, but row 0 already holds the smaller column
        matrix = np.array([[0.1, 0.9, 0.8, 0.7, 0.9, 0.6],
                           [0.8, 0.2, 0.9, 0.9, 0.7, 0.8],
                           [0.9, 0.8, 0.3, 0.9, 0.9, 0.7],
                           [0.7, 0.9, 0.8, 0.1, 0.6, 0.9]])
        if tied:
            matrix[0, 5] = 0.1

        a, movable, built = solve_observed(monkeypatch, matrix)
        assert a.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))
        assert built == 0
        if tied:
            assert movable.tolist() == [True, False, False, False]
        else:
            assert movable is None


class TestUniquenessCertificate:
    """`_movable_rows`: with no cycle in the owner digraph the incumbent is
    the only optimum and is returned with no search state built; a cycle
    among real rows, or one through D alone, lets the search run."""

    @pytest.mark.parametrize("matrix", [
        [[0, 0], [1, 0]],                      # row 0 -> row 1, no way back
        [[0.1, 0.1], [0.3, 0.1]],
        [[0, 0, 1], [1, 0, 1]],                # D -> both rows, nothing into D
        [[0.0, 0.0, 0.1], [0.1, 0.0, 0.1]],
    ], ids=["integers", "floats", "integers-free-column", "floats-free-column"])
    def test_fires_on_small_unique_optima(self, monkeypatch, matrix):
        matrix = np.array(matrix, dtype=float)
        a, movable, built = solve_observed(monkeypatch, matrix)
        assert movable is not None and not movable.any() and built == 0
        assert a.pairs == sap_pairs(matrix)
        assert agree(a, brute_force_assign(matrix))

    @pytest.mark.parametrize("matrix", [
        lambda: np.random.default_rng(0).uniform(0, 1, (100, 120)),
        lambda: np.random.default_rng(2).uniform(0, 10, (300, 300)),
        lambda: np.random.default_rng(3).integers(0, 10**6, (30, 40)).astype(float),
    ], ids=["floats-100x120", "floats-300x300", "wide-integers-30x40"])
    def test_fires_on_large_unique_optima(self, monkeypatch, matrix):
        m = matrix()
        a, movable, built = solve_observed(monkeypatch, m)
        # more than one tight edge in some row, yet no cycle
        assert movable is not None and not movable.any() and built == 0
        assert a.pairs == sap_pairs(m)
        if (m == np.round(m)).all():
            assert a.pairs == scipy_lexicographic_pairs(m)

    def test_declines_on_a_cycle_among_real_rows(self, monkeypatch):
        # square, so there is no D: rows 0, 1 and 2 can rotate their columns
        matrix = np.array([[1, 2, 2], [0, 0, 2], [3, 2, 3]], dtype=float)
        assert sap_pairs(matrix) == ((0, 2), (1, 0), (2, 1))
        a, movable, built = solve_observed(monkeypatch, matrix)
        assert movable.tolist() == [True, True, True] and built == 1
        assert a.pairs == ((0, 0), (1, 1), (2, 2)) and a.total_cost == 4.0
        assert a.pairs == scipy_lexicographic_pairs(matrix)
        assert agree(a, brute_force_assign(matrix))

    def test_declines_on_a_cycle_only_through_the_dummies(self, monkeypatch):
        # row 0 is tight on the free column 0 (row 0 -> D), the dummies on
        # row 1's column 2 (D -> row 1), and row 1 on row 0's column 1; among
        # the real rows alone there is no cycle
        matrix = np.array([[2, 1, 3], [3, 0, 1]], dtype=float)
        assert sap_pairs(matrix) == ((0, 1), (1, 2))
        col4row, u, v = _sap_solve(matrix)
        tight = assignment._tight_edges(matrix, TestWarmStartTightEdges.tau_of(matrix),
                                        col4row, u, v)
        assert tight[:, col4row].tolist() == [[True, False], [True, True]]   # row 1 -> row 0
        a, movable, built = solve_observed(monkeypatch, matrix)
        assert movable.tolist() == [True, True] and built == 1
        assert a.pairs == ((0, 0), (1, 1)) and a.total_cost == 2.0
        assert a.pairs == scipy_lexicographic_pairs(matrix)
        assert agree(a, brute_force_assign(matrix))

    def test_rows_off_every_cycle_keep_their_columns(self, monkeypatch):
        # row 0 is tight on column 0, held by row 1, but reaches no cycle:
        # it is skipped, while rows 2 and 3 swap columns 1 and 2
        matrix = np.array([[0, 1, 2, 0, 2], [0, 3, 2, 1, 2],
                           [2, 0, 1, 0, 1], [1, 0, 1, 3, 1]], dtype=float)
        assert sap_pairs(matrix) == ((0, 3), (1, 0), (2, 2), (3, 1))
        a, movable, built = solve_observed(monkeypatch, matrix)
        assert movable.tolist() == [False, False, True, True] and built == 1
        assert a.pairs == ((0, 3), (1, 0), (2, 1), (3, 2))
        assert a.pairs == scipy_lexicographic_pairs(matrix)
        assert agree(a, brute_force_assign(matrix))


def solved_past_the_certificate(matrix) -> tuple:
    """(pairs, total) of the solve that runs when `hungarian`'s row-minimum
    certificate declines: `_sap_solve`, `_lexicographic_pairs`, then the SAP
    solution kept only when it is strictly cheaper in `_pairs_total`."""
    cost, abs_max = assignment._as_cost_matrix(matrix)
    col4row, u, v = _sap_solve(cost)
    refined = assignment._lexicographic_pairs(cost, abs_max, col4row, u, v)
    solved = tuple(enumerate(col4row.tolist()))
    total = _pairs_total(cost, refined)
    if refined == solved or total <= _pairs_total(cost, solved):
        return refined, total
    return solved, _pairs_total(cost, solved)


def row_minima_certified(matrix) -> bool:
    """The certificate's test, written out: distinct row argmins, and exactly
    one entry per row within tau of its row minimum."""
    cost = np.asarray(matrix, dtype=np.float64)
    tau = TestWarmStartTightEdges.tau_of(cost)
    return (len(set(cost.argmin(axis=1).tolist())) == cost.shape[0]
            and np.count_nonzero(cost - cost.min(axis=1)[:, None] <= tau) == cost.shape[0])


@st.composite
def certificate_matrices(draw):
    """Small floats, tenths or the integers 0..2, up to 6x8, with up to two
    entries set one ULP above their row's minimum: ties within tau that are
    not exact, where only the refinement's total decides the pair list."""
    elements = draw(st.sampled_from([st.floats(0.0, 2.0), st.integers(0, 10).map(lambda k: k / 10),
                                     st.integers(0, 2).map(float)]))
    nr = draw(st.integers(1, 6))
    matrix = draw(arrays(np.float64, (nr, draw(st.integers(nr, 8))), elements=elements))
    for r, c in draw(st.lists(st.tuples(st.integers(0, nr - 1),
                                        st.integers(0, matrix.shape[1] - 1)), max_size=2)):
        matrix[r, c] = np.nextafter(matrix[r].min(), np.inf)
    return matrix


class TestRowMinimumCertificate:
    """`hungarian` returns the row-minimum assignment before any solve when its
    argmins are distinct and each row has one entry within tau of its minimum;
    the pairs and total are those of the full solve, bit for bit."""

    @staticmethod
    def spy_sap(monkeypatch) -> list:
        calls = []
        real = assignment._sap_solve

        def spy(cost):
            calls.append(cost.shape)
            return real(cost)

        monkeypatch.setattr(assignment, "_sap_solve", spy)
        return calls

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(certificate_matrices())
    def test_equals_the_solve_it_skips(self, matrix):
        a = hungarian(matrix)
        pairs, total = solved_past_the_certificate(matrix)
        assert a.pairs == pairs and a.total_cost.hex() == total.hex()

    def test_the_property_meets_every_outcome(self):
        # the property's strategy, drawn as often: the certificate accepts,
        # declines, and declines on a tie within tau alone
        outcomes = []

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(certificate_matrices())
        def record(matrix):
            exact_ties = np.count_nonzero(matrix == matrix.min(axis=1)[:, None])
            distinct = len(set(matrix.argmin(axis=1).tolist())) == matrix.shape[0]
            outcomes.append("accepts" if row_minima_certified(matrix) else
                            "within-tau" if distinct and exact_ties == matrix.shape[0] else
                            "declines")

        record()
        assert min(outcomes.count(k) for k in ("accepts", "within-tau", "declines")) >= 10

    @pytest.mark.parametrize("config", ["small.json", "swap.json"])
    def test_fires_on_every_corpus_matrix(self, monkeypatch, config):
        cfg = _load_run_config(CONFIG_DIR / config)
        corpus = synth.generate_corpus(cfg["scene"], cfg["noise"], cfg["clips"], cfg["seed"])
        weights = LossWeights()
        expected = [(global_instance_assignment(c.gt, c.pred, weights),
                     locpro_assignment(c.gt, c.pred, weights)) for c in corpus.clips]
        sap_calls, solved = self.spy_sap(monkeypatch), []
        real = assignment.hungarian

        def counted(matrix):
            solved.append(np.shape(matrix))
            return real(matrix)

        monkeypatch.setattr(assignment, "hungarian", counted)
        for clip, (gia, locpro) in zip(corpus.clips, expected):
            assert global_instance_assignment(clip.gt, clip.pred, weights) == gia
            assert locpro_assignment(clip.gt, clip.pred, weights) == locpro
        # one GIA matrix per clip and at least one locpro stage
        assert len(solved) >= 2 * len(corpus.clips) and sap_calls == []

    def test_declines_on_a_tie_within_tau(self, monkeypatch):
        # row 0's minimum 1.0 has a runner-up one ULP above it in column 0.
        # The refinement moves row 0 there, and its total 1 + 2**-52 + 2 rounds
        # to 3.0, the row minima's own total, so the smaller pair list wins
        matrix = np.array([[1.0 + 2.0 ** -52, 1.0, 5.0], [5.0, 5.0, 2.0]])
        assert matrix.argmin(axis=1).tolist() == [1, 2]
        sap_calls = self.spy_sap(monkeypatch)
        a = hungarian(matrix)
        assert sap_calls == [(2, 3)]
        assert a.pairs == ((0, 0), (1, 2)) and a.total_cost == 3.0
        assert agree(a, brute_force_assign(matrix))

    def test_declines_on_a_shared_argmin(self, monkeypatch):
        matrix = np.array([[0.1, 0.5, 0.9], [0.2, 0.7, 0.9]])
        sap_calls = self.spy_sap(monkeypatch)
        a = hungarian(matrix)
        assert sap_calls == [(2, 3)]
        assert a.pairs == ((0, 1), (1, 0)) and a.total_cost == 0.5 + 0.2
        assert agree(a, brute_force_assign(matrix))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 30).flatmap(lambda nr: st.tuples(st.just(nr), st.integers(nr, 40)))
       .flatmap(lambda shape: st.sampled_from([(0, 2), (0, 10**6)]).flatmap(
           lambda bounds: arrays(np.int64, shape, elements=st.integers(*bounds)))))
def test_lexicographic_rule_on_integer_matrices(matrix):
    # entries from 0..2 tie heavily; from 0..10**6 the optimum is mostly unique
    matrix = matrix.astype(np.float64)
    assert hungarian(matrix).pairs == scipy_lexicographic_pairs(matrix)


class TestWarmStartTightEdges:
    """While v == 0 the duals are still the warm start's, and `_tight_edges`
    reads the tight set off cost - u alone, without `- v` or the forced
    matched edges. It must equal the full formula either way."""

    @staticmethod
    def full_formula(cost, tau, col4row, u, v):
        tight = (cost - u[:, None] - v[None, :]) <= tau
        tight[np.arange(cost.shape[0]), col4row] = True
        return tight

    @staticmethod
    def tau_of(cost):
        return (assignment._TAU_FACTOR * max(1.0, float(np.abs(cost).max()))
                * max(cost.shape[0], 4))

    def test_search_that_lowers_no_v(self):
        # rectangular, so no column is reduced; every matched row's runner-up
        # ties its minimum, so the reduction transfer moves no v either
        matrix = np.array([[1.0, 1.0, 2.0, 3.0],
                           [1.0, 3.0, 1.0, 3.0],
                           [1.0, 3.0, 1.0, 2.0]])
        col4row, u, v = _sap_solve(matrix)
        # row 2's two minima are held by rows 0 and 1; the row reduction
        # passes only trade column 2 between rows 2 and 1 at tied costs, and
        # the search moves row 0 to column 1 at distance 0 for row 2
        assert col4row.tolist() == [1, 2, 0]
        assert (u == matrix.min(axis=1)).all() and (v == 0.0).all()
        a = hungarian(matrix)
        assert a.pairs == ((0, 1), (1, 0), (2, 2)) and a.total_cost == 3.0
        assert agree(a, brute_force_assign(matrix))

    # whole numbers up to 8 on three rows, so tau = 64 eps * 8 * 4 = 2**-41;
    # one entry, row `row`'s runner-up in the free column 0, is set per case
    BOUNDARY = {
        # distinct row minima: the warm start alone solves it
        "warm": ([[0, 8, 0, 5, 6],
                  [7, 3, 6, 0, 4],
                  [5, 6, 7, 2, 0]], 0, ((0, 2), (1, 3), (2, 4)), 0.0),
        # rows 0 and 1 share their minimum column: the row reduction lowers
        # v[2], and the reduction transfer moves row 2's runner-up gap into v[5]
        "search": ([[8, 8, 0, 8, 1, 8],
                    [8, 8, 1, 3, 8, 8],
                    [0, 8, 8, 8, 8, 0]], 2, ((0, 4), (1, 2), (2, 5)), 2.0),
    }

    @pytest.mark.parametrize("side", [-1, 0, 1], ids=["inside-tau", "at-tau", "outside-tau"])
    @pytest.mark.parametrize("name", sorted(BOUNDARY))
    def test_runner_up_at_the_tau_boundary(self, monkeypatch, name, side):
        rows, row, pairs, total = self.BOUNDARY[name]
        matrix = np.array(rows, dtype=float)
        tau = self.tau_of(matrix)
        assert tau == 2.0 ** -41
        matrix[row, 0] = tau * (1 + side * 2.0 ** -20)   # u[row] == 0 and v[0] == 0

        col4row, u, v = _sap_solve(matrix)
        assert bool(v.any()) == (name == "search")
        tight = assignment._tight_edges(matrix, tau, col4row, u, v)
        assert np.array_equal(tight, self.full_formula(matrix, tau, col4row, u, v))
        if name == "warm":
            assert tight[row, 0] == (side <= 0)
        else:
            # v[5] = -matrix[2, 0] makes row 2 tight on column 0 on every
            # side; the boundary sits in the dummy rows' v >= -tau instead
            assert col4row[row] == 5 and tight[row, 0]
            assert (v[5] >= -tau) == (side <= 0)

        a, movable, built = solve_observed(monkeypatch, matrix)
        assert a.pairs == pairs and a.total_cost == total
        assert agree(a, brute_force_assign(matrix))
        # the one non-integer entry is 2**-41 off an integer sum, so the
        # oracle's equality tests stay exact
        assert a.pairs == scipy_lexicographic_pairs(matrix)
        if name == "warm":
            # only a runner-up within tau gives a row a second tight edge: a
            # cycle row 0 -> D -> row 0, and a search that finds the cheaper
            # pairs' refinement one tau dearer, which `hungarian` then refuses
            assert (movable is not None) == (side <= 0)
            assert built == (1 if side <= 0 else 0)

    def test_equals_the_full_formula(self):
        rng = np.random.default_rng(31)
        matrices = list(_sap_cases().values())
        for k in range(2000):
            nr = int(rng.integers(1, 9))
            shape = (nr, int(rng.integers(nr, 12)))
            if k % 4 == 0:
                matrices.append(rng.uniform(0, 1, shape))
            elif k % 4 == 1:
                matrices.append(rng.integers(0, 4, shape).astype(float))
            elif k % 4 == 2:
                matrices.append(rng.integers(-3, 4, shape) * 0.1)
            else:
                # a distinct cheap column per row, as on the swap corpus
                m = rng.uniform(0.5, 1, shape)
                m[np.arange(nr), rng.permutation(shape[1])[:nr]] = rng.uniform(0, 0.4, nr)
                matrices.append(m)
        warm = 0
        for cost in matrices:
            col4row, u, v = _sap_solve(cost)
            tau = self.tau_of(cost)
            assert np.array_equal(assignment._tight_edges(cost, tau, col4row, u, v),
                                  self.full_formula(cost, tau, col4row, u, v))
            warm += not v.any()
        # both branches ran many times
        assert 500 < warm < len(matrices) - 500


class TestSolverResults:
    """The solvers build their `Assignment`s from Python ints and floats, so
    the constructor's normalisation is skipped; the results must still be
    what the public constructor would make."""

    def test_pairs_are_python_ints_and_the_total_a_float(self):
        rng = np.random.default_rng(32)
        gts, preds = random_tracks(rng)
        matrix = rng.integers(0, 4, (3, 5)).astype(float)
        results = [hungarian(matrix), brute_force_assign(matrix), hungarian(np.zeros((0, 3))),
                   brute_force_assign(np.zeros((0, 3))),
                   global_instance_assignment(gts, preds, LossWeights()),
                   locpro_assignment(gts, preds, LossWeights())]
        for a in results:
            assert type(a.pairs) is tuple and type(a.total_cost) is float
            assert all(type(p) is tuple and [type(x) for x in p] == [int, int] for p in a.pairs)
            assert a == Assignment(pairs=list(a.pairs), total_cost=a.total_cost)


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
        # square: the columns are reduced first, so v may end positive
        "square uniform floats": rng.uniform(0, 10, (40, 40)),
        "square tie-heavy integers": rng.integers(0, 4, (40, 40)).astype(float),
        "square constant": np.full((20, 20), 2.5),
        "square 1x1": np.array([[-1.5]]),
        "square all equal": np.full((3, 3), 7.0),
    }


class TestSapDuals:
    @pytest.mark.parametrize("name", sorted(_sap_cases()))
    def test_duals_certify_the_matching(self, name):
        cost = _sap_cases()[name]
        col4row, u, v = _sap_solve(cost)
        nr, nc = cost.shape
        tol = 1e-9 * max(1.0, float(np.abs(cost).max()))
        assert len(set(col4row.tolist())) == nr
        assert np.isfinite(u).all() and np.isfinite(v).all()
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -tol
        assert np.abs(reduced[np.arange(nr), col4row]).max() <= tol
        if nr < nc:
            # what `_lexicographic_pairs`' zero-cost dummy rows rely on
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

    def test_ranks_by_the_left_to_right_pair_sum(self):
        # numpy's row sum adds 8 entries pairwise; on this matrix that ranks
        # an injection first whose left-to-right total is 0.9, not the least
        matrix = np.random.default_rng(8).choice([0.1, 0.2, 0.3], (8, 8)).tolist()
        best = min(itertools.permutations(range(8)),
                   key=lambda cols: sum(matrix[r][c] for r, c in enumerate(cols)))
        a = brute_force_assign(matrix)
        assert a.pairs == tuple(enumerate(best))
        assert a.total_cost == sum(matrix[r][c] for r, c in enumerate(best)) == 0.8999999999999999

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

    def test_rejects_a_repeated_index(self):
        rng = np.random.default_rng(12)
        gts, preds = random_tracks(rng, n_gt=1, n_slots=2)
        with pytest.raises(ValueError, match=r"\(0, 1\) repeats an index"):
            assignment_total_global_cost(Assignment(pairs=[(0, 1), (0, 1)], total_cost=0.0),
                                         gts, preds, LossWeights())


class TestSapGoldenDigests:
    """The solver's arithmetic is pinned: sha256 over the bytes of
    `_sap_solve`'s (col4row, u, v) on seeded matrices. A change to the
    order or form of its float operations shows here as a changed digest."""

    @pytest.mark.parametrize("matrix, digest", [
        (lambda: np.random.default_rng(0).uniform(0, 1, (100, 120)),
         "ab9968cbc17651041f4c2801a5f4879952f761a6ae1454da5dc957f94b4d3849"),
        (lambda: np.random.default_rng(1).integers(0, 4, (100, 120)).astype(np.float64),
         "c7c0359e384de69385462a8295688c36600a83a4466b13aa41f3e6be98183ba9"),
        (lambda: np.random.default_rng(2).uniform(0, 1, (300, 300)),
         "68467bf85af4ae33de46b8ae376f436c6e3f6a395c9117f76167cb618e493605"),
    ], ids=["floats-100x120", "integers0..3-100x120", "floats-300x300"])
    def test_solution_bytes(self, matrix, digest):
        col4row, u, v = _sap_solve(matrix())
        assert col4row.dtype == np.int64
        h = hashlib.sha256()
        for part in (col4row, u, v):
            h.update(np.ascontiguousarray(part).tobytes())
        assert h.hexdigest() == digest


class TestHungarianGoldenDigests:
    """The returned matchings are pinned: sha256 over `hungarian`'s pairs and
    `total_cost.hex()` on seeded large matrices, so a change to the solver's
    start or search that picks another optimum, or rounds the total
    differently, shows here."""

    @pytest.mark.parametrize("matrix, digest", [
        (lambda: np.random.default_rng(0).uniform(0, 1, (300, 300)),
         "7c4800687b1ad9240fb7b346cff488b892ee832227be09c07febaad57420641e"),
        (lambda: np.random.default_rng(1).integers(0, 4, (300, 300)).astype(np.float64),
         "8eebbd29311b99c63a0d647db552f85a12a7c1c1c00390a43dc841f8dd7ea5ff"),
        (lambda: np.random.default_rng(2).integers(0, 2, (400, 400)).astype(np.float64),
         "f2e2f9e515f51cf0a86ce319356bf4296010cb510ae99e6c14461d908da93d41"),
    ], ids=["floats-300x300", "integers0..3-300x300", "zeros-ones-400x400"])
    def test_pairs_and_total(self, matrix, digest):
        a = hungarian(matrix())
        h = hashlib.sha256(repr(a.pairs).encode())
        h.update(a.total_cost.hex().encode())
        assert h.hexdigest() == digest
