import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tcovis import assignment
from tcovis.cost import (LossWeights, _sigmoid, average_class_prob, bce_cost, ce_cost,
                         dice_cost, frame_matching_cost, global_matching_cost,
                         mask_loss_grad, matching_cost_matrix, overall_loss)
from tcovis.model import Assignment, GroundTruthTrack, PredictionTrack

EPS = 1e-12


def random_pair(rng, T=3, h=6, w=6, K=3):
    masks = (rng.random((T, h, w)) < 0.4).astype(np.uint8)
    masks[0, 0, 0] = 1
    gt = GroundTruthTrack(class_id=int(rng.integers(K)), masks=masks)
    probs = rng.random((T, K + 1))
    probs /= probs.sum(axis=1, keepdims=True)
    pred = PredictionTrack(class_probs=probs, mask_probs=rng.random((T, h, w)))
    return gt, pred


def perfect_pred(gt, K, sharpness=40.0):
    T = gt.masks.shape[0]
    probs = np.zeros((T, K + 1))
    probs[:, gt.class_id] = 1.0
    logits = sharpness * (2.0 * gt.masks.astype(float) - 1.0)
    return PredictionTrack(class_probs=probs, mask_probs=1.0 / (1.0 + np.exp(-logits)))


# -- oracles -----------------------------------------------------------------

def bce_oracle(y, p):
    """Naive per-cell double loop over the flattened stack."""
    y = np.asarray(y, float).ravel()
    p = np.asarray(p, float).ravel()
    total = 0.0
    for yi, pi in zip(y, p):
        total += -(yi * math.log(min(pi + EPS, 1.0))
                   + (1 - yi) * math.log(min(1 - pi + EPS, 1.0)))
    return total / y.size


def dice_oracle(y, p):
    y = np.asarray(y, float).ravel()
    p = np.asarray(p, float).ravel()
    inter = sum(yi * pi for yi, pi in zip(y, p))
    return 1.0 - (2.0 * inter + 1.0) / (sum(y) + sum(p) + 1.0)


# -- the primitives against their textbook forms -----------------------------

class TestTextbookForms:
    """``bce_cost`` and ``dice_cost`` sum a base term plus the cells where
    y != 0, in the kernel's order. Their plain forms, with the same log
    clamp, are independent of that order."""

    @pytest.mark.parametrize("soft", [False, True], ids=["binary", "soft"])
    def test_primitives_match_textbook_forms(self, soft):
        rng = np.random.default_rng(42)
        for _ in range(40):
            shape = tuple(int(n) for n in rng.integers(1, 12, size=3))
            if soft:
                y = rng.random(shape)
                y[rng.random(shape) < 0.2] = 0.0
                y[rng.random(shape) < 0.1] = 1.0
            else:
                y = (rng.random(shape) < rng.random()).astype(float)
            p = rng.random(shape)
            cut = rng.random(shape)
            p[cut < 0.1] = 0.0
            p[cut > 0.9] = 1.0
            A = -np.log(np.minimum(p + EPS, 1.0))
            B = -np.log(np.minimum(1.0 - p + EPS, 1.0))
            assert bce_cost(y, p) == pytest.approx(np.mean(y * A + (1 - y) * B), rel=1e-12)
            dice = 1 - (2 * np.sum(y * p) + 1) / (np.sum(y) + np.sum(p) + 1)
            assert dice_cost(y, p) == pytest.approx(dice, rel=1e-12)


# -- average_class_prob ------------------------------------------------------

class TestAverageClassProb:
    def test_identical_frames(self):
        v = np.array([0.2, 0.3, 0.5])
        pred = PredictionTrack(class_probs=np.tile(v, (4, 1)),
                               mask_probs=np.zeros((4, 2, 2)))
        assert np.allclose(average_class_prob(pred), v)

    def test_two_frame_mean(self):
        pred = PredictionTrack(class_probs=np.array([[1.0, 0, 0], [0, 1.0, 0]]),
                               mask_probs=np.zeros((2, 2, 2)))
        assert np.allclose(average_class_prob(pred), [0.5, 0.5, 0.0])

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        _, pred = random_pair(rng)
        expected = sum(pred.class_probs[t] for t in range(3)) / 3
        assert np.allclose(average_class_prob(pred), expected, atol=1e-12)

    def test_mean_still_sums_to_one(self):
        rng = np.random.default_rng(6)
        _, pred = random_pair(rng, T=5)
        assert abs(average_class_prob(pred).sum() - 1.0) < 1e-9


# -- scalar costs ------------------------------------------------------------

class TestCeCost:
    def test_perfect_prediction_is_zero(self):
        assert ce_cost(0, np.array([1.0, 0.0, 0.0])) == 0.0

    def test_half_probability(self):
        assert ce_cost(1, np.array([0.5, 0.5, 0.0])) == pytest.approx(math.log(2), rel=1e-9)

    def test_uniform_over_four(self):
        assert ce_cost(3, np.full(4, 0.25)) == pytest.approx(math.log(4), rel=1e-9)

    def test_zero_probability_is_finite(self):
        value = ce_cost(0, np.array([0.0, 1.0]))
        assert value == pytest.approx(-math.log(EPS))

    def test_rejects_out_of_range_class(self):
        with pytest.raises(ValueError, match="out of range"):
            ce_cost(3, np.array([0.5, 0.5, 0.0]))


class TestBceCost:
    def test_perfect_prediction(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert 0.0 <= bce_cost(y, y) <= 1e-10

    def test_binary_prediction_equal_to_the_ground_truth_is_nonnegative(self):
        # the sum over every cell and the sum over the positive cells round
        # apart: unclamped, about 1 in 20 of these reads a few ULPs below 0
        rng = np.random.default_rng(41)
        for _ in range(200):
            y = (rng.random(int(rng.integers(1, 400))) < rng.random()).astype(float)
            assert 0.0 <= bce_cost(y, y) <= 1e-10

    def test_uniform_guess_on_empty_gt(self):
        y = np.zeros((2, 3, 3))
        p = np.full((2, 3, 3), 0.5)
        assert bce_cost(y, p) == pytest.approx(math.log(2), rel=1e-9)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            y = (rng.random((2, 4, 4)) < 0.5).astype(float)
            p = rng.random((2, 4, 4))
            assert bce_cost(y, p) == pytest.approx(bce_oracle(y, p), abs=1e-9)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            bce_cost(np.zeros((2, 2)), np.zeros((3, 2)))


class TestDiceCost:
    def test_identical_masks(self):
        y = np.zeros((4, 10, 10))
        y[:, :5, :5] = 1.0  # |gt| = 100
        assert dice_cost(y, y) == 0.0

    def test_disjoint_masks(self):
        y = np.zeros(100)
        p = np.zeros(100)
        y[:50] = 1.0
        p[50:] = 1.0
        assert dice_cost(y, p) == pytest.approx(1.0 - 1.0 / 101.0, abs=1e-12)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            y = (rng.random((2, 5, 5)) < 0.5).astype(float)
            p = rng.random((2, 5, 5))
            assert dice_cost(y, p) == pytest.approx(dice_oracle(y, p), abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            y = (rng.random((2, 5, 5)) < rng.uniform(0, 1)).astype(float)
            p = rng.random((2, 5, 5))
            assert 0.0 <= dice_cost(y, p) <= 1.0


class TestGroundTruthRange:
    """`bce_cost`, `dice_cost` and `mask_loss_grad` take soft ground truths in
    [0, 1] and refuse any other entry, NaN included, by name."""

    @staticmethod
    def calls(y, p):
        return {"bce_cost": lambda: bce_cost(y, p), "dice_cost": lambda: dice_cost(y, p),
                "mask_loss_grad": lambda: mask_loss_grad(y, np.full(np.shape(y), -40.0),
                                                         LossWeights())}

    @pytest.mark.parametrize("bad", [1e300, -3.0, math.nextafter(1.0, 2.0), -0.5e-300,
                                     math.inf, math.nan])
    @pytest.mark.parametrize("name", ["bce_cost", "dice_cost", "mask_loss_grad"])
    def test_entry_outside_the_unit_interval_is_refused(self, name, bad):
        y = np.array([[0.0, 0.25], [1.0, bad]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^ground-truth mask entries must be in "
                                                 r"\[0, 1\], got "):
                self.calls(y, np.full(y.shape, 0.5))[name]()

    def test_the_cases_that_misbehaved(self):
        with pytest.raises(ValueError, match=r"got 1e\+300$"):
            mask_loss_grad(np.full((1, 1), 1e300), np.full((1, 1), -40.0), LossWeights())
        with pytest.raises(ValueError, match=r"got 1e\+300$"):
            bce_cost(np.full((1, 1), 1e300), np.zeros((1, 1)))
        with pytest.raises(ValueError, match=r"got -3\.0$"):
            dice_cost(np.full((1, 1), -3.0), np.full((1, 1), 0.5))

    @pytest.mark.parametrize("name", ["bce_cost", "dice_cost", "mask_loss_grad"])
    def test_soft_ground_truths_and_the_edges_are_taken(self, name):
        y = np.array([[0.0, -0.0], [1.0, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(self.calls(y, np.full(y.shape, 0.5))[name]()).all()


# -- composite costs ---------------------------------------------------------

class TestFrameMatchingCost:
    def test_perfect_prediction_near_zero(self):
        rng = np.random.default_rng(10)
        gt, _ = random_pair(rng)
        pred = perfect_pred(gt, K=3)
        assert frame_matching_cost(gt, pred, 0, LossWeights(3, 7, 2)) < 1e-6

    def test_cls_only_weights(self):
        rng = np.random.default_rng(11)
        gt, pred = random_pair(rng)
        w = LossWeights(lambda_cls=1.0, lambda_bce=0.0, lambda_dice=0.0)
        assert frame_matching_cost(gt, pred, 1, w) == pytest.approx(
            ce_cost(gt.class_id, pred.class_probs[1]), abs=1e-12)

    def test_matches_hand_summed_components(self):
        rng = np.random.default_rng(12)
        gt, pred = random_pair(rng)
        w = LossWeights(2.0, 5.0, 5.0)
        t = 2
        expected = (2.0 * ce_cost(gt.class_id, pred.class_probs[t])
                    + 5.0 * bce_cost(gt.masks[t], pred.mask_probs[t])
                    + 5.0 * dice_cost(gt.masks[t], pred.mask_probs[t]))
        assert frame_matching_cost(gt, pred, t, w) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_frame_index(self):
        rng = np.random.default_rng(13)
        gt, pred = random_pair(rng)
        with pytest.raises(ValueError, match="frame index"):
            frame_matching_cost(gt, pred, 3, LossWeights())


class TestGlobalMatchingCost:
    def test_perfect_prediction_near_zero(self):
        rng = np.random.default_rng(14)
        gt, _ = random_pair(rng)
        assert global_matching_cost(gt, perfect_pred(gt, K=3), LossWeights()) < 1e-6

    def test_single_frame_equals_frame_cost(self):
        rng = np.random.default_rng(15)
        gt, pred = random_pair(rng, T=1)
        w = LossWeights(2.0, 5.0, 5.0)
        assert global_matching_cost(gt, pred, w) == pytest.approx(
            frame_matching_cost(gt, pred, 0, w), abs=1e-12)

    def test_matches_component_oracle(self):
        rng = np.random.default_rng(16)
        gt, pred = random_pair(rng)
        w = LossWeights(2.0, 5.0, 5.0)
        expected = (2.0 * ce_cost(gt.class_id, average_class_prob(pred))
                    + 5.0 * bce_oracle(gt.masks, pred.mask_probs)
                    + 5.0 * dice_oracle(gt.masks, pred.mask_probs))
        assert global_matching_cost(gt, pred, w) == pytest.approx(expected, abs=1e-9)

    def test_frame_permutation_covariance(self):
        rng = np.random.default_rng(17)
        gt, pred = random_pair(rng, T=4)
        w = LossWeights(2.0, 5.0, 5.0)
        perm = rng.permutation(4)
        gt2 = GroundTruthTrack(class_id=gt.class_id, masks=gt.masks[perm])
        pred2 = PredictionTrack(class_probs=pred.class_probs[perm],
                                mask_probs=pred.mask_probs[perm])
        assert global_matching_cost(gt, pred, w) == pytest.approx(
            global_matching_cost(gt2, pred2, w), abs=1e-9)

    def test_weight_linearity_per_term(self):
        rng = np.random.default_rng(18)
        gt, pred = random_pair(rng)
        for base in (LossWeights(1, 0, 0), LossWeights(0, 1, 0), LossWeights(0, 0, 1)):
            scaled = LossWeights(3 * base.lambda_cls, 3 * base.lambda_bce,
                                 3 * base.lambda_dice)
            assert global_matching_cost(gt, pred, scaled) == pytest.approx(
                3.0 * global_matching_cost(gt, pred, base), rel=1e-12)

    def test_costs_nonnegative_and_finite(self):
        rng = np.random.default_rng(19)
        w = LossWeights()
        for _ in range(25):
            gt, pred = random_pair(rng)
            value = global_matching_cost(gt, pred, w)
            assert np.isfinite(value) and value >= 0.0


def direct_cost(gt, pred, w, frame=None):
    """The matching cost of one pair, composed from the three primitives."""
    if frame is None:
        return (w.lambda_cls * ce_cost(gt.class_id, average_class_prob(pred))
                + w.lambda_bce * bce_cost(gt.masks, pred.mask_probs)
                + w.lambda_dice * dice_cost(gt.masks, pred.mask_probs))
    return (w.lambda_cls * ce_cost(gt.class_id, pred.class_probs[frame])
            + w.lambda_bce * bce_cost(gt.masks[frame], pred.mask_probs[frame])
            + w.lambda_dice * dice_cost(gt.masks[frame], pred.mask_probs[frame]))


def bits(values):
    """float64 bit patterns, which tell 0.0 from -0.0 where ``==`` does not."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def saturated_tracks(rng, n_gt, n_slots, T, h, w, K=3):
    """Random tracks whose soft masks and class vectors hold exact 0.0 and
    1.0 entries, one slot copying a ground-truth stack, and ground truth
    with empty frames."""
    gts = []
    for _ in range(n_gt):
        masks = (rng.random((T, h, w)) < rng.uniform(0.1, 0.6)).astype(np.uint8)
        masks[rng.random(T) < 0.3] = 0
        gts.append(GroundTruthTrack(class_id=int(rng.integers(K)), masks=masks))
    preds = []
    for s in range(n_slots):
        probs = rng.random((T, K + 1))
        probs[rng.random((T, K + 1)) < 0.2] = 0.0
        probs[probs.sum(axis=1) == 0.0, K] = 1.0
        probs[0] = np.eye(K + 1)[s % (K + 1)]
        probs /= probs.sum(axis=1, keepdims=True)
        soft = rng.random((T, h, w))
        cut = rng.random((T, h, w))
        soft[cut < 0.2] = 0.0
        soft[cut > 0.8] = 1.0
        if s == 0:
            soft = gts[0].masks.astype(np.float64)
        preds.append(PredictionTrack(class_probs=probs, mask_probs=soft))
    return gts, preds


class TestMatchingCostMatrix:
    # 1, 30, 432 and 8192 cells: below, inside and across numpy's
    # pairwise-summation blocks
    @pytest.mark.parametrize("T, h, w", [(1, 1, 1), (2, 3, 5), (3, 12, 12), (8, 32, 32)])
    def test_bit_identical_to_primitives(self, T, h, w):
        rng = np.random.default_rng(T * h * w)
        gts, preds = saturated_tracks(rng, n_gt=3, n_slots=5, T=T, h=h, w=w)
        for weights in (LossWeights(), LossWeights(1.3, 4.7, 0.9)):
            for frame in [None, *range(T)]:
                matrix = matching_cost_matrix(gts, preds, weights, frame=frame)
                assert matrix.shape == (3, 5)
                expected = [[direct_cost(gt, pred, weights, frame) for pred in preds]
                            for gt in gts]
                np.testing.assert_array_equal(bits(matrix), bits(expected))

    # cell counts straddle numpy's pairwise-summation thresholds of 8 and
    # 128, whole clip (T*h*w) and per frame (h*w)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 64), st.integers(0, 2**32 - 1))
    @example(2, 3, 1, 1, 7, 0).via("7 cells")
    @example(2, 3, 1, 2, 4, 0).via("8 cells")
    @example(2, 3, 1, 3, 3, 0).via("9 cells")
    @example(2, 3, 1, 2, 64, 0).via("128 cells")
    @example(2, 3, 1, 3, 43, 0).via("129 cells")
    @example(2, 3, 3, 3, 43, 0).via("387 cells, 129 per frame")
    @example(2, 5, 1, 3, 5, 50).via("column gather over 5 slots")
    def test_every_entry_has_the_primitives_bits(self, n_gt, n_slots, T, h, w, seed):
        gts, preds = saturated_tracks(np.random.default_rng(seed), n_gt, n_slots, T, h, w)
        weights = LossWeights()
        for frame in [None, *range(T)]:
            matrix = matching_cost_matrix(gts, preds, weights, frame=frame)
            expected = [[direct_cost(gt, pred, weights, frame) for pred in preds]
                        for gt in gts]
            np.testing.assert_array_equal(bits(matrix), bits(expected))

    def test_scalar_costs_are_one_by_one_views(self):
        rng = np.random.default_rng(30)
        gts, preds = saturated_tracks(rng, n_gt=2, n_slots=3, T=3, h=4, w=5)
        w = LossWeights()
        whole = matching_cost_matrix(gts, preds, w)
        at_one = matching_cost_matrix(gts, preds, w, frame=1)
        for g, gt in enumerate(gts):
            for s, pred in enumerate(preds):
                assert bits(global_matching_cost(gt, pred, w)) == bits(whole[g, s])
                assert bits(frame_matching_cost(gt, pred, 1, w)) == bits(at_one[g, s])

    def test_locpro_stage_matrices_match_per_pair_frame_costs(self, monkeypatch):
        rng = np.random.default_rng(31)
        T = 5
        gts, preds = saturated_tracks(rng, n_gt=5, n_slots=7, T=T, h=6, w=7)
        for g, first in enumerate([0, 2, 2, 3, 0]):
            masks = np.array(gts[g].masks)
            masks[:first] = 0
            masks[first, 0, 0] = 1
            gts[g] = GroundTruthTrack(class_id=gts[g].class_id, masks=masks)
        stages = []
        real_hungarian = assignment.hungarian

        def recording_hungarian(matrix):
            result = real_hungarian(matrix)
            stages.append((np.array(matrix), result))
            return result

        monkeypatch.setattr(assignment, "hungarian", recording_hungarian)
        w = LossWeights()
        assignment.locpro_assignment(gts, preds, w)

        assert len(stages) == 3
        free = list(range(len(preds)))
        for t, (matrix, result) in zip((0, 2, 3), stages):
            rows = [g for g, gt in enumerate(gts) if np.flatnonzero(
                gt.masks.reshape(T, -1).any(axis=1))[0] == t]
            expected = [[direct_cost(gts[g], preds[s], w, frame=t) for s in free]
                        for g in rows]
            np.testing.assert_array_equal(bits(matrix), bits(expected))
            taken = [free[ci] for _, ci in result.pairs]
            free = [s for s in free if s not in taken]

    @pytest.mark.parametrize("class_id", [4, -1])
    @pytest.mark.parametrize("frame", [None, 0])
    def test_rejects_out_of_range_class(self, class_id, frame):
        rng = np.random.default_rng(32)
        gt, pred = random_pair(rng)
        bad = GroundTruthTrack(class_id=class_id, masks=gt.masks)
        message = f"gt_class {class_id} out of range for 4 classes"
        with pytest.raises(ValueError, match=message):
            ce_cost(class_id, pred.class_probs[0])
        with pytest.raises(ValueError, match=message):
            matching_cost_matrix([gt, bad], [pred], LossWeights(), frame=frame)

    @pytest.mark.parametrize("frame", [None, 0])
    def test_rejects_mask_shape_mismatch(self, frame):
        rng = np.random.default_rng(33)
        gt, pred = random_pair(rng)
        narrow = PredictionTrack(class_probs=pred.class_probs,
                                 mask_probs=pred.mask_probs[:, :, :5])
        with pytest.raises(ValueError, match="mask shapes differ"):
            matching_cost_matrix([gt], [pred, narrow], LossWeights(), frame=frame)

    @pytest.mark.parametrize("value", [0.5, 2])
    @pytest.mark.parametrize("frame", [None, 0])
    def test_rejects_non_binary_ground_truth(self, value, frame):
        rng = np.random.default_rng(36)
        gt, pred = random_pair(rng)
        masks = gt.masks.astype(np.float64)
        masks[0, 2, 3] = value
        bad = GroundTruthTrack(class_id=gt.class_id, masks=masks)
        message = "ground-truth mask entries must be 0 or 1"
        with pytest.raises(ValueError, match=message):
            matching_cost_matrix([gt, bad], [pred], LossWeights(), frame=frame)
        with pytest.raises(ValueError, match=message):
            if frame is None:
                global_matching_cost(bad, pred, LossWeights())
            else:
                frame_matching_cost(bad, pred, frame, LossWeights())

    @pytest.mark.parametrize("frame", [None, 0, 2])
    def test_binary_ground_truth_dtypes_give_the_same_bits(self, frame):
        rng = np.random.default_rng(37)
        gts, preds = saturated_tracks(rng, n_gt=3, n_slots=4, T=3, h=5, w=6)
        w = LossWeights()
        expected = [[direct_cost(gt, pred, w, frame) for pred in preds] for gt in gts]
        for dtype in (np.uint8, bool, np.float64):
            typed = [GroundTruthTrack(class_id=gt.class_id, masks=gt.masks.astype(dtype))
                     for gt in gts]
            matrix = matching_cost_matrix(typed, preds, w, frame=frame)
            np.testing.assert_array_equal(bits(matrix), bits(expected))

    @pytest.mark.parametrize("frame", [-1, 3])
    def test_rejects_frame_outside_clip(self, frame):
        rng = np.random.default_rng(34)
        gt, pred = random_pair(rng)
        message = f"frame index {frame} out of range for T=3"
        with pytest.raises(ValueError, match=message):
            frame_matching_cost(gt, pred, frame, LossWeights())
        with pytest.raises(ValueError, match=message):
            matching_cost_matrix([gt], [pred], LossWeights(), frame=frame)

    @pytest.mark.parametrize("frame", [None, 1])
    def test_empty_side_gives_empty_matrix(self, frame):
        rng = np.random.default_rng(35)
        gt, pred = random_pair(rng)
        w = LossWeights()
        assert matching_cost_matrix([], [pred, pred], w, frame=frame).shape == (0, 2)
        assert matching_cost_matrix([gt, gt, gt], [], w, frame=frame).shape == (3, 0)
        assert matching_cost_matrix([], [], w, frame=frame).shape == (0, 0)


class TestOverallLoss:
    def test_all_perfect_identity_assignment(self):
        rng = np.random.default_rng(20)
        gts = [random_pair(rng)[0] for _ in range(3)]
        preds = [perfect_pred(gt, K=3) for gt in gts]
        assignment = Assignment(pairs=[(i, i) for i in range(3)], total_cost=0.0)
        assert overall_loss(gts, preds, assignment, LossWeights()) < 1e-5

    def test_no_gt_one_confident_no_object_slot(self):
        probs = np.zeros((3, 4))
        probs[:, 3] = 1.0
        pred = PredictionTrack(class_probs=probs, mask_probs=np.zeros((3, 6, 6)))
        value = overall_loss([], [pred], Assignment(pairs=(), total_cost=0.0),
                             LossWeights())
        assert value == 0.0

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(21)
        gts = [random_pair(rng, K=3)[0] for _ in range(2)]
        preds = [random_pair(rng, K=3)[1] for _ in range(4)]
        w = LossWeights(2.0, 5.0, 5.0)
        assignment = Assignment(pairs=[(0, 2), (1, 0)], total_cost=0.0)
        expected = (global_matching_cost(gts[0], preds[2], w)
                    + global_matching_cost(gts[1], preds[0], w)
                    + w.lambda_cls * ce_cost(3, average_class_prob(preds[1]))
                    + w.lambda_cls * ce_cost(3, average_class_prob(preds[3])))
        assert overall_loss(gts, preds, assignment, w) == pytest.approx(expected, abs=1e-9)

    def test_rejects_out_of_range_pairs(self):
        rng = np.random.default_rng(22)
        gt, pred = random_pair(rng)
        with pytest.raises(ValueError, match="out of range"):
            overall_loss([gt], [pred], Assignment(pairs=[(0, 5)], total_cost=0.0),
                         LossWeights())

    def test_rejects_incomplete_coverage(self):
        rng = np.random.default_rng(23)
        gts = [random_pair(rng)[0] for _ in range(2)]
        preds = [random_pair(rng)[1] for _ in range(2)]
        with pytest.raises(ValueError, match="cover"):
            overall_loss(gts, preds, Assignment(pairs=[(0, 0)], total_cost=0.0),
                         LossWeights())

    def test_refuses_weights_whose_total_overflows(self):
        # each term is finite (1.796e308), but their sum is not
        w = LossWeights(6.5e306, 0.0, 0.0)
        gt = GroundTruthTrack(class_id=0, masks=np.ones((2, 3, 3), np.uint8))
        matched = PredictionTrack(class_probs=np.tile([0.0, 1.0], (2, 1)),
                                  mask_probs=np.ones((2, 3, 3)))
        unmatched = PredictionTrack(class_probs=np.tile([1.0, 0.0], (2, 1)),
                                    mask_probs=np.zeros((2, 3, 3)))
        assert math.isfinite(global_matching_cost(gt, matched, w))
        assert math.isfinite(w.lambda_cls * ce_cost(1, [1.0, 0.0]))
        with pytest.raises(ValueError, match=r"^loss weights lambda_cls=6\.5e\+306, lambda_bce=0\.0, "
                                             r"lambda_dice=0\.0 are too large: their overall loss "
                                             r"is not a finite float64$"):
            overall_loss([gt], [matched, unmatched, unmatched],
                         Assignment(pairs=[(0, 0)], total_cost=0.0), w)


# -- gradients ---------------------------------------------------------------

def loss_for_grad(y, z, w):
    """Independent evaluation path for the differentiated loss."""
    p = 1.0 / (1.0 + np.exp(-np.asarray(z, float)))
    return w.lambda_bce * bce_cost(y, p) + w.lambda_dice * dice_cost(y, p)


def central_differences(y, z, w, step=1e-5):
    grad = np.zeros_like(z, dtype=float)
    it = np.nditer(z, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        zp = z.copy()
        zm = z.copy()
        zp[idx] += step
        zm[idx] -= step
        grad[idx] = (loss_for_grad(y, zp, w) - loss_for_grad(y, zm, w)) / (2 * step)
        it.iternext()
    return grad


class TestMaskLossGrad:
    def test_bce_gradient_vanishes_at_saturated_match(self):
        y = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        z = np.where(y > 0, 40.0, -40.0)  # sigmoid saturates to exactly y
        w = LossWeights(lambda_cls=0.0, lambda_bce=5.0, lambda_dice=0.0)
        assert np.abs(mask_loss_grad(y, z, w)).max() < 1e-12

    def test_single_cell_matches_symbolic_derivative(self):
        y = np.array([[[1.0]]])
        z = np.array([[[0.3]]])
        w = LossWeights(lambda_cls=0.0, lambda_bce=5.0, lambda_dice=7.0)
        p = 1.0 / (1.0 + math.exp(-0.3))
        dbce = -1.0 / (p + EPS)
        # dice on one cell with y=1: 1 - (2p+1)/(p+2)
        ddice = -(2.0 * (p + 2.0) - (2.0 * p + 1.0)) / (p + 2.0) ** 2
        expected = (5.0 * dbce + 7.0 * ddice) * p * (1.0 - p)
        assert mask_loss_grad(y, z, w)[0, 0, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(24)
        w = LossWeights(2.0, 5.0, 5.0)
        y = (rng.random((3, 4, 4)) < 0.5).astype(float)
        z = rng.uniform(-3, 3, (3, 4, 4))
        analytic = mask_loss_grad(y, z, w)
        numeric = central_differences(y, z, w)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-9)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            mask_loss_grad(np.zeros((2, 2)), np.zeros((2, 3)), LossWeights())

    # the largest lambda_bce with lambda_bce * (1 / EPS) finite, and the largest
    # lambda_dice with 2 * lambda_dice finite
    BCE_EDGE, DICE_EDGE = 1.7976931348623155e+296, np.finfo(np.float64).max / 2

    def test_edges_are_the_largest_finite_bounds(self):
        for edge, factor in ((self.BCE_EDGE, 1.0 / EPS), (self.DICE_EDGE, 2.0)):
            assert math.isfinite(edge * factor)
            assert not math.isfinite(math.nextafter(edge, math.inf) * factor)

    @pytest.mark.parametrize("weights", [(0.0, 1e300, 0.0),
                                         (0.0, math.nextafter(BCE_EDGE, math.inf), 0.0),
                                         (0.0, 0.0, math.nextafter(DICE_EDGE, math.inf)),
                                         (0.0, BCE_EDGE, BCE_EDGE)])
    def test_refuses_weights_whose_gradient_bound_overflows(self, weights):
        # refused before any array work: on clamped logits that overflowed, and on
        # shapes that would raise otherwise; the last weights pass each edge alone
        for logits in (np.full((3, 3), -40.0), np.zeros((2, 2))):
            with pytest.raises(ValueError, match=r"^loss weights lambda_cls=.* are too large: their "
                                                 r"mask-loss gradient bound is not a finite float64$"):
                mask_loss_grad(np.ones((3, 3)), logits, LossWeights(*weights))

    @pytest.mark.parametrize("weights", [(0.0, BCE_EDGE, 0.0), (0.0, 0.0, DICE_EDGE)])
    def test_weights_just_inside_the_bound_give_a_finite_gradient(self, weights):
        # saturated, clamped and central logits against both labels, one cell and nine
        z = np.array([-800.0, -40.0, -27.0, 0.0, 27.0, 40.0, 800.0])
        for n in (1, 3):
            for label in (0.0, 1.0):
                for logit in z:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        grad = mask_loss_grad(np.full((n, n), label), np.full((n, n), logit),
                                              LossWeights(*weights))
                    assert np.isfinite(grad).all()


def test_sigmoid_matches_the_two_branch_formula():
    # bit-equal to 1/(1+exp(-z)) on z >= 0 and exp(z)/(1+exp(z)) below, each
    # branch on its own gathered entries; neither overflows at the extremes
    z = np.concatenate([np.random.default_rng(8).normal(0, 6, 500),
                        [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300]]).reshape(2, -1)
    expected = np.empty_like(z)
    pos = z >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expected[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
    assert _sigmoid(z).tobytes() == expected.tobytes()
    assert _sigmoid(z)[1, 249:251].tolist() == [1.0, 0.0]    # z = 800 and -800
    # type, dtype and bits as the plain expression gives them: a 0-d input
    # (synth's background value) returns a numpy float; integers and NaN pass
    # through, and float32 and float16 inputs stay in their own precision
    mixed = np.array([[0.0, -0.0, 800.0], [-800.0, np.nan, 1.0], [-3.7, 2.2, -60.0]])
    for z in (np.array(-12.0), np.array(3), np.array(-0.0), np.array(np.nan), np.array([-3, 0, 2, 40]),
              mixed, mixed.astype(np.float32), np.array(-12.0, np.float32), mixed.astype(np.float16)):
        e = np.exp(-np.abs(z))
        expected = np.where(z >= 0, 1.0, e) / (1.0 + e)
        got = _sigmoid(z)
        assert type(got) is type(expected) and np.asarray(got).dtype == np.asarray(expected).dtype
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.lambda_cls, w.lambda_bce, w.lambda_dice) == (2.0, 5.0, 5.0)

    @pytest.mark.parametrize("bad", [dict(lambda_cls=-1.0), dict(lambda_bce=float("nan")),
                                     dict(lambda_dice=float("inf")), dict(lambda_cls="2"),
                                     dict(lambda_bce=True)])
    def test_rejects_bad_weights(self, bad):
        with pytest.raises(ValueError):
            LossWeights(**bad)

    @pytest.mark.parametrize("weights", [(1e308, 1e308, 1e308), (6.6e306, 0.0, 0.0),
                                         (0.0, 6.6e306, 0.0), (3.3e306, 3.3e306, 0.0),
                                         (6.5e306, 0.0, 1e307)])
    def test_refuses_weights_whose_largest_cost_overflows(self, weights):
        # the largest cost is (lambda_cls + lambda_bce) * -log(EPS_LOG) + lambda_dice
        with pytest.raises(ValueError, match=r"^loss weights lambda_cls=.* are too large: "
                                             r"their largest cost is not a finite float64$"):
            LossWeights(*weights)

    @pytest.mark.parametrize("weights", [(6.5e306, 0.0, 0.0), (0.0, 0.0, 1.79e308),
                                         (1e306, 1e306, 1e306)])
    def test_weights_with_a_finite_largest_cost_price_it_without_a_warning(self, weights):
        # a probability of 0 and a mask of 0 against a full ground truth: every
        # term at its largest
        w = LossWeights(*weights)
        gt = GroundTruthTrack(class_id=0, masks=np.ones((2, 3, 3), np.uint8))
        pred = PredictionTrack(class_probs=np.tile([0.0, 1.0], (2, 1)),
                               mask_probs=np.zeros((2, 3, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cost = global_matching_cost(gt, pred, w)
        assert np.isfinite(cost)
