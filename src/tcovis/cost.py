"""Matching costs and training losses over clips.

The frame-level matching cost combines a cross-entropy class term with
binary cross-entropy and soft-dice mask terms. The clip-level (global)
cost uses the clip-averaged class probability and the full T-frame mask
stacks. The overall loss sums the global cost over matched pairs and
supervises unmatched prediction slots toward the no-object class.

``matching_cost_matrix`` is the one implementation of the matching cost:
it scores every (ground truth, prediction slot) pair of a clip at once,
for the whole clip or for one frame. With ``A = -log(p)`` and
``B = -log(1 - p)``, the BCE sum of a binary ground truth is every cell's
``B`` plus ``A - B`` on its positive cells, and its dice overlap is ``p``
summed over those cells. So each slot's ``B`` and its sum are taken once
per call, and each ground-truth row gathers only its own positive cells,
the only ones where ``A`` is computed. ``bce_cost`` and ``dice_cost`` are
written in the same decomposition and sum the same cells in the same
numpy pairwise order, so every entry is bit-identical to those
primitives. A non-binary ground truth raises instead of pricing a
different cost. A matmul would sum in another order and move costs by a
few ULPs, which can flip exactly tied pairs.
``global_matching_cost`` and ``frame_matching_cost`` are its 1x1 views;
``ce_cost``, ``bce_cost`` and ``dice_cost`` stay the independent primitives.

All arithmetic is float64. Log arguments are clamped to [EPS_LOG, 1] so
every cost is finite, and the BCE sum is clamped at 0 so every cost is
exactly nonnegative, including at perfect predictions. ``EPS_LOG`` and
``DICE_SMOOTH`` are constants, not parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Assignment, GroundTruthTrack, PredictionTrack, _number, field_names

EPS_LOG = 1e-12
DICE_SMOOTH = 1.0


@dataclass(frozen=True)
class LossWeights:
    """Nonnegative weights for the class / bce / dice cost terms, small enough
    that the largest cost they can price, (lambda_cls + lambda_bce) *
    -log(EPS_LOG) + lambda_dice, is a finite float64."""

    lambda_cls: float = 2.0
    lambda_bce: float = 5.0
    lambda_dice: float = 5.0

    def __post_init__(self):
        for name in field_names(LossWeights):
            value = _number(name, getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        if not math.isfinite((self.lambda_cls + self.lambda_bce) * -math.log(EPS_LOG)
                             + self.lambda_dice):
            raise ValueError(f"loss weights lambda_cls={self.lambda_cls}, lambda_bce="
                             f"{self.lambda_bce}, lambda_dice={self.lambda_dice} are too large: "
                             f"their largest cost is not a finite float64")


def _neg_log(x: np.ndarray) -> np.ndarray:
    # clamp to 1 so a probability of exactly 1 costs exactly 0, and take
    # 0.0 - log, not -log, so that 0 is +0.0; worked in place in one buffer
    out = np.asarray(x + EPS_LOG)
    np.minimum(out, 1.0, out=out)
    np.log(out, out=out)
    return np.subtract(0.0, out, out=out)


def average_class_prob(track: PredictionTrack) -> np.ndarray:
    """Clip-averaged class probability: elementwise mean over the T frames."""
    return np.asarray(track.class_probs, dtype=np.float64).mean(axis=0)


def ce_cost(gt_class: int, prob) -> float:
    """Cross-entropy of a probability vector against a class index."""
    prob = np.asarray(prob, dtype=np.float64)
    if not 0 <= gt_class < prob.shape[-1]:
        raise ValueError(f"gt_class {gt_class} out of range for {prob.shape[-1]} classes")
    return float(_neg_log(prob[gt_class]))


def bce_cost(gt_masks, pred_masks) -> float:
    """Binary cross entropy, averaged over every cell of the mask stack."""
    y = np.asarray(gt_masks, dtype=np.float64)
    p = np.asarray(pred_masks, dtype=np.float64)
    if y.shape != p.shape:
        raise ValueError(f"mask shapes differ: {y.shape} vs {p.shape}")
    # y*A + (1-y)*B written as B + y*(A - B): every cell's B, then the
    # differences on the cells where y != 0, as matching_cost_matrix sums them.
    # The two sums round apart, so a prediction equal to a binary y can land a
    # few ULPs below 0; the clamp keeps the cost nonnegative.
    A = _neg_log(p)
    B = _neg_log(1.0 - p)
    return float(max(B.sum() + (y * (A - B))[y != 0].sum(), 0.0) / y.size)


def dice_cost(gt_masks, pred_masks) -> float:
    """Soft dice loss over the whole stack: 1 - (2*overlap + d)/(mass + d)."""
    y = np.asarray(gt_masks, dtype=np.float64)
    p = np.asarray(pred_masks, dtype=np.float64)
    if y.shape != p.shape:
        raise ValueError(f"mask shapes differ: {y.shape} vs {p.shape}")
    overlap = float((y * p)[y != 0].sum())
    mass = float(y.sum() + p.sum())
    return float(1.0 - (2.0 * overlap + DICE_SMOOTH) / (mass + DICE_SMOOTH))


def matching_cost_matrix(gt_tracks, pred_tracks, weights: LossWeights,
                         frame: int | None = None) -> np.ndarray:
    """Matching cost of every (ground truth, prediction slot) pair.

    Row g, column s holds the whole-clip cost of ``gt_tracks[g]`` against
    ``pred_tracks[s]`` (clip-averaged class term, full mask stacks), or with
    ``frame=t`` (0-based) the cost at frame t alone. Each entry equals
    ``lambda_cls * ce_cost + lambda_bce * bce_cost + lambda_dice * dice_cost``
    on that pair exactly, bit for bit, for soft masks in [0, 1].

    A binary ground truth changes the BCE and dice sums only on its positive
    cells. With ``A = -log(P)`` and ``B = -log(1 - P)``, row g's BCE sum is
    each slot's sum of ``B``, taken once per call, plus ``A - B`` summed over
    the cells where ``gt_tracks[g]`` is 1, and its dice overlap is ``P``
    summed over those cells; ``A`` is computed on those cells alone. A
    ground-truth entry other than 0 or 1 raises ``ValueError``.
    """
    gt_masks = [np.asarray(gt.masks) for gt in gt_tracks]
    pred_masks = [np.asarray(pred.mask_probs) for pred in pred_tracks]
    n_gt, n_slots = len(gt_masks), len(pred_masks)
    if frame is not None and (gt_masks or pred_masks):
        T = (gt_masks or pred_masks)[0].shape[0]
        if not 0 <= frame < T:
            raise ValueError(f"frame index {frame} out of range for T={T}")
    if n_gt == 0 or n_slots == 0:
        return np.empty((n_gt, n_slots), dtype=np.float64)

    if frame is None:
        probs = np.stack([average_class_prob(pred) for pred in pred_tracks])
    else:
        probs = np.stack([np.asarray(pred.class_probs[frame], dtype=np.float64)
                          for pred in pred_tracks])
    class_ids = [gt.class_id for gt in gt_tracks]
    for class_id in class_ids:
        if not 0 <= class_id < probs.shape[-1]:
            raise ValueError(f"gt_class {class_id} out of range for {probs.shape[-1]} classes")
    ce = _neg_log(probs.T[class_ids])

    shape = gt_masks[0].shape
    for masks in gt_masks + pred_masks:
        if masks.shape != shape:
            raise ValueError(f"mask shapes differ: {shape} vs {masks.shape}")
    cells = slice(None) if frame is None else frame
    Y = np.stack([masks[cells].ravel() for masks in gt_masks]).astype(np.float64, copy=False)
    P = np.stack([masks[cells].ravel() for masks in pred_masks]).astype(np.float64, copy=False)
    inside = Y == 1.0
    if not (inside | (Y == 0.0)).all():
        raise ValueError("ground-truth mask entries must be 0 or 1")
    B = _neg_log(1.0 - P)
    b_sum = B.sum(axis=1)

    # np.take, not P[:, idx]: the fancy index returns a non-C-contiguous
    # array, whose row sums leave numpy's 1-D pairwise order and land a few
    # ULPs away from the primitives' sums
    bce, overlap = np.empty((2, n_gt, n_slots))
    for g, y in enumerate(inside):
        idx = np.flatnonzero(y)
        P_idx = np.take(P, idx, axis=1)
        D_idx = _neg_log(P_idx) - np.take(B, idx, axis=1)
        bce[g] = b_sum + D_idx.sum(axis=1)
        overlap[g] = P_idx.sum(axis=1)
    np.maximum(bce, 0.0, out=bce)
    bce /= P.shape[1]
    mass = Y.sum(axis=1)[:, None] + P.sum(axis=1)
    dice = 1.0 - (2.0 * overlap + DICE_SMOOTH) / (mass + DICE_SMOOTH)
    return weights.lambda_cls * ce + weights.lambda_bce * bce + weights.lambda_dice * dice


def frame_matching_cost(gt_track: GroundTruthTrack, pred_track: PredictionTrack,
                        t: int, weights: LossWeights) -> float:
    """Single-frame matching cost at frame index t (0-based)."""
    return float(matching_cost_matrix([gt_track], [pred_track], weights, frame=t)[0, 0])


def global_matching_cost(gt_track: GroundTruthTrack, pred_track: PredictionTrack,
                         weights: LossWeights) -> float:
    """Whole-clip matching cost: clip-averaged class term + full mask stacks."""
    return float(matching_cost_matrix([gt_track], [pred_track], weights)[0, 0])


def _checked_pairs(pairs, n_gt: int, n_slots: int) -> list:
    """`pairs` in ascending ground-truth order, or ValueError if a pair is out
    of range for `n_gt` x `n_slots` or repeats an index."""
    seen_gt, seen_slot = set(), set()
    for g, s in pairs:
        if not 0 <= g < n_gt or not 0 <= s < n_slots:
            raise ValueError(f"assignment pair ({g}, {s}) out of range")
        if g in seen_gt or s in seen_slot:
            raise ValueError(f"assignment pair ({g}, {s}) repeats an index")
        seen_gt.add(g)
        seen_slot.add(s)
    return sorted(pairs)


def _pairs_total(costs, pairs) -> float:
    """The whole-clip total: ``costs[g, s]`` summed left to right over `pairs`,
    given in ascending g. Every total of a pair list is summed here."""
    total = 0.0
    for g, s in pairs:
        total += float(costs[g, s])
    return total


def overall_loss(gt_tracks, pred_tracks, assignment: Assignment,
                 weights: LossWeights) -> float:
    """Total supervision: matched global costs plus no-object terms for
    every unmatched prediction slot."""
    n_gt, n_slots = len(gt_tracks), len(pred_tracks)
    pairs = _checked_pairs(assignment.pairs, n_gt, n_slots)
    if len(pairs) != n_gt:
        raise ValueError("assignment must cover every ground-truth index exactly once")

    total = _pairs_total(matching_cost_matrix(gt_tracks, pred_tracks, weights), pairs)
    matched = {s for _, s in pairs}
    for s in range(n_slots):
        if s not in matched:
            probs = average_class_prob(pred_tracks[s])
            no_object = probs.shape[-1] - 1
            total += weights.lambda_cls * ce_cost(no_object, probs)
    return float(total)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+e) for z >= 0 and e/(1+e) below, with e = exp(-|z|), which never overflows.
    e and the result have the dtype of `np.exp(z)`: a float z's own, float64 for int64.
    e takes one buffer, negated and exponentiated in place, and the quotient overwrites
    the numerator. A 0-d z gives a numpy float."""
    z = np.asarray(z)
    dtype = np.result_type(z.dtype, np.float16)       # the output type of np.exp(z)
    e = np.abs(z, dtype=dtype, out=np.empty(z.shape, dtype))
    np.exp(np.negative(e, out=e), out=e)
    p = np.maximum(e, z >= 0)      # e <= 1: 1 where z >= 0, else e (NaN stays NaN)
    e += 1.0
    return np.divide(p, e, out=p if p.ndim else None)


def mask_loss_grad(gt_masks, pred_logits, weights: LossWeights) -> np.ndarray:
    """Analytic gradient of the weighted bce + dice mask loss w.r.t. logits.

    The loss being differentiated is exactly
    ``weights.lambda_bce * bce_cost(y, sigmoid(z))
      + weights.lambda_dice * dice_cost(y, sigmoid(z))``
    including the log clamping, so the result matches central finite
    differences of those implementations.
    """
    y = np.asarray(gt_masks, dtype=np.float64)
    z = np.asarray(pred_logits, dtype=np.float64)
    if y.shape != z.shape:
        raise ValueError(f"shapes differ: {y.shape} vs {z.shape}")
    p = _sigmoid(z)
    n = y.size

    # d(bce)/dp; the log clamp zeroes the term once its argument hits 1
    pos_active = (p + EPS_LOG) < 1.0
    neg_active = (1.0 - p + EPS_LOG) < 1.0
    dbce = (-y / (p + EPS_LOG) * pos_active + (1.0 - y) / (1.0 - p + EPS_LOG) * neg_active) / n

    overlap2 = 2.0 * float((y * p).sum()) + DICE_SMOOTH
    mass = float(y.sum() + p.sum()) + DICE_SMOOTH
    ddice = (overlap2 - 2.0 * y * mass) / (mass * mass)

    dp_dz = p * (1.0 - p)
    return (weights.lambda_bce * dbce + weights.lambda_dice * ddice) * dp_dz
