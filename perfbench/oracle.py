"""Computations the checks compare the program against, written apart
from the program: a column-major RLE decoder, the whole-clip cost matrix
in vectorised form, and exhaustive lexicographic assignment."""

from __future__ import annotations

import itertools

import numpy as np

WEIGHTS = (2.0, 5.0, 5.0)   # class, mean BCE, soft dice
EPS_LOG = 1e-12
DICE_SMOOTH = 1.0


def rle_decode(record: dict) -> np.ndarray:
    """Column-major counts, alternating 0-runs and 1-runs, 0-run first."""
    h, w = record["size"]
    counts = np.asarray(record["counts"], dtype=np.int64)
    if (counts < 0).any() or counts.sum() != h * w:
        raise ValueError(f"RLE counts do not cover a {h}x{w} mask")
    values = np.arange(counts.size, dtype=np.int64) % 2
    return np.repeat(values.astype(np.uint8), counts).reshape((h, w), order="F")


def doc_clip_arrays(entry: dict, spec: dict):
    """(gt classes, gt masks, class probs, mask probs) of one clip of a
    corpus JSON document, decoded without the program."""
    h, w = spec["H"] // spec["S"], spec["W"] // spec["S"]
    classes = np.array([g["class_id"] for g in entry["gt"]], dtype=np.int64)
    masks = np.array([[rle_decode(r) for r in g["masks"]] for g in entry["gt"]],
                     dtype=np.uint8).reshape(len(classes), spec["T"], h, w)
    probs = np.array([p["class_probs"] for p in entry["pred"]], dtype=np.float64)
    soft = np.array([p["mask_probs"] for p in entry["pred"]],
                    dtype=np.float64).reshape(len(probs), spec["T"], h, w)
    return classes, masks, probs, soft


def clip_arrays(clip):
    """The same four arrays from an in-memory clip."""
    classes = np.array([g.class_id for g in clip.gt], dtype=np.int64)
    masks = np.stack([g.masks for g in clip.gt]).astype(np.uint8)
    probs = np.stack([p.class_probs for p in clip.pred])
    soft = np.stack([p.mask_probs for p in clip.pred])
    return classes, masks, probs, soft


def _neg_log(x: np.ndarray) -> np.ndarray:
    return -np.log(np.minimum(x + EPS_LOG, 1.0))


def cost_matrix(classes, masks, probs, soft, weights=WEIGHTS) -> np.ndarray:
    """Whole-clip matching cost of every (ground truth, slot) pair:
    CE on the clip-averaged class probability + mean BCE + soft dice."""
    n, n_slots = len(classes), len(soft)
    y = masks.reshape(n, -1).astype(np.float64)
    p = soft.reshape(n_slots, -1)
    cells = y.shape[1]
    mean_probs = probs.mean(axis=1)                       # (slots, K+1)
    ce = _neg_log(mean_probs[:, classes]).T               # (n, slots)
    bce = (y @ _neg_log(p).T + (1.0 - y) @ _neg_log(1.0 - p).T) / cells
    dice = 1.0 - (2.0 * (y @ p.T) + DICE_SMOOTH) / (
        y.sum(axis=1)[:, None] + p.sum(axis=1)[None, :] + DICE_SMOOTH)
    return weights[0] * ce + weights[1] * bce + weights[2] * dice


def optimum(matrix: np.ndarray) -> float:
    """Minimum total of an injective row-to-column assignment (scipy)."""
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(matrix)
    return float(matrix[rows, cols].sum())


def lexicographic_min(matrix: np.ndarray):
    """Smallest pair list (rows ascending) among the injections of least
    total, by enumeration; totals accumulate row by row, left to right."""
    nr, nc = matrix.shape
    injections = np.array(list(itertools.permutations(range(nc), nr)),
                          dtype=np.int64).reshape(-1, nr)
    totals = np.zeros(len(injections))
    for r in range(nr):
        totals += matrix[r, injections[:, r]]
    best = int(totals.argmin())   # the first minimum in lexicographic order
    return [(r, int(c)) for r, c in enumerate(injections[best])], float(totals[best])
