"""Video-level detection metrics and assignment-quality audits.

AP follows the video benchmark convention: spatio-temporal IoU between a
prediction track and a ground-truth track (frame-summed intersection over
frame-summed union after binarizing at 0.5), greedy matching per class in
descending score order at each IoU threshold in 0.50:0.05:0.95, 101-point
interpolated precision, averaged over thresholds and over the classes
present in the ground truth. A prediction's label is the argmax of its
clip-averaged probabilities over the real classes; its score is one minus
the mean no-object probability. AR@k keeps the k highest-scoring
predictions per clip and class. Each class is ranked once, and one walk
down that ranking matches it at all ten thresholds.

The audit compares the global assignment strategy against the local
baseline clip by clip: their whole-clip costs and the fraction of
identically assigned tracks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .assignment import build_global_cost_matrix, hungarian, locpro_assignment
from .cost import LossWeights
from .model import MASK_BINARIZE, Corpus, GroundTruthTrack, PredictionTrack, field_names

IOU_THRESHOLDS = tuple((50 + 5 * i) / 100.0 for i in range(10))
_THRESHOLD_COLUMN = np.array(IOU_THRESHOLDS)[:, None]
RECALL_POINTS = np.linspace(0.0, 1.0, 101)


def video_iou(gt: GroundTruthTrack, pred: PredictionTrack) -> float:
    """Spatio-temporal IoU: frame-summed intersection over frame-summed
    union, with the soft masks binarized at `MASK_BINARIZE`; the 1x1 view
    of :func:`video_iou_table`."""
    return float(video_iou_table([gt], [pred])[0, 0])


# set bits of every byte
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8)


def _packed(masks) -> np.ndarray:
    """Binary masks of equal shape as rows of bit-packed bytes."""
    return np.packbits(np.stack(masks).reshape(len(masks), -1), axis=1)


def video_iou_table(gt_tracks, pred_tracks) -> np.ndarray:
    """``video_iou`` of every (ground truth, slot) pair of a clip, as an
    (n_gt, n_slots) array.

    Each track is binarized and bit-packed once; the intersection of a
    pair is the table popcount of the AND of their packed bytes. The
    counts are exact integers and go through no BLAS call. A pair with an
    empty union reads 0.0.
    """
    table = np.zeros((len(gt_tracks), len(pred_tracks)))
    if not table.size:
        return table
    y = [np.asarray(gt.masks).astype(bool) for gt in gt_tracks]
    p = [np.asarray(pred.mask_probs) >= MASK_BINARIZE for pred in pred_tracks]
    for mask in y[1:] + p:
        if mask.shape != y[0].shape:
            raise ValueError(f"mask shapes differ: {y[0].shape} vs {mask.shape}")
    y, p = _packed(y), _packed(p)
    inter = np.stack([np.take(_POPCOUNT, row & p).sum(axis=1, dtype=np.int64) for row in y])
    union = (np.take(_POPCOUNT, y).sum(axis=1, dtype=np.int64)[:, None]
             + np.take(_POPCOUNT, p).sum(axis=1, dtype=np.int64)[None, :] - inter)
    np.divide(inter, union, out=table, where=union != 0)
    return table


def prediction_score(track: PredictionTrack) -> float:
    """Confidence of a slot: 1 - mean no-object probability over frames."""
    return float(1.0 - np.asarray(track.class_probs)[:, -1].mean())


def predicted_label(track: PredictionTrack) -> int:
    """Argmax of the clip-averaged probabilities over the real classes."""
    mean = np.asarray(track.class_probs).mean(axis=0)
    return int(mean[:-1].argmax())


@dataclass(frozen=True)
class AuditRow:
    """Per-clip comparison of the global strategy against the baseline."""

    clip: int
    gia_cost: float
    locpro_cost: float
    pair_agreement: float
    gia_pairs: tuple = ()
    locpro_pairs: tuple = ()


@dataclass(frozen=True)
class EvalReport:
    """AP/AR metrics plus the per-clip cost audit (when computed)."""

    ap: float
    ap50: float
    ap75: float
    ar1: float
    ar10: float
    per_threshold: tuple
    clip_audits: tuple = ()

    def to_dict(self) -> dict:
        doc = {"AP": self.ap, "AP50": self.ap50, "AP75": self.ap75,
               "AR1": self.ar1, "AR10": self.ar10,
               "per_threshold": {f"{thr:.2f}": ap
                                 for thr, ap in zip(IOU_THRESHOLDS, self.per_threshold)}}
        if self.clip_audits:
            doc["audit"] = {
                "mean_gia_cost": float(np.mean([r.gia_cost for r in self.clip_audits])),
                "mean_locpro_cost": float(np.mean([r.locpro_cost for r in self.clip_audits])),
                "mean_pair_agreement": float(np.mean([r.pair_agreement
                                                      for r in self.clip_audits])),
            }
        return doc


def _slot_digest(pred) -> bytes:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(pred.class_probs))
    digest.update(np.ascontiguousarray(pred.mask_probs))
    return digest.digest()


def _clip_digest(clip, slot_keys) -> bytes:
    # slot digests are sorted so the fingerprint ignores slot order
    digest = hashlib.sha256()
    for gt in clip.gt:
        digest.update(int(gt.class_id).to_bytes(4, "little", signed=True))
        digest.update(np.ascontiguousarray(gt.masks, dtype=np.uint8))
    for key in sorted(slot_keys):
        digest.update(key)
    return digest.digest()


def _gather(corpus: Corpus):
    """Predictions as (score, clip, label, iou-per-gt, clip and slot digests)
    plus the ground-truth census: class -> clip -> ground-truth indices.

    Score ties are broken by content digests, never by position, so the
    ranking (and therefore every metric) is invariant to clip order and
    prediction-slot order.
    """
    detections = []
    gt_census: dict = {}
    for ci, clip in enumerate(corpus.clips):
        if clip.pred is None:
            raise ValueError(f"clip {ci} has no predictions")
        slot_keys = [_slot_digest(pred) for pred in clip.pred]
        clip_key = _clip_digest(clip, slot_keys)
        for gi, gt in enumerate(clip.gt):
            gt_census.setdefault(int(gt.class_id), {}).setdefault(ci, []).append(gi)
        ious = video_iou_table(clip.gt, clip.pred)
        for si, pred in enumerate(clip.pred):
            detections.append({"score": prediction_score(pred), "clip": ci,
                               "label": predicted_label(pred), "ious": ious[:, si],
                               "clip_key": clip_key, "slot_key": slot_keys[si]})
    return detections, gt_census


def _greedy_match(ranked, clip_gts) -> np.ndarray:
    """Standard greedy matching at all IoU thresholds in one walk, as
    (n_ranked, n_thresholds) hit flags: at each threshold a prediction takes
    the best still-free ground truth of its clip with IoU >= threshold (ties
    keep the lowest index). `clip_gts` maps a clip to its ground truths."""
    rows = np.arange(len(IOU_THRESHOLDS))
    free = {ci: np.ones((len(rows), len(gis)), dtype=bool) for ci, gis in clip_gts.items()}
    hits = np.zeros((len(ranked), len(rows)), dtype=bool)
    for di, det in enumerate(ranked):
        if det["clip"] in clip_gts:
            ious = det["ious"][clip_gts[det["clip"]]]
            open_ = free[det["clip"]] & (ious >= _THRESHOLD_COLUMN)
            best = np.where(open_, ious, -1.0).argmax(axis=1)
            hit = hits[di] = open_[rows, best]
            free[det["clip"]][rows[hit], best[hit]] = False
    return hits


def _interpolated_ap(hits: np.ndarray, n_gt: int) -> np.ndarray:
    """101-point interpolated AP of each column of a (ranked, thresholds) hit table."""
    if n_gt == 0:
        return np.zeros(hits.shape[1])
    tp = np.cumsum(hits, axis=0, dtype=np.float64)
    fp = np.cumsum(~hits, axis=0, dtype=np.float64)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1.0)
    # the precision envelope: best precision at this recall or beyond, read
    # at the first detection that reaches each recall point; one row of reads
    # per column, so each mean sums a contiguous row, bit-equal to a 1-D mean
    envelope = np.vstack([np.maximum.accumulate(precision[::-1])[::-1], np.zeros(hits.shape[1])])
    return np.array([envelope[np.searchsorted(r, RECALL_POINTS), t]
                     for t, r in enumerate(recall.T)]).mean(axis=1)


def compute_ap(corpus: Corpus) -> EvalReport:
    """AP/AR over a corpus whose clips all carry predictions."""
    detections, gt_census = _gather(corpus)
    classes = sorted(gt_census)
    if not classes:
        raise ValueError("corpus has no ground-truth tracks")

    # (threshold, class) tables, reduced threshold-major
    ap_table = np.zeros((len(IOU_THRESHOLDS), len(classes)))
    ar_tables = {1: np.zeros_like(ap_table), 10: np.zeros_like(ap_table)}
    for j, cls in enumerate(classes):
        dets = [d for d in detections if d["label"] == cls]
        dets.sort(key=lambda d: (-d["score"], d["clip_key"], d["slot_key"]))
        n_gt = sum(map(len, gt_census[cls].values()))
        hits = _greedy_match(dets, gt_census[cls])
        ap_table[:, j] = _interpolated_ap(hits, n_gt)
        # a clip's first k detections meet the same ground truths with or
        # without its later ones, so AR@k reads its hits off the same walk
        rank, seen = [], {}
        for det in dets:
            rank.append(seen.get(det["clip"], 0))
            seen[det["clip"]] = rank[-1] + 1
        for cap, table in ar_tables.items():
            table[:, j] = hits[np.array(rank) < cap].sum(axis=0) / n_gt

    per_threshold = tuple(float(np.mean(row)) for row in ap_table)
    return EvalReport(ap=float(np.mean(per_threshold)), ap50=per_threshold[0],
                      ap75=per_threshold[5],   # IOU_THRESHOLDS[5] == 0.75
                      ar1=float(np.mean(ar_tables[1].ravel())),
                      ar10=float(np.mean(ar_tables[10].ravel())),
                      per_threshold=per_threshold)


def audit_clip(clip_index: int, gt_tracks, pred_tracks,
               weights: LossWeights) -> AuditRow:
    """Compare the two strategies on one clip; both totals come from one
    whole-clip cost matrix."""
    costs = build_global_cost_matrix(gt_tracks, pred_tracks, weights)
    gia = hungarian(costs)
    locpro = locpro_assignment(gt_tracks, pred_tracks, weights, global_costs=costs)
    n_gt = len(gt_tracks)
    if n_gt:
        agreement = len(set(gia.pairs) & set(locpro.pairs)) / n_gt
    else:
        agreement = 1.0
    return AuditRow(clip=clip_index, gia_cost=gia.total_cost, locpro_cost=locpro.total_cost,
                    pair_agreement=agreement, gia_pairs=gia.pairs,
                    locpro_pairs=locpro.pairs)


def audit_assignments(corpus: Corpus, weights: LossWeights) -> list:
    """Per-clip strategy audit for a corpus with predictions."""
    rows = []
    for ci, clip in enumerate(corpus.clips):
        if clip.pred is None:
            raise ValueError(f"clip {ci} has no predictions")
        rows.append(audit_clip(ci, clip.gt, clip.pred, weights))
    return rows


def audits_to_csv(rows) -> str:
    """One CSV row per clip plus the header: AuditRow's scalar fields."""
    columns = field_names(AuditRow, skip=("gia_pairs", "locpro_pairs"))
    lines = [",".join(columns)] + [",".join(repr(getattr(row, c)) for c in columns)
                                   for row in rows]
    return "\n".join(lines) + "\n"
