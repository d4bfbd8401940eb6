"""Video-level detection metrics and assignment-quality audits.

AP follows the video benchmark convention: spatio-temporal IoU between a
prediction track and a ground-truth track (frame-summed intersection over
frame-summed union after binarizing at 0.5), greedy matching per class in
descending score order at each IoU threshold in 0.50:0.05:0.95, 101-point
interpolated precision, averaged over thresholds and over the classes
present in the ground truth. A prediction's label is the argmax of its
clip-averaged probabilities over the real classes; its score is one minus
the mean no-object probability. AR@k keeps the k highest-scoring
predictions per clip and class.

The audit compares the global assignment strategy against the local
baseline clip by clip: their whole-clip costs and the fraction of
identically assigned tracks.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass

import numpy as np

from .assignment import build_global_cost_matrix, hungarian, locpro_assignment
from .cost import LossWeights
from .model import Corpus, GroundTruthTrack, PredictionTrack

IOU_THRESHOLDS = tuple((50 + 5 * i) / 100.0 for i in range(10))
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
MASK_BINARIZE = 0.5


def video_iou(gt: GroundTruthTrack, pred: PredictionTrack,
              threshold: float = MASK_BINARIZE) -> float:
    """Spatio-temporal IoU: frame-summed intersection over frame-summed
    union, with the soft masks binarized at `threshold`."""
    y = np.asarray(gt.masks).astype(bool)
    p = np.asarray(pred.mask_probs) >= threshold
    if y.shape != p.shape:
        raise ValueError(f"mask shapes differ: {y.shape} vs {p.shape}")
    inter = float(np.count_nonzero(y & p))
    union = float(np.count_nonzero(y | p))
    if union == 0.0:
        return 0.0
    return inter / union


def video_iou_table(gt_tracks, pred_tracks, threshold: float = MASK_BINARIZE) -> np.ndarray:
    """``video_iou`` of every (ground truth, slot) pair of a clip, as an
    (n_gt, n_slots) array.

    Each track is binarized once and the intersection counts come from one
    0/1 float64 matmul. The counts are whole numbers below 2**53, so they
    are exact, and every entry equals ``video_iou``'s bit for bit.
    """
    table = np.zeros((len(gt_tracks), len(pred_tracks)))
    if not table.size:
        return table
    y = [np.asarray(gt.masks).astype(bool) for gt in gt_tracks]
    p = [np.asarray(pred.mask_probs) >= threshold for pred in pred_tracks]
    for mask in y[1:] + p:
        if mask.shape != y[0].shape:
            raise ValueError(f"mask shapes differ: {y[0].shape} vs {mask.shape}")
    y = np.stack(y).reshape(len(y), -1).astype(np.float64)
    p = np.stack(p).reshape(len(p), -1).astype(np.float64)
    inter = y @ p.T
    union = y.sum(axis=1)[:, None] + p.sum(axis=1)[None, :] - inter
    np.divide(inter, union, out=table, where=union != 0.0)
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
    digest.update(np.ascontiguousarray(pred.class_probs).tobytes())
    digest.update(np.ascontiguousarray(pred.mask_probs).tobytes())
    return digest.digest()


def _clip_digest(clip) -> bytes:
    # slot digests are sorted so the fingerprint ignores slot order
    digest = hashlib.sha256()
    for gt in clip.gt:
        digest.update(int(gt.class_id).to_bytes(4, "little", signed=True))
        digest.update(np.ascontiguousarray(gt.masks, dtype=np.uint8).tobytes())
    for key in sorted(_slot_digest(pred) for pred in clip.pred):
        digest.update(key)
    return digest.digest()


def _gather(corpus: Corpus):
    """Predictions as (score, clip, slot, label, iou-per-gt) plus the
    per-class ground-truth census.

    Score ties are broken by content digests, never by position, so the
    ranking (and therefore every metric) is invariant to clip order and
    prediction-slot order.
    """
    detections = []
    gt_census: dict = {}
    for ci, clip in enumerate(corpus.clips):
        if clip.pred is None:
            raise ValueError(f"clip {ci} has no predictions")
        clip_key = _clip_digest(clip)
        for gi, gt in enumerate(clip.gt):
            gt_census.setdefault(int(gt.class_id), []).append((ci, gi))
        ious = video_iou_table(clip.gt, clip.pred)
        for si, pred in enumerate(clip.pred):
            detections.append({"score": prediction_score(pred), "clip": ci,
                               "slot": si, "label": predicted_label(pred),
                               "ious": ious[:, si], "clip_key": clip_key,
                               "slot_key": _slot_digest(pred)})
    return detections, gt_census


def _greedy_match(ranked, clip_gts, threshold: float):
    """Standard greedy matching: each prediction takes the best still-free
    ground truth of its class in its clip with IoU >= threshold (ties keep
    the lowest ground-truth index)."""
    taken = set()
    flags = []
    for det in ranked:
        best_iou, best_key = -1.0, None
        for ci, gi in clip_gts.get(det["clip"], ()):
            key = (ci, gi)
            if key in taken:
                continue
            iou = float(det["ious"][gi])
            if iou >= threshold and iou > best_iou:
                best_iou, best_key = iou, key
        if best_key is not None:
            taken.add(best_key)
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _interpolated_ap(flags, n_gt: int) -> float:
    if n_gt == 0:
        return 0.0
    tp = np.cumsum(flags, dtype=np.float64)
    fp = np.cumsum([not f for f in flags], dtype=np.float64)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1.0)
    interp = np.zeros_like(RECALL_POINTS)
    for idx, r in enumerate(RECALL_POINTS):
        mask = recall >= r
        if mask.any():
            interp[idx] = precision[mask].max()
    return float(interp.mean())


def compute_ap(corpus: Corpus) -> EvalReport:
    """AP/AR over a corpus whose clips all carry predictions."""
    detections, gt_census = _gather(corpus)
    classes = sorted(gt_census)
    if not classes:
        raise ValueError("corpus has no ground-truth tracks")

    per_threshold = []
    ar_hits = {1: [], 10: []}
    for threshold in IOU_THRESHOLDS:
        class_aps = []
        for cls in classes:
            dets = [d for d in detections if d["label"] == cls]
            dets.sort(key=lambda d: (-d["score"], d["clip_key"], d["slot_key"]))
            clip_gts: dict = {}
            for ci, gi in gt_census[cls]:
                clip_gts.setdefault(ci, []).append((ci, gi))
            n_gt = len(gt_census[cls])
            flags = _greedy_match(dets, clip_gts, threshold)
            class_aps.append(_interpolated_ap(flags, n_gt))
            for cap in ar_hits:
                kept, seen = [], {}
                for det in dets:
                    used = seen.get(det["clip"], 0)
                    if used < cap:
                        kept.append(det)
                        seen[det["clip"]] = used + 1
                capped = _greedy_match(kept, clip_gts, threshold)
                ar_hits[cap].append(sum(capped) / n_gt if n_gt else 0.0)
        per_threshold.append(float(np.mean(class_aps)))

    per_threshold = tuple(per_threshold)
    ap = float(np.mean(per_threshold))
    lookup = {f"{thr:.2f}": value for thr, value in zip(IOU_THRESHOLDS, per_threshold)}
    return EvalReport(ap=ap, ap50=lookup["0.50"], ap75=lookup["0.75"],
                      ar1=float(np.mean(ar_hits[1])), ar10=float(np.mean(ar_hits[10])),
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
    """One CSV row per clip plus the header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["clip", "gia_cost", "locpro_cost", "pair_agreement"])
    for row in rows:
        writer.writerow([row.clip, repr(row.gia_cost), repr(row.locpro_cost),
                         repr(row.pair_agreement)])
    return buf.getvalue()
