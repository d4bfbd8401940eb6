"""Core data model: clip geometry, ground-truth and prediction tracks,
assignments, corpora, and the column-major RLE mask codec.

All masks live on the stride-S grid (h = H/S, w = W/S). Ground-truth masks
are binary; an all-zero mask means the object is absent in that frame.
Prediction tracks carry per-frame class-probability vectors of length K+1
(index K is the no-object class) and soft masks with entries in [0, 1].

Every type is immutable after construction (arrays are copied and marked
read-only), so instances can be shared freely across threads. Invariant
checking is deliberately kept out of the constructors: corpora loaded from
disk may be malformed, and :func:`validate` reports violations as data.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROB_SUM_TOL = 1e-9


def _positive_int(name: str, value) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _frozen(values, dtype=None) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ClipSpec:
    """Shared geometry and capacity of every clip in a corpus.

    T frames of H x W pixels, masks on the h x w grid at stride S,
    K real classes plus one no-object slot, N_v prediction slots,
    C-dimensional embeddings.
    """

    T: int
    H: int
    W: int
    S: int
    K: int
    N_v: int
    C: int

    def __post_init__(self):
        for name in ("T", "H", "W", "S", "K", "N_v", "C"):
            object.__setattr__(self, name, _positive_int(name, getattr(self, name)))
        if self.H % self.S != 0 or self.W % self.S != 0:
            raise ValueError(f"S={self.S} must divide H={self.H} and W={self.W} exactly")

    @property
    def h(self) -> int:
        return self.H // self.S

    @property
    def w(self) -> int:
        return self.W // self.S

    def to_dict(self) -> dict:
        return {"T": self.T, "H": self.H, "W": self.W, "S": self.S,
                "K": self.K, "N_v": self.N_v, "C": self.C}

    @classmethod
    def from_dict(cls, data: dict) -> "ClipSpec":
        missing = {"T", "H", "W", "S", "K", "N_v", "C"} - set(data)
        if missing:
            raise ValueError(f"spec is missing fields: {sorted(missing)}")
        return cls(T=data["T"], H=data["H"], W=data["W"], S=data["S"],
                   K=data["K"], N_v=data["N_v"], C=data["C"])


@dataclass(frozen=True)
class GroundTruthTrack:
    """One annotated instance: class id plus T binary masks (h x w each)."""

    class_id: int
    masks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "masks", _frozen(self.masks))


@dataclass(frozen=True)
class PredictionTrack:
    """One prediction slot: T class-probability vectors and T soft masks."""

    class_probs: np.ndarray
    mask_probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "class_probs", _frozen(self.class_probs, np.float64))
        object.__setattr__(self, "mask_probs", _frozen(self.mask_probs, np.float64))


@dataclass(frozen=True)
class Assignment:
    """Injective map from ground-truth indices to prediction slots."""

    pairs: tuple
    total_cost: float

    def __post_init__(self):
        object.__setattr__(self, "pairs",
                           tuple((int(g), int(s)) for g, s in self.pairs))
        object.__setattr__(self, "total_cost", float(self.total_cost))

    def slot_of(self, gt_index: int):
        for g, s in self.pairs:
            if g == gt_index:
                return s
        return None


@dataclass(frozen=True)
class Clip:
    """Ground-truth tracks plus optional prediction tracks for one clip."""

    gt: tuple
    pred: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "gt", tuple(self.gt))
        if self.pred is not None:
            object.__setattr__(self, "pred", tuple(self.pred))


@dataclass(frozen=True)
class Corpus:
    """A set of clips sharing one ClipSpec, plus the seed that built it."""

    spec: ClipSpec
    clips: tuple
    seed: int
    generator: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "clips", tuple(self.clips))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class Violation:
    """One invariant breach, naming clip, track, frame, and rule."""

    clip: int
    kind: str
    track: int | None
    frame: int | None
    rule: str

    def __str__(self) -> str:
        where = f"clip {self.clip}"
        if self.track is not None:
            where += f" {self.kind}[{self.track}]"
        if self.frame is not None:
            where += f" frame {self.frame}"
        return f"{where}: {self.rule}"


def _check_gt(spec: ClipSpec, ci: int, ti: int, track: GroundTruthTrack, out: list):
    masks = np.asarray(track.masks)
    if not isinstance(track.class_id, (int, np.integer)) or not (0 <= track.class_id < spec.K):
        out.append(Violation(ci, "gt", ti, None,
                             f"class_id {track.class_id!r} not in [0, {spec.K})"))
    if masks.ndim != 3 or masks.shape[0] != spec.T:
        count = masks.shape[0] if masks.ndim >= 1 else 0
        out.append(Violation(ci, "gt", ti, None, f"mask count {count} != T={spec.T}"))
        return
    if masks.shape[1:] != (spec.h, spec.w):
        out.append(Violation(ci, "gt", ti, None,
                             f"mask shape {masks.shape[1:]} != ({spec.h}, {spec.w})"))
        return
    binary = np.isin(masks, (0, 1)).reshape(spec.T, -1).all(axis=1)
    for t in np.flatnonzero(~binary).tolist():
        out.append(Violation(ci, "gt", ti, t, "mask entries not in {0, 1}"))
    if not masks.any():
        out.append(Violation(ci, "gt", ti, None, "all frames empty"))


def _check_pred(spec: ClipSpec, ci: int, ti: int, track: PredictionTrack, out: list):
    probs = np.asarray(track.class_probs)
    masks = np.asarray(track.mask_probs)
    if probs.shape != (spec.T, spec.K + 1):
        out.append(Violation(ci, "pred", ti, None,
                             f"class_probs shape {probs.shape} != ({spec.T}, {spec.K + 1})"))
    else:
        # each rule once over all frames; within a frame the first rule
        # that fails is the one reported. Only finite rows reach the sum
        # rule, so the others are zeroed rather than summed (inf - inf).
        finite = np.isfinite(probs).all(axis=1)
        negative = (probs < 0).any(axis=1)
        sums = np.where(finite[:, None], probs, 0.0).sum(axis=1)
        off_sum = np.abs(sums - 1.0) > PROB_SUM_TOL
        for t in np.flatnonzero(~finite | negative | off_sum).tolist():
            if not finite[t]:
                out.append(Violation(ci, "pred", ti, t, "non-finite class probability"))
            elif negative[t]:
                out.append(Violation(ci, "pred", ti, t, "negative class probability"))
            else:
                out.append(Violation(ci, "pred", ti, t,
                                     f"class probs sum to {float(sums[t]):.12g}, not 1"))
    if masks.shape != (spec.T, spec.h, spec.w):
        out.append(Violation(ci, "pred", ti, None,
                             f"mask_probs shape {masks.shape} != ({spec.T}, {spec.h}, {spec.w})"))
    else:
        frames = masks.reshape(spec.T, -1)
        finite = np.isfinite(frames).all(axis=1)
        outside = ((frames < 0) | (frames > 1)).any(axis=1)
        for t in np.flatnonzero(~finite | outside).tolist():
            if not finite[t]:
                out.append(Violation(ci, "pred", ti, t, "non-finite mask probability"))
            else:
                out.append(Violation(ci, "pred", ti, t, "mask probabilities outside [0, 1]"))


def validate(corpus: Corpus) -> list:
    """Check every type invariant; return the (possibly empty) violation list.

    Pure and idempotent: violations are data, not failures.
    """
    out: list = []
    for ci, clip in enumerate(corpus.clips):
        for ti, track in enumerate(clip.gt):
            _check_gt(corpus.spec, ci, ti, track, out)
        if clip.pred is not None:
            for ti, track in enumerate(clip.pred):
                _check_pred(corpus.spec, ci, ti, track, out)
    return out


# ---------------------------------------------------------------------------
# RLE codec: column-major counts, alternating 0-runs then 1-runs, starting
# with the 0-run (possibly zero-length).
# ---------------------------------------------------------------------------

def encode_mask_rle(mask) -> dict:
    """Encode a binary h x w mask as {"size": [h, w], "counts": [...]}."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {m.shape}")
    if not np.isin(m, (0, 1)).all():
        raise ValueError("mask entries must be 0 or 1")
    h, w = m.shape
    flat = m.astype(np.uint8).ravel(order="F")
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    counts = np.diff(bounds).tolist()
    if flat[0] == 1:
        counts = [0] + counts
    return {"size": [h, w], "counts": counts}


def decode_mask_rle(record: dict) -> np.ndarray:
    """Decode an RLE record back to a binary h x w uint8 mask."""
    try:
        h, w = (int(v) for v in record["size"])
        counts = [int(c) for c in record["counts"]]
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"malformed RLE record: {record!r}") from None
    if any(c < 0 for c in counts):
        raise ValueError("RLE counts must be nonnegative")
    total = sum(counts)
    if total != h * w:
        raise ValueError(f"RLE counts sum to {total}, expected {h * w}")
    flat = np.zeros(h * w, dtype=np.uint8)
    pos = 0
    value = 0
    for count in counts:
        if value:
            flat[pos:pos + count] = 1
        pos += count
        value ^= 1
    return flat.reshape((h, w), order="F")


# ---------------------------------------------------------------------------
# Corpus JSON serialization. Field names are fixed:
#   {"spec": {...}, "seed": n, "clips": [{"gt": [...], "pred": [...] | null}]}
# Prediction tracks use {"class_probs": [[...] x T],
#                        "mask_probs": [[row-major h*w floats] x T]}.
# ---------------------------------------------------------------------------

def corpus_to_dict(corpus: Corpus) -> dict:
    clips = []
    for clip in corpus.clips:
        gt = [{"class_id": int(track.class_id),
               "masks": [encode_mask_rle(m) for m in track.masks]}
              for track in clip.gt]
        pred = None
        if clip.pred is not None:
            pred = [{"class_probs": track.class_probs.tolist(),
                     "mask_probs": [frame.ravel(order="C").tolist()
                                    for frame in track.mask_probs]}
                    for track in clip.pred]
        clips.append({"gt": gt, "pred": pred})
    doc = {"spec": corpus.spec.to_dict(), "seed": corpus.seed, "clips": clips}
    if corpus.generator is not None:
        doc["generator"] = corpus.generator
    return doc


def corpus_from_dict(doc: dict) -> Corpus:
    for field in ("spec", "seed", "clips"):
        if field not in doc:
            raise ValueError(f"corpus document is missing field {field!r}")
    spec = ClipSpec.from_dict(doc["spec"])
    clips = []
    for entry in doc["clips"]:
        gt = [GroundTruthTrack(class_id=int(rec["class_id"]),
                               masks=np.stack([decode_mask_rle(r) for r in rec["masks"]]))
              for rec in entry["gt"]]
        pred = None
        if entry.get("pred") is not None:
            pred = []
            for rec in entry["pred"]:
                probs = np.asarray(rec["class_probs"], dtype=np.float64)
                frames = [np.asarray(row, dtype=np.float64).reshape(spec.h, spec.w)
                          for row in rec["mask_probs"]]
                pred.append(PredictionTrack(class_probs=probs, mask_probs=np.stack(frames)))
        clips.append(Clip(gt=tuple(gt), pred=tuple(pred) if pred is not None else None))
    return Corpus(spec=spec, clips=tuple(clips), seed=int(doc["seed"]),
                  generator=doc.get("generator"))


def dump_json(doc) -> str:
    """Canonical JSON text: sorted keys, no whitespace, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def save_corpus(corpus: Corpus, path) -> None:
    Path(path).write_text(dump_json(corpus_to_dict(corpus)))


def load_corpus(path) -> Corpus:
    return corpus_from_dict(json.loads(Path(path).read_text()))
