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

import errno
import json
import math
import numbers
import operator
import os
import struct
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path

import numpy as np

PROB_SUM_TOL = 1e-9
MASK_BINARIZE = 0.5     # a soft mask cell at or above it is foreground


def _integer(name: str, value) -> int:
    """`value` as an int: what `operator.index` takes (no float), less `bool`."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _number(name: str, value) -> float:
    """`value` as a finite float: any real number but a `bool`; a string,
    NaN, an infinity and an integer beyond float64 are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:   # an integer beyond float64
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def _positive_int(name: str, value) -> int:
    value = _integer(name, value)
    if not 1 <= value < 2**63:     # numpy sizes, counts and seeds are int64
        raise ValueError(f"{name} must be >= 1 and < 2**63, got {value}")
    return value


def field_names(cls, skip=()) -> tuple:
    """The names of a dataclass's fields in declaration order, less `skip`."""
    return tuple(f.name for f in fields(cls) if f.name not in skip)


def record_dict(record, skip=()) -> dict:
    """A record's fields as a JSON-ready dict, less `skip`; tuple values
    become lists, so the dict equals its JSON round trip. Unlike
    ``dataclasses.asdict`` it does not recurse into nested records."""
    out = {}
    for name in field_names(type(record), skip):
        value = getattr(record, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


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
        for name in field_names(ClipSpec):
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
        return record_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ClipSpec":
        return cls(**{name: _field(data, name, "spec") for name in field_names(cls)})


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
        object.__setattr__(self, "seed", _integer("seed", self.seed))


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
    cid = track.class_id    # the loader's integer rule: a bool is no class id
    if isinstance(cid, bool) or not isinstance(cid, (int, np.integer)) or not 0 <= cid < spec.K:
        out.append(Violation(ci, "gt", ti, None,
                             f"class_id {cid!r} not in [0, {spec.K})"))
    if masks.ndim != 3 or masks.shape[0] != spec.T:
        count = masks.shape[0] if masks.ndim >= 1 else 0
        out.append(Violation(ci, "gt", ti, None, f"mask count {count} != T={spec.T}"))
        return
    if masks.shape[1:] != (spec.h, spec.w):
        out.append(Violation(ci, "gt", ti, None,
                             f"mask shape {masks.shape[1:]} != ({spec.h}, {spec.w})"))
        return
    binary = ((masks == 0) | (masks == 1)).reshape(spec.T, -1).all(axis=1)
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
            if len(clip.gt) > len(clip.pred):
                out.append(Violation(ci, "gt", None, None,
                                     f"{len(clip.gt)} ground-truth tracks exceed "
                                     f"{len(clip.pred)} prediction slots"))
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
    if not ((m == 0) | (m == 1)).all():
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
    """Decode an RLE record back to a binary h x w uint8 mask. Size and
    counts must be JSON integers (`int`, not `bool` or `float`)."""
    try:
        h, w = record["size"]
        counts = list(record["counts"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"malformed RLE record: {record!r}") from None
    for v in (h, w, *counts):
        if type(v) is not int:
            raise ValueError(f"RLE size and counts must be integers, got {v!r}")
    if any(c < 0 for c in counts):
        raise ValueError("RLE counts must be nonnegative")
    total = sum(counts)
    if total != h * w:
        raise ValueError(f"RLE counts sum to {total}, expected {h * w}")
    # runs alternate 0, 1, 0, ...: run i holds the value i & 1
    flat = np.repeat(np.arange(len(counts), dtype=np.uint8) & 1, counts)
    return flat.reshape((h, w), order="F")


# ---------------------------------------------------------------------------
# Corpus JSON serialization. Field names are fixed:
#   {"spec": {...}, "seed": n, "clips": [{"gt": [...], "pred": [...] | null}]}
# Prediction tracks use {"class_probs": [[...] x T],
#                        "mask_probs": [[row-major h*w floats] x T]}.
# ---------------------------------------------------------------------------

def _gt_record(track: GroundTruthTrack) -> dict:
    return {"class_id": int(track.class_id),
            "masks": [encode_mask_rle(m) for m in track.masks]}


def corpus_to_dict(corpus: Corpus) -> dict:
    clips = []
    for clip in corpus.clips:
        gt = [_gt_record(track) for track in clip.gt]
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


_JSON_KINDS = {dict: "an object", list: "a list", (list, type(None)): "a list or null"}


def _need(value, kind, where: str):
    """Structural check of a loaded container: return `value` if it is a
    `kind`, else raise ValueError naming the field."""
    if not isinstance(value, kind):
        raise ValueError(f"{where} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def _field(record: dict, name: str, where: str):
    """`record[name]`, or a ValueError naming the missing field."""
    if name not in record:
        raise ValueError(f"{where} is missing field {name!r}")
    return record[name]


def _decoded(record, where: str) -> np.ndarray:
    """`decode_mask_rle`, with the record's location prefixed to its error."""
    try:
        return decode_mask_rle(record)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


_NOT_NUMBERS = "entries must be numbers within the float64 range"


def _float_array(rows: list, where: str, shape=None) -> np.ndarray:
    """`rows`, a list of equally long lists of JSON numbers, as a float64
    array of `shape`, by default ``(len(rows), width)``; anything else, or
    an entry count that does not fill `shape`, raises ValueError naming
    `where`. numpy reads a JSON string or boolean as a number, so the rows
    are packed as C doubles instead: that refuses a string, a null, a list,
    an object and an integer beyond float64. A boolean packs as 0 or 1, so
    only the rows holding a 0 or a 1 are scanned for one."""
    try:
        widths = set(map(len, rows))
        if len(widths) > 1:
            raise ValueError(f"rows differ in length: {sorted(widths)}")
        width = widths.pop() if widths else 0
        arr = np.empty((len(rows), width))
        try:
            struct.pack_into(f"{arr.size}d", arr, 0, *chain.from_iterable(rows))
        except struct.error:
            raise ValueError(_NOT_NUMBERS) from None
        hits = (arr == 0) | (arr == 1)
        if np.count_nonzero(hits) and any(bool in map(type, rows[i]) for i in
                                          np.flatnonzero(hits.any(axis=1)).tolist()):
            raise ValueError(_NOT_NUMBERS)
        return arr if shape is None else arr.reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def corpus_from_dict(doc: dict) -> Corpus:
    """Build a Corpus from a loaded document. A wrong container type, per
    clip and per track, raises ValueError naming the field; the values
    themselves are left to :func:`validate`."""
    _need(doc, dict, "corpus document")
    spec, seed, entries = (_field(doc, k, "corpus document") for k in ("spec", "seed", "clips"))
    spec = ClipSpec.from_dict(_need(spec, dict, "spec"))
    clips = []
    for ci, entry in enumerate(_need(entries, list, "clips")):
        _need(entry, dict, f"clip {ci}")
        gt = []
        for ti, rec in enumerate(_need(_field(entry, "gt", f"clip {ci}"), list, f"clip {ci} gt")):
            where = f"clip {ci} gt[{ti}]"
            _need(rec, dict, where)
            masks = _need(_field(rec, "masks", where), list, f"{where} masks")
            class_id = _integer(f"{where} class_id", _field(rec, "class_id", where))
            gt.append(GroundTruthTrack(class_id=class_id,
                                       masks=np.stack([_decoded(r, f"{where} masks[{k}]")
                                                       for k, r in enumerate(masks)])))
        pred = _need(entry.get("pred"), (list, type(None)), f"clip {ci} pred")
        if pred is not None:
            tracks = []
            for ti, rec in enumerate(pred):
                where = f"clip {ci} pred[{ti}]"
                _need(rec, dict, where)
                probs = _need(_field(rec, "class_probs", where), list, f"{where} class_probs")
                rows = _need(_field(rec, "mask_probs", where), list, f"{where} mask_probs")
                # held in locals until the next track's replace them: freeing each
                # array once copied fragmented the heap (+2.6% peak RSS on swap-corpus)
                probs = _float_array(probs, f"{where} class_probs")
                frames = _float_array(rows, f"{where} mask_probs", (len(rows), spec.h, spec.w))
                tracks.append(PredictionTrack(class_probs=probs, mask_probs=frames))
            pred = tuple(tracks)
        clips.append(Clip(gt=tuple(gt), pred=pred))
    return Corpus(spec=spec, clips=tuple(clips), seed=seed, generator=doc.get("generator"))


# The canonical encoder, also for the pieces the corpus writer streams.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dump_json(doc) -> str:
    """Canonical JSON text: sorted keys, no whitespace, trailing newline."""
    return _encode(doc) + "\n"


def _float_rows(rows: np.ndarray) -> str:
    """JSON text of a 2-D float64 array as a list of rows, the same bytes
    the encoder writes for ``rows.tolist()``.

    Each distinct value is formatted once, by the encoder, from a table
    that `np.unique` builds over the float64 bit patterns (so -0.0 and
    0.0, and every NaN payload, keep their own entries). Generated masks
    hold a handful of distinct values, so this formats few floats. An
    array that is not 2-D, or is empty, is formatted by the encoder
    directly.
    """
    if rows.ndim != 2 or rows.size == 0:
        return _encode(rows.tolist())
    bits = np.ascontiguousarray(rows).view(np.uint64)
    table, inverse = np.unique(bits.ravel(), return_inverse=True)
    texts = np.array(_encode(table.view(np.float64).tolist())[1:-1].split(","), dtype=object)
    return "[" + ",".join(["[" + ",".join(row) + "]"
                           for row in texts[inverse.reshape(bits.shape)].tolist()]) + "]"


def _pred_text(track: PredictionTrack) -> str:
    frames = track.mask_probs
    n = len(frames)     # a 0-d array raises TypeError, as iterating it does
    frames = frames.reshape(n, frames.size // n if n else 0)
    return (f'{{"class_probs":{_float_rows(track.class_probs)},'
            f'"mask_probs":{_float_rows(frames)}}}')


def write_file(path, chunks) -> None:
    """Write the text `chunks` to `path`, creating missing parent
    directories. The chunks are streamed to a temporary file beside `path`
    that replaces `path` only once the last chunk is written: on any
    failure the temporary file is deleted and `path` is left as it was. A
    directory, such as ".", raises IsADirectoryError naming only `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    out = open(tmp, "x")    # outside the try: a file this call did not make stays
    try:
        with out:
            out.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_corpus(corpus: Corpus, path) -> None:
    """Write ``dump_json(corpus_to_dict(corpus))`` to `path`, byte for
    byte, through :func:`write_file`, streamed clip by clip and track by
    track, keys in sorted order, so the whole document is never held in
    memory. A corpus that cannot be encoded (a ground-truth mask that is
    not binary) raises ValueError and leaves `path` as it was."""
    write_file(path, _corpus_chunks(corpus))


def _corpus_chunks(corpus: Corpus):
    yield '{"clips":['
    for ci, clip in enumerate(corpus.clips):
        gt_text = _encode([_gt_record(track) for track in clip.gt])
        yield f'{"," if ci else ""}{{"gt":{gt_text},"pred":'
        if clip.pred is None:
            yield "null}"
            continue
        yield "["
        for ti, track in enumerate(clip.pred):
            yield f'{"," if ti else ""}{_pred_text(track)}'
        yield "]}"
    yield "]"
    if corpus.generator is not None:
        yield f',"generator":{_encode(corpus.generator)}'
    yield f',"seed":{_encode(corpus.seed)},"spec":{_encode(corpus.spec.to_dict())}}}\n'


# Distinct float texts one read_json call parses through its memo before
# it falls back to plain json.loads. Without a budget, a corpus of
# all-distinct floats decodes 2.4-2.8x slower than plain json.loads.
_FLOAT_MEMO_BUDGET = 1024


class _MemoFull(Exception):
    """The float memo's budget is spent. Deliberately not a ValueError
    (callers catch those as malformed input) nor a StopIteration (the
    json scanner turns those into "Expecting value")."""


class _FloatMemo(dict):
    """JSON float text -> float, parsed once per distinct text."""

    __slots__ = ()

    def __missing__(self, text: str) -> float:
        if len(self) >= _FLOAT_MEMO_BUDGET:
            raise _MemoFull
        value = self[text] = float(text)
        return value


def read_json(path):
    """Decode the JSON file at `path`: every file tcovis reads (configs,
    corpora, parameter bundles) goes through here.

    The text is decoded with ``json.loads(text, parse_float=memo.__getitem__)``
    over a fresh memo per call, so each distinct float text is parsed once
    and every repeat is a dict lookup. Generated corpora hold only a few
    distinct float texts. ``float(text)`` is the parser plain ``json.loads``
    uses, so the values are bit-identical: ``-0.0`` and ``0.0`` are
    different texts, ``1e400`` reads as inf, and ``NaN``/``Infinity`` still
    go through ``parse_constant``. The memo holds at most
    ``_FLOAT_MEMO_BUDGET`` texts; the next distinct one aborts the decode
    and the text is decoded again with plain ``json.loads``, so data of
    mostly distinct floats costs one aborted partial pass. Malformed text
    raises the same ``json.JSONDecodeError`` either way, since both passes
    use the same scanner.
    """
    text = Path(path).read_text()
    try:
        return json.loads(text, parse_float=_FloatMemo().__getitem__)
    except _MemoFull:
        return json.loads(text)


def load_corpus(path) -> Corpus:
    """Read a corpus JSON file with :func:`read_json` and build it with
    :func:`corpus_from_dict`."""
    return corpus_from_dict(read_json(path))
