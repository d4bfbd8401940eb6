"""Core data model: clip geometry, ground-truth and prediction tracks,
assignments, corpora, and the column-major RLE mask codec.

All masks live on the stride-S grid (h = H/S, w = W/S). Ground-truth masks
are binary; an all-zero mask means the object is absent in that frame.
Prediction tracks carry per-frame class-probability vectors of length K+1
(index K is the no-object class) and soft masks with entries in [0, 1].

Every type is immutable after construction (arrays are copied and marked
read-only; the loader's tracks are read-only views of one array per clip
instead), so instances can be shared freely across threads. Invariant
checking is deliberately kept out of the constructors: corpora loaded from
disk may be malformed, and :func:`validate` reports violations as data.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import numbers
import operator
import os
import struct
from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .rng import checked_seed

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

    @classmethod
    def _of(cls, class_id: int, masks: np.ndarray) -> GroundTruthTrack:
        """An int and a read-only uint8 array, kept as given: the loader's views."""
        self = object.__new__(cls)
        self.__dict__.update(class_id=class_id, masks=masks)
        return self


@dataclass(frozen=True)
class PredictionTrack:
    """One prediction slot: T class-probability vectors and T soft masks."""

    class_probs: np.ndarray
    mask_probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "class_probs", _frozen(self.class_probs, np.float64))
        object.__setattr__(self, "mask_probs", _frozen(self.mask_probs, np.float64))

    @classmethod
    def _of(cls, class_probs: np.ndarray, mask_probs: np.ndarray) -> PredictionTrack:
        """Two read-only float64 arrays, kept as given: the loader's views."""
        self = object.__new__(cls)
        self.__dict__.update(class_probs=class_probs, mask_probs=mask_probs)
        return self


@dataclass(frozen=True)
class Assignment:
    """Injective map from ground-truth indices to prediction slots."""

    pairs: tuple
    total_cost: float

    def __post_init__(self):
        object.__setattr__(self, "pairs",
                           tuple((int(g), int(s)) for g, s in self.pairs))
        object.__setattr__(self, "total_cost", float(self.total_cost))

    @classmethod
    def _of(cls, pairs: tuple, total_cost: float) -> Assignment:
        """A tuple of (int, int) tuples and a float, kept as given: a solver's result."""
        self = object.__new__(cls)
        self.__dict__.update(pairs=pairs, total_cost=total_cost)
        return self


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
        object.__setattr__(self, "seed", checked_seed(_integer("seed", self.seed)))
        if self.generator is not None:
            _need(self.generator, dict, "generator")


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


def _frame_faults(arrays: list, shape: tuple, rule, misfit) -> dict:
    """{index: [(frame, rule text), ...]} for each of `arrays` with something
    to report: ``[(None, misfit(array))]`` if its shape is not `shape`, else
    the pairs `rule` yields for it. `rule` runs once, over the stacked arrays
    of `shape`, and yields (stack index, frame, rule text) in stack order."""
    faults = {i: [(None, misfit(a))] for i, a in enumerate(arrays) if a.shape != shape}
    fits = [i for i in range(len(arrays)) if i not in faults]
    if fits:
        for j, t, text in rule(np.stack([arrays[i] for i in fits])):
            faults.setdefault(fits[j], []).append((t, text))
    return faults


def _binary_frames(masks: np.ndarray):
    binary = ((masks == 0) | (masks == 1)).reshape(masks.shape[:2] + (-1,)).all(axis=2)
    for j, t in np.argwhere(~binary).tolist():
        yield j, t, "mask entries not in {0, 1}"
    for j in np.flatnonzero(~masks.reshape(len(masks), -1).any(axis=1)).tolist():
        yield j, None, "all frames empty"


def _class_frames(probs: np.ndarray):
    # within a frame the first rule that fails is the one reported. Only
    # finite rows reach the sum rule, so the others are zeroed rather than
    # summed (inf - inf).
    finite = np.isfinite(probs).all(axis=2)
    negative = (probs < 0).any(axis=2)
    sums = np.where(finite[..., None], probs, 0.0).sum(axis=2)
    off_sum = np.abs(sums - 1.0) > PROB_SUM_TOL
    for j, t in np.argwhere(~finite | negative | off_sum).tolist():
        if not finite[j, t]:
            yield j, t, "non-finite class probability"
        elif negative[j, t]:
            yield j, t, "negative class probability"
        else:
            yield j, t, f"class probs sum to {float(sums[j, t]):.12g}, not 1"


def _mask_frames(masks: np.ndarray):
    frames = masks.reshape(masks.shape[:2] + (-1,))
    finite = np.isfinite(frames).all(axis=2)
    outside = ((frames < 0) | (frames > 1)).any(axis=2)
    for j, t in np.argwhere(~finite | outside).tolist():
        if not finite[j, t]:
            yield j, t, "non-finite mask probability"
        else:
            yield j, t, "mask probabilities outside [0, 1]"


def _check_gt(spec: ClipSpec, ci: int, tracks: tuple, out: list):
    def misfit(masks):
        if masks.ndim != 3 or masks.shape[0] != spec.T:
            return f"mask count {masks.shape[0] if masks.ndim else 0} != T={spec.T}"
        return f"mask shape {masks.shape[1:]} != ({spec.h}, {spec.w})"

    faults = _frame_faults([t.masks for t in tracks], (spec.T, spec.h, spec.w),
                           _binary_frames, misfit)
    for ti, track in enumerate(tracks):
        cid = track.class_id    # the loader's integer rule: a bool is no class id
        if (isinstance(cid, bool) or not isinstance(cid, (int, np.integer))
                or not 0 <= cid < spec.K):
            out.append(Violation(ci, "gt", ti, None, f"class_id {cid!r} not in [0, {spec.K})"))
        out.extend(Violation(ci, "gt", ti, t, rule) for t, rule in faults.get(ti, ()))


def _check_pred(spec: ClipSpec, ci: int, tracks: tuple, out: list):
    faults = []
    for name, shape, rule in (("class_probs", (spec.T, spec.K + 1), _class_frames),
                              ("mask_probs", (spec.T, spec.h, spec.w), _mask_frames)):
        def misfit(a, name=name, shape=shape):
            return f"{name} shape {a.shape} != {shape}"

        faults.append(_frame_faults([getattr(t, name) for t in tracks], shape, rule, misfit))
    for ti in sorted(faults[0].keys() | faults[1].keys()):
        found = faults[0].get(ti, []) + faults[1].get(ti, [])
        out.extend(Violation(ci, "pred", ti, t, rule) for t, rule in found)


def validate(corpus: Corpus) -> list:
    """Check every type invariant; return the (possibly empty) violation list.

    Pure and idempotent: violations are data, not failures. Each rule runs
    once per clip, over the stacked arrays of the tracks whose shapes
    conform; violations come clip by clip, ground truth before
    predictions, then track by track and frame by frame.
    """
    out: list = []
    for ci, clip in enumerate(corpus.clips):
        _check_gt(corpus.spec, ci, clip.gt, out)
        if clip.pred is not None:
            if len(clip.gt) > len(clip.pred):
                out.append(Violation(ci, "gt", None, None,
                                     f"{len(clip.gt)} ground-truth tracks exceed "
                                     f"{len(clip.pred)} prediction slots"))
            _check_pred(corpus.spec, ci, clip.pred, out)
    return out


# ---------------------------------------------------------------------------
# RLE codec: column-major counts, alternating 0-runs then 1-runs, starting
# with the 0-run (possibly zero-length).
# ---------------------------------------------------------------------------

def encode_mask_rle(mask) -> dict:
    """Encode a binary h x w mask as {"size": [h, w], "counts": [...]}. A
    mask with no cells is {"size": [h, w], "counts": [0]}."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {m.shape}")
    return _rle_records(m[None])[0]


def _rle_records(masks) -> list:
    """The RLE records of a ``(T, h, w)`` stack of binary masks, frame by
    frame, from one change-point pass over all T frames.

    Each frame is read column-major behind one extra 0 cell, so that every
    frame's runs start with a 0-run; that run is then one cell too long,
    and is shortened, to zero length if the frame's first cell is 1. A
    stack that is not 3-D fails, or gives no records, as iterating over its
    frames with :func:`encode_mask_rle` does."""
    m = np.asarray(masks)
    if m.ndim != 3:
        return [encode_mask_rle(frame) for frame in m]
    if not ((m == 0) | (m == 1)).all():
        raise ValueError("mask entries must be 0 or 1")
    n_frames, h, w = m.shape
    n = h * w + 1       # a frame's cells behind its extra 0 cell
    cells = np.zeros((n_frames, n), dtype=np.uint8)
    cells[:, 1:] = m.transpose(0, 2, 1).reshape(n_frames, n - 1)
    flat = cells.ravel()
    starts = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::n] = True      # each frame's 0-run
    run_starts = np.flatnonzero(starts)
    counts = np.diff(run_starts, append=flat.size)
    firsts = np.flatnonzero(run_starts % n == 0)
    counts[firsts] -= 1
    counts = counts.tolist()
    bounds = firsts.tolist() + [len(counts)]
    return [{"size": [h, w], "counts": counts[a:b]} for a, b in zip(bounds, bounds[1:])]


def _rle_size(record) -> tuple:
    try:
        h, w = record["size"]
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"malformed RLE record: {record!r}") from None
    for v in (h, w):
        if type(v) is not int:
            raise ValueError(f"RLE size and counts must be integers, got {v!r}")
    return h, w


def _rle_counts(record, size: tuple) -> list:
    """The run lengths of one RLE record of grid `size`, or a ValueError
    naming the first rule the record breaks: its size is two integers equal
    to `size`, and its counts are integers, nonnegative, summing to h*w."""
    found = _rle_size(record)
    if found != size:
        raise ValueError(f"RLE size {found} != {size}")
    try:
        counts = list(record["counts"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"malformed RLE record: {record!r}") from None
    for v in counts:
        if type(v) is not int:
            raise ValueError(f"RLE size and counts must be integers, got {v!r}")
    if any(c < 0 for c in counts):
        raise ValueError("RLE counts must be nonnegative")
    total = sum(counts)
    if total != found[0] * found[1]:
        raise ValueError(f"RLE counts sum to {total}, expected {found[0] * found[1]}")
    return counts


def _joined_runs(runs: list) -> list:
    """The records' run lengths in one list, each record's padded to an even
    count with a zero-length 1-run, so that run i holds the value i & 1."""
    joined = []
    for run in runs:
        joined += run
        if len(run) & 1:
            joined.append(0)
    return joined


def _checked_runs(records: list, size: tuple):
    """`_joined_runs` of the records' counts if every record keeps the rules
    of `_rle_counts`, checked over all records at once; else None."""
    try:
        runs = [r["counts"] for r in records]
        sizes = [r["size"] for r in records]
    except (KeyError, TypeError):
        return None
    if not set(map(type, runs)) <= {list} or sizes.count(list(size)) != len(sizes):
        return None
    joined = _joined_runs(runs)
    if (not set(map(type, chain(joined, *sizes))) <= {int} or min(joined, default=0) < 0
            or list(map(sum, runs)) != [size[0] * size[1]] * len(runs)):
        return None
    return joined


def _rle_masks(records: list, size: tuple, name=None) -> np.ndarray:
    """RLE `records` of grid `size` decoded into one C-contiguous uint8
    ``(len(records), h, w)`` array by a single ``np.repeat``.

    The rules of `_rle_counts` are checked over all records at once. If a
    record breaks one, the records are checked one by one in order, and
    the first at fault raises its ValueError, prefixed with ``name(i)``
    when `name` is given. Sizes are checked before any array is allocated.
    """
    joined = _checked_runs(records, size)
    if joined is None:
        runs = []
        for i, record in enumerate(records):
            try:
                runs.append(_rle_counts(record, size))
            except ValueError as exc:
                if name is None:
                    raise
                raise ValueError(f"{name(i)}: {exc}") from None
        joined = _joined_runs(runs)
    values = np.arange(len(joined), dtype=np.uint8) & 1
    cells = np.repeat(values, np.array(joined, dtype=np.int64))
    # each record is column-major
    cells = cells.reshape(len(records), size[1], size[0]).transpose(0, 2, 1)
    return np.ascontiguousarray(cells)


def decode_mask_rle(record: dict) -> np.ndarray:
    """Decode an RLE record back to a binary h x w uint8 mask. Size and
    counts must be JSON integers (`int`, not `bool` or `float`)."""
    return _rle_masks([record], _rle_size(record))[0]


# ---------------------------------------------------------------------------
# Corpus JSON serialization. Field names are fixed:
#   {"spec": {...}, "seed": n, "clips": [{"gt": [...], "pred": [...] | null}]}
# Prediction tracks use {"class_probs": [[...] x T],
#                        "mask_probs": [[row-major h*w floats] x T]}.
# ---------------------------------------------------------------------------

def _gt_record(track: GroundTruthTrack) -> dict:
    return {"class_id": int(track.class_id), "masks": _rle_records(track.masks)}


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


def _checked_section(name: str, data, known: set, required=()) -> dict:
    """`data` if it is an object whose keys are all `known` and include every
    `required` one, else a ValueError naming the first unknown or missing key."""
    unknown = set(_need(data, dict, name)) - known
    if unknown:
        raise ValueError(f"unknown field {sorted(unknown)[0]!r} in {name}")
    for key in sorted(required):
        _field(data, key, name)
    return data


_NOT_NUMBERS = "entries must be numbers within the float64 range"


def _first_boolean(fields: list, widths: list, packed: np.ndarray):
    """The index of the first of `fields` whose rows hold a boolean, or
    None; `packed` holds their rows, `widths` long each, one after another.
    A boolean packs as 0 or 1, so only the rows holding a 0 or a 1 are
    scanned."""
    hits = np.flatnonzero((packed == 0) | (packed == 1))
    if not hits.size:
        return None
    counts = [len(rows) for rows, _, _ in fields]
    row_ends = np.cumsum(np.repeat(widths, counts))
    rows = list(chain.from_iterable(rows for rows, _, _ in fields))
    hit_rows = np.searchsorted(row_ends, hits, "right")     # ascending
    for r in hit_rows[np.diff(hit_rows, prepend=-1) > 0].tolist():
        if bool in map(type, rows[r]):
            return int(np.searchsorted(np.cumsum(counts), r, "right"))
    return None


def _float_array(fields: list) -> list:
    """For each ``(rows, where, shape)`` of `fields`, `rows` a list of equally
    long lists of JSON numbers, a read-only float64 array of `shape`, by
    default ``(len(rows), width)``: views, in order, of one buffer.

    Anything else, or an entry count that does not fill `shape`, raises
    ValueError naming the `where` of the first field at fault, the fault a
    field-by-field read would meet first. numpy reads a JSON string or
    boolean as a number, so each field's rows are packed as C doubles, by
    one ``struct.pack_into`` at the field's offset: that refuses a string,
    a null, a list, an object and an integer beyond float64. A boolean
    packs as 0 or 1; the buffer is scanned for one once (`_first_boolean`).
    """
    widths, fault = [], None
    for rows, where, _ in fields:
        try:
            found = set(map(len, rows))
            if len(found) > 1:
                raise ValueError(f"rows differ in length: {sorted(found)}")
        except (TypeError, ValueError) as exc:
            fault = ValueError(f"{where}: {exc}")
            break
        widths.append(found.pop() if found else 0)
    n = len(widths)     # the fields read so far, fault or not
    sizes = [len(rows) * width for (rows, _, _), width in zip(fields, widths)]
    starts = [0, *accumulate(sizes)]
    buf = np.empty(starts[-1])
    for k in range(n):
        entries = chain.from_iterable(fields[k][0])
        try:
            struct.pack_into(f"{sizes[k]}d", buf, 8 * starts[k], *entries)
        except struct.error:
            n, fault = k, ValueError(f"{fields[k][1]}: {_NOT_NUMBERS}")
            break
    buf.setflags(write=False)
    arrays = []
    for k in range(n):
        rows, where, shape = fields[k]
        try:
            arrays.append(buf[starts[k]:starts[k + 1]].reshape(
                (len(rows), widths[k]) if shape is None else shape))
        except (TypeError, ValueError) as exc:   # within the field, a boolean comes first
            n, fault = k + 1, ValueError(f"{where}: {exc}")
            break
    k = _first_boolean(fields[:n], widths[:n], buf[:starts[n]])
    if k is not None:
        raise ValueError(f"{fields[k][1]}: {_NOT_NUMBERS}")
    if fault is not None:
        raise fault
    return arrays


def _gt_tracks(records: list, ci: int, spec: ClipSpec) -> tuple:
    """Clip `ci`'s ground-truth records as tracks, their masks read-only
    views of one array that `_rle_masks` decodes from all their RLE records."""
    class_ids, masks, ends = [], [], []

    def name(i: int) -> str:    # mask record i of the clip
        ti = bisect_right(ends, i)
        return f"clip {ci} gt[{ti}] masks[{i - (ends[ti - 1] if ti else 0)}]"

    for ti, rec in enumerate(records):
        where = f"clip {ci} gt[{ti}]"
        try:
            _checked_section(where, rec, {"class_id", "masks"})
            masks += _need(_field(rec, "masks", where), list, f"{where} masks")
            class_ids.append(_integer(f"{where} class_id", _field(rec, "class_id", where)))
        except ValueError:
            del masks[ends[-1] if ends else 0:]
            _rle_masks(masks, (spec.h, spec.w), name)     # an earlier track's fault comes first
            raise
        ends.append(len(masks))
    cells = _rle_masks(masks, (spec.h, spec.w), name)
    cells.setflags(write=False)
    return tuple(GroundTruthTrack._of(c, cells[a:b])
                 for c, a, b in zip(class_ids, [0, *ends], ends))


def _pred_tracks(records: list, ci: int, spec: ClipSpec) -> tuple:
    """Clip `ci`'s prediction records as tracks, their arrays read-only
    views of one buffer that `_float_array` packs."""
    fields = []
    for ti, rec in enumerate(records):
        where = f"clip {ci} pred[{ti}]"
        try:
            _checked_section(where, rec, {"class_probs", "mask_probs"})
            probs = _need(_field(rec, "class_probs", where), list, f"{where} class_probs")
            rows = _need(_field(rec, "mask_probs", where), list, f"{where} mask_probs")
        except ValueError:
            _float_array(fields)    # an earlier track's fault comes first
            raise
        fields += [(probs, f"{where} class_probs", None),
                   (rows, f"{where} mask_probs", (len(rows), spec.h, spec.w))]
    arrays = _float_array(fields)
    return tuple(PredictionTrack._of(p, m) for p, m in zip(arrays[::2], arrays[1::2]))


def corpus_from_dict(doc: dict) -> Corpus:
    """Build a Corpus from a loaded document, one clip at a time. An unknown
    key, a missing field or a wrong container type raises ValueError naming
    the field, the first in document order; the values themselves are left
    to :func:`validate`.

    The document is taken over: each entry of ``doc["clips"]`` is replaced
    by None as its clip is read, so a clip's JSON is freed once its arrays
    exist, and the whole document and the whole corpus are never held at
    once."""
    _checked_section("corpus document", doc, {"spec", "seed", "clips", "generator"})
    spec, seed, entries = (_field(doc, k, "corpus document") for k in ("spec", "seed", "clips"))
    spec = ClipSpec.from_dict(_checked_section("spec", spec, set(field_names(ClipSpec))))
    generator = _need(doc["generator"], dict, "generator") if "generator" in doc else None
    clips = []
    for ci in range(len(_need(entries, list, "clips"))):
        entry, entries[ci] = entries[ci], None
        _checked_section(f"clip {ci}", entry, {"gt", "pred"})
        gt = _gt_tracks(_need(_field(entry, "gt", f"clip {ci}"), list, f"clip {ci} gt"), ci, spec)
        pred = _need(entry.get("pred"), (list, type(None)), f"clip {ci} pred")
        clips.append(Clip(gt=gt, pred=None if pred is None else _pred_tracks(pred, ci, spec)))
    return Corpus(spec=spec, clips=tuple(clips), seed=seed, generator=generator)


# The canonical encoder, also for the pieces the corpus writer streams.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dump_json(doc) -> str:
    """Canonical JSON text: sorted keys, no whitespace, trailing newline."""
    return _encode(doc) + "\n"


def _float_rows(rows: np.ndarray) -> str:
    """JSON text of a 2-D float64 array as a list of rows, the same bytes
    the encoder writes for ``rows.tolist()``.

    Each distinct value is formatted once, by the encoder, from a table of
    the distinct float64 bit patterns (so -0.0 and 0.0, and every NaN
    payload, keep their own entries): the patterns are sorted, the first
    of each run of equal ones is kept, and each entry's place in the table
    comes from ``np.searchsorted``. Generated masks hold a handful of
    distinct values, so this formats few floats. An array that is not 2-D,
    or is empty, is formatted by the encoder directly.
    """
    if rows.ndim != 2 or rows.size == 0:
        return _encode(rows.tolist())
    bits = np.ascontiguousarray(rows).view(np.uint64)
    ordered = np.sort(bits, axis=None)
    table = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    texts = np.array(_encode(table.view(np.float64).tolist())[1:-1].split(","), dtype=object)
    return "[" + ",".join(["[" + ",".join(row) + "]"
                           for row in texts[np.searchsorted(table, bits)].tolist()]) + "]"


def _pred_text(track: PredictionTrack) -> str:
    frames = track.mask_probs
    n = len(frames)     # a 0-d array raises TypeError, as iterating it does
    frames = frames.reshape(n, frames.size // n if n else 0)
    return (f'{{"class_probs":{_float_rows(track.class_probs)},'
            f'"mask_probs":{_float_rows(frames)}}}')


def write_file(path, chunks) -> str:
    """Write the text `chunks` to `path` as UTF-8, creating missing parent
    directories, and return the sha256 hex digest of the bytes written,
    hashed chunk by chunk as they are written. The chunks are streamed to a
    temporary file beside `path` that replaces `path` only once the last
    chunk is written: on any failure the temporary file is deleted and
    `path` is left as it was. A directory, such as ".", raises
    IsADirectoryError naming only `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    digest = hashlib.sha256()
    out = open(tmp, "xb")   # outside the try: a file this call did not make stays
    try:
        with out:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                out.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def save_corpus(corpus: Corpus, path) -> str:
    """Write ``dump_json(corpus_to_dict(corpus))`` to `path`, byte for
    byte, through :func:`write_file`, streamed clip by clip and track by
    track, keys in sorted order, so the whole document is never held in
    memory; return the sha256 hex digest of the bytes written. A corpus
    that cannot be encoded (a ground-truth mask that is not binary) raises
    ValueError and leaves `path` as it was."""
    return write_file(path, _corpus_chunks(corpus))


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
    """Decode the JSON file at `path`, as UTF-8 whatever the locale: every
    file tcovis reads (configs and corpora) goes through here.

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
    text = Path(path).read_bytes().decode("utf-8")
    try:
        return json.loads(text, parse_float=_FloatMemo().__getitem__)
    except _MemoFull:
        return json.loads(text)


def load_corpus(path) -> Corpus:
    """Read a corpus JSON file with :func:`read_json` and build it with
    :func:`corpus_from_dict`."""
    return corpus_from_dict(read_json(path))
