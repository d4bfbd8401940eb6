"""Property tests drawn by hypothesis: the assignment solver, the two
supervision strategies, the corpus writer and loader, the RLE codec, the
AP envelope and its invariances, the parameter constructors, and the
CLI's handling of malformed config files.

Solver entries are mostly small integers, so every total is an exact sum
and those properties are checked with ``==``. Entries drawn from tenths
round, and the solver is checked against the oracle up to its tie
tolerance.
"""

import contextlib
import copy
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tcovis.cli import main
from tcovis.assignment import (_TAU_FACTOR, BRUTE_FORCE_MAX_COLS, BRUTE_FORCE_MAX_ROWS,
                               brute_force_assign, build_global_cost_matrix,
                               global_instance_assignment, hungarian, locpro_assignment)
from tcovis.cost import LossWeights
from tcovis.evaluation import (IOU_THRESHOLDS, RECALL_POINTS, EvalReport, _gather,
                               _interpolated_ap, compute_ap)
from tcovis.synth import NoiseConfig, SceneConfig, build_clip, generate_corpus
from tcovis.model import (Clip, ClipSpec, Corpus, GroundTruthTrack, PredictionTrack,
                          _float_array, _rle_records, corpus_to_dict, decode_mask_rle,
                          dump_json, encode_mask_rle, load_corpus, save_corpus, validate)
from tcovis.ste import clip_tracks, init_mhca_params, init_ref_decoder_params, run_clip


def matrix_shapes(max_rows, max_cols):
    """(rows, cols) with 1 <= rows <= cols."""
    return st.integers(1, max_rows).flatmap(
        lambda nr: st.tuples(st.just(nr), st.integers(nr, max_cols)))


def integer_matrices(max_rows, max_cols, low, high):
    """Float matrices of whole numbers in [low, high] with rows <= cols."""
    return matrix_shapes(max_rows, max_cols).flatmap(lambda shape: arrays(
        np.int64, shape, elements=st.integers(low, high))).map(
        lambda m: m.astype(np.float64))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(integer_matrices(BRUTE_FORCE_MAX_ROWS, BRUTE_FORCE_MAX_COLS, -2, 2))
def test_hungarian_equals_brute_force(matrix):
    solver, oracle = hungarian(matrix), brute_force_assign(matrix)
    assert solver.pairs == oracle.pairs
    assert solver.total_cost == oracle.total_cost


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrix_shapes(6, 7).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.sampled_from((0.1, 0.2, 0.3)))))
def test_hungarian_within_tau_of_brute_force_on_rounded_sums(matrix):
    # both rank by the same pair sum; the solver may miss a total that rounds
    # one ULP cheaper than its tight-edge optimum, never more than tau
    tau = _TAU_FACTOR * max(1.0, float(np.abs(matrix).max())) * max(matrix.shape[0], 4)
    gap = hungarian(matrix).total_cost - brute_force_assign(matrix).total_cost
    assert 0.0 <= gap <= tau


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(integer_matrices(16, 20, -3, 3).flatmap(lambda m: st.tuples(
    st.just(m), st.permutations(range(m.shape[0])), st.permutations(range(m.shape[1])))))
def test_total_cost_invariant_to_row_and_column_order(case):
    matrix, rows, cols = case
    assert hungarian(matrix[np.ix_(rows, cols)]).total_cost == hungarian(matrix).total_cost


# -- supervision strategies -----------------------------------------------------

@st.composite
def scenes(draw):
    """A small scene and noise config: staggered entries, so locpro runs
    several stages, and optionally an identity swap."""
    T = draw(st.integers(2, 5))
    spec = ClipSpec(T=T, H=32, W=32, S=4, K=draw(st.integers(1, 3)),
                    N_v=draw(st.integers(3, 6)), C=4)
    swap_mode = draw(st.sampled_from(("none", "early_swap")))
    lo = 2 if swap_mode == "early_swap" else 1      # a swap needs two tracks
    hi = draw(st.integers(lo, 3))
    entry = draw(st.integers(1, T))
    scene = SceneConfig(spec=spec, n_objects=(lo, hi), entry_frame=(1, entry), size=(1, 2))
    noise = NoiseConfig(mask_jitter=draw(st.sampled_from((0.0, 0.02, 0.1))),
                        class_confusion=draw(st.sampled_from((0.0, 0.2, 0.5))),
                        swap_mode=swap_mode, swap_frame=draw(st.integers(2, T)))
    return scene, noise


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(scenes(), st.integers(0, 2**31 - 1))
def test_gia_total_never_exceeds_locpro(config, seed):
    scene, noise = config
    clip = build_clip(scene, noise, seed, 0)
    weights = LossWeights()
    costs = build_global_cost_matrix(clip.gt, clip.pred, weights)
    gia = global_instance_assignment(clip.gt, clip.pred, weights)
    loc = locpro_assignment(clip.gt, clip.pred, weights, global_costs=costs)
    # the refinement's tie tolerance for this matrix
    tau = 64.0 * np.finfo(np.float64).eps * max(1.0, float(np.abs(costs).max())) \
        * max(costs.shape[0], 4)
    assert gia.total_cost <= loc.total_cost + tau


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scenes(), st.integers(0, 2**31 - 1), st.integers(1, 4), st.randoms(use_true_random=False))
def test_ap_invariant_to_clip_and_slot_order(config, seed, n_clips, shuffle):
    scene, noise = config
    corpus = generate_corpus(scene, noise, n_clips, seed)
    clips = list(corpus.clips)
    shuffle.shuffle(clips)
    clips = [Clip(gt=clip.gt, pred=tuple(shuffle.sample(clip.pred, len(clip.pred))))
             for clip in clips]
    base = compute_ap(corpus)
    shuffled = compute_ap(Corpus(spec=corpus.spec, clips=tuple(clips), seed=corpus.seed))
    assert shuffled == base


# -- corpus writer ------------------------------------------------------------

SPECIAL_FLOATS = (-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16,
                  1e-5, 0.5, 1.0)


def float_arrays(shape):
    """Repeated special values, all-distinct values, or a mix of both."""
    return st.one_of(
        arrays(np.float64, shape, elements=st.sampled_from(SPECIAL_FLOATS)),
        arrays(np.float64, shape, elements=st.floats(), unique=True),
        arrays(np.float64, shape, elements=st.sampled_from(SPECIAL_FLOATS) | st.floats()))


@st.composite
def corpora(draw):
    T, h, w, K = (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
                  draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    spec = ClipSpec(T=T, H=h, W=w, S=1, K=K, N_v=3, C=4)
    clips = []
    for _ in range(draw(st.integers(0, 3))):
        gt = tuple(GroundTruthTrack(class_id=draw(st.integers(0, K - 1)),
                                    masks=draw(arrays(np.uint8, (T, h, w),
                                                      elements=st.integers(0, 1))))
                   for _ in range(draw(st.integers(0, 2))))
        pred = draw(st.sampled_from(("none", "empty", "tracks")))
        tracks = None if pred == "none" else tuple(
            PredictionTrack(class_probs=draw(float_arrays((T, K + 1))),
                            mask_probs=draw(float_arrays((T, h, w))))
            for _ in range(draw(st.integers(1, 3)) if pred == "tracks" else 0))
        clips.append(Clip(gt=gt, pred=tracks))
    generator = draw(st.none() | st.dictionaries(st.text(max_size=3), st.integers() | st.none(),
                                                 max_size=2))
    return Corpus(spec=spec, clips=tuple(clips), seed=draw(st.integers(0, 2**64 - 1)),
                  generator=generator)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(corpora())
def test_save_corpus_writes_the_dict_dump(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.json"
        save_corpus(corpus, path)
        assert path.read_bytes() == dump_json(corpus_to_dict(corpus)).encode()


# -- RLE codec ------------------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12)),
              elements=st.integers(0, 1)))
def test_rle_round_trip(mask):
    record = encode_mask_rle(mask)
    assert record["size"] == list(mask.shape)
    assert sum(record["counts"]) == mask.size
    assert all(c > 0 for c in record["counts"][1:])
    decoded = decode_mask_rle(record)
    assert decoded.dtype == np.uint8
    assert np.array_equal(decoded, mask)


def rle_frame_reference(mask) -> dict:
    """One frame's record by the per-frame formula: column-major change
    points, and a zero-length 0-run first when the first cell is 1."""
    h, w = mask.shape
    flat = mask.astype(np.uint8).ravel(order="F")
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    counts = np.diff(np.concatenate(([0], changes, [flat.size]))).tolist()
    if flat[0] == 1:
        counts = [0] + counts
    return {"size": [h, w], "counts": counts}


def _first_cell_one():
    stack = np.zeros((3, 2, 4), np.uint8)
    stack[:, 0, 0] = 1
    stack[1, 1, 3] = 1      # and a frame whose last cell is 1 before one whose first is
    return stack


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(arrays(np.uint8, st.tuples(st.integers(0, 5), st.integers(1, 6), st.integers(1, 6)),
              elements=st.integers(0, 1)))
@example(np.zeros((4, 3, 5), np.uint8))
@example(np.ones((4, 3, 5), np.uint8))
@example(_first_cell_one())
@example(np.array([[[1]], [[0]], [[1]], [[1]]], np.uint8))
@example(np.zeros((0, 3, 5), np.uint8))
def test_track_rle_matches_the_frame_formula(stack):
    """The per-track encoder, the writer's ground-truth records and
    `encode_mask_rle` all give the per-frame formula's records."""
    expected = [rle_frame_reference(frame) for frame in stack]
    assert _rle_records(stack) == expected
    assert [encode_mask_rle(frame) for frame in stack] == expected
    clip = Clip(gt=(GroundTruthTrack(class_id=0, masks=stack),))
    spec = ClipSpec(T=1, H=1, W=1, S=1, K=1, N_v=1, C=1)
    doc = corpus_to_dict(Corpus(spec=spec, clips=(clip,), seed=0))
    assert doc["clips"][0]["gt"][0]["masks"] == expected


# -- AP envelope ----------------------------------------------------------------

def interpolated_ap_loop(flags, n_gt):
    """The 101-point walk: at each recall point, the best precision at that
    recall or beyond."""
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(arrays(np.bool_, st.tuples(st.integers(0, 60), st.integers(1, 10))), st.integers(0, 70))
def test_interpolated_ap_equals_the_walk(hits, n_gt):
    # one call over a whole hit table: each column bit-equal to its own walk
    assert _interpolated_ap(hits, n_gt).tolist() == [
        interpolated_ap_loop(flags.tolist(), n_gt) for flags in hits.T]


def greedy_match_at(ranked, clip_gts, threshold):
    """Greedy matching at one threshold as a scalar walk: each prediction
    takes the best still-free ground truth of its clip with IoU >=
    threshold; ties keep the lowest ground-truth index."""
    taken, flags = set(), []
    for det in ranked:
        best_iou, best_gi = -1.0, None
        for gi in clip_gts.get(det["clip"], ()):
            iou = float(det["ious"][gi])
            if (det["clip"], gi) not in taken and iou >= threshold and iou > best_iou:
                best_iou, best_gi = iou, gi
        if best_gi is not None:
            taken.add((det["clip"], best_gi))
        flags.append(best_gi is not None)
    return flags


def compute_ap_per_threshold(corpus):
    """compute_ap with the threshold loop outermost: every threshold ranks
    each class again, caps the AR@k lists again and walks each list once."""
    detections, gt_census = _gather(corpus)
    per_threshold, ar_hits = [], {1: [], 10: []}
    for threshold in IOU_THRESHOLDS:
        class_aps = []
        for cls in sorted(gt_census):
            dets = sorted((d for d in detections if d["label"] == cls),
                          key=lambda d: (-d["score"], d["clip_key"], d["slot_key"]))
            clip_gts = gt_census[cls]
            n_gt = sum(len(gis) for gis in clip_gts.values())
            class_aps.append(interpolated_ap_loop(greedy_match_at(dets, clip_gts, threshold), n_gt))
            for cap, hits in ar_hits.items():
                kept, seen = [], {}
                for det in dets:
                    if seen.get(det["clip"], 0) < cap:
                        kept.append(det)
                        seen[det["clip"]] = seen.get(det["clip"], 0) + 1
                hits.append(sum(greedy_match_at(kept, clip_gts, threshold)) / n_gt)
        per_threshold.append(float(np.mean(class_aps)))
    return EvalReport(ap=float(np.mean(per_threshold)), ap50=per_threshold[0],
                      ap75=per_threshold[5], ar1=float(np.mean(ar_hits[1])),
                      ar10=float(np.mean(ar_hits[10])), per_threshold=tuple(per_threshold))


@st.composite
def tied_corpora(draw):
    """Clips of 2 x 2 x 2 masks with tied scores and tied IoUs: each slot's
    no-object level comes from three values, and its mask is often a copy
    of one ground-truth mask or the union of two. N_v runs past the AR@10
    cap."""
    K, n_v = draw(st.integers(1, 3)), draw(st.integers(1, 14))
    spec = ClipSpec(T=2, H=2, W=2, S=1, K=K, N_v=n_v, C=4)
    soft = arrays(np.float64, (2, 2, 2), elements=st.sampled_from((0.0, 0.4, 0.6, 1.0)))
    clips = []
    for ci in range(draw(st.integers(1, 3))):
        gt = tuple(GroundTruthTrack(class_id=draw(st.integers(0, K - 1)),
                                    masks=draw(arrays(np.uint8, (2, 2, 2),
                                                      elements=st.integers(0, 1))))
                   for _ in range(draw(st.integers(1 if ci == 0 else 0, min(n_v, 5)))))
        masks = st.sampled_from([g.masks.astype(np.float64) for g in gt]) if gt else soft
        pred = []
        for _ in range(n_v):
            probs = np.zeros(K + 1)
            probs[K] = draw(st.sampled_from((0.125, 0.25, 0.5)))
            probs[draw(st.integers(0, K - 1))] = 1.0 - probs[K]
            mask = draw(st.one_of(soft, masks, st.tuples(masks, masks).map(np.maximum.reduce)))
            pred.append(PredictionTrack(class_probs=np.tile(probs, (2, 1)), mask_probs=mask))
        clips.append(Clip(gt=gt, pred=tuple(pred)))
    return Corpus(spec=spec, clips=tuple(clips), seed=0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tied_corpora())
def test_compute_ap_equals_the_per_threshold_walk(corpus):
    # repr prints the shortest text that reads back to the same float64,
    # so equal reprs mean bit-equal fields
    assert repr(compute_ap(corpus)) == repr(compute_ap_per_threshold(corpus))


# -- fail-closed loading ------------------------------------------------------------

def _valid_corpus_doc():
    spec = ClipSpec(T=2, H=8, W=8, S=4, K=2, N_v=3, C=4)
    rng = np.random.default_rng(0)
    gt = tuple(GroundTruthTrack(class_id=k, masks=np.eye(2, dtype=np.uint8)[None].repeat(2, 0))
               for k in range(2))
    pred = []
    for _ in range(3):
        probs = rng.random((2, 3))
        pred.append(PredictionTrack(class_probs=probs / probs.sum(axis=1, keepdims=True),
                                    mask_probs=rng.random((2, 2, 2))))
    corpus = Corpus(spec=spec, clips=(Clip(gt=gt, pred=tuple(pred)),), seed=1,
                    generator={"name": "test"})
    return json.loads(dump_json(corpus_to_dict(corpus)))


VALID_DOC = _valid_corpus_doc()


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from((float("inf"), float("-inf"), float("nan"), 10**30, 10**400,
                      -1)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(("clips", 0, "gt", 0, "class_id"), float("inf"), False, "assign")
@example(("seed",), float("nan"), False, "eval")
@example(("clips", 0, "gt", 1, "masks", 0, "size"), [float("-inf"), 2], False, "assign")
@example(("clips", 0, "pred", 2, "mask_probs", 1, 3), 10**400, False, "eval")
@given(st.sampled_from(list(_paths(VALID_DOC))), JSON_VALUES, st.booleans(),
       st.sampled_from(("assign", "eval")))
def test_single_mutation_loads_or_exits_one(path, value, delete, command):
    doc = copy.deepcopy(VALID_DOC)
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.json"
        corpus.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, str(corpus), "--out-prefix", str(Path(tmp) / "out")])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ")


def _probability_entries(doc):
    """The path of every entry of every probability row in `doc`."""
    for ci, clip in enumerate(doc["clips"]):
        for ti, track in enumerate(clip["pred"]):
            for field in ("class_probs", "mask_probs"):
                for r, row in enumerate(track[field]):
                    for k in range(len(row)):
                        yield ("clips", ci, "pred", ti, field, r, k)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example(("clips", 0, "pred", 0, "class_probs", 0, 0), "0.5", "assign")
@example(("clips", 0, "pred", 1, "mask_probs", 1, 3), True, "eval")
@example(("clips", 0, "pred", 2, "class_probs", 1, 2), False, "assign")
@given(st.sampled_from(list(_probability_entries(VALID_DOC))), st.text() | st.booleans(),
       st.sampled_from(("assign", "eval")))
def test_string_or_boolean_probability_exits_one(path, value, command):
    doc = copy.deepcopy(VALID_DOC)
    row = doc
    for key in path[:-1]:
        row = row[key]
    row[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.json"
        corpus.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, str(corpus), "--out-prefix", str(Path(tmp) / "out")])
    assert code == 1
    assert err.getvalue().startswith(
        f"error: cannot load corpus {corpus}: clip {path[1]} pred[{path[3]}] {path[4]}: ")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example([[-0.0, 0.0, 5e-324, float("nan")], [2**53 + 1, -2**63, 2**64, float("-inf")]])
@given(st.integers(0, 5).flatmap(lambda width: st.lists(
    st.lists(st.floats() | st.integers(-2**70, 2**70), min_size=width, max_size=width),
    max_size=4)))
def test_probability_rows_read_like_numpy(rows):
    # numpy's own float64 conversion is the oracle for rows of numbers
    ours, = _float_array([(rows, "rows", None)])
    assert ours.shape == (len(rows), len(rows[0]) if rows else 0)
    assert ours.tobytes() == np.asarray(rows, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 3).flatmap(lambda width: st.lists(
    st.lists(st.sampled_from([0.0, 1.0, 0.5, 0, 1, True, False]), min_size=width,
             max_size=width), max_size=3)), max_size=5))
def test_fields_packed_together_read_one_by_one(fields):
    # one buffer for all fields, zero-width rows included: a boolean is
    # named by its field, the first in order; otherwise each view equals
    # numpy's conversion of its own rows
    named = [(rows, f"field {k}", None) for k, rows in enumerate(fields)]
    with_bool = [k for k, rows in enumerate(fields)
                 if any(type(v) is bool for row in rows for v in row)]
    if with_bool:
        with pytest.raises(ValueError, match=f"^field {with_bool[0]}: entries must be numbers"):
            _float_array(named)
        return
    views = _float_array(named)
    assert len(views) == len(fields)
    for rows, got in zip(fields, views):
        assert got.shape == (len(rows), len(rows[0]) if rows else 0)
        assert got.tobytes() == np.asarray(rows, dtype=np.float64).tobytes()
        assert not got.flags.writeable


# -- seeded parameters -----------------------------------------------------------

PARAM_C, PARAM_SLOTS = 4, 3
PARAMS = {"ref_decoder": init_ref_decoder_params(PARAM_C, 2, 2, 0),
          "mhca": init_mhca_params(PARAM_SLOTS, PARAM_C, 2, 0)}


def _arrays(node, path):
    """(path, array) for every array of a parameter block; a path is field names, then a
    mask-head layer index and "w" or "b"."""
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _arrays(getattr(node, f.name), path + (f.name,))
    elif isinstance(node, tuple):
        for i, layer in enumerate(node):
            for key, array in zip("wb", layer):
                yield path + (i, key), array
    elif isinstance(node, np.ndarray):
        yield path, node


def _rebuilt(node, path, array):
    """`node` with the array at `path` set to `array`; each enclosing block is rebuilt
    with `dataclasses.replace`, so its constructor checks the result."""
    if not path:
        return array
    key, *rest = path
    if dataclasses.is_dataclass(node):
        return dataclasses.replace(node, **{key: _rebuilt(getattr(node, key), rest, array)})
    key = "wb".index(key) if isinstance(key, str) else key
    return tuple(_rebuilt(item, rest, array) if i == key else item for i, item in enumerate(node))


def _reshapes(count):
    """Every shape of one to three dimensions that holds `count` entries."""
    divisors = [d for d in range(1, count + 1) if count % d == 0]
    return ([(count,)] + [(a, count // a) for a in divisors]
            + [(a, b, count // (a * b)) for a in divisors for b in divisors if count % (a * b) == 0])


PARAM_ARRAYS = {(root,) + path: array for root, params in PARAMS.items()
                for path, array in _arrays(params, ())}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example((("ref_decoder", "encoder", "w_q"), (16,)))
@example((("ref_decoder", "ffn", "w1"), (8, 4)))
@example((("mhca", "e_pos"), (PARAM_C, PARAM_SLOTS)))
@given(st.sampled_from(sorted(PARAM_ARRAYS, key=str)).flatmap(lambda path: st.tuples(
    st.just(path), st.sampled_from(_reshapes(PARAM_ARRAYS[path].size)))))
def test_reshaped_parameter_array_is_refused_by_name_or_runs(case):
    # a reshape keeps the entries in order; only the declared shape may construct
    path, shape = case
    name = f"mask_head[{path[-2]}].{path[-1]}" if "mask_head" in path else path[-1]
    params = dict(PARAMS)
    try:
        params[path[0]] = _rebuilt(params[path[0]], path[1:], PARAM_ARRAYS[path].reshape(shape))
    except ValueError as exc:
        assert name in str(exc)
        return
    decoder, mhca = params["ref_decoder"], params["mhca"]
    rng = np.random.default_rng(0)
    frames = [(rng.normal(size=(2, PARAM_C)), rng.normal(size=(PARAM_C, 3, 3)))
              for _ in range(2)]
    trace = run_clip(rng.normal(size=(PARAM_SLOTS, PARAM_C)), frames, decoder,
                     ste_params=mhca)
    tracks = clip_tracks(trace, frames, decoder)
    assert all(np.isfinite(t.class_probs).all() and np.isfinite(t.mask_probs).all()
               for t in tracks)


# -- config files --------------------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
RUN_DOC = dict(json.loads((CONFIG_DIR / "swap.json").read_text()), clips=1)
DEMO_DOC = json.loads((CONFIG_DIR / "enhance.json").read_text())
DELETE = object()   # a mutation that deletes the node
# Every integer is <= 64 or >= 2**63: a valid grid stays <= 64 cells a side and nothing
# large is allocated. No config sizes the thread pool: that is the --threads flag.
CONFIG_VALUES = ("s", True, None, [], {}, [[1]], -1, 0, 1, 2, 3, 7, 64, 1.5, float("nan"),
                 float("inf"), 2**63, 2**70, DELETE)


def _config_text(doc, path, value) -> str:
    """JSON text of `doc` with the node at `path` replaced by `value`, or deleted if
    `value` is DELETE; deleting the root leaves an empty file."""
    if not path:
        return "" if value is DELETE else json.dumps(value)
    doc = copy.deepcopy(doc)
    parent = _node(doc, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def _run_on_config(command, doc, path, value, check_output):
    """Run `command` on a mutated config: it either exits 0 with an output that
    `check_output` accepts, or exits 1 with one `error:` line and no output."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out.json"
        cfg.write_text(_config_text(doc, path, value))
        argv = [command, str(cfg)] if command == "gen" else [command, "--demo", str(cfg)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--out", str(out)])
        if code == 0:
            check_output(out)
        else:
            assert code == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not out.exists()


def _corpus_is_valid(path):
    assert validate(load_corpus(path)) == []


def _trace_is_whole(path):
    trace = json.loads(path.read_text())
    assert len(trace["plain"]) == len(trace["ste"]) == trace["spec"]["T"]


# each list in a config has two entries, so `_paths` walks the first two of each
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(("noise", "swap_frame"), 7)
@example(("noise", "swap_frame"), 2**70)
@example(("spec", "T"), 1)
@example(("scene", "n_objects", 1), DELETE)
@example((), DELETE)
@given(st.sampled_from(list(_paths(RUN_DOC))), st.sampled_from(CONFIG_VALUES))
def test_run_config_mutation_generates_or_exits_one(path, value):
    _run_on_config("gen", RUN_DOC, path, value, _corpus_is_valid)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(("n_heads",), 3)
@example(("spec", "C"), 7)
@example(("threshold",), 1)
@example(("spec", "T"), 64)
@given(st.sampled_from(list(_paths(DEMO_DOC))), st.sampled_from(CONFIG_VALUES))
def test_demo_config_mutation_traces_or_exits_one(path, value):
    _run_on_config("enhance", DEMO_DOC, path, value, _trace_is_whole)
