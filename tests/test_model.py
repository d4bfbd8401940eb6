import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tcovis.cli import _load_run_config, main
from tcovis.model import (_FLOAT_MEMO_BUDGET, Assignment, Clip, ClipSpec, Corpus,
                          GroundTruthTrack, PredictionTrack, corpus_from_dict,
                          corpus_to_dict, decode_mask_rle, dump_json, encode_mask_rle,
                          load_corpus, save_corpus, validate, write_file)
from tcovis.ste import init_mhca_params, init_ref_decoder_params, load_params, save_params
from tcovis.synth import generate_corpus

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def small_spec(**overrides):
    fields = dict(T=3, H=32, W=32, S=4, K=2, N_v=3, C=8)
    fields.update(overrides)
    return ClipSpec(**fields)


def make_gt(spec, class_id=0, seed=0):
    rng = np.random.default_rng(seed)
    masks = (rng.random((spec.T, spec.h, spec.w)) < 0.4).astype(np.uint8)
    masks[0, 0, 0] = 1  # never fully empty
    return GroundTruthTrack(class_id=class_id, masks=masks)


def make_pred(spec, seed=0):
    rng = np.random.default_rng(seed)
    probs = rng.random((spec.T, spec.K + 1))
    probs /= probs.sum(axis=1, keepdims=True)
    return PredictionTrack(class_probs=probs,
                           mask_probs=rng.random((spec.T, spec.h, spec.w)))


class TestClipSpec:
    def test_grid_dimensions(self):
        spec = small_spec()
        assert (spec.h, spec.w) == (8, 8)

    def test_stride_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            small_spec(S=5)

    @pytest.mark.parametrize("field", ["T", "H", "W", "S", "K", "N_v", "C"])
    def test_positive_fields(self, field):
        with pytest.raises(ValueError, match=field):
            small_spec(**{field: 0})

    @pytest.mark.parametrize("value", [True, 4.0, "4"])
    def test_fields_refuse_non_integers(self, value):
        with pytest.raises(ValueError, match=f"S must be an integer, got {value!r}"):
            small_spec(S=value)

    def test_dict_round_trip(self):
        spec = small_spec()
        assert ClipSpec.from_dict(spec.to_dict()) == spec


class TestValidate:
    def test_well_formed_corpus_is_clean(self):
        spec = small_spec()
        clip = Clip(gt=(make_gt(spec),), pred=(make_pred(spec),))
        assert validate(Corpus(spec=spec, clips=(clip,), seed=0)) == []

    def test_bad_prob_sum_names_the_frame(self):
        spec = small_spec()
        pred = make_pred(spec)
        probs = np.array(pred.class_probs)
        probs[1] *= 0.9
        bad = PredictionTrack(class_probs=probs, mask_probs=pred.mask_probs)
        clip = Clip(gt=(make_gt(spec),), pred=(bad,))
        violations = validate(Corpus(spec=spec, clips=(clip,), seed=0))
        assert len(violations) == 1
        assert violations[0].frame == 1
        assert "sum" in violations[0].rule

    def test_wrong_mask_count(self):
        spec = small_spec()
        short = GroundTruthTrack(class_id=0,
                                 masks=np.ones((spec.T - 1, spec.h, spec.w), np.uint8))
        clip = Clip(gt=(short,), pred=None)
        violations = validate(Corpus(spec=spec, clips=(clip,), seed=0))
        assert len(violations) == 1
        assert "mask count" in violations[0].rule

    def test_nonbinary_gt_mask(self):
        spec = small_spec()
        masks = np.ones((spec.T, spec.h, spec.w), np.uint8)
        masks[2, 0, 0] = 3
        clip = Clip(gt=(GroundTruthTrack(class_id=0, masks=masks),))
        violations = validate(Corpus(spec=spec, clips=(clip,), seed=0))
        assert [v.frame for v in violations] == [2]

    @pytest.mark.parametrize("class_id, flagged", [
        (1, False), (np.int64(1), False), (True, True), (1.0, True), (-1, True), (2, True)])
    def test_class_id_is_an_integer_below_k(self, class_id, flagged):
        spec = small_spec()
        clip = Clip(gt=(make_gt(spec, class_id=class_id),), pred=None)
        rules = [v.rule for v in validate(Corpus(spec=spec, clips=(clip,), seed=0))]
        assert rules == ([f"class_id {class_id!r} not in [0, 2)"] if flagged else [])

    def test_all_empty_track_flagged(self):
        spec = small_spec()
        clip = Clip(gt=(GroundTruthTrack(
            class_id=0, masks=np.zeros((spec.T, spec.h, spec.w), np.uint8)),))
        violations = validate(Corpus(spec=spec, clips=(clip,), seed=0))
        assert any("empty" in v.rule for v in violations)

    @pytest.mark.parametrize("field, rule", [("class_probs", "non-finite class"),
                                             ("mask_probs", "non-finite mask")])
    def test_nan_probability_names_clip_track_and_frame(self, field, rule):
        spec = small_spec()
        pred = make_pred(spec)
        arrays = {"class_probs": np.array(pred.class_probs),
                  "mask_probs": np.array(pred.mask_probs)}
        arrays[field][2].flat[0] = np.nan
        clip = Clip(gt=(make_gt(spec),),
                    pred=(make_pred(spec, seed=1), PredictionTrack(**arrays)))
        violations = validate(Corpus(spec=spec, clips=(clip,), seed=0))
        assert [(v.clip, v.kind, v.track, v.frame) for v in violations] == [(0, "pred", 1, 2)]
        assert rule in violations[0].rule

    def test_frame_rules_keep_precedence_and_frame_order(self):
        spec = small_spec(T=4)
        pred = make_pred(spec)
        probs, masks = np.array(pred.class_probs), np.array(pred.mask_probs)
        probs[0, 0], probs[0, 1] = np.inf, -0.5      # non-finite beats negative
        probs[1, 0] = -0.1                           # negative beats the sum
        probs[3] *= 1.5
        masks[0, 0, 0], masks[0, 1, 1] = -0.2, np.nan
        masks[2, 3, 3] = 1.5
        gt = np.array(make_gt(spec).masks)
        gt[1, 0, 0], gt[3, 1, 1] = 2, 7
        clip = Clip(gt=(GroundTruthTrack(class_id=0, masks=gt),),
                    pred=(PredictionTrack(class_probs=probs, mask_probs=masks),))
        violations = validate(Corpus(spec=spec, clips=(clip,), seed=0))
        assert [(v.kind, v.frame, v.rule) for v in violations] == [
            ("gt", 1, "mask entries not in {0, 1}"),
            ("gt", 3, "mask entries not in {0, 1}"),
            ("pred", 0, "non-finite class probability"),
            ("pred", 1, "negative class probability"),
            ("pred", 3, f"class probs sum to {float(probs[3].sum()):.12g}, not 1"),
            ("pred", 0, "non-finite mask probability"),
            ("pred", 2, "mask probabilities outside [0, 1]"),
        ]

    def test_violations_across_clips_are_pinned(self):
        # clips in order, then gt before pred, then tracks, then frames,
        # with the first rule that fails in a frame reported
        spec = small_spec(T=4)
        cells = (spec.T, spec.h, spec.w)
        gt0 = np.array(make_gt(spec).masks)
        gt0[1, 0, 0] = 2
        probs = np.array(make_pred(spec).class_probs)
        probs[0, 0], probs[0, 1] = np.nan, -1.0      # non-finite beats negative
        probs[1, 0] = -0.25                          # negative beats the sum
        probs[3] *= 2.0
        masks = np.array(make_pred(spec, seed=1).mask_probs)
        masks[1, 0, 0], masks[1, 1, 0] = 1.5, np.inf
        masks[3, 2, 2] = -0.5
        clips = (
            Clip(gt=(GroundTruthTrack(class_id=True, masks=gt0),
                     GroundTruthTrack(class_id=1, masks=np.ones((3, spec.h, spec.w), np.uint8)),
                     make_gt(spec, seed=2)),
                 pred=(PredictionTrack(class_probs=probs, mask_probs=masks),
                       PredictionTrack(class_probs=np.full((spec.T, spec.K), 0.5),
                                       mask_probs=np.zeros((spec.T, 4, 4))),
                       make_pred(spec, seed=3))),
            Clip(gt=(make_gt(spec, seed=4),), pred=(make_pred(spec, seed=4),)),
            Clip(gt=(GroundTruthTrack(class_id=0, masks=np.zeros(cells, np.uint8)),
                     GroundTruthTrack(class_id=2, masks=np.ones((spec.T, 2, 2), np.uint8)),
                     GroundTruthTrack(class_id=0, masks=np.ones(cells[1:], np.uint8))),
                 pred=(make_pred(spec, seed=5),)),
            Clip(gt=(make_gt(spec, class_id=-1, seed=6),), pred=None),
        )
        violations = validate(Corpus(spec=spec, clips=clips, seed=0))
        assert [str(v) for v in violations] == [
            "clip 0 gt[0]: class_id True not in [0, 2)",
            "clip 0 gt[0] frame 1: mask entries not in {0, 1}",
            "clip 0 gt[1]: mask count 3 != T=4",
            "clip 0 pred[0] frame 0: non-finite class probability",
            "clip 0 pred[0] frame 1: negative class probability",
            f"clip 0 pred[0] frame 3: class probs sum to {float(probs[3].sum()):.12g}, not 1",
            "clip 0 pred[0] frame 1: non-finite mask probability",
            "clip 0 pred[0] frame 3: mask probabilities outside [0, 1]",
            "clip 0 pred[1]: class_probs shape (4, 2) != (4, 3)",
            "clip 0 pred[1]: mask_probs shape (4, 4, 4) != (4, 8, 8)",
            "clip 2 gt[0]: all frames empty",
            "clip 2 gt[1]: class_id 2 not in [0, 2)",
            "clip 2 gt[1]: mask shape (2, 2) != (8, 8)",
            "clip 2 gt[2]: mask count 8 != T=4",
            "clip 2: 3 ground-truth tracks exceed 1 prediction slots",
            "clip 3 gt[0]: class_id -1 not in [0, 2)",
        ]

    def test_validate_is_idempotent(self):
        spec = small_spec()
        clip = Clip(gt=(make_gt(spec),), pred=(make_pred(spec),))
        corpus = Corpus(spec=spec, clips=(clip,), seed=0)
        assert validate(corpus) == validate(corpus) == []


class TestRle:
    def test_all_zero(self):
        record = encode_mask_rle(np.zeros((4, 4), np.uint8))
        assert record == {"size": [4, 4], "counts": [16]}

    def test_all_one(self):
        record = encode_mask_rle(np.ones((4, 4), np.uint8))
        assert record == {"size": [4, 4], "counts": [0, 16]}

    def test_column_major_order(self):
        mask = np.zeros((2, 3), np.uint8)
        mask[0, 0] = 1  # first cell in column-major order
        mask[1, 2] = 1  # last cell
        record = encode_mask_rle(mask)
        assert record["counts"] == [0, 1, 4, 1]

    def test_round_trip_seeded_masks(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            mask = (rng.random((8, 8)) < rng.uniform(0.05, 0.95)).astype(np.uint8)
            assert np.array_equal(decode_mask_rle(encode_mask_rle(mask)), mask)

    @staticmethod
    def loop_decode(record):
        """Reference decoder: fill the runs one by one."""
        h, w = record["size"]
        flat = np.zeros(h * w, dtype=np.uint8)
        pos = 0
        for i, count in enumerate(record["counts"]):
            flat[pos:pos + count] = i % 2
            pos += count
        return flat.reshape((h, w), order="F")

    def test_decode_matches_the_loop_reference(self):
        rng = np.random.default_rng(7)
        checker = (np.indices((40, 40)).sum(axis=0) % 2).astype(np.uint8)  # 1600 runs
        records = [encode_mask_rle(checker), {"size": [4, 4], "counts": [3, 0, 0, 13]}]
        for _ in range(200):    # zero-length runs anywhere, as decode accepts them
            counts = rng.integers(0, 4, rng.integers(1, 40)).tolist()
            counts[0] += 1
            records.append({"size": [1, sum(counts)], "counts": counts})
        for record in records:
            decoded = decode_mask_rle(record)
            assert decoded.dtype == np.uint8
            assert np.array_equal(decoded, self.loop_decode(record))
        assert np.array_equal(decode_mask_rle(records[0]), checker)

    def test_decode_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            decode_mask_rle({"size": [4, 4], "counts": [15]})

    def test_decode_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="nonnegative"):
            decode_mask_rle({"size": [2, 2], "counts": [5, -1]})

    @pytest.mark.parametrize("record", [{"size": [2, 2.0], "counts": [4]},
                                        {"size": [2, 2], "counts": [1.0, 3]},
                                        {"size": [2, 2], "counts": [True, 3]},
                                        {"size": [True, 4], "counts": [4]}])
    def test_decode_accepts_only_integers(self, record):
        with pytest.raises(ValueError, match="must be integers"):
            decode_mask_rle(record)

    def test_encode_rejects_soft_mask(self):
        with pytest.raises(ValueError, match="0 or 1"):
            encode_mask_rle(np.full((2, 2), 0.5))


class TestCorpusIo:
    def test_round_trip(self, tmp_path):
        spec = small_spec()
        clips = tuple(Clip(gt=(make_gt(spec, seed=i),), pred=(make_pred(spec, seed=i),))
                      for i in range(3))
        corpus = Corpus(spec=spec, clips=clips, seed=99,
                        generator={"name": "test", "scene": None, "noise": None})
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.spec == spec
        assert loaded.seed == 99
        assert loaded.generator["name"] == "test"
        for before, after in zip(corpus.clips, loaded.clips):
            for b, a in zip(before.gt, after.gt):
                assert b.class_id == a.class_id
                assert np.array_equal(b.masks, a.masks)
            for b, a in zip(before.pred, after.pred):
                assert np.array_equal(b.class_probs, a.class_probs)
                assert np.array_equal(b.mask_probs, a.mask_probs)

    @pytest.mark.parametrize("workload", ["swap-corpus", "crowded-clips"])
    def test_round_trip_at_the_benchmark_specs(self, tmp_path, monkeypatch, workload):
        # every loaded array is bit-equal to the saved one, of the same
        # dtype, C-contiguous and read-only
        monkeypatch.syspath_prepend(str(PERFBENCH_DIR))     # workloads imports oracle
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH_DIR / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)    # for its dataclasses
        spec.loader.exec_module(workloads)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(workloads.WORKLOADS[workload].run_config, seed=5)))
        cfg = _load_run_config(config)
        corpus = generate_corpus(cfg["scene"], cfg["noise"], cfg["clips"], cfg["seed"])
        save_corpus(corpus, tmp_path / "corpus.json")
        loaded = load_corpus(tmp_path / "corpus.json")
        assert (loaded.spec, loaded.seed, loaded.generator) == (corpus.spec, corpus.seed,
                                                               corpus.generator)
        assert len(loaded.clips) == len(corpus.clips)
        for before, after in zip(corpus.clips, loaded.clips):
            assert [t.class_id for t in after.gt] == [t.class_id for t in before.gt]
            assert len(after.pred) == len(before.pred)
            pairs = [(a.masks, b.masks) for a, b in zip(after.gt, before.gt)]
            pairs += [(getattr(a, name), getattr(b, name)) for a, b in zip(after.pred, before.pred)
                      for name in ("class_probs", "mask_probs")]
            for got, want in pairs:
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
                assert got.flags.c_contiguous and not got.flags.writeable

    def test_fixed_field_names(self):
        spec = small_spec()
        clip = Clip(gt=(make_gt(spec),), pred=(make_pred(spec),))
        doc = corpus_to_dict(Corpus(spec=spec, clips=(clip,), seed=1))
        assert set(doc) == {"spec", "seed", "clips"}
        assert set(doc["clips"][0]) == {"gt", "pred"}
        assert set(doc["clips"][0]["gt"][0]) == {"class_id", "masks"}
        assert set(doc["clips"][0]["gt"][0]["masks"][0]) == {"size", "counts"}
        assert set(doc["clips"][0]["pred"][0]) == {"class_probs", "mask_probs"}

    def test_dump_is_deterministic(self):
        spec = small_spec()
        clip = Clip(gt=(make_gt(spec),), pred=(make_pred(spec),))
        corpus = Corpus(spec=spec, clips=(clip,), seed=1)
        assert dump_json(corpus_to_dict(corpus)) == dump_json(corpus_to_dict(corpus))

    @pytest.mark.parametrize("seed", [7.5, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            Corpus(spec=small_spec(), clips=(), seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_refused(self, seed):
        # the range `gen` draws from: no run can record such a seed
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}$"):
            Corpus(spec=small_spec(), clips=(), seed=seed)

    @pytest.mark.parametrize("generator", [[1], "x", 3])
    def test_generator_must_be_an_object(self, generator):
        with pytest.raises(ValueError, match="generator must be an object"):
            Corpus(spec=small_spec(), clips=(), seed=0, generator=generator)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_are_accepted(self, seed):
        doc = corpus_to_dict(Corpus(spec=small_spec(), clips=(), seed=seed))
        assert corpus_from_dict(doc).seed == seed

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="clips"):
            corpus_from_dict({"spec": small_spec().to_dict(), "seed": 0})


class TestImmutability:
    def test_arrays_are_read_only(self):
        spec = small_spec()
        gt = make_gt(spec)
        pred = make_pred(spec)
        with pytest.raises(ValueError):
            gt.masks[0, 0, 0] = 0
        with pytest.raises(ValueError):
            pred.class_probs[0, 0] = 0.5

    def test_assignment_normalizes_pairs(self):
        a = Assignment(pairs=[(np.int64(0), np.int64(2))], total_cost=np.float64(1.5))
        assert a.pairs == ((0, 2),)
        assert isinstance(a.total_cost, float)


class TestBinaryPredicate:
    """`encode_mask_rle` and `validate` accept exactly the entries that
    ``np.isin(m, (0, 1))`` accepts."""

    CASES = [
        (np.array([[0.0, np.nan]]), False),
        (np.array([[0.0, 0.5]]), False),
        (np.array([[-0.0, 1.0]]), True),
        (np.array([[False, True]]), True),
        (np.array([[0, 1]], dtype=np.int8), True),
    ]

    @pytest.mark.parametrize("mask, binary", CASES)
    def test_verdict_matches_isin(self, mask, binary):
        assert bool(np.isin(mask, (0, 1)).all()) == binary
        if binary:
            assert np.array_equal(decode_mask_rle(encode_mask_rle(mask)), mask != 0)
        else:
            with pytest.raises(ValueError, match="0 or 1"):
                encode_mask_rle(mask)
        spec = small_spec(T=1, H=1, W=2, S=1)
        masks = np.asarray(mask).reshape(1, 1, 2)
        clip = Clip(gt=(GroundTruthTrack(class_id=0, masks=masks),))
        rules = [v.rule for v in validate(Corpus(spec=spec, clips=(clip,), seed=0))]
        assert ("mask entries not in {0, 1}" not in rules) == binary


def writer_corpus(mask_values, probs_values, pred="tracks", n_clips=2, generator=None):
    spec = small_spec(T=2, H=8, W=12, S=4)      # 2 x 3 grid
    clips = []
    for ci in range(n_clips):
        tracks = None
        if pred == "empty":
            tracks = ()
        elif pred == "tracks":
            tracks = tuple(PredictionTrack(
                class_probs=np.resize(np.roll(probs_values, k), (spec.T, spec.K + 1)),
                mask_probs=np.resize(np.roll(mask_values, k), (spec.T, spec.h, spec.w)))
                for k in range(2))
        clips.append(Clip(gt=(make_gt(spec, seed=ci), make_gt(spec, class_id=1, seed=ci + 9)),
                          pred=tracks))
    return Corpus(spec=spec, clips=tuple(clips), seed=3, generator=generator)


SPECIAL_FLOATS = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.1, 1.0]


class TestStreamingWriter:
    """`save_corpus` writes the bytes of ``dump_json(corpus_to_dict(...))``."""

    @pytest.mark.parametrize("corpus", [
        writer_corpus(SPECIAL_FLOATS, SPECIAL_FLOATS),
        writer_corpus([0.25, 0.75], [0.5, 0.5, 0.0], generator={"b": [1, None], "a": "x"}),
        writer_corpus(np.random.default_rng(0).random(24), np.random.default_rng(1).random(9)),
        writer_corpus([-0.0, 0.0], [0.0, -0.0]),
        writer_corpus([1.0], [1.0], pred=None),
        writer_corpus([1.0], [1.0], pred="empty"),
        writer_corpus([1.0], [1.0], n_clips=0),
    ], ids=["special", "generator", "all-distinct", "signed-zeros", "pred-none",
            "pred-empty", "no-clips"])
    def test_bytes_equal_the_dict_dump(self, tmp_path, corpus):
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        assert path.read_text() == dump_json(corpus_to_dict(corpus))

    def test_unusual_track_shapes_match(self, tmp_path):
        spec = small_spec()
        tracks = (PredictionTrack(class_probs=np.array([0.5, 0.5]), mask_probs=np.zeros(3)),
                  PredictionTrack(class_probs=np.zeros((2, 0, 1)),
                                  mask_probs=np.zeros((0, 2, 2))),
                  PredictionTrack(class_probs=np.ones((1, 1)), mask_probs=np.zeros((2, 0, 0))))
        corpus = Corpus(spec=spec, clips=(Clip(gt=(), pred=tracks),), seed=0)
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        assert path.read_text() == dump_json(corpus_to_dict(corpus))

    def test_failed_save_leaves_the_existing_file(self, tmp_path):
        good = writer_corpus([0.25, 0.75], [0.5, 0.5, 0.0])
        spec = good.spec
        half = GroundTruthTrack(class_id=0, masks=np.full((spec.T, spec.h, spec.w), 0.5))
        bad = Corpus(spec=spec, clips=good.clips + (Clip(gt=(half,), pred=None),), seed=3)
        path = tmp_path / "corpus.json"
        save_corpus(good, path)
        with pytest.raises(ValueError):
            save_corpus(bad, path)
        assert path.read_text() == dump_json(corpus_to_dict(good))
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.json"]


class TestWriteFile:
    """`write_file` makes missing directories and replaces its target only
    once the last chunk is written."""

    def test_streams_chunks_into_a_missing_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        write_file(path, (part for part in ("x", "", "yz\n")))
        assert path.read_text() == "xyz\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "replace"])
    def test_failed_write_leaves_no_trace(self, tmp_path, existing):
        path = tmp_path / "out.txt"
        if existing:
            path.write_text("old")

        def chunks():
            yield "new"
            raise RuntimeError("encoder failed")

        with pytest.raises(RuntimeError, match="encoder failed"):
            write_file(path, chunks())
        assert [p.name for p in tmp_path.iterdir()] == (["out.txt"] if existing else [])
        if existing:
            assert path.read_text() == "old"

    def test_directory_target_is_left_alone(self, tmp_path):
        target = tmp_path / "taken"
        (target / "inner").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            write_file(target, ["text"])
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert [p.name for p in target.iterdir()] == ["inner"]

    def test_parent_that_is_a_file_raises(self, tmp_path):
        blocker = tmp_path / "afile"
        blocker.write_text("keep")
        with pytest.raises(FileExistsError):
            write_file(blocker / "out.txt", ["text"])
        assert blocker.read_text() == "keep"


class TestLoaderStructure:
    def valid_doc(self):
        spec = small_spec()
        clips = tuple(Clip(gt=(make_gt(spec, seed=i), make_gt(spec, seed=i + 5)),
                           pred=(make_pred(spec, seed=i), make_pred(spec, seed=i + 5)))
                      for i in range(2))
        return json.loads(dump_json(corpus_to_dict(Corpus(spec=spec, clips=clips, seed=0))))

    @pytest.mark.parametrize("path, value, message", [
        ((), [], "corpus document must be an object"),
        (("clips",), 3, "clips must be a list"),
        (("clips", 1), "x", "clip 1 must be an object"),
        (("clips", 0, "gt"), 5, "clip 0 gt must be a list"),
        (("clips", 0, "gt", 1), None, r"clip 0 gt\[1\] must be an object"),
        (("clips", 0, "gt", 0, "masks"), {}, r"clip 0 gt\[0\] masks must be a list"),
        (("clips", 0, "gt", 0, "class_id"), None, r"clip 0 gt\[0\] class_id must be an integer"),
        (("clips", 0, "pred"), "x", "clip 0 pred must be a list or null"),
        (("clips", 1, "pred", 0), 7, r"clip 1 pred\[0\] must be an object"),
        (("clips", 0, "pred", 1, "class_probs"), None,
         r"clip 0 pred\[1\] class_probs must be a list"),
        (("clips", 0, "pred", 0, "mask_probs"), None,
         r"clip 0 pred\[0\] mask_probs must be a list"),
        (("clips", 0, "pred", 0, "mask_probs", 1), {"a": 1}, r"clip 0 pred\[0\] mask_probs"),
        (("clips", 0, "pred", 0, "class_probs", 0), [None, {}], r"clip 0 pred\[0\] class_probs"),
        (("spec",), [1], "spec must be an object"),
        (("seed",), None, "seed must be an integer"),
        (("clips", 0, "gt", 1, "class_id"), 1.9, r"clip 0 gt\[1\] class_id must be an integer"),
        (("clips", 1, "gt", 0, "class_id"), True, r"clip 1 gt\[0\] class_id must be an integer"),
        (("seed",), 7.5, "seed must be an integer, got 7.5"),
        (("clips", 0, "gt", 0, "masks", 1, "size", 1), 16.5,
         "RLE size and counts must be integers, got 16.5"),
        (("clips", 1, "gt", 1, "masks", 0, "counts", 0), 2.0,
         "RLE size and counts must be integers, got 2.0"),
    ], ids=["document", "clips", "clip", "gt", "gt-track", "masks", "class_id", "pred",
            "pred-track", "class_probs", "mask_probs", "mask-row", "class-row", "spec", "seed",
            "class_id-float", "class_id-bool", "seed-float", "rle-size-float", "rle-count-float"])
    def test_wrong_container_raises_value_error(self, path, value, message):
        doc = self.valid_doc()
        if path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            doc = value
        with pytest.raises(ValueError, match=message):
            corpus_from_dict(doc)

    @staticmethod
    def set_at(doc, path, value):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    @pytest.mark.parametrize("faults, message", [
        ([(("clips", 1, "gt", 0, "masks", 0, "counts", 0), 1000),
          (("clips", 0, "pred", 1, "class_probs", 2, 0), "0.5")],
         r"^clip 0 pred\[1\] class_probs: entries must be numbers"),
        ([(("clips", 0, "gt", 1, "class_id"), 1.5),
          (("clips", 0, "gt", 0, "masks", 2, "counts", 0), -1)],
         r"^clip 0 gt\[0\] masks\[2\]: RLE counts must be nonnegative$"),
        ([(("clips", 0, "gt", 1, "masks", 0, "size"), [4, 4]),
          (("clips", 0, "gt", 0, "masks", 1, "counts", 0), 1.0)],
         r"^clip 0 gt\[0\] masks\[1\]: RLE size and counts must be integers, got 1.0$"),
        ([(("clips", 0, "gt", 1), None),
          (("clips", 0, "gt", 0, "masks", 2), {"size": [8, 8]})],
         r"^clip 0 gt\[0\] masks\[2\]: malformed RLE record"),
        ([(("clips", 0, "gt", 0, "masks", 1, "counts", 0), -1),
          (("clips", 0, "gt", 0, "masks", 1, "size", 0), 8.0)],
         r"^clip 0 gt\[0\] masks\[1\]: RLE size and counts must be integers, got 8.0$"),
        ([(("clips", 0, "pred", 1, "class_probs", 0), [0.5]),
          (("clips", 0, "pred", 0, "mask_probs", 1, 3), True)],
         r"^clip 0 pred\[0\] mask_probs: entries must be numbers"),
        ([(("clips", 0, "pred", 0, "mask_probs", 2, 0), "x"),
          (("clips", 0, "pred", 0, "class_probs", 1, 1), False)],
         r"^clip 0 pred\[0\] class_probs: entries must be numbers"),
        ([(("clips", 1, "pred", 1, "mask_probs"), [[0.5] * 64 + [True]] * 3)],
         r"^clip 1 pred\[1\] mask_probs: entries must be numbers"),
        ([(("clips", 1, "pred", 1, "mask_probs"), [[0.5] * 65] * 3)],
         r"^clip 1 pred\[1\] mask_probs: cannot reshape array of size 195 into shape"),
        ([(("clips", 0, "pred", 1), 7),
          (("clips", 0, "pred", 0, "mask_probs", 0, 0), None)],
         r"^clip 0 pred\[0\] mask_probs: entries must be numbers"),
        ([(("clips", 1, "pred"), 3),
          (("clips", 1, "gt", 1, "masks", 2, "counts"), [63])],
         r"^clip 1 gt\[1\] masks\[2\]: RLE counts sum to 63, expected 64$"),
    ], ids=["pred-before-later-gt", "rle-before-later-class_id", "rle-before-later-size",
            "rle-before-later-track", "size-rule-first", "bool-before-later-ragged",
            "bool-before-later-string", "bool-before-shape", "shape", "pack-before-later-track",
            "gt-before-pred"])
    def test_first_fault_in_document_order(self, faults, message):
        doc = self.valid_doc()
        for path, value in faults:
            self.set_at(doc, path, value)
        with pytest.raises(ValueError, match=message):
            corpus_from_dict(doc)

    def test_valid_document_loads(self):
        assert validate(corpus_from_dict(self.valid_doc())) == []

    def test_clip_entries_are_released_as_read(self):
        doc = self.valid_doc()
        corpus = corpus_from_dict(doc)
        assert len(corpus.clips) == 2 and doc["clips"] == [None, None]

    def test_more_ground_truth_than_slots_is_a_violation(self):
        spec = small_spec()
        pred = (make_pred(spec),)
        clips = (Clip(gt=(make_gt(spec),), pred=pred * 2),
                 Clip(gt=(make_gt(spec), make_gt(spec, seed=1)), pred=pred))
        violations = validate(Corpus(spec=spec, clips=clips, seed=0))
        assert [str(v) for v in violations] == [
            "clip 1: 2 ground-truth tracks exceed 1 prediction slots"]


def assert_loads_like_plain_json(path):
    """`load_corpus(path)` equals `corpus_from_dict(json.loads(text))` bit
    for bit."""
    loaded = load_corpus(path)
    plain = corpus_from_dict(json.loads(path.read_text()))
    assert (loaded.spec, loaded.seed, loaded.generator) == (plain.spec, plain.seed,
                                                           plain.generator)
    assert len(loaded.clips) == len(plain.clips)
    for a, b in zip(loaded.clips, plain.clips):
        assert [t.class_id for t in a.gt] == [t.class_id for t in b.gt]
        for ta, tb in zip(a.gt, b.gt):
            assert ta.masks.dtype == tb.masks.dtype
            assert ta.masks.tobytes() == tb.masks.tobytes()
        assert (a.pred is None) == (b.pred is None)
        assert len(a.pred or ()) == len(b.pred or ())
        for ta, tb in zip(a.pred or (), b.pred or ()):
            for name in ("class_probs", "mask_probs"):
                x, y = getattr(ta, name), getattr(tb, name)
                assert (x.dtype, x.shape) == (y.dtype, y.shape)
                assert x.tobytes() == y.tobytes()


def distinct_float_texts(text):
    texts = set()
    json.loads(text, parse_float=lambda s: texts.add(s) or 0.0)
    return len(texts)


def wide_class_doc():
    """One clip, one slot, T=1, a 1 x 1 mask and 1,101 distinct class
    probabilities: the budget is crossed inside `class_probs`, which the
    text holds before `mask_probs`."""
    spec = ClipSpec(T=1, H=4, W=4, S=4, K=1100, N_v=1, C=1)
    probs = np.random.default_rng(4).random((1, spec.K + 1))
    pred = PredictionTrack(class_probs=probs / probs.sum(), mask_probs=np.full((1, 1, 1), 0.5))
    gt = GroundTruthTrack(class_id=3, masks=np.ones((1, 1, 1), np.uint8))
    return Corpus(spec=spec, clips=(Clip(gt=(gt,), pred=(pred,)),), seed=1)


class TestMemoDecoder:
    """`load_corpus` parses each distinct float text once through a
    bounded memo and falls back to plain `json.loads` past its budget; the
    arrays must be those of the plain decode, bit for bit."""

    def test_generated_corpus_takes_the_memo_path(self, tmp_path, decode_calls):
        path = tmp_path / "corpus.json"
        config = Path(__file__).resolve().parent.parent / "configs" / "small.json"
        assert main(["gen", str(config), "--out", str(path)]) == 0
        decode_calls.clear()
        load_corpus(path)
        assert decode_calls == [True]
        assert_loads_like_plain_json(path)

    def test_every_file_is_read_through_the_memo(self, tmp_path, decode_calls):
        corpus, params = tmp_path / "corpus.json", tmp_path / "params.json"
        save_params(params, init_ref_decoder_params(16, 3, 4, 0), init_mhca_params(5, 16, 4, 0))
        assert distinct_float_texts(params.read_text()) > _FLOAT_MEMO_BUDGET
        reads = [lambda: main(["gen", str(CONFIG_DIR / "small.json"), "--out", str(corpus)]),
                 lambda: main(["enhance", "--demo", str(CONFIG_DIR / "enhance.json"),
                               "--out", str(tmp_path / "trace.json")]),
                 lambda: load_corpus(corpus), lambda: load_params(params)]
        calls = []
        for read in reads:
            decode_calls.clear()
            read()
            calls.append(list(decode_calls))
        assert calls == [[True], [True], [True], [True, False]]

    def test_more_distinct_floats_than_the_budget_fall_back(self, tmp_path, decode_calls):
        spec = small_spec()
        clips = tuple(Clip(gt=(make_gt(spec, seed=i),),
                           pred=(make_pred(spec, seed=i), make_pred(spec, seed=i + 9)))
                      for i in range(3))
        path = tmp_path / "corpus.json"
        save_corpus(Corpus(spec=spec, clips=clips, seed=0), path)
        assert distinct_float_texts(path.read_text()) > _FLOAT_MEMO_BUDGET
        decode_calls.clear()
        load_corpus(path)
        assert decode_calls == [True, False]
        assert_loads_like_plain_json(path)

    def test_budget_crossed_inside_class_probs(self, tmp_path, decode_calls):
        path = tmp_path / "corpus.json"
        save_corpus(wide_class_doc(), path)
        load_corpus(path)
        assert decode_calls == [True, False]
        assert_loads_like_plain_json(path)

    @pytest.mark.parametrize("mask_row, class_row", [
        ("[-0.0,0.0,0,1,5e-324,-5e-324]", "[1E+2,1e+2,100.0]"),
        ("[1e16,1e400,-1e400,0.1,1,0]", "[NaN,Infinity,-Infinity]"),
        ("[0.0,-0.0,1.0E-5,1e-5,0.00001,2.5e-1]", "[0,1,0.0]"),
        ("[0.1000000000000000055511151231257827,0.1,1e-400,0,-0,0]", "[1,0.0,-0.0]"),
    ])
    def test_hand_written_numbers(self, tmp_path, mask_row, class_row):
        spec = {"T": 2, "H": 4, "W": 24, "S": 4, "K": 2, "N_v": 1, "C": 1}
        gt = '{"class_id":0,"masks":[{"counts":[0,6],"size":[1,6]},{"counts":[6],"size":[1,6]}]}'
        pred = f'{{"class_probs":[{class_row},{class_row}],"mask_probs":[{mask_row},{mask_row}]}}'
        path = tmp_path / "corpus.json"
        path.write_text(f'{{"clips":[{{"gt":[{gt}],"pred":[{pred}]}}],"seed":0,'
                        f'"spec":{json.dumps(spec)}}}')
        assert_loads_like_plain_json(path)
        masks = load_corpus(path).clips[0].pred[0].mask_probs
        assert np.signbit(masks[0, 0]).tolist() == np.signbit(
            np.array(json.loads(mask_row), dtype=np.float64)).tolist()

    @pytest.mark.parametrize("cut, calls", [("before", [True]), ("after", [True, False])])
    def test_truncated_text_raises_the_plain_decode_error(self, tmp_path, decode_calls,
                                                          cut, calls):
        path = tmp_path / "corpus.json"
        save_corpus(wide_class_doc(), path)
        text = path.read_text()
        # 40 characters into the class probabilities, or past all of them
        end = (text.index('"class_probs"') + 40 if cut == "before"
               else text.index('"mask_probs"'))
        path.write_text(text[:end])
        with pytest.raises(json.JSONDecodeError) as plain:
            json.loads(text[:end])
        decode_calls.clear()
        with pytest.raises(json.JSONDecodeError) as memo:
            load_corpus(path)
        assert decode_calls == calls
        assert (memo.value.msg, memo.value.pos) == (plain.value.msg, plain.value.pos)
