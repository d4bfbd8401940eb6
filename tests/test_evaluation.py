import numpy as np
import pytest

from tcovis.assignment import global_instance_assignment, locpro_assignment
from tcovis.cost import LossWeights
from tcovis.evaluation import (IOU_THRESHOLDS, audit_assignments, audits_to_csv,
                               compute_ap, predicted_label, prediction_score,
                               video_iou, video_iou_table)
from tcovis.model import (Clip, ClipSpec, Corpus, GroundTruthTrack,
                          PredictionTrack)
from tcovis.synth import NoiseConfig, SceneConfig, generate_corpus

SPEC = ClipSpec(T=4, H=64, W=64, S=4, K=3, N_v=4, C=8)


def hard_track(binary_stack, class_vec):
    probs = np.tile(np.asarray(class_vec, float), (len(binary_stack), 1))
    soft = np.where(np.asarray(binary_stack) > 0, 0.99, 0.01)
    return PredictionTrack(class_probs=probs, mask_probs=soft)


def block_mask(T, h, w, cells):
    masks = np.zeros((T, h, w), np.uint8)
    for i, j in cells:
        masks[:, i, j] = 1
    return masks


class TestVideoIou:
    def test_identical_tracks(self):
        masks = block_mask(SPEC.T, SPEC.h, SPEC.w, [(2, 2), (2, 3)])
        gt = GroundTruthTrack(class_id=0, masks=masks)
        assert video_iou(gt, hard_track(masks, [1, 0, 0, 0])) == 1.0

    def test_disjoint_tracks(self):
        gt = GroundTruthTrack(class_id=0,
                              masks=block_mask(SPEC.T, SPEC.h, SPEC.w, [(1, 1)]))
        pred = hard_track(block_mask(SPEC.T, SPEC.h, SPEC.w, [(5, 5)]), [1, 0, 0, 0])
        assert video_iou(gt, pred) == 0.0

    def test_half_overlap_counts(self):
        # per frame: |gt| = |pred| = 100, |intersection| = 50, |union| = 150
        h, w = SPEC.h, SPEC.w  # 16 x 16 = 256 cells
        flat_gt = np.zeros(h * w, np.uint8)
        flat_pred = np.zeros(h * w, np.uint8)
        flat_gt[:100] = 1
        flat_pred[50:150] = 1
        gt_masks = np.tile(flat_gt.reshape(h, w), (SPEC.T, 1, 1))
        pred_masks = np.tile(flat_pred.reshape(h, w), (SPEC.T, 1, 1))
        gt = GroundTruthTrack(class_id=0, masks=gt_masks)
        pred = hard_track(pred_masks, [1, 0, 0, 0])
        assert video_iou(gt, pred) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_empty_against_empty_is_zero(self):
        zeros = np.zeros((SPEC.T, SPEC.h, SPEC.w), np.uint8)
        gt = GroundTruthTrack(class_id=0, masks=zeros)
        assert video_iou(gt, hard_track(zeros, [1, 0, 0, 0])) == 0.0


class TestVideoIouTable:
    def test_entries_equal_video_iou(self):
        corpus = generate_corpus(SceneConfig(spec=SPEC, n_objects=(3, 4)),
                                 NoiseConfig(mask_jitter=0.1), 3, seed=17)
        zeros = np.zeros((SPEC.T, SPEC.h, SPEC.w), np.uint8)
        for clip in corpus.clips:
            # an empty track on each side, so a zero union meets the 0.0 rule
            gts = list(clip.gt) + [GroundTruthTrack(class_id=0, masks=zeros)]
            preds = list(clip.pred) + [hard_track(zeros, [0, 0, 0, 1])]
            table = video_iou_table(gts, preds)
            assert table.shape == (len(gts), len(preds))
            assert table[-1, -1] == 0.0
            for g, gt in enumerate(gts):
                for s, pred in enumerate(preds):
                    assert table[g, s] == video_iou(gt, pred)

    def test_empty_sides(self):
        gt = GroundTruthTrack(class_id=0,
                              masks=block_mask(SPEC.T, SPEC.h, SPEC.w, [(1, 1)]))
        assert video_iou_table([gt], []).shape == (1, 0)
        assert video_iou_table([], [hard_track(gt.masks, [1, 0, 0, 0])]).shape == (0, 1)

    def test_mismatched_shapes_raise(self):
        gt = GroundTruthTrack(class_id=0,
                              masks=block_mask(SPEC.T, SPEC.h, SPEC.w, [(1, 1)]))
        pred = hard_track(block_mask(SPEC.T - 1, SPEC.h, SPEC.w, [(1, 1)]), [1, 0, 0, 0])
        with pytest.raises(ValueError, match="mask shapes differ"):
            video_iou_table([gt], [pred])


class TestScores:
    def test_score_is_no_object_complement(self):
        probs = np.array([[0.7, 0.1, 0.0, 0.2], [0.5, 0.1, 0.0, 0.4]])
        track = PredictionTrack(class_probs=probs,
                                mask_probs=np.zeros((2, SPEC.h, SPEC.w)))
        assert prediction_score(track) == pytest.approx(1.0 - 0.3)

    def test_label_ignores_no_object_mass(self):
        probs = np.array([[0.1, 0.3, 0.0, 0.6]] * 2)
        track = PredictionTrack(class_probs=probs,
                                mask_probs=np.zeros((2, SPEC.h, SPEC.w)))
        assert predicted_label(track) == 1


def no_object_track():
    probs = np.zeros((SPEC.T, SPEC.K + 1))
    probs[:, -1] = 1.0
    return PredictionTrack(class_probs=probs,
                           mask_probs=np.full((SPEC.T, SPEC.h, SPEC.w), 0.01))


def perfect_corpus(n_clips=3, seed=0):
    rng = np.random.default_rng(seed)
    clips = []
    for _ in range(n_clips):
        cells_a = [(int(rng.integers(2, 7)), j) for j in range(2, 6)]
        cells_b = [(int(rng.integers(9, 14)), j) for j in range(8, 12)]
        gt_a = GroundTruthTrack(class_id=0,
                                masks=block_mask(SPEC.T, SPEC.h, SPEC.w, cells_a))
        gt_b = GroundTruthTrack(class_id=1,
                                masks=block_mask(SPEC.T, SPEC.h, SPEC.w, cells_b))
        preds = (hard_track(gt_a.masks, [1.0, 0.0, 0.0, 0.0]),
                 hard_track(gt_b.masks, [0.0, 1.0, 0.0, 0.0]),
                 no_object_track(), no_object_track())
        clips.append(Clip(gt=(gt_a, gt_b), pred=preds))
    return Corpus(spec=SPEC, clips=tuple(clips), seed=seed)


class TestComputeAp:
    def test_perfect_predictions_score_one_everywhere(self):
        report = compute_ap(perfect_corpus())
        assert report.ap == 1.0
        assert report.ap50 == 1.0
        assert report.ap75 == 1.0
        assert report.per_threshold == tuple([1.0] * 10)

    def test_all_no_object_gives_zero(self):
        base = perfect_corpus(n_clips=1)
        clip = Clip(gt=base.clips[0].gt, pred=(no_object_track(),) * 4)
        report = compute_ap(Corpus(spec=SPEC, clips=(clip,), seed=0))
        assert report.ap == 0.0 and report.ar10 == 0.0

    def test_single_clip_iou_point_six_walks_to_point_three(self):
        # pred covers 6 of 10 gt cells and nothing else: IoU = 6/10 exactly
        cells = [(3, j) for j in range(10)]
        gt = GroundTruthTrack(class_id=0,
                              masks=block_mask(SPEC.T, SPEC.h, SPEC.w, cells))
        pred_masks = block_mask(SPEC.T, SPEC.h, SPEC.w, cells[:6])
        clip = Clip(gt=(gt,), pred=(hard_track(pred_masks, [1, 0, 0, 0]),))
        report = compute_ap(Corpus(spec=SPEC, clips=(clip,), seed=0))
        assert report.ap50 == 1.0 and report.ap75 == 0.0
        assert report.ap == pytest.approx(0.3, abs=1e-12)
        passed = [thr for thr, ap in zip(IOU_THRESHOLDS, report.per_threshold)
                  if ap == 1.0]
        assert passed == [0.50, 0.55, 0.60]

    def test_invariant_to_clip_and_slot_order(self):
        cfg = SceneConfig(spec=SPEC, n_objects=(1, 3), size=(2, 3))
        corpus = generate_corpus(cfg, NoiseConfig(mask_jitter=0.03,
                                                  class_confusion=0.2),
                                 6, seed=5)
        base = compute_ap(corpus)

        rng = np.random.default_rng(0)
        clip_perm = rng.permutation(len(corpus.clips))
        shuffled_clips = []
        for ci in clip_perm:
            clip = corpus.clips[ci]
            slot_perm = rng.permutation(len(clip.pred))
            shuffled_clips.append(Clip(gt=clip.gt,
                                       pred=tuple(clip.pred[si] for si in slot_perm)))
        shuffled = compute_ap(Corpus(spec=SPEC, clips=tuple(shuffled_clips), seed=5))
        assert shuffled.per_threshold == base.per_threshold
        assert shuffled.ap == base.ap
        assert shuffled.ar1 == base.ar1 and shuffled.ar10 == base.ar10

    def test_improving_iou_never_lowers_ap(self):
        cells = [(3, j) for j in range(10)]
        gt = GroundTruthTrack(class_id=0,
                              masks=block_mask(SPEC.T, SPEC.h, SPEC.w, cells))
        results = []
        for covered in (5, 7, 10):
            pred_masks = block_mask(SPEC.T, SPEC.h, SPEC.w, cells[:covered])
            clip = Clip(gt=(gt,), pred=(hard_track(pred_masks, [1, 0, 0, 0]),))
            results.append(compute_ap(Corpus(spec=SPEC, clips=(clip,), seed=0)).ap)
        assert results[0] <= results[1] <= results[2]

    def test_all_fields_in_unit_interval(self):
        cfg = SceneConfig(spec=SPEC, n_objects=(1, 3), size=(2, 3))
        corpus = generate_corpus(cfg, NoiseConfig(mask_jitter=0.05,
                                                  class_confusion=0.3),
                                 5, seed=6)
        report = compute_ap(corpus)
        values = [report.ap, report.ap50, report.ap75, report.ar1, report.ar10,
                  *report.per_threshold]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert report.ap <= max(report.per_threshold)

    def test_rejects_missing_predictions(self):
        clip = Clip(gt=perfect_corpus(1).clips[0].gt, pred=None)
        with pytest.raises(ValueError, match="predictions"):
            compute_ap(Corpus(spec=SPEC, clips=(clip,), seed=0))


class TestAudit:
    def test_zero_noise_full_agreement(self):
        cfg = SceneConfig(spec=SPEC, n_objects=(2, 3), size=(2, 3))
        corpus = generate_corpus(cfg, NoiseConfig(), 4, seed=7)
        rows = audit_assignments(corpus, LossWeights())
        for row in rows:
            assert row.pair_agreement == 1.0
            assert row.gia_cost == pytest.approx(row.locpro_cost, abs=1e-9)

    def test_early_swap_strictly_favors_global(self):
        cfg = SceneConfig(spec=SPEC, n_objects=(2, 3), size=(2, 3))
        corpus = generate_corpus(cfg, NoiseConfig(swap_mode="early_swap",
                                                  swap_frame=2), 6, seed=8)
        rows = audit_assignments(corpus, LossWeights())
        for row in rows:
            assert row.gia_cost < row.locpro_cost
            assert row.pair_agreement < 1.0

    def test_global_never_worse(self):
        cfg = SceneConfig(spec=SPEC, n_objects=(1, 3), size=(2, 3))
        corpus = generate_corpus(cfg, NoiseConfig(mask_jitter=0.1,
                                                  class_confusion=0.4),
                                 8, seed=9)
        for row in audit_assignments(corpus, LossWeights()):
            assert row.gia_cost <= row.locpro_cost + 1e-9

    def test_rows_equal_the_standalone_strategies(self):
        cfg = SceneConfig(spec=SPEC, n_objects=(2, 3), size=(2, 3))
        corpus = generate_corpus(cfg, NoiseConfig(swap_mode="early_swap",
                                                  swap_frame=2), 4, seed=11)
        w = LossWeights()
        for clip, row in zip(corpus.clips, audit_assignments(corpus, w)):
            gia = global_instance_assignment(clip.gt, clip.pred, w)
            locpro = locpro_assignment(clip.gt, clip.pred, w)
            assert (row.gia_pairs, row.gia_cost) == (gia.pairs, gia.total_cost)
            assert (row.locpro_pairs, row.locpro_cost) == (locpro.pairs, locpro.total_cost)

    def test_csv_emission(self):
        cfg = SceneConfig(spec=SPEC, n_objects=(2, 2), size=(2, 3))
        corpus = generate_corpus(cfg, NoiseConfig(), 2, seed=10)
        rows = audit_assignments(corpus, LossWeights())
        text = audits_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "clip,gia_cost,locpro_cost,pair_agreement"
        assert len(lines) == 3
        assert lines[1].startswith("0,")
