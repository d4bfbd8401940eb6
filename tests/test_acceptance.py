"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from tcovis.assignment import (assignment_total_global_cost, brute_force_assign,
                               global_instance_assignment, hungarian,
                               locpro_assignment)
from tcovis.cli import main
from tcovis.cost import LossWeights, bce_cost, dice_cost, mask_loss_grad
from tcovis.evaluation import audit_assignments, compute_ap
from tcovis.model import (Clip, ClipSpec, Corpus, GroundTruthTrack,
                          PredictionTrack)
from tcovis.ste import (clip_tracks, cross_attention_update, init_mhca_params,
                        init_ref_decoder_params, masked_average_pool, run_clip,
                        segment_frame, MhcaParams)
from tcovis.synth import NoiseConfig, SceneConfig, generate_corpus

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


# -- 1. Hungarian oracle equivalence ------------------------------------------

def test_criterion_1_hungarian_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        nr = int(rng.integers(1, 8))       # up to 7 rows
        nc = int(rng.integers(nr, 10))     # up to 9 columns
        matrix = rng.uniform(0.0, 10.0, (nr, nc))
        solver = hungarian(matrix)
        oracle = brute_force_assign(matrix)
        assert solver.total_cost == oracle.total_cost
        assert solver.pairs == oracle.pairs
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    report(f"1 hungarian-oracle-equivalence (200 matrices, {elapsed:.2f}s)")


# -- 2. GIA dominance ----------------------------------------------------------

def _identity_swap_clip():
    T, h, w = 4, 8, 8
    square = np.zeros((h, w), np.uint8)
    square[2:5, 2:5] = 1
    shifted = np.roll(square, 1, axis=1)
    gt = GroundTruthTrack(class_id=0, masks=np.stack([square] * T))

    def soft(stack):
        logits = 12.0 * (2.0 * np.asarray(stack, float) - 1.0)
        probs = np.tile([0.9, 0.05, 0.05], (T, 1))
        return PredictionTrack(class_probs=probs,
                               mask_probs=1.0 / (1.0 + np.exp(-logits)))

    pre_swap = np.stack([square] + [np.zeros((h, w), np.uint8)] * (T - 1))
    post_swap = np.stack([shifted] + [square] * (T - 1))
    return [gt], [soft(pre_swap), soft(post_swap)]


def test_criterion_2_gia_dominance():
    start = time.perf_counter()
    spec = ClipSpec(T=6, H=64, W=64, S=4, K=3, N_v=6, C=16)
    scene = SceneConfig(spec=spec, n_objects=(2, 4), size=(2, 3))
    noise = NoiseConfig(swap_mode="early_swap", swap_frame=2)
    corpus = generate_corpus(scene, noise, 100, seed=2002)
    weights = LossWeights()

    rows = audit_assignments(corpus, weights)
    assert len(rows) == 100
    for row in rows:
        assert row.gia_cost <= row.locpro_cost + 1e-9
        # a swap occurs in every clip of this corpus, so strict dominance
        assert row.gia_cost < row.locpro_cost

    gts, preds = _identity_swap_clip()
    gia = global_instance_assignment(gts, preds, weights)
    locpro = locpro_assignment(gts, preds, weights)
    assert gia.pairs == ((0, 1),), "global strategy must pick the post-swap slot"
    assert locpro.pairs == ((0, 0),), "local baseline must pick the pre-swap slot"
    assert (assignment_total_global_cost(gia, gts, preds, weights)
            < assignment_total_global_cost(locpro, gts, preds, weights))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    report(f"2 gia-dominance (100 clips strictly dominated, {elapsed:.2f}s)")


# -- 3. Gradient check -----------------------------------------------------------

def test_criterion_3_gradient_check():
    rng = np.random.default_rng(3003)
    weights = LossWeights()
    start = time.perf_counter()

    def loss(y, z):
        p = 1.0 / (1.0 + np.exp(-z))
        return (weights.lambda_bce * bce_cost(y, p)
                + weights.lambda_dice * dice_cost(y, p))

    step = 1e-5
    for _ in range(100):
        T = int(rng.integers(1, 4))
        h = int(rng.integers(2, 9))
        w = int(rng.integers(2, 9))
        y = (rng.random((T, h, w)) < 0.5).astype(float)
        z = rng.uniform(-3.0, 3.0, (T, h, w))
        analytic = mask_loss_grad(y, z, weights)
        numeric = np.zeros_like(z)
        it = np.nditer(z, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            zp, zm = z.copy(), z.copy()
            zp[idx] += step
            zm[idx] -= step
            numeric[idx] = (loss(y, zp) - loss(y, zm)) / (2.0 * step)
            it.iternext()
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    report(f"3 gradient-check (100 instances, {elapsed:.2f}s)")


# -- 4. STE invariants -----------------------------------------------------------

def test_criterion_4_ste_invariants():
    C, slots, heads = 16, 5, 4

    # attention row normalization + joint permutation equivariance
    for seed in range(50):
        params = init_mhca_params(slots, C, heads, seed=seed)
        rng = np.random.default_rng(4000 + seed)
        protos = rng.normal(size=(slots, C))
        feats = rng.normal(size=(slots, C))
        out, w = cross_attention_update(protos, feats, params)
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-9)

        perm = rng.permutation(slots)
        permuted = MhcaParams(n_heads=heads, w_q=params.w_q, w_k=params.w_k,
                              w_v=params.w_v, w_o=params.w_o,
                              ln_scale=params.ln_scale, ln_shift=params.ln_shift,
                              e_pos=params.e_pos[perm])
        moved, _ = cross_attention_update(protos[perm], feats[perm], permuted)
        assert np.allclose(moved, out[perm], atol=1e-9)

    # constant-field pooling
    mask = np.zeros((6, 6), np.uint8)
    mask[2:5, 1:4] = 1
    constant = np.pi
    field = np.full((C, 6, 6), constant) * mask
    pooled = masked_average_pool(field, mask)
    assert not pooled.empty_flag
    assert np.abs(pooled.vector - constant).max() <= 1e-12

    # empty-mask pooling
    empty = masked_average_pool(np.zeros((C, 6, 6)), np.zeros((6, 6)))
    assert empty.empty_flag and not empty.vector.any()

    # single-frame clips ignore the enhancement flag
    rng = np.random.default_rng(4999)
    decoder = init_ref_decoder_params(C, 3, heads, seed=4999)
    mhca = init_mhca_params(slots, C, heads, seed=4999)
    queries = rng.normal(size=(slots, C))
    frames = [(rng.normal(size=(6, C)), rng.normal(size=(C, 8, 8)))]
    plain = clip_tracks(run_clip(queries, frames, decoder), frames, decoder)
    enhanced = clip_tracks(run_clip(queries, frames, decoder, ste_params=mhca), frames, decoder)
    for a, b in zip(plain, enhanced):
        assert np.array_equal(a.class_probs, b.class_probs)
        assert np.array_equal(a.mask_probs, b.mask_probs)

    report("4 ste-invariants (rows, equivariance, pooling, T=1)")


# -- 5. Mask head oracle ----------------------------------------------------------

def test_criterion_5_mask_head_oracle():
    C = 12
    for seed in range(50):
        rng = np.random.default_rng(5000 + seed)
        emb = rng.normal(size=(3, C))
        pixels = rng.normal(size=(C, 5, 5))
        masks = segment_frame(emb, pixels)
        for k in range(3):
            for i in range(5):
                for j in range(5):
                    dot = 0.0
                    for c in range(C):
                        dot += emb[k, c] * pixels[c, i, j]
                    expected = 1.0 / (1.0 + math.exp(-dot))
                    assert abs(masks[k, i, j] - expected) <= 1e-12
    report("5 mask-head-oracle (50 instances within 1e-12)")


# -- 6. Metric sanity --------------------------------------------------------------

def test_criterion_6_metric_sanity():
    spec = ClipSpec(T=4, H=64, W=64, S=4, K=3, N_v=4, C=8)

    def hard(stack, class_vec):
        probs = np.tile(np.asarray(class_vec, float), (spec.T, 1))
        soft = np.where(np.asarray(stack) > 0, 0.99, 0.01)
        return PredictionTrack(class_probs=probs, mask_probs=soft)

    def no_object():
        probs = np.zeros((spec.T, spec.K + 1))
        probs[:, -1] = 1.0
        return PredictionTrack(class_probs=probs,
                               mask_probs=np.full((spec.T, spec.h, spec.w), 0.01))

    # perfect predictions
    rng = np.random.default_rng(6006)
    clips = []
    for _ in range(3):
        masks_a = np.zeros((spec.T, spec.h, spec.w), np.uint8)
        masks_b = np.zeros((spec.T, spec.h, spec.w), np.uint8)
        masks_a[:, 2:5, 2:6] = 1
        masks_b[:, 9 + int(rng.integers(3)), 8:12] = 1
        gt_a = GroundTruthTrack(class_id=0, masks=masks_a)
        gt_b = GroundTruthTrack(class_id=1, masks=masks_b)
        clips.append(Clip(gt=(gt_a, gt_b),
                          pred=(hard(masks_a, [1, 0, 0, 0]),
                                hard(masks_b, [0, 1, 0, 0]),
                                no_object(), no_object())))
    perfect = compute_ap(Corpus(spec=spec, clips=tuple(clips), seed=0))
    assert perfect.ap == 1.0 and perfect.ap50 == 1.0 and perfect.ap75 == 1.0

    # the IoU = 0.6 hand walk: 3 of 10 thresholds pass
    gt_masks = np.zeros((spec.T, spec.h, spec.w), np.uint8)
    gt_masks[:, 3, 0:10] = 1
    pred_masks = np.zeros((spec.T, spec.h, spec.w), np.uint8)
    pred_masks[:, 3, 0:6] = 1
    clip = Clip(gt=(GroundTruthTrack(class_id=0, masks=gt_masks),),
                pred=(hard(pred_masks, [1, 0, 0, 0]),))
    walked = compute_ap(Corpus(spec=spec, clips=(clip,), seed=0))
    assert walked.ap50 == 1.0 and walked.ap75 == 0.0
    assert walked.ap == pytest.approx(0.3, abs=1e-12)

    # invariance to clip order and slot order
    scene = SceneConfig(spec=spec, n_objects=(1, 3), size=(2, 3))
    corpus = generate_corpus(scene, NoiseConfig(mask_jitter=0.03,
                                                class_confusion=0.2), 6, seed=66)
    base = compute_ap(corpus)
    rng = np.random.default_rng(0)
    shuffled_clips = []
    for ci in rng.permutation(len(corpus.clips)):
        old = corpus.clips[ci]
        order = rng.permutation(len(old.pred))
        shuffled_clips.append(Clip(gt=old.gt,
                                   pred=tuple(old.pred[si] for si in order)))
    shuffled = compute_ap(Corpus(spec=spec, clips=tuple(shuffled_clips), seed=66))
    assert shuffled.per_threshold == base.per_threshold
    assert (shuffled.ap, shuffled.ar1, shuffled.ar10) == (base.ap, base.ar1, base.ar10)

    report("6 metric-sanity (perfect=1.0, walk=0.3, permutation-invariant)")


# -- 7. Determinism ------------------------------------------------------------------

def test_criterion_7_cli_determinism(tmp_path):
    corpus_cfg = CONFIG_DIR / "swap.json"
    demo_cfg = CONFIG_DIR / "enhance.json"

    outputs: dict = {}
    for run, threads in enumerate(("1", "2", "8", "1")):
        base = tmp_path / f"run{run}"
        base.mkdir()
        corpus = base / "corpus.json"
        assert main(["gen", str(corpus_cfg), "--out", str(corpus),
                     "--threads", threads]) == 0
        assert main(["assign", str(corpus), "--strategy", "both",
                     "--out-prefix", str(base / "audit"),
                     "--threads", threads]) == 0
        assert main(["enhance", "--demo", str(demo_cfg),
                     "--out", str(base / "trace.json"),
                     "--threads", threads]) == 0
        assert main(["eval", str(corpus), "--out-prefix", str(base / "metrics"),
                     "--threads", threads]) == 0
        blob = {name: (base / name).read_bytes()
                for name in ("corpus.json", "audit.json", "audit.csv",
                             "trace.json", "metrics.report.json",
                             "metrics.audit.csv")}
        outputs[run] = blob

    for run in (1, 2, 3):
        assert outputs[run] == outputs[0], f"run {run} differs from run 0"
    report("7 cli-determinism (4 commands x threads 1/2/8, byte-identical)")


# -- 8. Performance floor --------------------------------------------------------------

def test_criterion_8_performance_floor():
    rng = np.random.default_rng(8008)
    matrix = rng.uniform(0.0, 10.0, (100, 120))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        hungarian(matrix)
        times.append(time.perf_counter() - start)
    times.sort()
    median_ms = times[2] * 1e3
    assert median_ms < 250.0, f"median {median_ms:.1f} ms exceeds 250 ms"
    report(f"8 performance-floor (100x120 median {median_ms:.2f} ms < 250 ms)")
