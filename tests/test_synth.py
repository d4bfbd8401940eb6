import hashlib
import json

import numpy as np
import pytest

from tcovis.assignment import global_instance_assignment, locpro_assignment
from tcovis.cost import LossWeights, _sigmoid
from tcovis.model import ClipSpec, Corpus, dump_json, validate
from tcovis.rng import derive_seed, stream
from tcovis.synth import (NoiseConfig, SceneConfig, build_clip, generate_clip,
                          generate_corpus, simulate_predictions)

SPEC = ClipSpec(T=6, H=64, W=64, S=4, K=3, N_v=6, C=16)


def scene(**overrides):
    fields = dict(spec=SPEC, n_objects=(2, 4), velocity=(0.5, 1.5))
    fields.update(overrides)
    return SceneConfig(**fields)


class TestSceneConfig:
    def test_rejects_too_many_objects(self):
        with pytest.raises(ValueError, match="n_objects"):
            scene(n_objects=(2, 7))

    def test_rejects_oversized_objects(self):
        with pytest.raises(ValueError, match="fit"):
            scene(size=(2, 8))

    def test_rejects_unknown_shape(self):
        with pytest.raises(ValueError, match="shapes"):
            scene(shapes=("triangle",))

    def test_rejects_bad_entry_range(self):
        with pytest.raises(ValueError, match="entry_frame"):
            scene(entry_frame=(0, 3))

    def test_numpy_scalars_read_as_python_numbers(self):
        cfg = scene(n_objects=(np.int64(2), np.int32(3)), velocity=[np.float32(0.5), 1])
        assert cfg.n_objects == (2, 3) and type(cfg.n_objects[0]) is int
        assert cfg.velocity == (0.5, 1.0) and type(cfg.velocity[1]) is float
        assert NoiseConfig(swap_frame=np.int64(3)).swap_frame == 3

    @pytest.mark.parametrize("overrides, message", [
        (dict(entry_frame=(1.0, 2)), "entry_frame must be an integer, got 1.0"),
        (dict(velocity=(0.5, None)), "velocity must be a number, got None"),
        (dict(size=(2, 3, 3)), r"size must be a \[lo, hi\] pair"),
        (dict(n_objects=2), r"n_objects must be a \[lo, hi\] pair, got 2"),
        (dict(allow_occlusion=1), "allow_occlusion must be true or false, got 1"),
        (dict(spec=ClipSpec(T=6, H=28, W=28, S=4, K=3, N_v=6, C=16), size=(3, 3)),
         r"size max 3 and velocity max 1.5: an object and one step cannot fit the 7x7 grid"),
        (dict(velocity=(0.5, 1e9)), "velocity max 1000000000.0: an object and one step"),
    ])
    def test_rejects_values_of_the_wrong_kind(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            scene(**overrides)


class TestNoiseConfig:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="mask_jitter"):
            NoiseConfig(mask_jitter=1.5)

    def test_rejects_early_swap_frame(self):
        with pytest.raises(ValueError, match="swap_frame"):
            NoiseConfig(swap_mode="early_swap", swap_frame=1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="swap_mode"):
            NoiseConfig(swap_mode="late_swap")


class TestGenerateClip:
    def test_static_object_keeps_its_mask(self):
        cfg = scene(n_objects=(1, 1), velocity=(0.0, 0.0))
        tracks = generate_clip(cfg, seed=3)
        assert len(tracks) == 1
        for t in range(1, SPEC.T):
            assert np.array_equal(tracks[0].masks[t], tracks[0].masks[0])

    def test_deterministic_under_seed(self):
        cfg = scene()
        a = generate_clip(cfg, seed=5)
        b = generate_clip(cfg, seed=5)
        assert len(a) == len(b)
        for ta, tb in zip(a, b):
            assert ta.class_id == tb.class_id
            assert np.array_equal(ta.masks, tb.masks)

    def test_seeded_configs_pass_validation(self):
        rng = np.random.default_rng(0)
        for i in range(10):
            cfg = scene(n_objects=(1, int(rng.integers(2, 5))),
                        velocity=(0.0, float(rng.uniform(0.5, 2.0))),
                        entry_frame=(1, int(rng.integers(1, 4))))
            corpus = generate_corpus(cfg, None, 1, seed=i)
            assert validate(corpus) == []

    def test_entry_frames_delay_appearance(self):
        cfg = scene(n_objects=(3, 3), entry_frame=(3, 3))
        tracks = generate_clip(cfg, seed=9)
        for track in tracks:
            assert not track.masks[:2].any()
            assert track.masks[2:].any()

    def test_depth_order_later_index_on_top(self):
        cfg = scene(n_objects=(4, 4), velocity=(0.0, 1.0), allow_occlusion=True)
        tracks = generate_clip(cfg, seed=11)
        stacked = np.stack([t.masks for t in tracks])
        # visible masks never overlap after carving
        assert (stacked.sum(axis=0) <= 1).all()

    def test_no_occlusion_flag_prevents_overlap(self):
        cfg = scene(n_objects=(2, 3), allow_occlusion=False, size=(2, 2))
        tracks = generate_clip(cfg, seed=13)
        stacked = np.stack([t.masks for t in tracks])
        assert (stacked.sum(axis=0) <= 1).all()

    def test_no_occlusion_clip_bytes_are_pinned(self):
        # the first draws of seed 13 overlap, so the clip comes from a retry
        tracks = generate_clip(scene(n_objects=(2, 3), allow_occlusion=False, size=(2, 2)),
                               seed=13)
        h = hashlib.sha256()
        for track in tracks:
            h.update(np.int64(track.class_id).tobytes())
            h.update(track.masks.tobytes())
        assert h.hexdigest() == (
            "2224d73440c8c1885eb1c3c92e7d2ac53cac33dfe1cb0d41fd2ed2c2a46ea1bf")


def simulate_per_frame(gt_tracks, noise, spec, seed):
    """The simulator slot by slot and frame by frame: one (h, w) noise draw
    per followed slot and frame. Returns (class_probs, mask_probs) pairs."""
    rng = stream(seed, "noise")
    swap_at = noise.swap_frame - 1 if noise.swap_mode == "early_swap" else None
    tracks = []
    for slot in range(spec.N_v):
        probs, masks = np.empty((spec.T, spec.K + 1)), np.empty((spec.T, spec.h, spec.w))
        for t in range(spec.T):
            followed = slot if slot < len(gt_tracks) else None
            if swap_at is not None and t >= swap_at and slot in (0, 1):
                followed = 1 - slot
            probs[t] = noise.class_confusion / spec.K
            probs[t, spec.K if followed is None else gt_tracks[followed].class_id] = (
                1.0 - noise.class_confusion)
            if followed is None:
                masks[t] = _sigmoid(np.array(-noise.sharpness))
                continue
            cell = np.asarray(gt_tracks[followed].masks[t], dtype=np.float64)
            cell = np.where(rng.random((spec.h, spec.w)) < noise.mask_jitter, 1.0 - cell, cell)
            masks[t] = _sigmoid(noise.sharpness * (2.0 * cell - 1.0))
        tracks.append((probs, masks))
    return tracks


class TestSimulatePredictions:
    @pytest.mark.parametrize("noise, entry_frame", [
        (NoiseConfig(mask_jitter=0.1, class_confusion=0.2), (1, 1)),
        (NoiseConfig(mask_jitter=0.3, class_confusion=0.05, swap_mode="early_swap",
                     swap_frame=3), (1, 5)),
        (NoiseConfig(swap_mode="early_swap", swap_frame=6, sharpness=3.0), (2, 4)),
    ])
    def test_matches_the_per_frame_loop(self, noise, entry_frame):
        spec = ClipSpec(T=6, H=64, W=48, S=4, K=3, N_v=7, C=16)
        cfg = scene(spec=spec, n_objects=(2, 5), entry_frame=entry_frame)
        for seed in range(4):
            gts = generate_clip(cfg, seed=seed)
            got = simulate_predictions(gts, noise, spec, seed=seed)
            want = simulate_per_frame(gts, noise, spec, seed)
            assert len(got) == len(want) == spec.N_v
            for track, (probs, masks) in zip(got, want):
                assert track.class_probs.tobytes() == probs.tobytes()
                assert track.mask_probs.tobytes() == masks.tobytes()
                assert (track.class_probs.shape, track.mask_probs.shape) == (probs.shape,
                                                                             masks.shape)

    def test_zero_noise_recovers_generator_pairing(self):
        cfg = scene()
        gts = generate_clip(cfg, seed=21)
        preds = simulate_predictions(gts, NoiseConfig(), SPEC, seed=21)
        assert len(preds) == SPEC.N_v
        gia = global_instance_assignment(gts, preds, LossWeights())
        assert gia.pairs == tuple((i, i) for i in range(len(gts)))
        assert gia.total_cost < 1e-2

    def test_early_swap_separates_strategies(self):
        cfg = scene()
        w = LossWeights()
        noise = NoiseConfig(swap_mode="early_swap", swap_frame=2)
        for seed in range(5):
            gts = generate_clip(cfg, seed=seed)
            preds = simulate_predictions(gts, noise, SPEC, seed=seed)
            gia = global_instance_assignment(gts, preds, w)
            loc = locpro_assignment(gts, preds, w)
            assert gia.total_cost < loc.total_cost
            assert dict(gia.pairs)[0] == 1 and dict(gia.pairs)[1] == 0
            assert dict(loc.pairs)[0] == 0 and dict(loc.pairs)[1] == 1

    def test_bit_identical_under_seed(self):
        cfg = scene()
        gts = generate_clip(cfg, seed=31)
        noise = NoiseConfig(mask_jitter=0.1, class_confusion=0.2)
        a = simulate_predictions(gts, noise, SPEC, seed=31)
        b = simulate_predictions(gts, noise, SPEC, seed=31)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.class_probs, tb.class_probs)
            assert np.array_equal(ta.mask_probs, tb.mask_probs)

    def test_outputs_satisfy_model_invariants(self):
        cfg = scene()
        noise = NoiseConfig(mask_jitter=0.05, class_confusion=0.3)
        corpus = generate_corpus(cfg, noise, 5, seed=41)
        assert validate(corpus) == []

    def test_jitter_monotonically_raises_expected_cost(self):
        cfg = scene()
        w = LossWeights()
        means = []
        for jitter in (0.0, 0.05, 0.15):
            noise = NoiseConfig(mask_jitter=jitter)
            totals = []
            for index in range(50):
                clip = build_clip(cfg, noise, seed=51, index=index)
                gia = global_instance_assignment(clip.gt, clip.pred, w)
                totals.append(gia.total_cost)
            means.append(float(np.mean(totals)))
        assert means[0] <= means[1] <= means[2]

    def test_rejects_too_many_tracks(self):
        cfg = scene()
        gts = generate_clip(cfg, seed=61) * 4
        with pytest.raises(ValueError, match="exceed"):
            simulate_predictions(gts, NoiseConfig(), SPEC, seed=61)

    def test_early_swap_needs_two_tracks(self):
        cfg = scene(n_objects=(1, 1))
        gts = generate_clip(cfg, seed=71)
        with pytest.raises(ValueError, match="two ground-truth"):
            simulate_predictions(gts, NoiseConfig(swap_mode="early_swap"),
                                 SPEC, seed=71)


class TestCorpus:
    def test_header_records_generator(self):
        cfg = scene()
        corpus = generate_corpus(cfg, NoiseConfig(), 3, seed=81)
        assert corpus.generator["name"].startswith("philox")
        assert corpus.generator["scene"]["n_objects"] == [2, 4]
        assert corpus.generator["clips"] == 3

    def test_header_equals_its_json_copy_and_rebuilds_the_configs(self):
        cfg = scene(shapes=("disc",), entry_frame=(1, 3))
        noise = NoiseConfig(mask_jitter=0.02, swap_mode="early_swap", swap_frame=3)
        header = generate_corpus(cfg, noise, 2, seed=83).generator
        assert json.loads(dump_json(header)) == header
        assert SceneConfig(spec=SPEC, **header["scene"]) == cfg
        assert NoiseConfig(**header["noise"]) == noise

    def test_clips_independent_of_generation_order(self):
        cfg = scene()
        noise = NoiseConfig(mask_jitter=0.02)
        full = generate_corpus(cfg, noise, 4, seed=91)
        lone = build_clip(cfg, noise, seed=91, index=2)
        want = full.clips[2]
        for a, b in zip(want.gt, lone.gt):
            assert np.array_equal(a.masks, b.masks)
        for a, b in zip(want.pred, lone.pred):
            assert np.array_equal(a.mask_probs, b.mask_probs)


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_refused(self, seed):
        # folding would give -1 the streams of 2**64 - 1, and 2**64 those of 0
        for derive in (stream, derive_seed):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                derive(seed, "clip", 0)

    def test_seed_range_ends_are_distinct_streams(self):
        assert derive_seed(0, "clip") != derive_seed(2**64 - 1, "clip")
        assert stream(0).random() != stream(2**64 - 1).random()
