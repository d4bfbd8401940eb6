import dataclasses
import hashlib
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tcovis.model import Clip, ClipSpec, Corpus, validate
from tcovis.ste import (LN_EPS, AttentionParams, FeedForwardParams, MhcaParams,
                        RefDecoderParams, clip_tracks, cross_attention_update,
                        init_mhca_params, init_ref_decoder_params, layer_norm,
                        masked_average_pool, propagate, run_clip, segment_frame,
                        spatial_matting)

C, N_SLOTS, N_FQ, HEADS = 16, 5, 6, 4


def mhca(seed=0):
    return init_mhca_params(N_SLOTS, C, HEADS, seed)


def decoder(seed=0, k=3):
    return init_ref_decoder_params(C, k, HEADS, seed)


def arrays_of(node):
    """Every array of a parameter block in field order, the mask head's (w, b) layers included."""
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from arrays_of(getattr(node, f.name))
    elif isinstance(node, tuple):
        for item in node:
            yield from arrays_of(item)
    elif isinstance(node, np.ndarray):
        yield node


def replaced(node, path, value):
    """`node` with the field at `path` (field names, then a mask-head layer index and "w"
    or "b") set to `value`, or to `value(old)` when it is callable; each enclosing block
    is rebuilt with `dataclasses.replace`, so its constructor checks the result."""
    if not path:
        return value(node) if callable(value) else value
    key, *rest = path
    if dataclasses.is_dataclass(node):
        return dataclasses.replace(node, **{key: replaced(getattr(node, key), rest, value)})
    key = "wb".index(key) if isinstance(key, str) else key
    return tuple(replaced(item, rest, value) if i == key else item for i, item in enumerate(node))


def with_entry(index, x):
    """An edit for `replaced`: the array with its flat entry `index` set to `x`."""
    def edit(array):
        out = array.copy()
        out.flat[index] = x
        return out
    return edit


def zero_width(node):
    """`node` rebuilt through its constructors with every C and 2C dimension set to 0."""
    if dataclasses.is_dataclass(node):
        return type(node)(**{f.name: zero_width(getattr(node, f.name))
                             for f in dataclasses.fields(node)})
    if isinstance(node, tuple):
        return tuple(map(zero_width, node))
    if isinstance(node, np.ndarray):
        return np.zeros([0 if n in (C, 2 * C) else n for n in node.shape])
    return node


# -- naive oracles -----------------------------------------------------------

def naive_layer_norm(x, scale, shift):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mean = row.mean()
        var = ((row - mean) ** 2).mean()
        out[i] = (row - mean) / math.sqrt(var + LN_EPS) * scale + shift
    return out


def naive_attention(q_in, k_in, v_in, params):
    """O(N^2) per-head reference; returns (context-after-W_o, weights)."""
    n_q, n_k = q_in.shape[0], k_in.shape[0]
    dim = C // params.n_heads
    q = q_in @ params.w_q
    k = k_in @ params.w_k
    v = v_in @ params.w_v
    out = np.zeros((n_q, C))
    weights = np.zeros((params.n_heads, n_q, n_k))
    for head in range(params.n_heads):
        sl = slice(head * dim, (head + 1) * dim)
        for i in range(n_q):
            scores = np.array([q[i, sl] @ k[j, sl] / math.sqrt(dim)
                               for j in range(n_k)])
            exp = np.exp(scores - scores.max())
            w = exp / exp.sum()
            weights[head, i] = w
            out[i, sl] = sum(w[j] * v[j, sl] for j in range(n_k))
    return out @ params.w_o, weights


def naive_cross_attention_update(protos, feats, params):
    ctx, weights = naive_attention(protos + params.e_pos, feats + params.e_pos,
                                   feats, params)
    return naive_layer_norm(protos + ctx, params.ln_scale, params.ln_shift), ctx, weights


def naive_propagate(queries, frame_queries, params):
    """Straight-line reference for the decoder step."""
    enc_ctx, _ = naive_attention(frame_queries, frame_queries, frame_queries,
                                 params.encoder)
    f_enc = naive_layer_norm(frame_queries + enc_ctx,
                             params.encoder.ln_scale, params.encoder.ln_shift)
    dec_ctx, _ = naive_attention(queries, f_enc, f_enc, params.decoder)
    x = naive_layer_norm(queries + dec_ctx,
                         params.decoder.ln_scale, params.decoder.ln_shift)
    hidden = np.maximum(x @ params.ffn.w1 + params.ffn.b1, 0.0)
    protos = naive_layer_norm(x + hidden @ params.ffn.w2 + params.ffn.b2,
                              params.ffn.ln_scale, params.ffn.ln_shift)
    logits = protos @ params.classifier
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    m = protos
    for w, b in params.mask_head[:-1]:
        m = np.maximum(m @ w + b, 0.0)
    w, b = params.mask_head[-1]
    return protos, probs, m @ w + b


def numpy_layer_norm(x, scale, shift):
    return (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + LN_EPS) * scale + shift


# -- layer norm ----------------------------------------------------------------

class TestLayerNorm:
    """Bit for bit numpy's mean and var form, on both sides of numpy's pairwise
    summation blocks (8 and 128 elements)."""

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 127, 128, 129, 257])
    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)], ids=["1d", "2d", "3d"])
    def test_bit_equal_to_mean_and_var(self, lead, width):
        rng = np.random.default_rng(width)
        x = rng.normal(3.0, 2.0, (*lead, width))
        scale, shift = rng.normal(size=width), rng.normal(size=width)
        out = layer_norm(x, scale, shift)
        assert out.shape == x.shape
        assert out.tobytes() == numpy_layer_norm(x, scale, shift).tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_bit_equal_on_drawn_rows(self, data):
        lead = data.draw(st.lists(st.integers(1, 4), max_size=2))
        width = data.draw(st.integers(1, 260))
        floats = st.floats(-1e6, 1e6)
        x = data.draw(arrays(np.float64, (*lead, width), elements=floats))
        scale, shift = (data.draw(arrays(np.float64, width, elements=floats)) for _ in range(2))
        assert layer_norm(x, scale, shift).tobytes() == numpy_layer_norm(x, scale, shift).tobytes()


# -- spatial matting and pooling ---------------------------------------------

class TestSpatialMatting:
    def test_all_one_mask_is_identity(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(C, 6, 6))
        assert np.array_equal(spatial_matting(p, np.ones((6, 6))), p)

    def test_all_zero_mask_annihilates(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=(C, 6, 6))
        assert not spatial_matting(p, np.zeros((6, 6))).any()

    def test_cells_below_threshold_are_exactly_zero(self):
        rng = np.random.default_rng(2)
        p = rng.normal(size=(C, 8, 8))
        mask = rng.random((8, 8))
        out = spatial_matting(p, mask, threshold=0.5)
        for i in range(8):
            for j in range(8):
                if mask[i, j] >= 0.5:
                    assert np.array_equal(out[:, i, j], p[:, i, j])
                else:
                    assert not out[:, i, j].any()

    def test_rejects_degenerate_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            spatial_matting(np.zeros((C, 4, 4)), np.zeros((4, 4)), threshold=1.0)


class TestMaskedAveragePool:
    def test_constant_field_returns_constant(self):
        mask = np.zeros((6, 6), np.uint8)
        mask[1:4, 2:5] = 1
        field = np.broadcast_to(np.arange(1.0, C + 1.0)[:, None, None],
                                (C, 6, 6)) * mask
        pooled = masked_average_pool(field, mask)
        assert not pooled.empty_flag
        assert np.allclose(pooled.vector, np.arange(1.0, C + 1.0), atol=1e-12)

    def test_empty_mask_gives_zero_vector_with_flag(self):
        pooled = masked_average_pool(np.zeros((C, 4, 4)), np.zeros((4, 4)))
        assert pooled.empty_flag
        assert not pooled.vector.any()

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        mask = (rng.random((7, 7)) < 0.4).astype(np.uint8)
        mask[0, 0] = 1
        field = rng.normal(size=(C, 7, 7)) * mask
        pooled = masked_average_pool(field, mask)
        count = int(mask.sum())
        for c in range(C):
            total = sum(field[c, i, j] for i in range(7) for j in range(7)
                        if mask[i, j])
            assert abs(pooled.vector[c] - total / count) < 1e-12


# -- cross-attention update ---------------------------------------------------

class TestCrossAttentionUpdate:
    def test_zero_values_reduce_to_layer_norm(self):
        params = mhca()
        zeroed = MhcaParams(n_heads=HEADS, w_q=params.w_q, w_k=params.w_k,
                            w_v=np.zeros((C, C)), w_o=params.w_o,
                            ln_scale=params.ln_scale, ln_shift=params.ln_shift,
                            e_pos=params.e_pos)
        rng = np.random.default_rng(4)
        protos = rng.normal(size=(N_SLOTS, C))
        feats = rng.normal(size=(N_SLOTS, C))
        out, _ = cross_attention_update(protos, feats, zeroed)
        assert np.allclose(out, layer_norm(protos, params.ln_scale, params.ln_shift),
                           atol=1e-12)

    def test_identical_features_give_identical_context(self):
        params = init_mhca_params(N_SLOTS, C, HEADS, seed=5)
        zero_pos = MhcaParams(n_heads=HEADS, w_q=params.w_q, w_k=params.w_k,
                              w_v=params.w_v, w_o=params.w_o,
                              ln_scale=params.ln_scale, ln_shift=params.ln_shift,
                              e_pos=np.zeros((N_SLOTS, C)))
        rng = np.random.default_rng(6)
        protos = rng.normal(size=(N_SLOTS, C))
        feats = np.tile(rng.normal(size=C), (N_SLOTS, 1))
        _, ctx, _ = naive_cross_attention_update(protos, feats, zero_pos)
        assert np.allclose(ctx, ctx[0], atol=1e-9)
        out, _ = cross_attention_update(protos, feats, zero_pos)
        naive_out, _, _ = naive_cross_attention_update(protos, feats, zero_pos)
        assert np.allclose(out, naive_out, atol=1e-9)

    def test_matches_naive_oracle_and_rows_sum_to_one(self):
        for seed in range(8):
            params = init_mhca_params(N_SLOTS, C, HEADS, seed=seed)
            rng = np.random.default_rng(100 + seed)
            protos = rng.normal(size=(N_SLOTS, C))
            feats = rng.normal(size=(N_SLOTS, C))
            out, weights = cross_attention_update(protos, feats, params)
            naive_out, _, naive_w = naive_cross_attention_update(protos, feats, params)
            assert np.allclose(out, naive_out, atol=1e-9)
            assert np.allclose(weights, naive_w, atol=1e-9)
            assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-9)

    def test_joint_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        params = mhca(seed=9)
        protos = rng.normal(size=(N_SLOTS, C))
        feats = rng.normal(size=(N_SLOTS, C))
        perm = rng.permutation(N_SLOTS)
        permuted = MhcaParams(n_heads=HEADS, w_q=params.w_q, w_k=params.w_k,
                              w_v=params.w_v, w_o=params.w_o,
                              ln_scale=params.ln_scale, ln_shift=params.ln_shift,
                              e_pos=params.e_pos[perm])
        base, _ = cross_attention_update(protos, feats, params)
        moved, _ = cross_attention_update(protos[perm], feats[perm], permuted)
        assert np.allclose(moved, base[perm], atol=1e-9)

    def test_swapping_positions_swaps_positional_identity(self):
        # moving rows j,k of the positional table is the same as swapping
        # which data the positions decorate, then un-swapping the outputs
        rng = np.random.default_rng(9)
        params = mhca(seed=10)
        protos = rng.normal(size=(N_SLOTS, C))
        feats = rng.normal(size=(N_SLOTS, C))
        swap = np.arange(N_SLOTS)
        swap[1], swap[3] = 3, 1
        swapped_pos = MhcaParams(n_heads=HEADS, w_q=params.w_q, w_k=params.w_k,
                                 w_v=params.w_v, w_o=params.w_o,
                                 ln_scale=params.ln_scale, ln_shift=params.ln_shift,
                                 e_pos=params.e_pos[swap])
        direct, _ = cross_attention_update(protos, feats, swapped_pos)
        via_data, _, _ = naive_cross_attention_update(protos[swap], feats[swap], params)
        assert np.allclose(direct, via_data[swap], atol=1e-9)

    def test_rejects_count_mismatch(self):
        params = mhca()
        with pytest.raises(ValueError, match="disagree"):
            cross_attention_update(np.zeros((N_SLOTS - 1, C)),
                                   np.zeros((N_SLOTS - 1, C)), params)


# -- decoder step ---------------------------------------------------------------

class TestPropagate:
    def test_zero_weights_give_uniform_classes(self):
        zero_attn = AttentionParams(n_heads=HEADS, w_q=np.zeros((C, C)),
                                    w_k=np.zeros((C, C)), w_v=np.zeros((C, C)),
                                    w_o=np.zeros((C, C)), ln_scale=np.zeros(C),
                                    ln_shift=np.zeros(C))
        zero = RefDecoderParams(
            encoder=zero_attn, decoder=zero_attn,
            ffn=FeedForwardParams(w1=np.zeros((C, 2 * C)), b1=np.zeros(2 * C),
                                  w2=np.zeros((2 * C, C)), b2=np.zeros(C),
                                  ln_scale=np.zeros(C), ln_shift=np.zeros(C)),
            mask_head=tuple((np.zeros((C, C)), np.zeros(C)) for _ in range(3)),
            classifier=np.zeros((C, 4)))
        rng = np.random.default_rng(10)
        protos, probs, emb, _ = propagate(rng.normal(size=(N_SLOTS, C)),
                                          rng.normal(size=(N_FQ, C)), zero)
        assert not protos.any()
        assert np.allclose(probs, 0.25, atol=1e-12)
        assert not emb.any()

    def test_single_frame_query_gets_full_attention(self):
        params = decoder(seed=11)
        rng = np.random.default_rng(11)
        _, _, _, trace = propagate(rng.normal(size=(N_SLOTS, C)),
                                   rng.normal(size=(1, C)), params)
        assert np.array_equal(trace["decoder_weights"],
                              np.ones_like(trace["decoder_weights"]))

    def test_matches_straight_line_reference(self):
        for seed in range(6):
            params = decoder(seed=seed)
            rng = np.random.default_rng(200 + seed)
            q = rng.normal(size=(N_SLOTS, C))
            f = rng.normal(size=(N_FQ, C))
            protos, probs, emb, _ = propagate(q, f, params)
            n_protos, n_probs, n_emb = naive_propagate(q, f, params)
            assert np.allclose(protos, n_protos, atol=1e-9)
            assert np.allclose(probs, n_probs, atol=1e-9)
            assert np.allclose(emb, n_emb, atol=1e-9)

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            propagate(np.zeros((N_SLOTS, C)), np.zeros((N_FQ, C + 1)), decoder())


# -- mask head ----------------------------------------------------------------

class TestSegmentFrame:
    def test_zero_embedding_gives_half(self):
        rng = np.random.default_rng(12)
        p = rng.normal(size=(C, 5, 5))
        masks = segment_frame(np.zeros((1, C)), p)
        assert np.array_equal(masks, np.full((1, 5, 5), 0.5))

    def test_one_hot_alignment(self):
        p = np.zeros((C, 4, 4))
        p[2, 1, 1] = 1.0
        p[2, 3, 2] = 1.0
        emb = np.zeros((1, C))
        emb[0, 2] = 10.0
        masks = segment_frame(emb, p)
        assert masks[0, 1, 1] > 0.99 and masks[0, 3, 2] > 0.99
        assert np.isclose(masks[0, 0, 0], 0.5)

    def test_matches_triple_loop_oracle(self):
        for seed in range(50):
            rng = np.random.default_rng(300 + seed)
            emb = rng.normal(size=(3, C))
            p = rng.normal(size=(C, 4, 4))
            masks = segment_frame(emb, p)
            for k in range(3):
                for i in range(4):
                    for j in range(4):
                        dot = 0.0
                        for c in range(C):
                            dot += emb[k, c] * p[c, i, j]
                        assert abs(masks[k, i, j] - 1.0 / (1.0 + math.exp(-dot))) <= 1e-12

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(13)
        masks = segment_frame(rng.normal(size=(N_SLOTS, C)),
                              rng.normal(size=(C, 6, 6)))
        assert (masks > 0.0).all() and (masks < 1.0).all()


# -- clip loop ------------------------------------------------------------------

def demo_frames(rng, T, h=8, w=8):
    return [(rng.normal(size=(N_FQ, C)), rng.normal(size=(C, h, w)))
            for _ in range(T)]


class TestRunClip:
    def test_enhancement_width_must_match_the_decoder(self):
        rng = np.random.default_rng(13)
        narrow = init_mhca_params(N_SLOTS, C // 2, HEADS, seed=0)
        with pytest.raises(ValueError, match=r"e_pos \(5, 8\), which is \(n_slots, C\)"):
            run_clip(rng.normal(size=(N_SLOTS, C)), demo_frames(rng, T=2), decoder(),
                     ste_params=narrow)

    def test_single_frame_insensitive_to_enhancement(self):
        rng = np.random.default_rng(14)
        q = rng.normal(size=(N_SLOTS, C))
        frames = demo_frames(rng, T=1)
        params = decoder()
        plain = clip_tracks(run_clip(q, frames, params), frames, params)
        enhanced = clip_tracks(run_clip(q, frames, params, ste_params=mhca()), frames, params)
        for a, b in zip(plain, enhanced):
            assert np.array_equal(a.class_probs, b.class_probs)
            assert np.array_equal(a.mask_probs, b.mask_probs)

    def test_disabled_enhancement_propagates_prototypes(self):
        rng = np.random.default_rng(15)
        q = rng.normal(size=(N_SLOTS, C))
        frames = demo_frames(rng, T=2)
        params = decoder(seed=16)
        tracks = clip_tracks(run_clip(q, frames, params), frames, params)
        protos, _, _, _ = propagate(q, frames[0][0], params)
        _, probs1, emb1, _ = propagate(protos, frames[1][0], params)
        assert np.array_equal(tracks[0].class_probs[1], probs1[0])
        assert np.array_equal(tracks[0].mask_probs[1],
                              segment_frame(emb1, frames[1][1])[0])

    def test_three_frame_composition_oracle(self):
        rng = np.random.default_rng(17)
        q0 = rng.normal(size=(N_SLOTS, C))
        frames = demo_frames(rng, T=3)
        params = decoder(seed=18)
        enh = mhca(seed=19)
        tracks = clip_tracks(run_clip(q0, frames, params, ste_params=enh), frames, params)

        queries = q0
        for t in range(3):
            protos, probs, emb, _ = propagate(queries, frames[t][0], params)
            masks = segment_frame(emb, frames[t][1])
            for k in range(N_SLOTS):
                assert np.array_equal(tracks[k].class_probs[t], probs[k])
                assert np.array_equal(tracks[k].mask_probs[t], masks[k])
            if t < 2:
                feats = []
                for k in range(N_SLOTS):
                    matted = spatial_matting(frames[t][1], masks[k], 0.5)
                    feats.append(masked_average_pool(matted, masks[k] >= 0.5))
                queries, _ = cross_attention_update(
                    protos, np.stack([f.vector for f in feats]), enh)

    def test_tracks_need_one_trace_entry_per_frame(self):
        rng = np.random.default_rng(28)
        frames = demo_frames(rng, T=3)
        params = decoder()
        trace = run_clip(rng.normal(size=(N_SLOTS, C)), frames, params)
        with pytest.raises(ValueError, match="zip"):
            clip_tracks(trace, frames[:2], params)

    def test_outputs_satisfy_model_invariants(self):
        spec = ClipSpec(T=3, H=32, W=32, S=4, K=3, N_v=N_SLOTS, C=C)
        rng = np.random.default_rng(20)
        q = rng.normal(size=(N_SLOTS, C))
        frames = demo_frames(rng, T=3, h=spec.h, w=spec.w)
        params = decoder()
        tracks = clip_tracks(run_clip(q, frames, params, ste_params=mhca()), frames, params)
        gt = np.zeros((3, spec.h, spec.w), np.uint8)
        gt[0, 0, 0] = 1
        from tcovis.model import GroundTruthTrack
        clip = Clip(gt=(GroundTruthTrack(class_id=0, masks=gt),), pred=tuple(tracks))
        assert validate(Corpus(spec=spec, clips=(clip,), seed=0)) == []

    def test_bit_identical_across_runs_and_threads(self):
        def once(_):
            rng = np.random.default_rng(21)
            q = rng.normal(size=(N_SLOTS, C))
            frames = demo_frames(rng, T=3)
            params = decoder(seed=22)
            tracks = clip_tracks(run_clip(q, frames, params, ste_params=mhca(seed=23)), frames,
                                 params)
            return np.concatenate([t.mask_probs.ravel() for t in tracks])

        serial = [once(i) for i in range(2)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(once, range(4)))
        for other in serial[1:] + threaded:
            assert np.array_equal(serial[0], other)

    def test_trace_rows_sum_to_one(self):
        rng = np.random.default_rng(24)
        q = rng.normal(size=(N_SLOTS, C))
        frames = demo_frames(rng, T=3)
        trace = run_clip(q, frames, decoder(), ste_params=mhca())
        for entry in trace:
            assert np.allclose(entry["encoder_row_sums"], 1.0, atol=1e-9)
            assert np.allclose(entry["decoder_row_sums"], 1.0, atol=1e-9)
            if "ste_row_sums" in entry:
                assert np.allclose(entry["ste_row_sums"], 1.0, atol=1e-9)


    def test_trace_records_what_the_update_consumed(self):
        # the update of frame t, fed the traced matrix, gives the traced row
        # sums and, decoded against frame t+1, the next traced prototypes
        rng = np.random.default_rng(25)
        q = rng.normal(size=(N_SLOTS, C))
        frames = demo_frames(rng, T=4)
        params, enh = decoder(seed=26), mhca(seed=27)
        trace = run_clip(q, frames, params, ste_params=enh)
        for t in range(len(frames) - 1):
            updated, weights = cross_attention_update(
                trace[t]["prototypes"], trace[t]["spatial_features"], enh)
            assert np.array_equal(weights.sum(axis=-1), trace[t]["ste_row_sums"])
            protos, _, _, _ = propagate(updated, frames[t + 1][0], params)
            assert np.array_equal(protos, trace[t + 1]["prototypes"])
        assert "spatial_features" not in trace[-1]


# -- parameters ----------------------------------------------------------------

class TestParams:
    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError, match="divide"):
            init_mhca_params(N_SLOTS, C, 3, seed=0)

    def test_init_is_deterministic(self):
        a, b = mhca(seed=7), mhca(seed=7)
        assert np.array_equal(a.w_q, b.w_q) and np.array_equal(a.e_pos, b.e_pos)

    def test_init_respects_bound(self):
        params = decoder(seed=8)
        bound = 1.0 / math.sqrt(C)
        assert np.abs(params.encoder.w_q).max() <= bound
        assert np.abs(params.classifier).max() <= bound

    def test_golden_draw_digest(self):
        # the raw bytes of every seeded array of both initialisers, in field order; the
        # constructors hold each as a read-only float64 array
        digest = hashlib.sha256()
        for params, count in ((decoder(seed=0), 25), (mhca(seed=0), 7)):
            drawn = list(arrays_of(params))
            assert len(drawn) == count
            for array in drawn:
                assert array.dtype == np.float64 and not array.flags.writeable
                digest.update(array.tobytes())
        assert digest.hexdigest() == (
            "ab9c9bb9705609491476b56579f864a2150418019a063737a985d075d4a233e3")

    @pytest.mark.parametrize("field, value, message", [
        ("w_v", np.full((C, C), np.nan), "w_v must be finite"),
        ("e_pos", np.full((N_SLOTS, C), np.nan), "e_pos must be finite"),
        ("w_k", np.zeros((C, 3)), r"w_k must be \(16, 16\)"),
    ], ids=["nan-weight", "nan-e_pos", "w_k-shape"])
    def test_mhca_checks_every_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            MhcaParams(**dict(vars(mhca()), **{field: value}))

    @pytest.mark.parametrize("path, value, message", [
        (("ref_decoder", "classifier"), with_entry(0, np.nan), "classifier must be finite"),
        (("ref_decoder", "mask_head", 1, "w"), with_entry(3, np.inf),
         r"mask_head\[1\]\.w must be finite"),
        (("ref_decoder", "mask_head", 2, "b"), with_entry(0, -np.inf),
         r"mask_head\[2\]\.b must be finite"),
        (("ref_decoder", "encoder", "n_heads"), "4", "n_heads must be an integer, got '4'"),
        (("ref_decoder", "decoder", "n_heads"), 4.9, "n_heads must be an integer, got 4.9"),
        (("ref_decoder", "encoder", "n_heads"), True, "n_heads must be an integer, got True"),
        (("mhca", "n_heads"), 4.0, "n_heads must be an integer, got 4.0"),
        (("ref_decoder", "encoder", "w_q"), np.zeros(()), r"w_q must be \(C, C\), got \(\)"),
        (("ref_decoder", "ffn", "w1"), np.zeros((C, 8)), r"w1 must be \(16, 32\), got \(16, 8\)"),
        (("ref_decoder", "ffn", "b1"), np.zeros(8),
         r"b1 must be \(32,\) \(2C=32 from w1\), got \(8,\)"),
        (("ref_decoder", "encoder", "ln_scale"), np.zeros(8),
         r"ln_scale must be \(16,\) \(C=16 from w_q\), got \(8,\)"),
        (("ref_decoder", "classifier"), np.zeros((8, 4)),
         r"classifier must be \(16, 4\) \(C=16 from encoder\.w_q\), got \(8, 4\)"),
        (("ref_decoder", "mask_head", 0, "w"), np.zeros((C, 8)),
         r"mask_head\[0\]\.w must be \(16, 16\) \(C=16 from encoder\.w_q\), got \(16, 8\)"),
        (("ref_decoder", "decoder"), init_ref_decoder_params(8, 3, HEADS, 0).decoder,
         r"decoder\.w_q must be \(16, 16\) \(C=16 from encoder\.w_q\), got \(8, 8\)"),
        (("ref_decoder",), zero_width, r"w_q must be \(C, C\), got \(0, 0\)"),
        # a wrong first array binds C; the fault shows on the next array, which names it
        (("ref_decoder", "encoder", "w_q"), np.zeros((2 * C, 2 * C)),
         r"^w_k must be \(32, 32\) \(C=32 from w_q\), got \(16, 16\)$"),
    ], ids=["nan-classifier", "inf-mask-w", "inf-mask-b", "string-heads", "float-heads",
            "bool-heads", "float-mhca-heads", "scalar-w_q", "narrow-w1", "narrow-b1",
            "narrow-ln_scale", "narrow-classifier", "narrow-mask-w", "narrow-decoder-block",
            "zero-width", "wide-first-w_q"])
    def test_constructors_check_every_field(self, path, value, message):
        root, *rest = path
        with pytest.raises(ValueError, match=message):
            replaced({"ref_decoder": decoder(), "mhca": mhca()}[root], rest, value)

    def test_nested_blocks_must_agree_on_c(self):
        narrow = init_ref_decoder_params(8, 3, HEADS, 0)
        with pytest.raises(ValueError, match=r"^ffn\.w1 must be \(16, 32\) \(C=16 from encoder\.w_q, "
                                             r"2C=32 from encoder\.w_q\), got \(8, 16\)$"):
            RefDecoderParams(**dict(vars(decoder()), ffn=narrow.ffn))

    def test_nested_entries_must_be_finite(self):
        d = decoder()
        with pytest.raises(ValueError, match="^w_v must be finite$"):
            RefDecoderParams(**dict(vars(d), encoder=AttentionParams(
                **dict(vars(d.encoder), w_v=np.full((C, C), np.nan)))))

    def test_feed_forward_must_be_finite(self):
        ffn = decoder().ffn
        with pytest.raises(ValueError, match="b2 must be finite"):
            FeedForwardParams(**dict(vars(ffn), b2=np.full(C, np.inf)))
