"""Spatio-temporal enhancement and the minimal reference decoder.

The per-frame pipeline decodes N_v instance queries against encoded frame
queries: one self-attention block over the frame queries, one cross-
attention block, and a feed-forward block, each wrapped in residual +
post layer norm. Prototypes feed a linear classifier (softmax over K+1
classes) and a 3-layer mask head whose embeddings segment the frame by
pixel-wise dot product with the pixel embeddings, through a sigmoid.

Between frames, the enhancement step mats the pixel embeddings with each
slot's predicted mask, average-pools the surviving cells into one spatial
vector per slot, and cross-attends the propagated prototypes to the
(N_v, C) matrix of those vectors. The positional embedding row k is added
to both the query and the key of slot k (shared positional identity);
values carry no positional term. Without enhancement parameters,
next-frame queries are the prototypes themselves. Each step has one
return shape: `propagate` (prototypes, class_probs, mask_embeddings,
weights), `cross_attention_update` (updated, weights), `run_clip` (trace),
`clip_tracks` (tracks). `run_clip` segments only the frames whose masks
feed an enhancement update; `clip_tracks` segments every frame of a traced
clip. `LN_EPS` and `model.MASK_BINARIZE` are constants.

No training happens here: parameters are plain float64 arrays, seeded for
reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from typing import get_type_hints

import numpy as np

from .cost import _sigmoid
from .model import MASK_BINARIZE, PredictionTrack, _frozen, _integer
from .rng import stream

LN_EPS = 1e-5
_type_hints = cache(get_type_hints)     # a parameter class's field types, resolved once


@dataclass(frozen=True)
class SpatialFeature:
    """Pooled per-instance spatial vector; zero with flag when the mask
    selected no cells."""

    vector: np.ndarray
    empty_flag: bool

    def __post_init__(self):
        object.__setattr__(self, "vector", _frozen(self.vector, np.float64))
        object.__setattr__(self, "empty_flag", bool(self.empty_flag))


def _declare(*shape, fill=None, layers=None):
    """A parameter field of `shape` in the symbols C, 2C, K+1 and n_slots. `fill`
    replaces its seeded draw; `layers` makes it that many (w, b) layers of those shapes."""
    return field(metadata={"shape": shape, "fill": fill, "layers": layers})


def _freeze_fields(block, dims=None, where: str = "") -> dict:
    """Store each declared field of a parameter block, nested blocks included, as a
    read-only float64 copy of its declared shape; each symbol binds in `dims`, to a
    (size >= 1, field name) pair, where first met. Another shape or a non-finite entry
    raises ValueError, which names the fields that bound the symbols it breaks."""
    dims = {} if dims is None else dims

    def checked(name, decl, values):
        value = _frozen(values, np.float64)
        for sym, n in zip(decl, value.shape):
            if sym not in dims and n >= 1:
                dims.update({sym: (n, name), "2C": (2 * n, name)} if sym == "C" else
                            {sym: (n, name)})
        want = tuple(dims[sym][0] if sym in dims else sym for sym in decl)
        if value.shape != want:
            shown = str(want).replace("'", "")     # an unbound symbol shows its name
            bound = [f"{sym}={dims[sym][0]} from {dims[sym][1]}" for sym in dict.fromkeys(decl)
                     if sym in dims and dims[sym][1] != name]
            if bound:
                shown += f" ({', '.join(bound)})"
            raise ValueError(f"{name} must be {shown}, got {value.shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
        return value

    for f in fields(block):
        value, name, meta = getattr(block, f.name), where + f.name, f.metadata
        if is_dataclass(value):
            _freeze_fields(value, dims, name + ".")
        elif meta.get("layers"):
            if len(value) != meta["layers"]:
                raise ValueError(f"{name} must have exactly {meta['layers']} layers")
            object.__setattr__(block, f.name, tuple(
                tuple(checked(f"{name}[{i}].{k}", decl, v)
                      for k, decl, v in zip("wb", meta["shape"], layer, strict=True))
                for i, layer in enumerate(value)))
        elif meta:
            object.__setattr__(block, f.name, checked(name, meta["shape"], value))
    return dims


@dataclass(frozen=True)
class AttentionParams:
    """One multi-head attention block with its post-norm parameters."""

    n_heads: int
    w_q: np.ndarray = _declare("C", "C")
    w_k: np.ndarray = _declare("C", "C")
    w_v: np.ndarray = _declare("C", "C")
    w_o: np.ndarray = _declare("C", "C")
    ln_scale: np.ndarray = _declare("C", fill=np.ones)
    ln_shift: np.ndarray = _declare("C", fill=np.zeros)

    def __post_init__(self):
        object.__setattr__(self, "n_heads", _integer("n_heads", self.n_heads))
        c = _freeze_fields(self)["C"][0]
        if self.n_heads < 1 or c % self.n_heads != 0:
            raise ValueError(f"n_heads={self.n_heads} must divide C={c}")


@dataclass(frozen=True)
class MhcaParams(AttentionParams):
    """Cross-attention block plus the per-slot positional table shared by
    each slot's query and key."""

    e_pos: np.ndarray = _declare("n_slots", "C")


@dataclass(frozen=True)
class FeedForwardParams:
    """Two-layer feed-forward block (hidden width 2C) with post-norm."""

    w1: np.ndarray = _declare("C", "2C")
    b1: np.ndarray = _declare("2C")
    w2: np.ndarray = _declare("2C", "C")
    b2: np.ndarray = _declare("C")
    ln_scale: np.ndarray = _declare("C", fill=np.ones)
    ln_shift: np.ndarray = _declare("C", fill=np.zeros)

    __post_init__ = _freeze_fields


@dataclass(frozen=True)
class RefDecoderParams:
    """Minimal reference decoder: encoder self-attention over frame
    queries, cross-attention of instance queries onto them, feed-forward,
    then classifier and 3-layer mask head off the prototypes, all of one C."""

    encoder: AttentionParams
    decoder: AttentionParams
    ffn: FeedForwardParams
    mask_head: tuple = _declare(("C", "C"), ("C",), layers=3)
    classifier: np.ndarray = _declare("C", "K+1")

    __post_init__ = _freeze_fields


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Bit for bit `(x - mean) / np.sqrt(var + LN_EPS) * scale + shift`, with `np.mean` and
    `np.var` over the last axis of float `x`, through the reductions that they run inside
    their wrappers."""
    n = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(np.square(centred), axis=-1, keepdims=True) / n
    return centred / np.sqrt(var + LN_EPS) * scale + shift


def _attend(q_in: np.ndarray, k_in: np.ndarray, v_in: np.ndarray,
            params) -> tuple:
    """Scaled dot-product multi-head attention.

    Returns (context, weights) with weights shaped (n_heads, N_q, N_k);
    every weight row sums to 1.
    """
    c = q_in.shape[-1]
    heads = params.n_heads
    dim = c // heads

    def split(x):
        return x.reshape(x.shape[0], heads, dim).transpose(1, 0, 2)

    q = split(q_in @ params.w_q)
    k = split(k_in @ params.w_k)
    v = split(v_in @ params.w_v)
    scores = q @ k.transpose(0, 2, 1)
    scores /= np.sqrt(dim)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    context = weights @ v
    merged = context.transpose(1, 0, 2).reshape(q_in.shape[0], c)
    return merged @ params.w_o, weights


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")


def spatial_matting(pixel_embeddings: np.ndarray, mask_probs: np.ndarray,
                    threshold: float = MASK_BINARIZE) -> np.ndarray:
    """Zero out pixel-embedding columns wherever the soft mask falls below
    the binarization threshold."""
    _check_threshold(threshold)
    p = np.asarray(pixel_embeddings, dtype=np.float64)
    m = np.asarray(mask_probs, dtype=np.float64)
    if p.ndim != 3 or p.shape[1:] != m.shape:
        raise ValueError(f"shapes incompatible: {p.shape} vs {m.shape}")
    return p * (m >= threshold).astype(np.float64)


def masked_average_pool(matted: np.ndarray, binary_mask: np.ndarray) -> SpatialFeature:
    """Per-channel mean over the mask cells; zero vector with flag when
    the mask is empty."""
    r = np.asarray(matted, dtype=np.float64)
    m = np.asarray(binary_mask)
    count = int(np.count_nonzero(m))
    if count == 0:
        return SpatialFeature(vector=np.zeros(r.shape[0]), empty_flag=True)
    return SpatialFeature(vector=r.sum(axis=(1, 2)) / count, empty_flag=False)


def cross_attention_update(prototypes: np.ndarray, spatial: np.ndarray,
                           params: MhcaParams) -> tuple:
    """Update each propagated query by attending to all slots' spatial
    vectors (the rows of the (N_v, C) `spatial`), with slot k's positional
    row added to both its query and its key; residual to the prototype,
    then layer norm. Returns (updated, attention weights)."""
    protos = np.asarray(prototypes, dtype=np.float64)
    feats = np.asarray(spatial, dtype=np.float64)
    if not protos.shape == feats.shape == params.e_pos.shape:
        raise ValueError(f"shapes disagree: prototypes {protos.shape}, spatial {feats.shape} "
                         f"and e_pos {params.e_pos.shape}, which is (n_slots, C)")
    context, weights = _attend(protos + params.e_pos, feats + params.e_pos,
                               feats, params)
    return layer_norm(protos + context, params.ln_scale, params.ln_shift), weights


def propagate(queries: np.ndarray, frame_queries: np.ndarray,
              params: RefDecoderParams) -> tuple:
    """One decoder step: encode the frame queries, decode the instance
    queries against them, and emit (prototypes, class_probs,
    mask_embeddings, weights); weights maps "encoder_weights" and
    "decoder_weights" to the two attention maps."""
    q = np.asarray(queries, dtype=np.float64)
    f = np.asarray(frame_queries, dtype=np.float64)
    if q.ndim != 2 or f.ndim != 2 or q.shape[1] != f.shape[1]:
        raise ValueError(f"shape mismatch: queries {q.shape}, frame queries {f.shape}")

    enc_ctx, enc_w = _attend(f, f, f, params.encoder)
    f_enc = layer_norm(f + enc_ctx, params.encoder.ln_scale, params.encoder.ln_shift)

    dec_ctx, dec_w = _attend(q, f_enc, f_enc, params.decoder)
    x = layer_norm(q + dec_ctx, params.decoder.ln_scale, params.decoder.ln_shift)

    hidden = np.maximum(x @ params.ffn.w1 + params.ffn.b1, 0.0)
    prototypes = layer_norm(x + hidden @ params.ffn.w2 + params.ffn.b2,
                            params.ffn.ln_scale, params.ffn.ln_shift)

    logits = prototypes @ params.classifier
    logits = logits - logits.max(axis=-1, keepdims=True)
    expl = np.exp(logits)
    class_probs = expl / expl.sum(axis=-1, keepdims=True)

    weights = {"encoder_weights": enc_w, "decoder_weights": dec_w}
    return prototypes, class_probs, _mask_head(prototypes, params), weights


def _mask_head(prototypes: np.ndarray, params: RefDecoderParams) -> np.ndarray:
    """The mask embeddings of `prototypes`: two ReLU layers, then a linear one."""
    m = prototypes
    for w, b in params.mask_head[:-1]:
        m = np.maximum(m @ w + b, 0.0)
    w, b = params.mask_head[-1]
    return m @ w + b


def segment_frame(mask_embeddings: np.ndarray, pixel_embeddings: np.ndarray) -> np.ndarray:
    """Soft masks: sigmoid of the per-cell dot product between each mask
    embedding and the pixel-embedding column."""
    m = np.asarray(mask_embeddings, dtype=np.float64)
    p = np.asarray(pixel_embeddings, dtype=np.float64)
    if m.ndim != 2 or p.ndim != 3 or m.shape[1] != p.shape[0]:
        raise ValueError(f"shape mismatch: embeddings {m.shape}, pixels {p.shape}")
    return _sigmoid(np.einsum("kc,chw->khw", m, p))


def run_clip(initial_queries: np.ndarray, frames, params: RefDecoderParams,
             ste_params: MhcaParams | None = None, threshold: float = MASK_BINARIZE) -> list:
    """Run the online loop over a clip and return its trace.

    `frames` is a sequence of (frame_queries, pixel_embeddings) pairs.
    Per frame: propagate, record. Between frames the queries for t+1 are the
    prototypes, or with `ste_params` given, the cross-attention update of the
    prototypes against the (N_v, C) matrix of spatial vectors pooled under
    frame t's masks; only those frames are segmented. The trace holds one
    entry per frame; with `ste_params`, each entry but the last also holds
    the spatial matrix that the update consumed. `clip_tracks` turns a trace
    into the clip's tracks.
    """
    if len(frames) == 0:
        raise ValueError("need at least one frame")
    _check_threshold(threshold)

    queries = np.asarray(initial_queries, dtype=np.float64)
    trace = []
    for t, (frame_queries, pixels) in enumerate(frames):
        protos, class_probs, mask_emb, step = propagate(queries, frame_queries, params)
        entry = {"prototypes": protos, "class_probs": class_probs,
                 "encoder_row_sums": step["encoder_weights"].sum(axis=-1),
                 "decoder_row_sums": step["decoder_weights"].sum(axis=-1)}
        trace.append(entry)

        if t + 1 < len(frames):
            if ste_params is not None:
                pooled = [masked_average_pool(spatial_matting(pixels, mask, threshold),
                                              mask >= threshold)
                          for mask in segment_frame(mask_emb, pixels)]
                spatial = np.stack([f.vector for f in pooled])
                queries, ste_w = cross_attention_update(protos, spatial, ste_params)
                entry["spatial_features"] = spatial
                entry["spatial_empty"] = [f.empty_flag for f in pooled]
                entry["ste_row_sums"] = ste_w.sum(axis=-1)
            else:
                queries = protos
    return trace


def clip_tracks(trace, frames, params: RefDecoderParams) -> list:
    """The N_v PredictionTracks of the clip that `run_clip` traced over `frames`
    with `params`: each frame's traced class probabilities, and the masks that
    the mask head of its traced prototypes segments."""
    probs = np.stack([entry["class_probs"] for entry in trace])    # (T, N_v, K+1)
    masks = np.stack([segment_frame(_mask_head(entry["prototypes"], params), pixels)
                      for entry, (_, pixels) in zip(trace, frames, strict=True)])
    return [PredictionTrack(class_probs=probs[:, k], mask_probs=masks[:, k])
            for k in range(probs.shape[1])]


def _drawn(kind, meta, rng, dims: dict, n_heads: int):
    """A `kind` value drawn on `rng` from its declaration `meta`: a block field by field in
    order, an array uniform in [-1/sqrt(C), 1/sqrt(C)] unless it declares a fill."""
    def draw(decl, fill=None):
        shape, bound = tuple(dims[sym] for sym in decl), 1.0 / np.sqrt(dims["C"])
        return fill(shape) if fill else rng.uniform(-bound, bound, shape)

    if is_dataclass(kind):
        return kind(**{f.name: _drawn(_type_hints(kind)[f.name], f.metadata, rng, dims, n_heads)
                       for f in fields(kind)})
    if kind is int:
        return n_heads
    if meta["layers"]:
        return tuple(tuple(map(draw, meta["shape"])) for _ in range(meta["layers"]))
    return draw(meta["shape"], meta["fill"])


def init_mhca_params(n_slots: int, c: int, n_heads: int, seed: int) -> MhcaParams:
    """Seeded enhancement block, every field drawn on one stream."""
    return _drawn(MhcaParams, {}, stream(seed, "mhca"), {"C": c, "n_slots": n_slots}, n_heads)


def init_ref_decoder_params(c: int, n_classes: int, n_heads: int, seed: int) -> RefDecoderParams:
    """Seeded reference decoder over C-dim embeddings and K real classes (K+1
    logits); each field draws on the stream named after it."""
    dims, hints = {"C": c, "2C": 2 * c, "K+1": n_classes + 1}, _type_hints(RefDecoderParams)
    return RefDecoderParams(**{f.name: _drawn(hints[f.name], f.metadata, stream(seed, f.name),
                                              dims, n_heads) for f in fields(RefDecoderParams)})
