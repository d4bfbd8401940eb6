"""Walk through the enhancement step between two frames.

After segmenting frame t, each slot's predicted mask cuts its region out
of the pixel embeddings (matting), the surviving cells pool into one
spatial vector per slot, and the propagated prototypes cross-attend to
those vectors before decoding frame t+1. Slot k's positional row is added
to both its query and its key, which is how the model knows that spatial
vector k and prototype k describe the same instance.
"""

try:
    import tcovis  # noqa: F401
except ImportError:
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from tcovis import (cross_attention_update, init_mhca_params,
                    init_ref_decoder_params, masked_average_pool, propagate,
                    run_clip, segment_frame, spatial_matting)
from tcovis.rng import stream

C, N_SLOTS, N_FQ, HEADS, T = 16, 4, 5, 4, 3
H = W = 10

decoder = init_ref_decoder_params(C, n_classes=3, n_heads=HEADS, seed=42)
mhca = init_mhca_params(N_SLOTS, C, HEADS, seed=42)
rng = stream(42, "demo")

queries = rng.normal(size=(N_SLOTS, C))
frames = [(rng.normal(size=(N_FQ, C)), rng.normal(size=(C, H, W)))
          for _ in range(T)]

print("frame 1: decode and segment")
protos, class_probs, mask_emb, _ = propagate(queries, frames[0][0], decoder)
masks = segment_frame(mask_emb, frames[0][1])
for k in range(N_SLOTS):
    area = int((masks[k] >= 0.5).sum())
    print(f"  slot {k}: argmax class {class_probs[k].argmax()}, "
          f"mask area {area} cells")

print("\nenhancement step toward frame 2:")
feats = []
for k in range(N_SLOTS):
    matted = spatial_matting(frames[0][1], masks[k], threshold=0.5)
    pooled = masked_average_pool(matted, masks[k] >= 0.5)
    feats.append(pooled)
    tag = "EMPTY" if pooled.empty_flag else f"|s| = {np.linalg.norm(pooled.vector):.3f}"
    print(f"  slot {k}: spatial vector {tag}")

updated, weights = cross_attention_update(protos, np.stack([f.vector for f in feats]), mhca)
print(f"  attention weight rows sum to 1: "
      f"{np.allclose(weights.sum(axis=-1), 1.0, atol=1e-9)}")
drift = np.linalg.norm(updated - protos, axis=1)
print(f"  query drift per slot: {np.round(drift, 3)}")

print("\nfull clip, enhancement on vs off:")
plain, _ = run_clip(queries, frames, decoder)
enhanced, _ = run_clip(queries, frames, decoder, ste_params=mhca)
for k in range(N_SLOTS):
    gap = np.abs(plain[k].mask_probs - enhanced[k].mask_probs).max()
    print(f"  slot {k}: max |mask difference| over the clip = {gap:.4f}")
print("(frame 1 is identical by construction; the paths diverge afterwards)")
