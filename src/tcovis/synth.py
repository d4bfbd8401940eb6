"""Seeded synthetic clips and a controllable noisy-prediction simulator.

Scenes contain a few rectangles or discs moving linearly on the mask grid
and reflecting at the borders; overlap is resolved by a fixed depth order
(later track index on top). The simulator turns ground truth into soft
prediction tracks with tunable mask jitter and class confusion, and its
``early_swap`` mode makes two slots exchange identities partway through
the clip: frame-one matching then favors the pre-swap pairing while the
whole-clip cost favors the post-swap one, which is exactly the failure
mode that separates local matching from the global strategy.

Everything is a pure function of (config, seed); per-clip streams are
derived by hashing, so corpora are reproducible at any parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import _sigmoid
from .model import (Clip, ClipSpec, Corpus, GroundTruthTrack, PredictionTrack, _integer,
                    _number, record_dict)
from .rng import GENERATOR_NAME, derive_seed, stream

_SHAPES = ("rectangle", "disc")
_SWAP_MODES = ("none", "early_swap")
_MAX_SCENE_ATTEMPTS = 256


def _pair(name: str, value, convert) -> tuple:
    """A range field as a (lo, hi) tuple, each bound read by `convert`."""
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise ValueError(f"{name} must be a [lo, hi] pair, got {value!r}")
    return tuple(convert(name, v) for v in value)


@dataclass(frozen=True)
class SceneConfig:
    """What a synthetic clip contains.

    Ranges are inclusive. ``entry_frame`` is 1-based: objects with entry
    frame e are absent before frame e. ``size`` bounds the object half
    extent (rectangles) or radius (discs) in grid cells.
    """

    spec: ClipSpec
    n_objects: tuple = (2, 4)
    shapes: tuple = _SHAPES
    velocity: tuple = (0.5, 1.5)
    allow_occlusion: bool = True
    entry_frame: tuple = (1, 1)
    size: tuple = (2, 3)

    def __post_init__(self):
        for name, convert in (("n_objects", _integer), ("velocity", _number),
                              ("entry_frame", _integer), ("size", _integer)):
            object.__setattr__(self, name, _pair(name, getattr(self, name), convert))
        if not isinstance(self.shapes, (tuple, list)):
            raise ValueError(f"shapes must be a list of shape names, got {self.shapes!r}")
        object.__setattr__(self, "shapes", tuple(self.shapes))
        if not isinstance(self.allow_occlusion, bool):
            raise ValueError(f"allow_occlusion must be true or false, got {self.allow_occlusion!r}")
        lo, hi = self.n_objects
        if not 1 <= lo <= hi:
            raise ValueError(f"n_objects range ({lo}, {hi}) must satisfy 1 <= lo <= hi")
        if hi > self.spec.N_v:
            raise ValueError(f"n_objects max {hi} exceeds N_v={self.spec.N_v}")
        if not self.shapes or any(s not in _SHAPES for s in self.shapes):
            raise ValueError(f"shapes must be a nonempty subset of {_SHAPES}")
        if not 0 <= self.velocity[0] <= self.velocity[1]:
            raise ValueError(f"velocity range {self.velocity} must satisfy 0 <= lo <= hi")
        if not 1 <= self.entry_frame[0] <= self.entry_frame[1] <= self.spec.T:
            raise ValueError(f"entry_frame range {self.entry_frame} must lie in [1, T={self.spec.T}]")
        if not 1 <= self.size[0] <= self.size[1]:
            raise ValueError(f"size range {self.size} must satisfy 1 <= lo <= hi")
        if self.velocity[1] > min(self.spec.h, self.spec.w) - 1 - 2 * self.size[1]:
            raise ValueError(f"size max {self.size[1]} and velocity max {self.velocity[1]}: an "
                             f"object and one step cannot fit the {self.spec.h}x{self.spec.w} grid")

    def to_dict(self) -> dict:
        return record_dict(self, skip=("spec",))


@dataclass(frozen=True)
class NoiseConfig:
    """How predictions deviate from ground truth.

    ``mask_jitter`` is the per-cell flip probability, ``class_confusion``
    the probability mass moved off the true class, ``sharpness`` the logit
    scale of the soft masks. Under ``early_swap``, slots 0 and 1 exchange
    the ground truth they follow from ``swap_frame`` (1-based, >= 2) on.
    """

    mask_jitter: float = 0.0
    class_confusion: float = 0.0
    swap_mode: str = "none"
    swap_frame: int = 2
    sharpness: float = 12.0

    def __post_init__(self):
        for name in ("mask_jitter", "class_confusion"):
            value = _number(name, getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
            object.__setattr__(self, name, value)
        if self.swap_mode not in _SWAP_MODES:
            raise ValueError(f"swap_mode must be one of {_SWAP_MODES}, got {self.swap_mode!r}")
        object.__setattr__(self, "swap_frame", _integer("swap_frame", self.swap_frame))
        if self.swap_frame < 2:
            raise ValueError(f"swap_frame must be >= 2, got {self.swap_frame}")
        object.__setattr__(self, "sharpness", _number("sharpness", self.sharpness))
        if not self.sharpness > 0:
            raise ValueError(f"sharpness must be > 0, got {self.sharpness}")

    def to_dict(self) -> dict:
        return record_dict(self)


def _reflect(pos: float, lo: float, hi: float):
    """Fold a coordinate into [lo, hi], flipping direction per bounce; SceneConfig allows one."""
    flip = 1.0
    while pos < lo or pos > hi:
        if pos < lo:
            pos = 2 * lo - pos
        else:
            pos = 2 * hi - pos
        flip = -flip
    return pos, flip


def _rasterize(shape: str, cy: float, cx: float, half_y: int, half_x: int,
               h: int, w: int) -> np.ndarray:
    ys = np.arange(h)[:, None] - cy
    xs = np.arange(w)[None, :] - cx
    if shape == "rectangle":
        hit = (np.abs(ys) <= half_y) & (np.abs(xs) <= half_x)
    else:
        radius = float(half_y)  # discs use half_y as the radius
        hit = ys * ys + xs * xs <= radius * radius
    return hit.astype(np.uint8)


def generate_clip(cfg: SceneConfig, seed: int) -> list:
    """Deterministic ground-truth tracks for one clip.

    Objects move linearly with reflection at the borders; overlaps are
    carved by depth order (later index on top). Retries with a derived
    substream until every track is visible somewhere (and, with occlusion
    disallowed, until no two objects ever overlap).
    """
    spec = cfg.spec
    h, w = spec.h, spec.w
    for attempt in range(_MAX_SCENE_ATTEMPTS):
        rng = stream(seed, "scene", attempt)
        n = int(rng.integers(cfg.n_objects[0], cfg.n_objects[1] + 1))
        rasters = np.zeros((n, spec.T, h, w), dtype=np.uint8)
        classes = []
        for i in range(n):
            shape = cfg.shapes[int(rng.integers(len(cfg.shapes)))]
            half_y = int(rng.integers(cfg.size[0], cfg.size[1] + 1))
            half_x = int(rng.integers(cfg.size[0], cfg.size[1] + 1))
            if shape == "disc":
                half_x = half_y
            speed = float(rng.uniform(cfg.velocity[0], cfg.velocity[1]))
            angle = float(rng.uniform(0.0, 2.0 * np.pi))
            vy, vx = speed * np.sin(angle), speed * np.cos(angle)
            lo_y, hi_y = float(half_y), float(h - 1 - half_y)
            lo_x, hi_x = float(half_x), float(w - 1 - half_x)
            cy = float(rng.uniform(lo_y, hi_y))
            cx = float(rng.uniform(lo_x, hi_x))
            entry = int(rng.integers(cfg.entry_frame[0], cfg.entry_frame[1] + 1)) - 1
            classes.append(int(rng.integers(spec.K)))
            for t in range(spec.T):
                if t >= entry:
                    rasters[i, t] = _rasterize(shape, cy, cx, half_y, half_x, h, w)
                cy += vy
                cx += vx
                cy, fy = _reflect(cy, lo_y, hi_y)
                cx, fx = _reflect(cx, lo_x, hi_x)
                vy *= fy
                vx *= fx

        if not cfg.allow_occlusion and n > 1:
            overlap = False
            for t in range(spec.T):
                if (rasters[:, t].sum(axis=0) > 1).any():
                    overlap = True
                    break
            if overlap:
                continue

        # depth carve: later index occludes earlier ones
        visible = rasters.copy()
        for i in range(n - 1):
            above = rasters[i + 1:].any(axis=0)
            visible[i] &= ~above

        if all(visible[i].any() for i in range(n)):
            return [GroundTruthTrack(class_id=classes[i], masks=visible[i])
                    for i in range(n)]
    raise ValueError(f"could not generate a valid scene in {_MAX_SCENE_ATTEMPTS} attempts")


def _class_vector(n_classes: int, label: int, confusion: float) -> np.ndarray:
    # the off-label mass is spread uniformly over the other K entries
    vec = np.full(n_classes + 1, confusion / n_classes)
    vec[label] = 1.0 - confusion
    return vec


def simulate_predictions(gt_tracks, noise: NoiseConfig, spec: ClipSpec,
                         seed: int) -> list:
    """N_v soft prediction tracks for the given ground truth.

    Slot i < N_gt follows ground truth i (with jitter and confusion);
    extra slots predict no-object with uniformly low mask confidence.
    Under early_swap, slots 0 and 1 exchange the track they follow from
    the swap frame on.
    """
    n_gt = len(gt_tracks)
    if n_gt > spec.N_v:
        raise ValueError(f"{n_gt} ground-truth tracks exceed N_v={spec.N_v}")
    swap_at = None
    if noise.swap_mode == "early_swap":
        if n_gt < 2:
            raise ValueError("early_swap needs at least two ground-truth tracks")
        if noise.swap_frame > spec.T:
            raise ValueError(f"swap_frame {noise.swap_frame} exceeds T={spec.T}")
        swap_at = noise.swap_frame - 1

    rng = stream(seed, "noise")
    low = _sigmoid(np.array(-noise.sharpness))
    tracks = []
    for slot in range(spec.N_v):
        probs = np.empty((spec.T, spec.K + 1))
        masks = np.empty((spec.T, spec.h, spec.w))
        for t in range(spec.T):
            followed = slot if slot < n_gt else None
            if swap_at is not None and t >= swap_at and slot in (0, 1):
                followed = 1 - slot
            if followed is None:
                probs[t] = _class_vector(spec.K, spec.K, noise.class_confusion)
                masks[t] = low
                continue
            gt = gt_tracks[followed]
            cell = np.asarray(gt.masks[t], dtype=np.float64)
            flips = rng.random((spec.h, spec.w)) < noise.mask_jitter
            cell = np.where(flips, 1.0 - cell, cell)
            masks[t] = _sigmoid(noise.sharpness * (2.0 * cell - 1.0))
            probs[t] = _class_vector(spec.K, gt.class_id, noise.class_confusion)
        tracks.append(PredictionTrack(class_probs=probs, mask_probs=masks))
    return tracks


def generate_corpus(scene: SceneConfig, noise: NoiseConfig | None, n_clips: int,
                    seed: int) -> Corpus:
    """Build a corpus of seeded clips; predictions included when a noise
    config is given. Each clip gets its own hashed substream, so any
    subset can be generated independently and identically."""
    clips = [build_clip(scene, noise, seed, index) for index in range(n_clips)]
    return Corpus(spec=scene.spec, clips=tuple(clips), seed=int(seed),
                  generator=corpus_header(scene, noise, n_clips))


def corpus_header(scene: SceneConfig, noise: NoiseConfig | None, n_clips: int) -> dict:
    """The ``generator`` header of a corpus: what made its clips."""
    return {"name": GENERATOR_NAME, "scene": scene.to_dict(),
            "noise": noise.to_dict() if noise is not None else None,
            "clips": int(n_clips)}


def build_clip(scene: SceneConfig, noise: NoiseConfig | None, seed: int,
               index: int) -> Clip:
    """One clip of a corpus, generated from its hashed per-clip seed."""
    clip_seed = derive_seed(seed, "clip", index)
    gt = generate_clip(scene, clip_seed)
    pred = None
    if noise is not None:
        pred = simulate_predictions(gt, noise, scene.spec, clip_seed)
    return Clip(gt=tuple(gt), pred=tuple(pred) if pred is not None else None)
