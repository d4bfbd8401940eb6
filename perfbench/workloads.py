"""Workload inputs: run configs, enhance configs and solver matrix sets.

Everything here is a pure function of the workload seed. The program only
ever sees the files and matrices built here; no stage reads an input that
another workload's stage also reads, because every config seed and matrix
stream is derived from the workload name as well as the seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle


@dataclass(frozen=True)
class Workload:
    name: str
    run_config: dict        # a `tcovis gen` config without its seed
    enhance_config: dict    # a `tcovis enhance` config without its seed
    enhance_configs: int    # distinct enhance seeds, all run by one enhance call
    passes: dict            # calls of each stage per round; a round is kept to
                            # one or two seconds, so that every call repeats
                            # often over the run (see run._end_to_end)
    corpus_matrices: bool   # solve the corpus's own GIA matrices


# Mirrors configs/swap.json (identity swap at frame 2, no jitter or class
# confusion) scaled to 32 clips: many small clips, so serialisation and
# per-call overhead dominate every stage.
_SWAP_SPEC = {"T": 6, "H": 64, "W": 64, "S": 4, "K": 3, "N_v": 6, "C": 16}
SWAP_CORPUS = Workload(
    name="swap-corpus",
    run_config={
        "version": 1, "spec": _SWAP_SPEC,
        "scene": {"n_objects": [2, 4], "shapes": ["rectangle", "disc"],
                  "velocity": [0.5, 1.5], "allow_occlusion": True,
                  "entry_frame": [1, 1], "size": [2, 3]},
        "noise": {"mask_jitter": 0.0, "class_confusion": 0.0,
                  "swap_mode": "early_swap", "swap_frame": 2, "sharpness": 12.0},
        "clips": 32},
    enhance_config={"version": 1, "spec": _SWAP_SPEC, "n_heads": 4, "n_fq": 8},
    enhance_configs=8,
    passes={"gen": 1, "assign": 1, "eval": 1, "enhance": 1, "solve": 10},
    corpus_matrices=True,
)

# One large clip: cost pairs grow as objects x slots, entry frames are
# staggered over four frames so locpro runs several stages, and the solver
# meets long augmenting paths and ties. The object count is fixed, so the
# work per clip does not vary with the seed.
_CROWDED_SPEC = {"T": 8, "H": 128, "W": 128, "S": 4, "K": 8, "N_v": 40, "C": 64}
CROWDED_CLIPS = Workload(
    name="crowded-clips",
    run_config={
        "version": 1, "spec": _CROWDED_SPEC,
        "scene": {"n_objects": [28, 28], "shapes": ["rectangle", "disc"],
                  "velocity": [0.5, 1.5], "allow_occlusion": True,
                  "entry_frame": [1, 4], "size": [1, 3]},
        "noise": {"mask_jitter": 0.002, "class_confusion": 0.2,
                  "swap_mode": "early_swap", "swap_frame": 2, "sharpness": 12.0},
        "clips": 1},
    enhance_config={"version": 1, "spec": _CROWDED_SPEC, "n_heads": 8, "n_fq": 32},
    enhance_configs=1,
    passes={"gen": 1, "assign": 1, "eval": 1, "enhance": 1, "solve": 1},
    corpus_matrices=False,
)

WORKLOADS = {w.name: w for w in (SWAP_CORPUS, CROWDED_CLIPS)}
STAGES = ("gen", "assign", "eval", "enhance", "solve")

# The solver stress set: (rows, cols, kind), two of each per workload seed.
STRESS_SET = ((100, 120, "uniform"), (100, 120, "int0..3"), (300, 300, "uniform"))
STRESS_COPIES = 2

# A small fixed config for the untimed warm-up calls.
WARMUP_CONFIG = dict(SWAP_CORPUS.run_config, clips=2, seed=1)
WARMUP_ENHANCE = dict(SWAP_CORPUS.enhance_config, seed=1)


def derived_seed(seed: int, *labels) -> int:
    """A 31-bit config seed for (workload seed, labels)."""
    text = "/".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.blake2s(text.encode(), digest_size=4).digest(), "little") >> 1


@dataclass
class Inputs:
    """What one workload run hands the program."""

    run_config_path: Path
    run_config: dict
    enhance_paths: list
    enhance_frames: int          # frames per enhance pass: 2T per config
    matrices: list               # solver inputs, float64 arrays
    integer_matrix: list         # per matrix: entries are whole numbers
    passes: dict
    clips: int


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return path


def _stress_matrices(seed: int, name: str):
    mats, integer = [], []
    for copy in range(STRESS_COPIES):
        for rows, cols, kind in STRESS_SET:
            rng = np.random.default_rng(derived_seed(seed, name, "solve", rows, cols, kind, copy))
            if kind == "uniform":
                mats.append(rng.uniform(0.0, 10.0, (rows, cols)))
                integer.append(False)
            else:
                mats.append(rng.integers(0, 4, (rows, cols)).astype(np.float64))
                integer.append(True)
    return mats, integer


def _corpus_matrices(run_config: dict):
    """The whole-clip cost matrix of every clip the config generates,
    built with the benchmark's own formula from the generator's clips."""
    from tcovis import synth
    scene, noise = reference_configs(run_config)
    mats = []
    for index in range(run_config["clips"]):
        clip = synth.build_clip(scene, noise, run_config["seed"], index)
        mats.append(oracle.cost_matrix(*oracle.clip_arrays(clip)))
    return mats, [False] * len(mats)


def reference_configs(run_config: dict):
    """SceneConfig and NoiseConfig for a run config, for the reference clips."""
    from tcovis import synth
    from tcovis.model import ClipSpec
    spec = ClipSpec.from_dict(run_config["spec"])
    scene = synth.SceneConfig(spec=spec, **run_config["scene"])
    noise = synth.NoiseConfig(**run_config["noise"])
    return scene, noise


def prepare(workload: Workload, seed: int, work: Path) -> Inputs:
    """Write the workload's configs under `work` and build its matrix set."""
    work.mkdir(parents=True, exist_ok=True)
    run_config = dict(workload.run_config, seed=derived_seed(seed, workload.name, "gen"))
    run_path = _write(work / "run-config.json", run_config)
    enhance_paths = []
    for k in range(workload.enhance_configs):
        doc = dict(workload.enhance_config,
                   seed=derived_seed(seed, workload.name, "enhance", k))
        enhance_paths.append(_write(work / f"enhance-config-{k}.json", doc))
    if workload.corpus_matrices:
        mats, integer = _corpus_matrices(run_config)
    else:
        mats, integer = _stress_matrices(seed, workload.name)
    frames = 2 * workload.enhance_config["spec"]["T"] * len(enhance_paths)
    return Inputs(run_config_path=run_path, run_config=run_config,
                  enhance_paths=enhance_paths, enhance_frames=frames,
                  matrices=mats, integer_matrix=integer,
                  passes=workload.passes, clips=run_config["clips"])


def prepare_warmup(work: Path, matrices) -> Inputs:
    """Inputs for one untimed round on a small fixed config."""
    work.mkdir(parents=True, exist_ok=True)
    return Inputs(run_config_path=_write(work / "run-config.json", WARMUP_CONFIG),
                  run_config=WARMUP_CONFIG,
                  enhance_paths=[_write(work / "enhance-config.json", WARMUP_ENHANCE)],
                  enhance_frames=0, matrices=list(matrices),
                  integer_matrix=[False] * len(matrices), passes=dict.fromkeys(STAGES, 1),
                  clips=WARMUP_CONFIG["clips"])
