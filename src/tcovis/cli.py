"""Command-line front end.

Subcommands:
  gen      generate a corpus from a config file
  assign   run the assignment strategies over a corpus and emit audits
  enhance  run the enhancement forward pass on seeded inputs, emit a trace
  eval     compute AP/AR metrics and the strategy audit for a corpus
  bench    time the assignment solver and cost-matrix construction

Config files are JSON with a mandatory "version": 1 and are fail-closed:
unknown fields are rejected by name. All randomness flows from a single
seed; outputs are byte-identical for a fixed (config, seed) at any
parallelism degree (flag --threads, overridden by TCOVIS_THREADS).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import evaluation, ste, synth
from .assignment import (build_global_cost_matrix, global_instance_assignment,
                         hungarian, locpro_assignment)
from .cost import LossWeights
from .model import (ClipSpec, Corpus, GroundTruthTrack, PredictionTrack,
                    dump_json, load_corpus, save_corpus, validate)
from .rng import stream


class CliError(Exception):
    """User-facing failure; maps to exit code 1."""


def _threads(args, config_default: int = 1) -> int:
    # resolution order: TCOVIS_THREADS > --threads > config "threads" > 1
    env = os.environ.get("TCOVIS_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise CliError(f"TCOVIS_THREADS must be an integer, got {env!r}") from None
    elif args.threads is not None:
        value = args.threads
    else:
        value = config_default
    if value < 1:
        raise CliError(f"thread count must be >= 1, got {value}")
    return value


def _pool_map(fn, items, threads: int) -> list:
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _checked_section(name: str, data, known: set, required: set = frozenset()) -> dict:
    if not isinstance(data, dict):
        raise CliError(f"{name} must be an object")
    unknown = set(data) - known
    if unknown:
        raise CliError(f"unknown field {sorted(unknown)[0]!r} in {name}")
    missing = required - set(data)
    if missing:
        raise CliError(f"missing field {sorted(missing)[0]!r} in {name}")
    return data


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from None


def _load_run_config(path) -> dict:
    doc = _checked_section("config", _load_json(path),
                           known={"version", "spec", "scene", "noise", "weights",
                                  "seed", "clips", "threads"},
                           required={"version", "spec", "scene", "seed", "clips"})
    if doc["version"] != 1:
        raise CliError(f"unsupported config version {doc['version']!r}")
    try:
        spec = ClipSpec.from_dict(_checked_section("spec", doc["spec"], {
            "T", "H", "W", "S", "K", "N_v", "C"}))
        scene = synth.SceneConfig(spec=spec, **_checked_section(
            "scene", doc["scene"],
            {"n_objects", "shapes", "velocity", "allow_occlusion",
             "entry_frame", "size"}))
        noise = None
        if doc.get("noise") is not None:
            noise = synth.NoiseConfig(**_checked_section(
                "noise", doc["noise"],
                {"mask_jitter", "class_confusion", "swap_mode",
                 "swap_frame", "sharpness"}))
        weights = LossWeights(**_checked_section(
            "weights", doc.get("weights", {}),
            {"lambda_cls", "lambda_bce", "lambda_dice"}))
        clips = int(doc["clips"])
        if clips < 1:
            raise ValueError(f"clips must be >= 1, got {doc['clips']}")
        return {"spec": spec, "scene": scene, "noise": noise, "weights": weights,
                "seed": int(doc["seed"]), "clips": clips,
                "threads": int(doc.get("threads", 1))}
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from None


def _weights_from_args(args) -> LossWeights:
    cls, bce, dice = args.weights
    try:
        return LossWeights(lambda_cls=cls, lambda_bce=bce, lambda_dice=dice)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write(path, text: str) -> None:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    cfg = _load_run_config(args.config)
    seed = cfg["seed"] if args.seed is None else args.seed
    threads = _threads(args, config_default=cfg["threads"])
    indices = list(range(cfg["clips"]))
    clips = _pool_map(
        lambda i: synth.build_clip(cfg["scene"], cfg["noise"], seed, i),
        indices, threads)
    corpus = Corpus(spec=cfg["spec"], clips=tuple(clips), seed=seed,
                    generator=synth.corpus_header(cfg["scene"], cfg["noise"], cfg["clips"]))
    violations = validate(corpus)
    if violations:
        raise CliError(f"generated corpus failed validation: {violations[0]}")
    save_corpus(corpus, args.out)
    print(f"clips={cfg['clips']} sha256={_sha256(args.out)}")
    return 0


# ---------------------------------------------------------------------------
# assign
# ---------------------------------------------------------------------------

def _load_predicted_corpus(path) -> Corpus:
    try:
        corpus = load_corpus(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot load corpus {path}: {exc}") from None
    violations = validate(corpus)
    if violations:
        raise CliError(f"corpus failed validation: {violations[0]}")
    for ci, clip in enumerate(corpus.clips):
        if clip.pred is None:
            raise CliError(f"corpus has no predictions (clip {ci})")
    return corpus


def _assign_row(corpus: Corpus, weights: LossWeights, strategy: str, ci: int) -> dict:
    clip = corpus.clips[ci]
    if strategy == "both":
        audit = evaluation.audit_clip(ci, clip.gt, clip.pred, weights)
        return {"clip": ci,
                "gia": {"pairs": [list(p) for p in audit.gia_pairs], "cost": audit.gia_cost},
                "locpro": {"pairs": [list(p) for p in audit.locpro_pairs],
                           "cost": audit.locpro_cost},
                "agreement": audit.pair_agreement,
                "delta": audit.locpro_cost - audit.gia_cost}
    solve = global_instance_assignment if strategy == "gia" else locpro_assignment
    a = solve(clip.gt, clip.pred, weights)
    return {"clip": ci, strategy: {"pairs": [list(p) for p in a.pairs], "cost": a.total_cost}}


def _cmd_assign(args) -> int:
    corpus = _load_predicted_corpus(args.corpus)
    weights = _weights_from_args(args)
    threads = _threads(args)
    rows = _pool_map(lambda ci: _assign_row(corpus, weights, args.strategy, ci),
                     range(len(corpus.clips)), threads)
    doc = {"strategy": args.strategy,
           "weights": {"lambda_cls": weights.lambda_cls,
                       "lambda_bce": weights.lambda_bce,
                       "lambda_dice": weights.lambda_dice},
           "clips": rows}
    if args.strategy == "both":
        doc["summary"] = {
            "mean_agreement": float(np.mean([r["agreement"] for r in rows])) if rows else 1.0,
            "mean_delta": float(np.mean([r["delta"] for r in rows])) if rows else 0.0,
        }
    _write(f"{args.out_prefix}.json", dump_json(doc))
    header = ["clip"]
    if args.strategy in ("gia", "both"):
        header.append("gia_cost")
    if args.strategy in ("locpro", "both"):
        header.append("locpro_cost")
    if args.strategy == "both":
        header += ["agreement", "delta"]
    lines = [",".join(header)]
    for row in rows:
        cells = [str(row["clip"])]
        if "gia" in row:
            cells.append(repr(row["gia"]["cost"]))
        if "locpro" in row:
            cells.append(repr(row["locpro"]["cost"]))
        if args.strategy == "both":
            cells += [repr(row["agreement"]), repr(row["delta"])]
        lines.append(",".join(cells))
    _write(f"{args.out_prefix}.csv", "\n".join(lines) + "\n")
    print(f"clips={len(rows)} strategy={args.strategy} "
          f"sha256={_sha256(args.out_prefix + '.json')}")
    return 0


# ---------------------------------------------------------------------------
# enhance
# ---------------------------------------------------------------------------

def _load_demo_config(path) -> dict:
    doc = _checked_section("demo config", _load_json(path),
                           known={"version", "spec", "n_heads", "n_fq", "seed", "threshold"},
                           required={"version", "spec", "n_heads", "n_fq", "seed"})
    if doc["version"] != 1:
        raise CliError(f"unsupported config version {doc['version']!r}")
    try:
        spec = ClipSpec.from_dict(_checked_section("spec", doc["spec"], {
            "T", "H", "W", "S", "K", "N_v", "C"}))
        n_heads, n_fq = int(doc["n_heads"]), int(doc["n_fq"])
        if n_heads < 1 or spec.C % n_heads != 0:
            raise ValueError(f"n_heads {doc['n_heads']} must be a positive divisor of C={spec.C}")
        if n_fq < 1:
            raise ValueError(f"n_fq must be >= 1, got {doc['n_fq']}")
        return {"spec": spec, "n_heads": n_heads, "n_fq": n_fq,
                "seed": int(doc["seed"]), "threshold": float(doc.get("threshold", 0.5))}
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from None


def _demo_inputs(cfg: dict):
    spec, seed = cfg["spec"], cfg["seed"]
    decoder = ste.init_ref_decoder_params(spec.C, spec.K, cfg["n_heads"], seed)
    mhca = ste.init_mhca_params(spec.N_v, spec.C, cfg["n_heads"], seed)
    rng = stream(seed, "demo-inputs")
    queries = rng.normal(size=(spec.N_v, spec.C))
    frames = [(rng.normal(size=(cfg["n_fq"], spec.C)),
               rng.normal(size=(spec.C, spec.h, spec.w)))
              for _ in range(spec.T)]
    return decoder, mhca, queries, frames


def _trace_to_json(trace) -> list:
    out = []
    for entry in trace:
        item = {
            "prototypes": entry["prototypes"].tolist(),
            "class_probs": entry["class_probs"].tolist(),
            "encoder_row_sums": entry["encoder_row_sums"].tolist(),
            "decoder_row_sums": entry["decoder_row_sums"].tolist(),
        }
        if "spatial_features" in entry:
            item["spatial_features"] = entry["spatial_features"].tolist()
            item["spatial_empty"] = list(entry["spatial_empty"])
            item["ste_row_sums"] = entry["ste_row_sums"].tolist()
        out.append(item)
    return out


def _cmd_enhance(args) -> int:
    cfg = _load_demo_config(args.demo)
    decoder, mhca, queries, frames = _demo_inputs(cfg)
    _, plain_trace = ste.run_clip(queries, frames, decoder, ste_enabled=False,
                                  collect_trace=True)
    try:
        _, ste_trace = ste.run_clip(queries, frames, decoder, ste_params=mhca,
                                    ste_enabled=True, threshold=cfg["threshold"],
                                    collect_trace=True)
    except ValueError as exc:   # e.g. a threshold outside (0, 1)
        raise CliError(str(exc)) from None
    doc = {"spec": cfg["spec"].to_dict(), "seed": cfg["seed"],
           "n_heads": cfg["n_heads"], "n_fq": cfg["n_fq"],
           "threshold": cfg["threshold"],
           "plain": _trace_to_json(plain_trace), "ste": _trace_to_json(ste_trace)}
    _write(args.out, dump_json(doc))
    print(f"frames={cfg['spec'].T} sha256={_sha256(args.out)}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    corpus = _load_predicted_corpus(args.corpus)
    weights = _weights_from_args(args)
    threads = _threads(args)
    try:
        report = evaluation.compute_ap(corpus)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    audits = _pool_map(
        lambda ci: evaluation.audit_clip(ci, corpus.clips[ci].gt,
                                         corpus.clips[ci].pred, weights),
        range(len(corpus.clips)), threads)
    full = evaluation.EvalReport(ap=report.ap, ap50=report.ap50, ap75=report.ap75,
                                 ar1=report.ar1, ar10=report.ar10,
                                 per_threshold=report.per_threshold,
                                 clip_audits=tuple(audits))
    _write(f"{args.out_prefix}.report.json", dump_json(full.to_dict()))
    _write(f"{args.out_prefix}.audit.csv", evaluation.audits_to_csv(audits))
    print(f"AP={report.ap:.6f} AP50={report.ap50:.6f} AP75={report.ap75:.6f} "
          f"sha256={_sha256(args.out_prefix + '.report.json')}")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _parse_sizes(text: str):
    try:
        sizes = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed size list {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"sizes must be positive integers, got {text!r}")
    return sizes


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    times.sort()
    return times[len(times) // 2]


def _bench_cost_matrix_inputs(n: int, seed: int):
    rng = stream(seed, "bench-cost", n)
    T, h, w, k = 3, 12, 12, 4
    gts = [GroundTruthTrack(class_id=int(rng.integers(k)),
                            masks=(rng.random((T, h, w)) < 0.3).astype(np.uint8))
           for _ in range(n)]
    preds = []
    for _ in range(n):
        probs = rng.random((T, k + 1))
        probs /= probs.sum(axis=1, keepdims=True)
        preds.append(PredictionTrack(class_probs=probs,
                                     mask_probs=rng.random((T, h, w))))
    return gts, preds


def _cmd_bench(args) -> int:
    rows = []
    for n in args.sizes:
        rng = stream(args.seed, "bench-lap", n)
        matrix = rng.uniform(0, 10, (n, n))
        lap_ms = _median_ms(lambda: hungarian(matrix), args.repeats)
        gts, preds = _bench_cost_matrix_inputs(n, args.seed)
        weights = LossWeights()
        cost_ms = _median_ms(lambda: build_global_cost_matrix(gts, preds, weights),
                             args.repeats)
        rows.append((n, lap_ms, cost_ms))

    lines = ["size,hungarian_ms,cost_matrix_ms"]
    for n, lap_ms, cost_ms in rows:
        lines.append(f"{n},{lap_ms:.3f},{cost_ms:.3f}")
    _write(args.out, "\n".join(lines) + "\n")

    budget_matrix = stream(args.seed, "bench-budget").uniform(0, 10, (100, 120))
    budget_ms = _median_ms(lambda: hungarian(budget_matrix), args.repeats)
    # integer entries 0..3: ties everywhere, the solver's slow case
    ties_matrix = stream(args.seed, "bench-ties").integers(0, 4, (100, 120)).astype(np.float64)
    ties_ms = _median_ms(lambda: hungarian(ties_matrix), args.repeats)
    print(f"sizes={args.sizes} budget_100x120_ms={budget_ms:.3f} ties_100x120_ms={ties_ms:.3f}")
    if budget_ms > args.budget_ms:
        raise CliError(f"100x120 solve took {budget_ms:.1f} ms, "
                       f"budget is {args.budget_ms:.1f} ms")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcovis",
        description="Temporal-association machinery for online video "
                    "instance segmentation, at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a corpus from a config file")
    gen.add_argument("config", help="run config JSON")
    gen.add_argument("--out", required=True, help="corpus output path")
    gen.add_argument("--seed", type=int, default=None, help="override config seed")
    gen.add_argument("--threads", type=int, default=None)
    gen.set_defaults(func=_cmd_gen)

    assign = sub.add_parser("assign", help="run assignment strategies over a corpus")
    assign.add_argument("corpus", help="corpus JSON with predictions")
    assign.add_argument("--strategy", choices=("gia", "locpro", "both"),
                        default="both")
    assign.add_argument("--weights", type=float, nargs=3, default=(2.0, 5.0, 5.0),
                        metavar=("CLS", "BCE", "DICE"))
    assign.add_argument("--out-prefix", required=True,
                        help="writes <prefix>.json and <prefix>.csv")
    assign.add_argument("--threads", type=int, default=None)
    assign.set_defaults(func=_cmd_assign)

    enhance = sub.add_parser("enhance", help="trace the enhancement forward pass")
    enhance.add_argument("--demo", required=True, help="demo config JSON")
    enhance.add_argument("--out", required=True, help="trace output path")
    enhance.add_argument("--threads", type=int, default=None)
    enhance.set_defaults(func=_cmd_enhance)

    ev = sub.add_parser("eval", help="compute AP/AR and the strategy audit")
    ev.add_argument("corpus", help="corpus JSON with predictions")
    ev.add_argument("--weights", type=float, nargs=3, default=(2.0, 5.0, 5.0),
                    metavar=("CLS", "BCE", "DICE"))
    ev.add_argument("--out-prefix", required=True,
                    help="writes <prefix>.report.json and <prefix>.audit.csv")
    ev.add_argument("--threads", type=int, default=None)
    ev.set_defaults(func=_cmd_eval)

    bench = sub.add_parser("bench", help="time the solver and cost construction")
    bench.add_argument("--sizes", type=_parse_sizes, default=[10, 50, 100],
                       help="comma-separated matrix sizes, e.g. 5,10")
    bench.add_argument("--repeats", type=int, default=5)
    bench.add_argument("--budget-ms", type=float, default=250.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default="bench.csv")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
