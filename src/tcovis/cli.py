"""Command-line front end.

Subcommands:
  gen      generate a corpus from a config file
  assign   run the assignment strategies over a corpus and emit audits
  enhance  run the enhancement forward pass on seeded inputs, emit a trace
  eval     compute AP/AR metrics and the strategy audit for a corpus

Config files are JSON with a mandatory "version": 1 and are fail-closed:
unknown fields are rejected by name. All randomness flows from a single
seed, the config's "seed"; outputs are byte-identical for a fixed config at
any parallelism degree (--threads, default 1). `assign` and `eval` take
their loss weights from --weights alone.
`main` is the one place a failure becomes an exit code: a ValueError (bad
input), OSError (a file that cannot be used) or MemoryError prints
`error: <message>` (its class name when the message is empty) and exits 1;
any other exception is a fault and propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import evaluation, ste, synth
from .assignment import global_instance_assignment, locpro_assignment
from .cost import LossWeights
from .model import (MASK_BINARIZE, ClipSpec, Corpus, _checked_section, _integer, _number,
                    _positive_int, dump_json, field_names, load_corpus, read_json, record_dict,
                    save_corpus, validate, write_file)
from .rng import stream


def _threads(args) -> int:
    if args.threads < 1:
        raise ValueError(f"thread count must be >= 1, got {args.threads}")
    return args.threads


def _pool_map(fn, items, threads: int) -> list:
    if threads <= 1:
        return [fn(item) for item in items]
    # imported here: it pulls in `logging`, several ms of every process start
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _load_json(path) -> dict:
    try:
        return read_json(path)
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}") from None
    except ValueError as exc:   # json.JSONDecodeError, or text that is not UTF-8
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _record_section(name: str, data, cls, skip=()) -> dict:
    """A config section whose keys are the fields of dataclass `cls`."""
    return _checked_section(name, data, set(field_names(cls, skip)))


# keys every config file carries
_CONFIG_KEYS = {"version", "spec", "seed"}


def _config(path, name: str, known: set, required: set):
    """Check a config file's keys (`known` and `required` besides
    _CONFIG_KEYS) and version; return the document and its ClipSpec."""
    doc = _checked_section(name, _load_json(path), known=known | _CONFIG_KEYS,
                           required=required | _CONFIG_KEYS)
    if _integer("version", doc["version"]) != 1:
        raise ValueError(f"unsupported config version {doc['version']!r}")
    return doc, ClipSpec.from_dict(_record_section("spec", doc["spec"], ClipSpec))


def _load_run_config(path) -> dict:
    doc, spec = _config(path, "config", known={"scene", "noise", "clips"},
                        required={"scene", "clips"})
    scene = synth.SceneConfig(spec=spec, **_record_section(
        "scene", doc["scene"], synth.SceneConfig, skip=("spec",)))
    noise = None
    if doc.get("noise") is not None:
        noise = synth.NoiseConfig(**_record_section("noise", doc["noise"], synth.NoiseConfig))
    return {"spec": spec, "scene": scene, "noise": noise,
            "clips": _positive_int("clips", doc["clips"]),
            "seed": _integer("seed", doc["seed"])}


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    cfg = _load_run_config(args.config)
    threads = _threads(args)
    indices = list(range(cfg["clips"]))
    clips = _pool_map(
        lambda i: synth.build_clip(cfg["scene"], cfg["noise"], cfg["seed"], i),
        indices, threads)
    corpus = Corpus(spec=cfg["spec"], clips=tuple(clips), seed=cfg["seed"],
                    generator=synth.corpus_header(cfg["scene"], cfg["noise"], cfg["clips"]))
    violations = validate(corpus)
    if violations:
        raise ValueError(f"generated corpus failed validation: {violations[0]}")
    digest = save_corpus(corpus, args.out)
    print(f"clips={cfg['clips']} sha256={digest}")
    return 0


# ---------------------------------------------------------------------------
# assign
# ---------------------------------------------------------------------------

def _load_predicted_corpus(path) -> Corpus:
    try:
        corpus = load_corpus(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load corpus {path}: {exc}") from None
    violations = validate(corpus)
    if violations:
        raise ValueError(f"corpus failed validation: {violations[0]}")
    for ci, clip in enumerate(corpus.clips):
        if clip.pred is None:
            raise ValueError(f"corpus has no predictions (clip {ci})")
    return corpus


def _solution(pairs, cost: float) -> dict:
    return {"pairs": [list(p) for p in pairs], "cost": cost}


def _assign_row(corpus: Corpus, weights: LossWeights, strategy: str, ci: int) -> dict:
    clip = corpus.clips[ci]
    if strategy == "both":
        audit = evaluation.audit_clip(ci, clip.gt, clip.pred, weights)
        return {"clip": ci,
                "gia": _solution(audit.gia_pairs, audit.gia_cost),
                "locpro": _solution(audit.locpro_pairs, audit.locpro_cost),
                "agreement": audit.pair_agreement,
                "delta": audit.locpro_cost - audit.gia_cost}
    solve = global_instance_assignment if strategy == "gia" else locpro_assignment
    a = solve(clip.gt, clip.pred, weights)
    return {"clip": ci, strategy: _solution(a.pairs, a.total_cost)}


def _cmd_assign(args) -> int:
    corpus = _load_predicted_corpus(args.corpus)
    weights = LossWeights(*args.weights)   # --weights CLS BCE DICE, in field order
    threads = _threads(args)
    rows = _pool_map(lambda ci: _assign_row(corpus, weights, args.strategy, ci),
                     range(len(corpus.clips)), threads)
    both = args.strategy == "both"
    doc = {"strategy": args.strategy, "weights": record_dict(weights), "clips": rows}
    if both:
        doc["summary"] = {
            "mean_agreement": float(np.mean([r["agreement"] for r in rows])) if rows else 1.0,
            "mean_delta": float(np.mean([r["delta"] for r in rows])) if rows else 0.0,
        }
    digest = write_file(f"{args.out_prefix}.json", [dump_json(doc)])
    # CSV columns are row keys; a strategy's column `<name>_cost` holds its cost
    strategies = ("gia", "locpro") if both else (args.strategy,)
    columns = ["clip", *strategies, *(("agreement", "delta") if both else ())]
    lines = [",".join(f"{c}_cost" if c in strategies else c for c in columns)]
    lines += [",".join(repr(row[c]["cost"] if c in strategies else row[c]) for c in columns)
              for row in rows]
    write_file(f"{args.out_prefix}.csv", ["\n".join(lines) + "\n"])
    print(f"clips={len(rows)} strategy={args.strategy} sha256={digest}")
    return 0


# ---------------------------------------------------------------------------
# enhance
# ---------------------------------------------------------------------------

def _load_demo_config(path) -> dict:
    # `n_heads` is checked against C where the parameters are made
    doc, spec = _config(path, "demo config", known={"n_heads", "n_fq", "threshold"},
                        required={"n_heads", "n_fq"})
    return {"spec": spec, "n_heads": _integer("n_heads", doc["n_heads"]),
            "n_fq": _positive_int("n_fq", doc["n_fq"]),
            "seed": _integer("seed", doc["seed"]),
            "threshold": _number("threshold", doc.get("threshold", MASK_BINARIZE))}


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
    # every key run_clip records, arrays and lists alike, as nested lists
    return [{key: np.asarray(value).tolist() for key, value in entry.items()}
            for entry in trace]


def _cmd_enhance(args) -> int:
    cfg = _load_demo_config(args.demo)
    _threads(args)      # one clip: the count is checked, not used
    decoder, mhca, queries, frames = _demo_inputs(cfg)
    plain_trace = ste.run_clip(queries, frames, decoder)
    ste_trace = ste.run_clip(queries, frames, decoder, ste_params=mhca,
                             threshold=cfg["threshold"])
    doc = {"spec": cfg["spec"].to_dict(), "seed": cfg["seed"],
           "n_heads": cfg["n_heads"], "n_fq": cfg["n_fq"],
           "threshold": cfg["threshold"],
           "plain": _trace_to_json(plain_trace), "ste": _trace_to_json(ste_trace)}
    digest = write_file(args.out, [dump_json(doc)])
    print(f"frames={cfg['spec'].T} sha256={digest}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    corpus = _load_predicted_corpus(args.corpus)
    weights = LossWeights(*args.weights)
    threads = _threads(args)
    report = evaluation.compute_ap(corpus)
    audits = _pool_map(
        lambda ci: evaluation.audit_clip(ci, corpus.clips[ci].gt,
                                         corpus.clips[ci].pred, weights),
        range(len(corpus.clips)), threads)
    full = dataclasses.replace(report, clip_audits=tuple(audits))
    digest = write_file(f"{args.out_prefix}.report.json", [dump_json(full.to_dict())])
    write_file(f"{args.out_prefix}.audit.csv", [evaluation.audits_to_csv(audits)])
    print(f"AP={report.ap:.6f} AP50={report.ap50:.6f} AP75={report.ap75:.6f} sha256={digest}")
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
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=int, default=1)
    weights = argparse.ArgumentParser(add_help=False)
    weights.add_argument("--weights", type=float, nargs=3, metavar=("CLS", "BCE", "DICE"),
                         default=dataclasses.astuple(LossWeights()))

    gen = sub.add_parser("gen", parents=[threads], help="generate a corpus from a config file")
    gen.add_argument("config", help="run config JSON")
    gen.add_argument("--out", required=True, help="corpus output path")
    gen.set_defaults(func=_cmd_gen)

    assign = sub.add_parser("assign", parents=[threads, weights],
                            help="run assignment strategies over a corpus")
    assign.add_argument("corpus", help="corpus JSON with predictions")
    assign.add_argument("--strategy", choices=("gia", "locpro", "both"),
                        default="both")
    assign.add_argument("--out-prefix", required=True,
                        help="writes <prefix>.json and <prefix>.csv")
    assign.set_defaults(func=_cmd_assign)

    enhance = sub.add_parser("enhance", parents=[threads],
                             help="trace the enhancement forward pass")
    enhance.add_argument("--demo", required=True, help="demo config JSON")
    enhance.add_argument("--out", required=True, help="trace output path")
    enhance.set_defaults(func=_cmd_enhance)

    ev = sub.add_parser("eval", parents=[threads, weights],
                        help="compute AP/AR and the strategy audit")
    ev.add_argument("corpus", help="corpus JSON with predictions")
    ev.add_argument("--out-prefix", required=True,
                    help="writes <prefix>.report.json and <prefix>.audit.csv")
    ev.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a MemoryError often carries no message: name its class instead
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
