"""End-to-end and per-layer benchmark of the tcovis CLI and solver.

    python3 perfbench/run.py --workload swap-corpus --seed 1 --seconds 50 --trace 0

Runs one workload in this process, from the root of a source checkout: it
imports the package from ./src, writes its inputs under
./.perfbench-work/, runs rounds of gen, assign, eval, enhance and solve
until --seconds have passed, checks every stage's output and prints the
metrics, the last line being one JSON object. --trace 0 reports the
end-to-end metrics; --trace 1 alternates traced and untraced rounds and
reports the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: no metric may depend on a thread pool, and a default
# OpenBLAS pool stalled the first matmuls of a fresh process for ~1 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TCOVIS_THREADS", None)   # it would override --threads

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

START = time.perf_counter()   # set-up time counts from here

import numpy as np

import workloads
from tracing import Tracer
from workloads import STAGES

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SETUP_REPEATS = 5
# What the calibration takes at reference speed, a round figure near its
# time (0.10-0.14 s) on the machine the benchmark was written on. Rates
# are scaled to it.
CALIBRATION_REF_S = 0.1


def _import_program() -> float:
    """Import tcovis from the checkout's src/, and nowhere else; return the
    seconds since this module started loading."""
    try:
        import tcovis
        import tcovis.cli  # noqa: F401  (the package does not import its CLI)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tcovis from {ROOT / 'src'}: {exc}")
    if Path(tcovis.__file__).resolve().parent != ROOT / "src" / "tcovis":
        sys.exit(f"perfbench: tcovis was imported from {tcovis.__file__}, not ./src")
    return time.perf_counter() - START


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Round:
    """The stage calls of one round, each a public entry point.

    Every call is a timing unit: `unit_times[(stage, k)]` collects
    (round, seconds) of the k-th call of a stage pass, over all passes and
    rounds run while `timing` is on. The same unit does the same work each
    time. `calibration[round]` is the calibration's time in that round.
    """

    def __init__(self, inputs, work: Path):
        from tcovis import assignment, cli
        self.cli, self.assignment = cli, assignment
        self.inputs = inputs
        self.corpus = work / "corpus.json"
        self.assign_prefix = work / "assign"
        self.eval_prefix = work / "eval"
        self.traces = [work / f"enhance-{k}.json" for k in range(len(inputs.enhance_paths))]
        self.failed = 0
        self.attempted = 0
        self.solutions = None
        self.timing = False
        self.round = 0
        self.unit_times = defaultdict(list)
        self.calibration = {}

    def _record(self, unit, t0: float) -> None:
        if self.timing:
            self.unit_times[unit].append((self.round, time.perf_counter() - t0))

    def _main(self, unit, argv) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main([str(a) for a in argv])
        self._record(unit, t0)
        if code != 0:
            self.failed += 1

    def gen(self):
        self._main(("gen", 0), ["gen", self.inputs.run_config_path, "--out", self.corpus,
                                "--threads", 1])

    def assign(self):
        self._main(("assign", 0), ["assign", self.corpus, "--strategy", "both",
                                   "--threads", 1, "--out-prefix", self.assign_prefix])

    def eval(self):
        self._main(("eval", 0), ["eval", self.corpus, "--threads", 1,
                                 "--out-prefix", self.eval_prefix])

    def enhance(self):
        for k, (config, trace) in enumerate(zip(self.inputs.enhance_paths, self.traces)):
            self._main(("enhance", k), ["enhance", "--demo", config, "--out", trace])

    def solve(self):
        results = []
        for k, m in enumerate(self.inputs.matrices):
            self.attempted += 1
            t0 = time.perf_counter()
            a = self.assignment.hungarian(m)   # looked up per call, so it can be traced
            self._record(("solve", k), t0)
            results.append((a.pairs, a.total_cost))
        self.solutions = results

    def outputs_digest(self) -> dict:
        return {"gen": _digest(self.corpus),
                "enhance": tuple(_digest(t) for t in self.traces),
                "solve": hashlib.sha256(repr(self.solutions).encode()).hexdigest()}


class Calibration:
    """A fixed yardstick of about 0.1 s, through no tcovis code: JSON text
    both ways, numpy on an array of a crowded clip's size, and a Python
    loop, the kinds of work the stages do. Its inputs never change."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.floats = rng.uniform(size=(60, 1000)).tolist()
        self.text = json.dumps(self.floats)
        self.array = rng.uniform(size=(40, 8, 32, 32))

    def run(self) -> float:
        """Seconds one pass takes."""
        t0 = time.perf_counter()
        json.dumps(self.floats)
        json.loads(self.text)
        x = self.array
        for _ in range(6):
            x = np.log(np.clip(x, 1e-12, 1.0)).mean(axis=1, keepdims=True) * -0.1 + x * 0.5
        total = 0
        for i in range(300_000):
            total += i * i % 7
        return time.perf_counter() - t0


def _setup(workload, seed: int, work: Path):
    """Build the inputs and warm every stage up on a small fixed config."""
    if work.exists():
        shutil.rmtree(work)
    inputs = workloads.prepare(workload, seed, work / "inputs")
    warm = work / "warmup"
    warm_inputs = workloads.prepare_warmup(warm, inputs.matrices[:1])
    warm_round = Round(warm_inputs, warm)
    for stage in STAGES:
        getattr(warm_round, stage)()
    if warm_round.failed:
        sys.exit("perfbench: the warm-up round failed")
    return inputs


def _timed_rounds(inputs, work: Path, seconds: float, tracer):
    """At least two rounds, then more while the next one should end within
    `seconds` of the first; with a tracer, odd rounds are traced. Returns
    the round runner, the per-layer metrics of each traced round and the
    output digests of every round."""
    rnd = Round(inputs, work)
    calibration = Calibration()
    calibration.run()
    traced_rows, digests, lengths = [], [], []
    start = time.perf_counter()
    while (len(lengths) < 2
           or time.perf_counter() - start + statistics.median(lengths) <= seconds):
        round_start = time.perf_counter()
        traced = tracer is not None and len(lengths) % 2 == 1
        rnd.timing, rnd.round = not traced, len(lengths)
        if traced:
            tracer.reset()
            tracer.install()
            first_span = len(tracer.spans)
        try:
            for stage in STAGES:
                for _ in range(inputs.passes[stage]):
                    if traced:
                        tracer.stage(f"stage.{stage}", getattr(rnd, stage))
                    else:
                        getattr(rnd, stage)()
        finally:
            if traced:
                tracer.restore()
        if traced:
            traced_rows.append({"layers": _layer_metrics(tracer),
                                "spans": len(tracer.spans) - first_span})
        else:
            rnd.calibration[rnd.round] = calibration.run()
        digests.append(rnd.outputs_digest())
        lengths.append(time.perf_counter() - round_start)
    return rnd, traced_rows, digests


def _layer_metrics(tracer) -> dict:
    s, calls = tracer.self_s, tracer.calls
    out = {}
    for name in PER_LAYER_UNITS:
        if name.startswith("cli."):          # cli.<stage>_self_s
            out[name] = s["stage." + name[4:-len("_self_s")]]
        elif name.endswith("_s") and name != "trace.overhead_s":
            out[name] = s.get(name[:-2], 0.0)
    for name in ("cost.global_matching_cost", "cost.frame_matching_cost",
                 "assignment.hungarian", "evaluation.video_iou", "ste.masked_average_pool"):
        out[f"{name}_calls"] = calls[name]
    out["assignment.locpro_stages"] = tracer.edges[("assignment.locpro_assignment",
                                                    "assignment.hungarian")]
    out["assignment.hungarian_cells"] = tracer.cells
    out["model.dump_json_bytes"] = tracer.json_bytes
    out["cost.global_cost_calls_per_pair"] = (
        calls["cost.global_matching_cost"] / tracer.distinct_pairs
        if tracer.distinct_pairs else 0.0)
    return out


PER_LAYER_UNITS = {
    "model.save_corpus_s": "s", "model.corpus_to_dict_s": "s", "model.dump_json_s": "s",
    "model.dump_json_bytes": "bytes", "model.encode_mask_rle_s": "s",
    "model.load_corpus_s": "s", "model.corpus_from_dict_s": "s",
    "model.decode_mask_rle_s": "s", "model.validate_s": "s",
    "synth.build_clip_s": "s", "synth.generate_clip_s": "s",
    "synth.simulate_predictions_s": "s",
    "cost.global_matching_cost_s": "s", "cost.global_matching_cost_calls": "count",
    "cost.frame_matching_cost_s": "s", "cost.frame_matching_cost_calls": "count",
    "cost.global_cost_calls_per_pair": "ratio",
    "assignment.build_global_cost_matrix_s": "s",
    "assignment.global_instance_assignment_s": "s",
    "assignment.locpro_assignment_s": "s", "assignment.locpro_stages": "count",
    "assignment.assignment_total_global_cost_s": "s",
    "assignment.hungarian_s": "s", "assignment.hungarian_calls": "count",
    "assignment.hungarian_cells": "count",
    "evaluation.compute_ap_s": "s", "evaluation.video_iou_s": "s",
    "evaluation.video_iou_calls": "count", "evaluation.audit_clip_s": "s",
    "ste.run_clip_s": "s", "ste.propagate_s": "s", "ste.segment_frame_s": "s",
    "ste.spatial_matting_s": "s", "ste.masked_average_pool_s": "s",
    "ste.masked_average_pool_calls": "count", "ste.cross_attention_update_s": "s",
    "cli.gen_self_s": "s", "cli.assign_self_s": "s", "cli.eval_self_s": "s",
    "cli.enhance_self_s": "s",
    "trace.overhead_s": "s",
}

END_TO_END_UNITS = {
    "setup_s": "s", "gen_clips_per_s": "clips/s", "assign_clips_per_s": "clips/s",
    "eval_clips_per_s": "clips/s", "enhance_frames_per_s": "frames/s",
    "solve_matrices_per_s": "matrices/s", "corpus_mb": "MB", "peak_rss_mb": "MB",
}


def _end_to_end(rnd: Round, inputs, setup_s: float, peak_rss_mb: float) -> dict:
    per_unit = {"gen": inputs.clips, "assign": inputs.clips, "eval": inputs.clips,
                "enhance": inputs.enhance_frames // len(inputs.enhance_paths), "solve": 1}
    # Each call's time over the calibration's time in the same round,
    # median over the run, summed over the calls of a pass, at reference
    # speed. Load on the shared host swings a call's time by up to 2x
    # within one run and for minutes at a time; the calibration, run after
    # the stages of every untraced round, slows with it.
    cost, work = dict.fromkeys(STAGES, 0.0), dict.fromkeys(STAGES, 0)
    for (stage, _), samples in rnd.unit_times.items():
        cost[stage] += statistics.median(t / rnd.calibration[r] for r, t in samples)
        work[stage] += per_unit[stage]
    rate = {stage: work[stage] / (cost[stage] * CALIBRATION_REF_S) for stage in STAGES}
    return {"setup_s": setup_s,
            "gen_clips_per_s": rate["gen"], "assign_clips_per_s": rate["assign"],
            "eval_clips_per_s": rate["eval"], "enhance_frames_per_s": rate["enhance"],
            "solve_matrices_per_s": rate["solve"],
            "corpus_mb": rnd.corpus.stat().st_size / 1e6, "peak_rss_mb": peak_rss_mb}


def _per_layer(traced_rows) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in traced_rows)
           for name in traced_rows[0]["layers"]}
    # Traced minus untraced time of a round, as the spans of a traced round
    # times what one span adds. Subtracting measured stage times instead
    # read below 0: the host's noise is larger than the overhead.
    out["trace.overhead_s"] = (statistics.median(r["spans"] for r in traced_rows)
                               * Tracer.span_cost_s())
    return out


def collect(inputs, rnd: Round) -> dict:
    """The last round's outputs, parsed, with what the checks compare them to."""
    import oracle
    from tcovis import evaluation, model, synth

    doc = json.loads(rnd.corpus.read_text())
    scene, noise = workloads.reference_configs(inputs.run_config)
    corpus = model.load_corpus(rnd.corpus)
    arrays = [oracle.doc_clip_arrays(entry, doc["spec"]) for entry in doc["clips"]]
    # Slots 0 and 1 swap the tracks they follow at `swap`. Where tracks 0
    # and 1 both show before it, locpro matches them on the pre-swap
    # identities and must cost strictly more than GIA; where one first shows
    # later, locpro matches after the swap and may tie GIA.
    swap = inputs.run_config["noise"]["swap_frame"] - 1
    return {
        "doc": doc,
        "reference": [synth.build_clip(scene, noise, inputs.run_config["seed"], i)
                      for i in range(inputs.clips)],
        "violations": model.validate(corpus),
        "matrices": [oracle.cost_matrix(*a) for a in arrays],
        "swapped_before": {ci for ci, (_, masks, _, _) in enumerate(arrays)
                           if masks[:2, :swap].any(axis=(1, 2, 3)).all()},
        "assign": json.loads(Path(f"{rnd.assign_prefix}.json").read_text()),
        "report": json.loads(Path(f"{rnd.eval_prefix}.report.json").read_text()),
        "audit_csv": Path(f"{rnd.eval_prefix}.audit.csv").read_text(),
        "permuted": evaluation.compute_ap(
            _permuted(corpus, inputs.run_config["seed"])).to_dict(),
        "traces": [json.loads(trace.read_text()) for trace in rnd.traces],
        "solutions": list(rnd.solutions),
    }


def check_all(workload, inputs, art: dict, digests) -> list:
    """Every stage's checks; `digests` holds each round's output digests."""
    import checks
    swap = workload.corpus_matrices
    problems = checks.check_gen([d["gen"] for d in digests], art["doc"], art["reference"],
                                art["violations"])
    strict = art["swapped_before"] if swap else set()
    problems += checks.check_assign(art["assign"], art["matrices"], strict)
    problems += checks.check_eval(art["report"], art["audit_csv"], art["assign"],
                                  art["permuted"])
    for k, trace in enumerate(art["traces"]):
        problems += checks.check_enhance([d["enhance"][k] for d in digests], trace)
    problems += checks.same_passes("solve", [d["solve"] for d in digests])
    problems += checks.check_solve(inputs.matrices, inputs.integer_matrix, art["solutions"],
                                   enumerate_small=swap)
    return problems


def _permuted(corpus, seed: int):
    """The corpus with its clips and every clip's slots shuffled."""
    import numpy as np
    from tcovis.model import Clip, Corpus
    rng = np.random.default_rng(seed)
    clips = [corpus.clips[i] for i in rng.permutation(len(corpus.clips))]
    clips = [Clip(gt=c.gt, pred=tuple(c.pred[j] for j in rng.permutation(len(c.pred))))
             for c in clips]
    return Corpus(spec=corpus.spec, clips=tuple(clips), seed=corpus.seed,
                  generator=corpus.generator)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = _setup(workload, args.seed, work)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    tracer = Tracer() if args.trace else None
    rnd, traced_rows, digests = _timed_rounds(inputs, work, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    problems = check_all(workload, inputs, collect(inputs, rnd), digests)
    if args.trace:
        metrics = _per_layer(traced_rows)
        units = PER_LAYER_UNITS
        tracer.write_spans(work.parent / f"{work.name}-spans.tsv")
    else:
        metrics = _end_to_end(rnd, inputs, setup_s, peak_rss_mb)
        units = END_TO_END_UNITS
    shutil.rmtree(work)   # corpora and traces reach tens of MB per run
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    if rnd.calibration:
        print(f"{workload.name} calibration median = "
              f"{statistics.median(rnd.calibration.values()):.6g} s")
    print(f"{workload.name} rounds={len(digests)} attempted={rnd.attempted} failed={rnd.failed}")
    result = {"correct": not problems, "attempted": rnd.attempted, "failed": rnd.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
