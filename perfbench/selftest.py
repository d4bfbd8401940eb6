"""Shows that every output check of the benchmark fails on a corrupted output.

    python3 perfbench/selftest.py

Runs one round of a small swap-corpus workload, requires its outputs to
pass every check, then corrupts one output at a time and requires the
check of that stage to report it. Also requires the tracer to leave every
traced function as it found it. Exits 1 if any case goes unreported.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import shutil
import sys

import run   # first: it pins the BLAS thread count before numpy loads


def _swap_gia_pair(art, _):
    row = next(r for r in art["assign"]["clips"] if len(r["gia"]["pairs"]) >= 2)
    pairs = row["gia"]["pairs"]
    pairs[0][1], pairs[1][1] = pairs[1][1], pairs[0][1]


def _repeat_slot(art, _):
    pairs = art["assign"]["clips"][0]["locpro"]["pairs"]
    pairs[1][1] = pairs[0][1]


def _gia_above_locpro(art, _):
    row = art["assign"]["clips"][0]
    row["locpro"]["cost"] = row["gia"]["cost"] * 0.5


def _locpro_equals_gia(art, _):
    row = art["assign"]["clips"][0]
    row["locpro"] = copy.deepcopy(row["gia"])


def _shift_gia_cost(art, _):
    art["assign"]["clips"][0]["gia"]["cost"] += 1e-6


def _perturb_ap(art, _):
    art["report"]["AP"] += 1e-9


def _ap_out_of_range(art, _):
    art["report"]["AP50"] = 1.5


def _ar1_above_ar10(art, _):
    art["report"]["AR1"] = art["report"]["AR10"] + 0.01


def _edit_audit_cost(art, _):
    rows = list(csv.reader(io.StringIO(art["audit_csv"])))
    rows[1][1] = repr(float(rows[1][1]) * (1 + 1e-12))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    art["audit_csv"] = buf.getvalue()


def _scale_attention_row(art, _):
    sums = art["traces"][0]["ste"][1]["decoder_row_sums"]
    sums[0] = [v * 1.01 for v in sums[0]]


def _scale_class_row(art, _):
    row = art["traces"][0]["plain"][2]["class_probs"][0]
    row[:] = [v * 1.01 for v in row]


def _flag_full_slot_empty(art, _):
    entry = art["traces"][0]["ste"][0]
    k = next(i for i, empty in enumerate(entry["spatial_empty"]) if not empty)
    entry["spatial_empty"][k] = True


def _change_ste_frame0(art, _):
    art["traces"][0]["ste"][0]["prototypes"][0][0] += 1e-12


def _drop_frame(art, _):
    art["traces"][1]["plain"].pop()


def _flip_rle_run(art, _):
    counts = next(rec["counts"] for gt in art["doc"]["clips"][0]["gt"]
                  for rec in gt["masks"] if len(rec["counts"]) >= 3 and rec["counts"][2] > 0)
    counts[1] += 1
    counts[2] -= 1


def _perturb_mask_prob(art, _):
    art["doc"]["clips"][1]["pred"][0]["mask_probs"][3][5] += 1e-12


def _report_violation(art, _):
    art["violations"] = ["clip 0 pred[0] frame 0: negative class probability"]


def _second_pass_differs(stage):
    def mutate(_, digests):
        digests[1] = dict(digests[1], **{stage: "0" * 64 if stage != "enhance"
                                         else ("0" * 64,) * len(digests[1]["enhance"])})
    return mutate


def _solve_total(art, _):
    pairs, total = art["solutions"][0]
    art["solutions"][0] = (pairs, total + 1e-6)


def _solve_swap_pairs(art, _):
    pairs, total = art["solutions"][0]
    swapped = list(pairs)
    (r0, c0), (r1, c1) = swapped[0], swapped[1]
    swapped[0], swapped[1] = (r0, c1), (r1, c0)
    art["solutions"][0] = (tuple(swapped), total)


CASES = (
    ("gen: second pass writes other bytes", "gen:", _second_pass_differs("gen")),
    ("gen: one RLE run moved by a cell", "gen:", _flip_rle_run),
    ("gen: one mask probability off by 1e-12", "gen:", _perturb_mask_prob),
    ("gen: validate reports a violation", "gen:", _report_violation),
    ("assign: two GIA pairs swapped", "assign:", _swap_gia_pair),
    ("assign: locpro repeats a slot", "assign:", _repeat_slot),
    ("assign: GIA cost off by 1e-6", "assign:", _shift_gia_cost),
    ("assign: locpro cheaper than GIA", "assign:", _gia_above_locpro),
    ("assign: locpro ties GIA on a swap clip", "assign:", _locpro_equals_gia),
    ("eval: AP perturbed by 1e-9", "eval:", _perturb_ap),
    ("eval: AP50 above 1", "eval:", _ap_out_of_range),
    ("eval: AR1 above AR10", "eval:", _ar1_above_ar10),
    ("eval: audit cost differs from assign", "eval:", _edit_audit_cost),
    ("enhance: second pass writes other bytes", "enhance:", _second_pass_differs("enhance")),
    ("enhance: attention row scaled by 1.01", "enhance:", _scale_attention_row),
    ("enhance: class-probability row scaled by 1.01", "enhance:", _scale_class_row),
    ("enhance: nonempty slot flagged empty", "enhance:", _flag_full_slot_empty),
    ("enhance: STE frame 0 differs from plain", "enhance:", _change_ste_frame0),
    ("enhance: a frame missing", "enhance:", _drop_frame),
    ("solve: a second pass differs", "solve:", _second_pass_differs("solve")),
    ("solve: total off by 1e-6", "solve:", _solve_total),
    ("solve: two pairs swapped", "solve:", _solve_swap_pairs),
)


def _direct_solve_cases(checks) -> list:
    """Cases the workload's own matrices need not contain."""
    import numpy as np
    tied = np.zeros((2, 3))
    ints = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 3.0]])
    return [
        ("solve: optimal but not the smallest tied injection",
         checks.check_solve([tied], [False], [(((0, 1), (1, 0)), 0.0)], True)),
        ("solve: integer total off by one",
         checks.check_solve([ints], [True], [(((0, 0), (1, 1)), 3.0)], False)),
    ]


def _tracer_restores() -> bool:
    import tracing
    namespaces = [m for n, m in sys.modules.items() if n == "tcovis" or n.startswith("tcovis.")]
    before = [dict(vars(ns)) for ns in namespaces]
    tracer = tracing.Tracer()
    tracer.install()
    changed = sum(vars(ns)[k] is not v for ns, b in zip(namespaces, before) for k, v in b.items())
    tracer.restore()
    after = [dict(vars(ns)) for ns in namespaces]
    return changed > len(tracing.TRACED) and all(
        a[k] is v for a, b in zip(after, before) for k, v in b.items())


def main() -> int:
    run._import_program()
    import checks
    import workloads

    small = dataclasses.replace(
        workloads.SWAP_CORPUS, enhance_configs=2,
        run_config=dict(workloads.SWAP_CORPUS.run_config, clips=4))
    work = run.ROOT / ".perfbench-work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    inputs = workloads.prepare(small, 0, work / "inputs")
    rnd = run.Round(inputs, work)
    for stage in run.STAGES:
        getattr(rnd, stage)()
    digests = [rnd.outputs_digest(), rnd.outputs_digest()]
    art = run.collect(inputs, rnd)
    shutil.rmtree(work)

    missed = 0
    base = run.check_all(small, inputs, art, digests)
    for problem in base:
        print(f"FAIL uncorrupted output: {problem}")
    missed += bool(base) or rnd.failed
    for name, prefix, mutate in CASES:
        a, d = copy.deepcopy(art), copy.deepcopy(digests)
        mutate(a, d)
        found = [p for p in run.check_all(small, inputs, a, d) if p.startswith(prefix)]
        print(f"{'ok  ' if found else 'MISS'} {name}: {found[0] if found else 'not reported'}")
        missed += not found
    for name, found in _direct_solve_cases(checks):
        print(f"{'ok  ' if found else 'MISS'} {name}: {found[0] if found else 'not reported'}")
        missed += not found
    restored = _tracer_restores()
    print(f"{'ok  ' if restored else 'MISS'} tracer wraps every namespace and restores it")
    missed += not restored
    print(f"{missed} case(s) missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
