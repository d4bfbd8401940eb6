"""Output checks, one function per stage.

Each check compares the program's output with a result computed apart
from the program (see oracle.py) or with a property the method must
have; none compares with a stored copy of earlier output. A check returns
the list of problems it found; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import oracle

REL_TOL = 1e-9        # float optimum against scipy
ROW_SUM_TOL = 1e-12   # attention and class-probability rows


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def same_passes(stage: str, digests) -> list:
    digests = list(digests)
    if len(set(digests)) != 1:
        return [f"{stage}: {len(set(digests))} different outputs from {len(digests)} passes"]
    return []


def check_gen(digests, doc: dict, reference_clips, violations) -> list:
    """Passes write identical bytes; the corpus decodes to the generator's
    clips; the program's own validator finds nothing."""
    problems = same_passes("gen", digests)
    if len(doc["clips"]) != len(reference_clips):
        return problems + [f"gen: {len(doc['clips'])} clips, expected {len(reference_clips)}"]
    for ci, (entry, clip) in enumerate(zip(doc["clips"], reference_clips)):
        got = oracle.doc_clip_arrays(entry, doc["spec"])
        want = oracle.clip_arrays(clip)
        for name, a, b in zip(("class ids", "masks", "class probs", "mask probs"), got, want):
            if a.shape != b.shape or not np.array_equal(a, b):
                problems.append(f"gen: clip {ci} {name} differ from the generator's")
    problems += [f"gen: validate reports {v}" for v in violations]
    return problems


def _injective_cover(pairs, n_gt: int, n_slots: int) -> bool:
    gts = [g for g, _ in pairs]
    slots = [s for _, s in pairs]
    return (sorted(gts) == list(range(n_gt)) and len(set(slots)) == len(slots)
            and all(0 <= s < n_slots for s in slots))


def check_assign(doc: dict, matrices, strict_clips) -> list:
    """GIA reaches the scipy optimum of the oracle matrix, both pair lists
    are injective and cover every track, gia <= locpro, and gia < locpro on
    `strict_clips`: swap clips where locpro must match the swapped tracks
    before the swap (see run.collect)."""
    problems = []
    if len(doc["clips"]) != len(matrices):
        return [f"assign: {len(doc['clips'])} clips, expected {len(matrices)}"]
    for row, m in zip(doc["clips"], matrices):
        ci = row["clip"]
        best = oracle.optimum(m)
        for name in ("gia", "locpro"):
            pairs = [tuple(p) for p in row[name]["pairs"]]
            if not _injective_cover(pairs, *m.shape):
                problems.append(f"assign: clip {ci} {name} pairs {pairs} are not an injective cover")
                continue
            total = float(sum(m[g, s] for g, s in pairs))
            if not _close(total, row[name]["cost"]):
                problems.append(f"assign: clip {ci} {name} cost {row[name]['cost']!r} "
                                f"!= oracle cost of its pairs {total!r}")
            if name == "gia" and not _close(total, best):
                problems.append(f"assign: clip {ci} gia pairs cost {total!r}, optimum {best!r}")
        gia, loc = row["gia"]["cost"], row["locpro"]["cost"]
        if not _close(gia, best):
            problems.append(f"assign: clip {ci} gia cost {gia!r} != scipy optimum {best!r}")
        if gia > loc + REL_TOL * max(1.0, abs(loc)):
            problems.append(f"assign: clip {ci} gia {gia!r} > locpro {loc!r}")
        if ci in strict_clips and not gia < loc:
            problems.append(f"assign: clip {ci} gia {gia!r} not below locpro {loc!r} on a swap clip")
    return problems


def check_eval(report: dict, audit_csv: str, assign_doc: dict, permuted) -> list:
    """Metrics lie in [0, 1] with AR10 >= AR1, do not move when clips and
    slots are permuted, and the audit costs equal the assign costs."""
    problems = []
    keys = ("AP", "AP50", "AP75", "AR1", "AR10")
    for key in keys:
        if not 0.0 <= report[key] <= 1.0:
            problems.append(f"eval: {key}={report[key]!r} outside [0, 1]")
    if report["AR10"] < report["AR1"]:
        problems.append(f"eval: AR10={report['AR10']!r} < AR1={report['AR1']!r}")
    moved = [k for k in keys if report[k] != permuted[k]]
    if moved or report["per_threshold"] != permuted["per_threshold"]:
        problems.append(f"eval: metrics {moved or ['per_threshold']} change "
                        "when clips and slots are permuted")
    rows = list(csv.DictReader(io.StringIO(audit_csv)))
    if len(rows) != len(assign_doc["clips"]):
        return problems + [f"eval: {len(rows)} audit rows for {len(assign_doc['clips'])} clips"]
    for audit, row in zip(rows, assign_doc["clips"]):
        for name in ("gia", "locpro"):
            if float(audit[f"{name}_cost"]) != row[name]["cost"]:
                problems.append(f"eval: clip {audit['clip']} audit {name} cost "
                                f"{audit[name + '_cost']} != assign {row[name]['cost']!r}")
    return problems


def _rows_sum_to_one(values) -> bool:
    arr = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.abs(arr - 1.0) <= ROW_SUM_TOL))


def check_enhance(digests, doc: dict) -> list:
    """Passes write identical bytes; attention and class-probability rows
    sum to 1; empty slots pool to zero; frame 0 is the same with and
    without enhancement."""
    problems = same_passes("enhance", digests)
    T = doc["spec"]["T"]
    for mode in ("plain", "ste"):
        if len(doc[mode]) != T:
            problems.append(f"enhance: {mode} trace has {len(doc[mode])} frames, expected {T}")
        for t, entry in enumerate(doc[mode]):
            sums = [math.fsum(row) for row in entry["class_probs"]]
            if not _rows_sum_to_one(sums):
                problems.append(f"enhance: {mode} frame {t} class probabilities do not sum to 1")
            for key in ("encoder_row_sums", "decoder_row_sums", "ste_row_sums"):
                if key in entry and not _rows_sum_to_one(entry[key]):
                    problems.append(f"enhance: {mode} frame {t} {key} not all 1")
            for k, empty in enumerate(entry.get("spatial_empty", ())):
                if empty and any(entry["spatial_features"][k]):
                    problems.append(f"enhance: frame {t} slot {k} flagged empty "
                                    "but has a nonzero spatial vector")
    if doc["plain"] and doc["ste"]:
        first = ("prototypes", "class_probs", "encoder_row_sums", "decoder_row_sums")
        if any(doc["plain"][0][key] != doc["ste"][0][key] for key in first):
            problems.append("enhance: frame 0 differs between the plain and STE traces")
    return problems


def check_solve(matrices, integer, results, enumerate_small: bool) -> list:
    """Totals equal scipy's optimum (exactly for integer matrices); on the
    small corpus matrices the pair list is the lexicographically smallest
    optimal injection."""
    problems = []
    for i, (m, whole, (pairs, total)) in enumerate(zip(matrices, integer, results)):
        best = oracle.optimum(m)
        if not (total == best if whole else _close(total, best)):
            problems.append(f"solve: matrix {i} total {total!r} != optimum {best!r}")
        if not _injective_cover(pairs, *m.shape):
            problems.append(f"solve: matrix {i} pairs are not an injective cover")
        elif not _close(float(sum(m[g, s] for g, s in pairs)), best):
            problems.append(f"solve: matrix {i} pairs do not reach the optimum")
        if enumerate_small:
            want, _ = oracle.lexicographic_min(m)
            if list(pairs) != want:
                problems.append(f"solve: matrix {i} pairs {list(pairs)} are not the "
                                f"smallest optimal injection {want}")
    return problems
