"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces each traced function in every tcovis namespace
that holds it (modules import names directly, so wrapping only the
defining module would miss calls), and `Tracer.restore` puts the
originals back. Spans are kept in memory as (name, start, end, parent)
and written out once, at the end of the run. Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs; every one is public API of its module.
TRACED = (
    ("model", "save_corpus"), ("model", "corpus_to_dict"), ("model", "dump_json"),
    ("model", "encode_mask_rle"), ("model", "load_corpus"),
    ("model", "corpus_from_dict"), ("model", "decode_mask_rle"), ("model", "validate"),
    ("synth", "build_clip"), ("synth", "generate_clip"), ("synth", "simulate_predictions"),
    ("cost", "global_matching_cost"), ("cost", "frame_matching_cost"),
    ("assignment", "build_global_cost_matrix"),
    ("assignment", "global_instance_assignment"), ("assignment", "locpro_assignment"),
    ("assignment", "assignment_total_global_cost"), ("assignment", "hungarian"),
    ("evaluation", "compute_ap"), ("evaluation", "video_iou"), ("evaluation", "audit_clip"),
    ("ste", "run_clip"), ("ste", "propagate"), ("ste", "segment_frame"),
    ("ste", "spatial_matting"), ("ste", "masked_average_pool"),
    ("ste", "cross_attention_update"),
)


class Tracer:
    def __init__(self):
        self.spans = []              # [name, start, end, parent index]
        self._stack = []             # [span index, child time]
        self._replaced = []          # (namespace, attribute, original)
        self.reset()

    def reset(self):
        """Start a new accumulation window; spans are kept."""
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.edges = Counter()       # (parent name, child name) -> calls
        self.cells = 0               # hungarian: sum of rows x cols
        self.json_bytes = 0          # dump_json: characters returned (ASCII)
        self.pairs = set()           # distinct (gt, slot) objects costed in a stage
        self.distinct_pairs = 0

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        if parent >= 0:
            self.edges[(self.spans[parent][0], name)] += 1
        self.calls[name] += 1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append([len(self.spans) - 1, 0.0])
        return len(self.spans) - 1

    def _exit(self) -> float:
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        duration = span[2] - span[1]
        self.self_s[span[0]] += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def stage(self, name: str, fn, *args):
        """Run a benchmark stage as a root span; distinct cost pairs are
        counted per stage, since object ids are only stable within one."""
        self.pairs = set()
        self._enter(name)
        try:
            return fn(*args)
        finally:
            self._exit()
            self.distinct_pairs += len(self.pairs)
            self.pairs = set()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "assignment.hungarian":
                shape = getattr(args[0], "shape", ())
                if len(shape) == 2:
                    tracer.cells += shape[0] * shape[1]
            elif name == "cost.global_matching_cost":
                tracer.pairs.add((id(args[0]), id(args[1])))
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if name == "model.dump_json":
                tracer.json_bytes += len(result)
            return result

        return traced

    def install(self):
        namespaces = [m for n, m in sys.modules.items()
                      if n == "tcovis" or n.startswith("tcovis.")]
        for module, func in TRACED:
            original = getattr(sys.modules[f"tcovis.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._replaced.append((ns, attr, original))

    def restore(self):
        for ns, attr, original in reversed(self._replaced):
            setattr(ns, attr, original)
        self._replaced = []

    @staticmethod
    def span_cost_s(batches: int = 50, calls: int = 2000) -> float:
        """Seconds one wrapped call adds to a bare call, from the fastest
        of `batches` batches of each."""
        def noop():
            return None

        tracer = Tracer()
        wrapped = tracer._wrap("noop", noop)
        bare_s = wrapped_s = float("inf")
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            tracer.spans.clear()
            bare_s, wrapped_s = min(bare_s, t1 - t0), min(wrapped_s, t2 - t1)
        return (wrapped_s - bare_s) / calls

    def write_spans(self, path):
        """One line per span: index, parent, name, start, end (seconds)."""
        with open(path, "w") as out:
            out.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
