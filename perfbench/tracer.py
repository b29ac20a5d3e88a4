"""Spans around the public functions of each fusioncat module.

`install()` replaces module attributes (and a few class attributes) with
wrappers that record one span per call: name, start, end and the index of
the enclosing span. Spans stay in memory; `Tracer.dump()` writes them out
once the traced program has returned. A few wrappers also read a count off
the returned object (lattice points found, survivors, bytes written), so a
ratio of useful outcomes to attempts is measured where the work happens.

`layer_metrics()` turns a dumped trace into per-layer numbers: self time in
seconds (a span's duration minus the time its child spans cover) and calls
per function, plus the counts.
`METRICS` lists every name it reports, with its unit and better direction,
and is the single source for BENCHMARK.json's `per_layer` list.
"""

import functools
import importlib
import json
import os
import time
from collections import defaultdict

STAGES = (
    "base_data", "ring", "invariant", "family", "chiral_lift", "parity",
    "module_graph", "annular", "graph_algebra", "quantum_symmetries",
    "dual_matrices", "slot_map",
)

RECORD_BUILDERS = (
    "fusion_ring_record", "modular_data_record", "invariant_record",
    "toric_family_record", "graph_algebra_record", "oc_graph_record",
)


def _objects_size(catalog, h):
    return os.path.getsize(catalog.objects / f"{h}.json")


def _count_put(tracer, result, args):
    key = (str(args[0].root), result)
    if key not in tracer.written:
        tracer.written.add(key)
        tracer.counts["catalog.bytes_written"] += _objects_size(args[0], result)


def _count_get(tracer, result, args):
    tracer.counts["catalog.bytes_read"] += _objects_size(args[0], args[1])


def _add(counter, measure):
    def hook(tracer, result, args):
        tracer.counts[counter] += measure(result)
    return hook


def _set(counter, measure):
    def hook(tracer, result, args):
        tracer.counts[counter] = measure(result)
    return hook


# (module, attribute, metric prefix, hook); an attribute "Class.method"
# wraps the method on the class, so bound calls are traced too
FUNCTIONS = [
    ("exactla", "lattice_points", "exactla.lattice_points",
     _add("exactla.lattice_points_found", len)),
    ("exactla", "LinearSystem.rref", "exactla.rref", None),
    ("exactla", "IntSpan.add", "exactla.intspan_add", None),
    ("splitting", "modular_splitting", "splitting.modular_splitting",
     _set("splitting.family_rank", lambda r: r.rank)),
    ("splitting", "class_actions", "splitting.class_actions", None),
    ("splitting", "lift_chiral_generators", "splitting.lift_chiral_generators",
     _set("splitting.lift_solutions", lambda r: r.n_solutions)),
    ("graphalgebra", "doublet_solutions", "graphalgebra.doublet_solutions",
     _add("graphalgebra.doublet_candidates", len)),
    ("graphalgebra", "closure_defect", "graphalgebra.closure_defect", None),
    ("graphalgebra", "solve_graph_algebra", "graphalgebra.solve_graph_algebra",
     _set("graphalgebra.doublet_survivors", lambda r: r.doublet_survivors)),
    ("graphalgebra", "slot_symmetry_map", "graphalgebra.slot_symmetry_map", None),
    ("graphalgebra", "matrix_units", "graphalgebra.matrix_units", None),
    ("graphalgebra", "toric_pair_grid", "graphalgebra.toric_pair_grid", None),
    ("modular", "modular_data", "modular.modular_data",
     _add("modular.s_entries", lambda r: len(r.labels) ** 2)),
    ("modular", "verlinde_tensor", "modular.verlinde_tensor", None),
    ("weights", "conformal_dimension", "weights.conformal_dimension", None),
    ("weights", "enumerate_alcove", "weights.enumerate_alcove", None),
    ("fusion", "fusion_matrices", "fusion.fusion_matrices", None),
    ("fusion", "su4_tower", "fusion.su4_tower", None),
    ("embedding", "scan_embeddings", "embedding.scan_embeddings", None),
    ("embedding", "branch_candidates", "embedding.branch_candidates", None),
    ("embedding", "solve_invariant", "embedding.solve_invariant", None),
    ("catalog", "Catalog.put", "catalog.put", _count_put),
    ("catalog", "Catalog.get", "catalog.get", _count_get),
] + [("catalog", name, "catalog.records", None) for name in RECORD_BUILDERS]

# work summed over every call: fewer for the same result is less work
WORK_COUNTS = (
    ("exactla.lattice_points_found", "count"),
    ("graphalgebra.doublet_candidates", "count"),
    ("modular.s_entries", "count"),
    ("catalog.bytes_written", "bytes"),
    ("catalog.bytes_read", "bytes"),
)

# results fixed by the mathematics: a change that moves them is a bug
FIXED_COUNTS = (
    "splitting.family_rank",
    "splitting.lift_solutions",
    "graphalgebra.doublet_survivors",
)

TRACE_SUMMARY = (
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.outside_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def _metric_list():
    out = [(f"pipeline.{s}_s", "s", "lower") for s in STAGES]
    out += [(f"acceptance.criterion{n:02d}_s", "s", "lower") for n in range(1, 13)]
    seen = set()
    for _, _, prefix, _ in FUNCTIONS:
        if prefix not in seen:
            seen.add(prefix)
            out += [(f"{prefix}_s", "s", "lower"), (f"{prefix}_calls", "count", "lower")]
    out += [(c, unit, "lower") for c, unit in WORK_COUNTS]
    out += [(c, "count", "higher") for c in FIXED_COUNTS]
    return out + list(TRACE_SUMMARY)


METRICS = _metric_list()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.written = set()

    def wrap(self, fn, name, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result, args)
            return result

        return traced

    def install(self):
        """Wrap every traced attribute of the already importable package."""
        for mod_name, attr, prefix, hook in FUNCTIONS:
            owner = importlib.import_module(f"fusioncat.{mod_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), prefix, hook))
        pl = importlib.import_module("fusioncat.pipeline")
        for stage in STAGES:
            setattr(pl, stage, self.wrap(getattr(pl, stage), f"pipeline.{stage}"))
        # the criteria table holds the check functions themselves, so wrap
        # its entries rather than the module attributes
        acc = importlib.import_module("fusioncat.acceptance")
        acc.CRITERIA[:] = [
            (n, name, self.wrap(fn, f"acceptance.criterion{n:02d}"))
            for n, name, fn in acc.CRITERIA
        ]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans):
    """Per-name (self seconds, calls) from [name, start, end, parent] spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: [0.0, 0])
    for (name, start, end, _), inner in zip(spans, child):
        out[name][0] += end - start - inner
        out[name][1] += 1
    return out


def layer_metrics(trace, wall_s):
    """Every METRICS value except the untraced-run figures, from one dumped
    trace and the traced process's wall time. A function a workload never
    calls has no span, so its self time and calls read 0."""
    per = self_times(trace["spans"])
    vals = {}
    for name, unit, _ in METRICS:
        if name.startswith("trace."):
            continue
        if name.endswith("_calls"):
            vals[name] = per.get(name[: -len("_calls")], (0.0, 0))[1]
        elif unit == "s":
            vals[name] = per.get(name[: -len("_s")], (0.0, 0))[0]
        else:
            vals[name] = trace["counts"].get(name, 0)
    self_sum = sum(s for s, _ in per.values())
    vals["trace.wall_s"] = wall_s
    vals["trace.self_sum_s"] = self_sum
    vals["trace.outside_s"] = wall_s - self_sum
    vals["trace.spans"] = len(trace["spans"])
    return vals
