"""Out-of-package tracing for the modrep benchmark.

``Tracer.install`` wraps every public function of the six layers (the modules
``weights``, ``characters``, ``fock``, ``crystal``, ``hecke`` and ``cli``) and
rebinds each module attribute that refers to one of them, including names a
module imported with ``from .weights import ...`` and the re-exports in
``modrep/__init__.py``; otherwise calls across layers would go uncounted.
``uninstall`` puts every original back. The untraced benchmark run never
installs a tracer.

A span is recorded when a call crosses into a layer from outside it (or
from the benchmark), and for the hecke primitives in TIMED; calls within a
layer only feed counters. Spans (name, layer, start, end, parent, task) are
kept in memory in flat arrays, since a traced CLI round opens some 10^5 of
them, and written out at the end. A span's self time is its duration minus
the durations of its child spans (children are nested calls, so they never
overlap).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("weights", "characters", "fock", "crystal", "hecke", "cli")

# hecke primitives whose inclusive time is reported on its own
TIMED = {"hecke.mat_mul": "hecke.mat_mul_s",
         "hecke.matrix_unit_action": "hecke.matrix_unit_action_s",
         "hecke.rank_mod_p": "hecke.rank_mod_p_s"}

# private functions wrapped only for their counters
PRIVATE_COUNTED = {"fock._wedge_basis", "fock._partition_basis"}

# per-layer metrics as reported: (name, unit, better)
PER_LAYER = (
    ("weights.calls", "count", "lower"),
    ("weights.self_s", "s", "lower"),
    ("characters.calls", "count", "lower"),
    ("characters.self_s", "s", "lower"),
    ("characters.tableaux", "count", "lower"),
    ("characters.product_terms", "count", "lower"),
    ("fock.calls", "count", "lower"),
    ("fock.self_s", "s", "lower"),
    ("fock.labels", "count", "higher"),
    ("fock.basis_actions", "count", "lower"),
    ("crystal.calls", "count", "lower"),
    ("crystal.self_s", "s", "lower"),
    ("crystal.ops", "count", "lower"),
    ("crystal.graph_vertices", "count", "higher"),
    ("crystal.graph_edges", "count", "higher"),
    ("hecke.calls", "count", "lower"),
    ("hecke.self_s", "s", "lower"),
    ("hecke.mat_mul_s", "s", "lower"),
    ("hecke.matrix_unit_action_s", "s", "lower"),
    ("hecke.rank_mod_p_s", "s", "lower"),
    ("hecke.matmuls", "count", "lower"),
    ("hecke.matmul_flops", "count", "lower"),
    ("hecke.max_dim", "count", "lower"),
    ("hecke.operator_nnz_frac", "frac", "higher"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("harness.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

# which end-to-end metrics each layer should move, on which workload, and
# where it should stay flat
LAYER_MAP = {
    "hecke": {"moves": ["wall_s", "task_p90_ms", "peak_rss_mb"], "on": ["hecke-tower"],
              "flat_on": ["fock-window", "weyl-characters"]},
    "fock": {"moves": ["wall_s", "task_p90_ms"], "on": ["fock-window"],
             "flat_on": ["hecke-tower", "weyl-characters"]},
    "characters": {"moves": ["wall_s", "task_p90_ms"], "on": ["weyl-characters"],
                   "flat_on": ["hecke-tower", "fock-window"]},
    "crystal": {"moves": ["task_p90_ms", "task_p99_ms"], "on": ["cli-queries"],
                "flat_on": ["hecke-tower", "weyl-characters"]},
    "weights": {"moves": ["task_p90_ms", "task_p99_ms"], "on": ["cli-queries"],
                "flat_on": ["hecke-tower", "weyl-characters"]},
    "cli": {"moves": ["task_p50_ms", "wall_s"], "on": ["cli-queries"],
            "flat_on": ["hecke-tower", "fock-window", "weyl-characters"]},
}


# ---------------------------------------------------------------------------
# counters computed from a call's arguments and result

def _count_tableaux(tr, args, kwargs, result):
    tr.counters["characters.tableaux"] += sum(result.terms.values())
    return result


def _count_crystal_op(tr, args, kwargs, result):
    tr.counters["crystal.ops"] += 1
    return result


def _count_graph(tr, args, kwargs, result):
    tr.counters["crystal.graph_vertices"] += len(result.vertices)
    tr.counters["crystal.graph_edges"] += len(result.edges)
    return result


def _count_basis_action(tr, args, kwargs, result):
    tr.counters["fock.basis_actions"] += 1
    return result


def _inside_verifier(tr):
    return bool(tr.stack) and tr.name_of(tr.stack[-1]) == "fock.check_kac_moody_relations"


def _count_explicit_labels(tr, args, kwargs, result):
    labels = kwargs.get("labels")
    if labels is not None:
        tr.counters["fock.labels"] += len(labels)
    return result


def _count_window_labels(tr, args, kwargs, result):
    if _inside_verifier(tr):
        tr.counters["fock.labels"] += len(result)
    return result


def _count_partition_labels(tr, args, kwargs, result):
    if not _inside_verifier(tr):
        return result

    def counted(items):
        for item in items:
            tr.counters["fock.labels"] += 1
            yield item
    return counted(result)


def _count_matmul(tr, args, kwargs, result):
    a, b = args[0], args[1]
    tr.counters["hecke.matmuls"] += 1
    tr.counters["hecke.matmul_flops"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]
    return result


def _count_operator(tr, args, kwargs, result):
    tr.counters["hecke.operator_nnz"] += int((result != 0).sum())
    tr.counters["hecke.operator_entries"] += result.size
    return result


HOOKS = {
    "characters.weyl_character": _count_tableaux,
    "crystal.crystal_f": _count_crystal_op,
    "crystal.crystal_e": _count_crystal_op,
    "crystal.partition_crystal_f": _count_crystal_op,
    "crystal.partition_crystal_e": _count_crystal_op,
    "crystal.crystal_graph": _count_graph,
    "fock._wedge_basis": _count_basis_action,
    "fock._partition_basis": _count_basis_action,
    "fock.check_kac_moody_relations": _count_explicit_labels,
    "fock.wedge_window_labels": _count_window_labels,
    "weights.partitions_up_to": _count_partition_labels,
    "hecke.mat_mul": _count_matmul,
    "hecke.build_Xi": _count_operator,
    "hecke.build_Ti": _count_operator,
}


class Tracer:
    """Spans and counters for calls into the modrep layers."""

    def __init__(self):
        self.names = []          # span name table; layer is the text before the dot
        self.name_id = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # index of the enclosing span, or -1
        self.span_task = array("q")
        self.stack = []           # indices of the open spans
        self.layer_stack = []     # their layers
        self.counters = Counter()
        self.max_dim = 0
        self.task = -1
        self.active = False
        self._patches = []        # (owner, attribute, original)

    def name_of(self, idx):
        return self.names[self.span_name[idx]]

    def _name(self, qual):
        if qual not in self.name_id:
            self.name_id[qual] = len(self.names)
            self.names.append(qual)
        return self.name_id[qual]

    # -- installing and removing the wrappers --------------------------------

    def install(self):
        layer_of = {}
        for layer in LAYERS:
            module = importlib.import_module(f"modrep.{layer}")
            for name, obj in vars(module).items():
                qual = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not name.startswith("_") or qual in PRIVATE_COUNTED)):
                    layer_of[obj] = (layer, qual)
        wrappers = {fn: self._wrap(fn, layer, qual) for fn, (layer, qual) in layer_of.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "modrep" and not mod_name.startswith("modrep."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])
        fc = sys.modules["modrep.characters"].FormalCharacter
        mul = self._wrap_product(fc.__mul__)
        self._patch(fc, "__mul__", mul)
        self._patch(fc, "__rmul__", mul)
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _open(self, code, layer):
        idx = len(self.start)
        self.span_name.append(code)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.span_task.append(self.task)
        self.end.append(0.0)
        self.stack.append(idx)
        self.layer_stack.append(layer)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.layer_stack.pop()

    def _wrap(self, fn, layer, qual):
        tr, layers = self, self.layer_stack
        code = self._name(qual)
        timed = qual in TIMED
        hook = HOOKS.get(qual)
        is_hecke = layer == "hecke"

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            if timed or not layers or layers[-1] != layer:
                idx = tr._open(code, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tr._close(idx)
            else:
                result = fn(*args, **kwargs)
            if is_hecke and getattr(result, "ndim", 0) == 2:
                tr.max_dim = max(tr.max_dim, result.shape[0])
            if hook is not None:
                result = hook(tr, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _wrap_product(self, mul):
        tr = self

        def product(a, b):
            if tr.active and type(b) is type(a):
                tr.counters["characters.product_terms"] += len(a.terms) * len(b.terms)
            return mul(a, b)

        product.__wrapped__ = mul
        return product

    # -- spans opened by the benchmark itself --------------------------------

    def begin_task(self, task_id, kind):
        self.task = task_id
        self._open(self._name(f"harness.{kind}"), "harness")

    def end_task(self):
        self._close(self.stack[-1])
        self.task = -1

    # -- results --------------------------------------------------------------

    def totals(self):
        """Per-layer self time and calls, the TIMED inclusive times and the
        counters, summed over every recorded span."""
        start, end, parent = self.start, self.end, self.parent
        layer_of = [name.split(".", 1)[0] for name in self.names]
        layer = [layer_of[code] for code in self.span_name]
        covered = [0.0] * len(start)
        for i, par in enumerate(parent):
            if par >= 0:
                covered[par] += end[i] - start[i]
        timed = {self.name_id[q]: key for q, key in TIMED.items() if q in self.name_id}
        out = Counter()
        for i, par in enumerate(parent):
            dur = end[i] - start[i]
            out[f"{layer[i]}.self_s"] += dur - covered[i]
            if par < 0 or layer[par] != layer[i]:
                out[f"{layer[i]}.calls"] += 1
            key = timed.get(self.span_name[i])
            if key is not None:
                out[key] += dur
        out.update(self.counters)
        out["trace.spans"] = len(start)
        return out

    def metrics(self, rounds, overhead_frac):
        """Every PER_LAYER metric: sums are divided by the number of traced
        rounds; hecke.max_dim is the largest matrix built, the nnz fraction is
        over all X_i and T_i built."""
        tot = self.totals()
        values = {name: tot[name] / rounds for name, _, _ in PER_LAYER}
        values["hecke.max_dim"] = self.max_dim
        entries = tot["hecke.operator_entries"]
        values["hecke.operator_nnz_frac"] = tot["hecke.operator_nnz"] / entries if entries else 0.0
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def write_spans(self, path):
        """Write the spans as gzipped tab-separated lines (name, layer, start,
        end, parent, task), times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tlayer\tstart\tend\tparent\ttask\n")
            for i, code in enumerate(self.span_name):
                name = self.names[code]
                fh.write(f"{name}\t{name.split('.', 1)[0]}\t{self.start[i] - t0:.7f}\t"
                         f"{self.end[i] - t0:.7f}\t{self.parent[i]}\t{self.span_task[i]}\n")
