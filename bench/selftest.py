"""Self-tests of the benchmark harness.

Run from the repository root (they are not part of the package's suite):

    python3 -m pytest bench/selftest.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run

run.use_source_tree()

import modrep  # noqa: E402
from modrep import characters, cli, crystal, fock, hecke  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import RUNNERS, WORKLOADS, Task, check  # noqa: E402


def _traced(fn):
    """Run fn with a fresh tracer installed; return (result, tracer)."""
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.begin_task(0, "selftest")
        result = fn()
        tr.end_task()
    finally:
        tr.uninstall()
    return result, tr


def _function_bindings():
    out = {}
    for name, module in sys.modules.items():
        if name == "modrep" or name.startswith("modrep."):
            for attr, obj in vars(module).items():
                if callable(obj):
                    out[(name, attr)] = obj
    fc = characters.FormalCharacter
    out[("FormalCharacter", "__mul__")] = fc.__dict__["__mul__"]
    out[("FormalCharacter", "__rmul__")] = fc.__dict__["__rmul__"]
    return out


# ---------------------------------------------------------------------------
# generator

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_tasks_and_every_seed_same_profile(name):
    wl = WORKLOADS[name]
    first = wl.round(11, 0)
    assert first == wl.round(11, 0)
    for seed, index in ((12, 0), (11, 3)):
        other = wl.round(seed, index)
        assert Counter(t.size for t in other) == Counter(t.size for t in first)


def test_seeds_change_the_inputs():
    for name in ("fock-window", "weyl-characters", "cli-queries"):
        assert WORKLOADS[name].round(1, 0) != WORKLOADS[name].round(2, 0)


@pytest.mark.parametrize("seed", (1, 2))
def test_every_generated_cli_query_succeeds(seed):
    for task in WORKLOADS["cli-queries"].round(seed, 0):
        result = RUNNERS["cli"](*task.args)
        assert result[0] == 0 and check(task, result), (task, result)


@pytest.mark.parametrize("name", ("hecke-tower", "fock-window", "weyl-characters"))
def test_small_sweep_tasks_hold(name):
    for task in WORKLOADS[name].round(5, 0):
        if task.size.startswith("S:"):
            assert check(task, RUNNERS[task.kind](*task.args)), task


def test_warmup_covers_every_code_path_once():
    for name, wl in WORKLOADS.items():
        tasks = wl.round(1, 0)
        warm = workloads.warmup_tasks(tasks)
        paths = {(t.kind, t.args[0] if t.kind == "cli" else None) for t in tasks}
        assert len(warm) == len(paths)
        assert {(t.kind, t.args[0] if t.kind == "cli" else None) for t in warm} == paths
        if name != "cli-queries":   # classify-component only comes in one size
            assert not any(t.size.startswith("L:") for t in warm)


# ---------------------------------------------------------------------------
# answer checks

def _cli_task(*argv):
    return workloads._cli("S:test", *argv)


def test_checks_reject_wrong_answers():
    assert not check(Task("hecke-relations", "S", (2, 2, 1, 3)), ["X1 X2 != X2 X1"])
    assert not check(Task("hecke-eigendims", "S", (2, 1, 3)),
                     ({0: 1, 1: 2, 2: 1}, {0: 1, 1: 3, 2: 0}))
    assert not check(Task("fock-verify", "M", (fock.WEDGE, 3, 1, 2, None, None)),
                     [{"relation": "x", "residues": [0], "label": [1]}])
    levels = Task("fock-levels", "S", (fock.PARTITION, 3, (2, 1)))
    right = RUNNERS["fock-levels"](*levels.args)
    assert check(levels, right)
    assert not check(levels, (right[0], {}))
    ch = Task("weyl-character", "S", ((2, 1, 0), 3))
    assert not check(ch, characters.weyl_character((2, 0, 0), 3))

    task = _cli_task("character", "--weight", "2,1,0", "--format", "json")
    code, out, err = RUNNERS["cli"](*task.args)
    assert check(task, (code, out, err))
    obj = json.loads(out)
    obj["dimension"] += 1
    assert not check(task, (code, json.dumps(obj), err))
    assert not check(task, (1, out, err))

    task = _cli_task("crystal-op", "--f", "--p", "3", "--alpha", "0", "--weight", "2,1,0",
                     "--format", "json")
    code, out, err = RUNNERS["cli"](*task.args)
    assert check(task, (code, out, err))
    obj = json.loads(out)
    obj["result"][0] += 1
    assert not check(task, (code, json.dumps(obj), err))

    task = _cli_task("classify-component", "--p", "3", "--max-size", "5", "--format", "json")
    code, out, err = RUNNERS["cli"](*task.args)
    obj = json.loads(out)
    obj["computed"] = obj["computed"][1:]
    assert not check(task, (code, json.dumps(obj), err))


def test_independent_formulas():
    for lam in ((2, 1, 0), (3, 3, 1, 0), (1, 0, -2), (4, 2, 2, 1, 0)):
        n = len(lam)
        assert workloads.hook_content_dim(lam, n) == characters.dimension(
            characters.weyl_character(lam, n))
    for p in (2, 3, 5):
        computed, predicted, _ = crystal.empty_component_classification(p, 9)
        assert workloads.gap_partition_count(p, 9) == len(computed) == len(predicted)


# ---------------------------------------------------------------------------
# tracer counters, pinned on tiny inputs

@pytest.mark.parametrize("n,window", ((1, 2), (2, 3), (3, 2)))
def test_wedge_labels_count(n, window):
    report, tr = _traced(lambda: fock.check_kac_moody_relations(fock.WEDGE, 3, n=n,
                                                                window=window))
    assert report == []
    assert tr.counters["fock.labels"] == math.comb(2 * window + 1, n)
    assert tr.counters["fock.basis_actions"] > 0


def test_partition_and_explicit_labels_count():
    _, tr = _traced(lambda: fock.check_kac_moody_relations(fock.PARTITION, 3, max_size=4))
    assert tr.counters["fock.labels"] == 1 + 1 + 2 + 3 + 5
    labels = [(2, 0), (1, -1), (3, 1)]
    _, tr = _traced(lambda: fock.check_kac_moody_relations(fock.WEDGE, 5, labels=labels))
    assert tr.counters["fock.labels"] == 3


@pytest.mark.parametrize("n,N,d", ((2, 2, 1), (3, 2, 0), (2, 3, 1)))
def test_hecke_max_dim_and_flops(n, N, d):
    report, tr = _traced(lambda: hecke.verify_hecke_relations(n, N, d, 3))
    assert report == []
    dim = n ** (N + d)
    assert tr.max_dim == dim
    assert tr.counters["hecke.matmul_flops"] == 2 * dim ** 3 * tr.counters["hecke.matmuls"]
    metrics = tr.metrics(1, 0.0)
    assert 0 < metrics["hecke.operator_nnz_frac"]["value"] < 1
    assert metrics["hecke.matmuls"]["value"] > 0


@pytest.mark.parametrize("lam", ((2, 1, 0), (3, 1, 1, 0), (0, -1, -3)))
def test_tableaux_count_is_the_dimension(lam):
    _, tr = _traced(lambda: characters.weyl_character(lam, len(lam)))
    assert tr.counters["characters.tableaux"] == workloads.hook_content_dim(lam, len(lam))


def test_product_terms_count():
    n = 3
    a, b = characters.weyl_character((1, 0, 0), n), characters.weyl_character((1, 1, 0), n)
    _, tr = _traced(lambda: a * b)
    assert tr.counters["characters.product_terms"] == len(a) * len(b)


@pytest.mark.parametrize("p,max_size", ((2, 8), (3, 7), (5, 6)))
def test_component_vertices_are_the_gap_count(p, max_size):
    (_, _, equal), tr = _traced(lambda: crystal.empty_component_classification(p, max_size))
    assert equal
    assert tr.counters["crystal.graph_vertices"] == workloads.gap_partition_count(p, max_size)
    assert tr.counters["crystal.ops"] > 0


def test_cross_layer_calls_open_spans_and_self_times_add_up():
    def query():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["signature", "--p", "5", "--alpha", "2",
                             "--weight", "18,16,15,15,12,7,7,5,0,-4"])
    code, tr = _traced(query)
    assert code == 0
    tot = tr.totals()
    assert tot["cli.calls"] == 1 and tot["crystal.calls"] >= 2
    # imported with `from .weights import ...` in crystal and cli: still counted
    assert tot["weights.calls"] >= 3
    roots = sum(tr.end[i] - tr.start[i] for i, par in enumerate(tr.parent) if par < 0)
    selfs = sum(v for k, v in tot.items() if k.endswith(".self_s"))
    assert selfs == pytest.approx(roots, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# traced against untraced

def test_trace_gives_same_answers_and_unwraps_everything():
    before = _function_bindings()
    tasks = []
    for name, wl in WORKLOADS.items():
        small = [t for t in wl.round(3, 0) if t.size.startswith("S:")]
        tasks += small[:60]

    def answers():
        return [RUNNERS[t.kind](*t.args) for t in tasks]

    plain = answers()
    tr = tracing.Tracer()
    tr.install()
    try:
        assert fock.require_dominant is not before[("modrep.fock", "require_dominant")]
        assert modrep.verify_pieri is not before[("modrep", "verify_pieri")]
        traced = answers()
    finally:
        tr.uninstall()
    assert traced == plain
    assert len(tr.start) > 0
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


# ---------------------------------------------------------------------------
# the command and BENCHMARK.json

def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [WORKLOADS[n].why
                                                     for n in run.WORKLOAD_NAMES]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "weyl-characters",
                           "--seed", "4", "--seconds", "1", "--trace", "0"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_layers_with_cli_dominant():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-queries",
                           "--seed", "4", "--seconds", "2", "--trace", "1"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert out["correct"]
    metrics = out["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == \
        [(n, u) for n, u, _ in tracing.PER_LAYER]
    layer_self = {layer: metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS}
    assert max(layer_self, key=layer_self.get) == "cli"
    assert metrics["cli.calls"]["value"] == 700
    assert metrics["cli.stdout_bytes"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hecke-tower",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
