#!/usr/bin/env python3
"""The modrep benchmark: closed-loop workloads over the package in ``src/``.

Run from the repository root:

    python3 bench/run.py --workload hecke-tower --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60

``--workload all`` runs every workload, registered or not, in its own fresh
process, one after the other, and prints all their metrics. A single workload runs in this
process: a single client calls the package in a closed loop (the next task
starts when the previous one returns), round after round, until the rounds
have taken ``--seconds`` after a short warm-up. Every answer is checked after
its round. ``setup_s`` is the median of this process's own set-up and one
fresh-interpreter set-up probe after each round.

``--trace 0`` reports the END_TO_END metrics: set-up time, the mean wall
time of a round, the p50/p90/p99 latencies of all tasks timed in the run
(printed with their sample counts) and the peak RSS of this process; the
share of failed tasks is printed beside them. ``--trace 1`` spends the first third of the time untraced and the
rest with the tracer of ``tracing.py`` installed, and reports the per-layer
metrics and the tracing overhead (traced over untraced mean round time,
minus one).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run,
with the environment and every task latency beside its size class, goes to
``.bench_out/`` in the repository root, and a traced run also writes its
spans there.

OpenBLAS is pinned to one thread, and the count is recorded rather than
left to the environment. The dense Hecke products run about 1.4 times faster
on two threads, but on a host whose cores are shared with other tenants a
second thread waits on whichever core is busy elsewhere, and the two-thread
timings of hecke-tower spread about twice as wide from run to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent

BLAS_THREADS = 1
PROBE_TIMEOUT_S = 60

# end-to-end metrics: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("task_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# the workloads registered in BENCHMARK.json
WORKLOAD_NAMES = ("hecke-tower", "cli-queries")
# runnable but not registered: on a shared 2-vCPU host their pure-Python
# timings drifted by more than the 0.25 bound across ten runs
UNREGISTERED = ("fock-window", "weyl-characters")


def use_source_tree():
    """Make ``import modrep`` load this checkout's ``src/modrep``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(BENCH) not in sys.path:
        sys.path.insert(1, str(BENCH))


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def set_up(workload, seed):
    """Import the package and draw round 0: the work before the first task.
    Returns (seconds, workload object, round 0)."""
    t0 = time.perf_counter()
    use_source_tree()
    import workloads
    wl = workloads.WORKLOADS[workload]
    first = wl.round(seed, 0)
    return time.perf_counter() - t0, wl, first


def probe_set_up(workload, seed):
    """Set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# the closed loop

class Loop:
    """Runs rounds of one workload and keeps latencies and failures."""

    def __init__(self, wl, seed, workloads_module):
        self.wl, self.seed, self.w = wl, seed, workloads_module
        self.attempted = 0
        self.failures = []
        self.tracer = None
        self.sizes = []

    def run_tasks(self, tasks, first_id=0):
        """Run tasks back to back, then check them. Returns (wall, latencies)."""
        runners, tracer = self.w.RUNNERS, self.tracer
        clock = time.perf_counter
        results, latencies = [], []
        start = clock()
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.begin_task(first_id + i, task.kind)
            t0 = clock()
            try:
                results.append((runners[task.kind](*task.args), None))
            except Exception as exc:  # a failed task is counted, the loop goes on
                results.append((None, f"{type(exc).__name__}: {exc}"))
            latencies.append(clock() - t0)
            if tracer is not None:
                tracer.end_task()
        wall = clock() - start
        if tracer is not None:
            tracer.active = False   # checks may call the package; keep them out
        for task, (result, error) in zip(tasks, results):
            self.attempted += 1
            if tracer is not None and task.kind == "cli" and error is None:
                tracer.counters["cli.stdout_bytes"] += len(result[1].encode())
            if error is None:
                try:
                    if self.w.check(task, result):
                        continue
                    error = f"wrong answer: {str(result)[:300]}"
                except Exception as exc:  # a check that cannot read the answer fails it
                    error = f"check raised {type(exc).__name__}: {exc}"
            self.failures.append({"kind": task.kind, "size": task.size,
                                  "args": str(task.args)[:300], "error": error})
        if tracer is not None:
            tracer.active = True
        return wall, latencies

    def run_rounds(self, first_index, first_round, budget, between=None):
        """Rounds from first_index while their walls add up to about budget
        seconds: no round starts that would end more than half a round past
        it (at least one round runs). between() runs after each round,
        untimed. Returns (round walls, task latencies of each round, next
        round index)."""
        walls, latencies = [], []
        index, tasks = first_index, first_round
        while True:
            if tasks is None:
                tasks = self.wl.round(self.seed, index)
            wall, lat = self.run_tasks(tasks, first_id=index * 100000)
            walls.append(wall)
            latencies.append(lat)
            self.sizes.append([t.size for t in tasks])
            index, tasks = index + 1, None
            if between is not None:
                between()
            if sum(walls) + walls[-1] / 2 >= budget:
                return walls, latencies, index


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pooled_percentile(rounds, q):
    """The q-th percentile of the latencies of all tasks of all rounds.

    On a host whose cores are shared with other tenants the speed switches
    between a fast and a slow state (up to 1.5x apart) that each last tens of
    seconds. A median over rounds then jumps between the two states whenever
    about half the rounds fall in each; the pooled percentile, like the mean
    round time behind wall_s, moves smoothly with the share of slow time."""
    return percentile([lat for r in rounds for lat in r], q)


def environment(args):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = None
    if (ROOT / ".git").exists():   # a plain source checkout has no revision
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "modrep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(np),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _openblas_threads(np):
    """The thread count OpenBLAS itself reports, where its library is found."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_workload(args):
    own_setup, wl, first = set_up(args.workload, args.seed)
    setup_samples = [own_setup]
    import workloads
    import tracing

    def probe():
        setup_samples.append(probe_set_up(args.workload, args.seed))

    loop = Loop(wl, args.seed, workloads)
    loop.run_tasks(workloads.warmup_tasks(first), first_id=-100000)
    record = {"env": environment(args)}

    if not args.trace:
        # set-up is sampled between rounds, so that its median spans the run
        walls, rounds, _ = loop.run_rounds(0, first, args.seconds, between=probe)
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.fmean(walls),
            "task_p50_ms": 1000 * pooled_percentile(rounds, 50),
            "task_p90_ms": 1000 * pooled_percentile(rounds, 90),
            "task_p99_ms": 1000 * pooled_percentile(rounds, 99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        tasks = f"{sum(map(len, rounds))} tasks in {len(rounds)} rounds"
        samples = {"setup_s": len(setup_samples), "wall_s": len(walls), "task_p50_ms": tasks,
                   "task_p90_ms": tasks, "task_p99_ms": tasks, "peak_rss_mb": 1}
        record.update(round_walls_s=walls, setup_samples_s=setup_samples,
                      task_latencies_s=[list(zip(sz, lat)) for sz, lat in zip(loop.sizes, rounds)])
    else:
        plain, _, index = loop.run_rounds(0, first, args.seconds / 3)
        tracer = tracing.Tracer()
        loop.tracer = tracer
        tracer.install()
        try:
            traced, _, _ = loop.run_rounds(index, None, args.seconds * 2 / 3)
        finally:
            tracer.uninstall()
        overhead = statistics.fmean(traced) / statistics.fmean(plain) - 1
        metrics = tracer.metrics(len(traced), overhead)
        samples = {name: len(traced) for name in metrics}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(spans_path)
        record.update(untraced_round_walls_s=plain, traced_round_walls_s=traced,
                      spans_file=str(spans_path.relative_to(ROOT)),
                      layer_map=tracing.LAYER_MAP)

    failed = len(loop.failures)
    record.update(metrics=metrics, samples=samples, attempted=loop.attempted,
                  failed=failed, failures=loop.failures[:20])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas threads {BLAS_THREADS}  source {record['env']['source_sha256'][:12]}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s} (n={samples[name]})")
    if args.trace:
        layers = {layer: metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS}
        print(f"  largest self time: {max(layers, key=layers.get)}")
    print(f"  failed_frac {failed / loop.attempted:.6g} ({failed} of {loop.attempted})")
    for failure in loop.failures[:5]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": loop.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in a fresh process, one at a time."""
    status = 0
    for name in WORKLOAD_NAMES + UNREGISTERED:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + UNREGISTERED + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "modrep" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'modrep'}; run from a modrep checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(args.workload, args.seed)[0]}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
