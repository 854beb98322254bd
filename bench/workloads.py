"""Workload generators, task runners and answer checks for the modrep benchmark.

A workload is a single-client closed loop over rounds of tasks: the next task
starts only after the previous one returns. Round r of a run with seed s is
drawn from ``random.Random(f"{workload}:{s}:{r}")``. Every round has the same
size profile: the seed picks the order of the tasks and only those parameters
that leave a task's cost unchanged (a uniform shift of a weight, the centre of
a wedge window, residues, prime choices where the cost does not depend on p,
labels of a given size), so different seeds exercise the same mix of small
and large tasks.

The package sees only the generated inputs. Each task has a check that does
not reuse the code path it checks where a cheap independent route exists
(hook-content dimensions, gap-condition counts, the e/f term counts behind
h); otherwise it requires the package's own "holds" verdict.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass

from modrep import characters, cli, crystal, fock, hecke


@dataclass(frozen=True)
class Task:
    """One call into the package: ``kind`` selects the runner and the check,
    ``size`` is the seed-independent profile key, ``args`` the inputs."""
    kind: str
    size: str
    args: tuple


# ---------------------------------------------------------------------------
# small independent combinatorics used by the checks

def hook_content_dim(lam, n):
    """Dimension of the GL_n Weyl module of highest weight lam by the
    hook-content formula (lam dominant, entries possibly negative)."""
    shape = [x - lam[-1] for x in lam]
    num = den = 1
    for i, row in enumerate(shape):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for k in range(i + 1, len(shape)) if shape[k] > j)
            num *= n + j - i
            den *= arm + leg + 1
    return num // den


def _partitions(size, max_part):
    if size == 0:
        yield ()
        return
    for first in range(min(size, max_part), 0, -1):
        for rest in _partitions(size - first, first):
            yield (first,) + rest


def gap_partition_count(p, max_size):
    """Partitions of size <= max_size with every gap lam_i - lam_{i+1} < p
    (the last part counted against 0)."""
    return sum(1 for size in range(max_size + 1) for lam in _partitions(size, size)
               if all(a - b < p for a, b in zip(lam, lam[1:] + (0,))))


def addable_rows(lam):
    return {1} | {i + 1 for i in range(1, len(lam)) if lam[i - 1] > lam[i]}


def removable_rows(lam):
    return {len(lam)} | {i + 1 for i in range(len(lam) - 1) if lam[i] > lam[i + 1]}


def _one_box_apart(small, big):
    """Row (1-based) where big exceeds small by one box, else None."""
    n = max(len(small), len(big))
    a = list(small) + [0] * (n - len(small))
    b = list(big) + [0] * (n - len(big))
    diff = [y - x for x, y in zip(a, b)]
    if sorted(diff) != [0] * (n - 1) + [1]:
        return None
    return diff.index(1) + 1


# ---------------------------------------------------------------------------
# runners: each takes the task arguments and returns what the package returned.
# They look functions up on the module at call time, so that a tracer's
# wrappers, installed after this module is imported, are the ones called.

def _run_hecke_relations(n, N, d, p):
    return hecke.verify_hecke_relations(n, N, d, p)


def _run_hecke_flip(n, p):
    return hecke.verify_flip_identity(n, p)


def _run_hecke_coproduct(n, factors, p):
    return hecke.verify_casimir_coproduct(1, range(2, factors + 1),
                                          hecke.TensorSpace(n, factors), p)


def _run_hecke_eigendims(n, d, p):
    dims = hecke.generalized_eigenspaces(hecke.x_on_module_tower(n, d, p), p)
    return dims, hecke.predicted_F_alpha_dims(n, d, p)


def _run_fock_verify(model, p, n, window, labels, max_size):
    if model == fock.PARTITION:
        return fock.check_kac_moody_relations(fock.PARTITION, p, max_size=max_size)
    if labels is None:
        return fock.check_kac_moody_relations(fock.WEDGE, p, n=n, window=window)
    return fock.check_kac_moody_relations(fock.WEDGE, p, labels=labels)


def _run_fock_levels(model, p, label):
    apply = fock.wedge_apply if model == fock.WEDGE else fock.fock_apply
    v = fock.FockVector.basis(model, label)
    total = fock.FockVector(model)
    per_alpha = []
    for a in range(p):
        e = apply("e", a, label, p)
        f = apply("f", a, label, p)
        h = fock.h_apply(a, v, p)
        total = total + h
        per_alpha.append((len(e.terms), len(f.terms), h.terms))
    return per_alpha, total.terms


def _run_fock_groth(lam, p):
    return [(fock.groth_f(a, lam, p).terms, fock.groth_e(a, lam, p).terms)
            for a in range(p)]


def _run_weyl_formula(lam, n):
    return characters.verify_weyl_formula(lam, n)


def _run_weyl_pieri(lam, n):
    return characters.verify_pieri(lam, n)


def _run_weyl_character(lam, n):
    return characters.weyl_character(lam, n)


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


RUNNERS = {
    "hecke-relations": _run_hecke_relations,
    "hecke-flip": _run_hecke_flip,
    "hecke-coproduct": _run_hecke_coproduct,
    "hecke-eigendims": _run_hecke_eigendims,
    "fock-verify": _run_fock_verify,
    "fock-levels": _run_fock_levels,
    "fock-groth": _run_fock_groth,
    "weyl-formula": _run_weyl_formula,
    "weyl-pieri": _run_weyl_pieri,
    "weyl-character": _run_weyl_character,
    "cli": _run_cli,
}


# ---------------------------------------------------------------------------
# checks: (args, result) -> True when the answer is right

def _check_eigendims(args, result):
    n, d, _ = args
    dims, pred = result
    return dims == pred and sum(dims.values()) == n ** (d + 1)


def _check_fock_levels(args, result):
    model, _, label = args
    per_alpha, total = result
    for n_e, n_f, h in per_alpha:
        # h_a = e_a f_a - f_a e_a acts on a basis label by (#f terms - #e terms)
        want = {label: n_f - n_e} if n_f != n_e else {}
        if h != want:
            return False
    # the level: sum of h is 0 on the wedge model and 1 on partitions
    return total == ({} if model == fock.WEDGE else {label: 1})


def _check_fock_groth(args, result):
    lam, _ = args
    f_terms = sum(len(f) for f, _ in result)
    e_terms = sum(len(e) for _, e in result)
    return f_terms == len(addable_rows(lam)) and e_terms == len(removable_rows(lam))


def _check_weyl_character(args, result):
    lam, n = args
    total = sum(lam)
    return (sum(result.terms.values()) == hook_content_dim(lam, n)
            and result.terms.get(tuple(lam)) == 1
            and all(sum(w) == total for w in result.terms))


CHECKS = {
    "hecke-relations": lambda args, r: r == [],
    "hecke-flip": lambda args, r: r is True,
    "hecke-coproduct": lambda args, r: r is True,
    "hecke-eigendims": _check_eigendims,
    "fock-verify": lambda args, r: r == [],
    "fock-levels": _check_fock_levels,
    "fock-groth": _check_fock_groth,
    "weyl-formula": lambda args, r: r is True,
    "weyl-pieri": lambda args, r: r is True,
    "weyl-character": _check_weyl_character,
    "cli": lambda args, r: _check_cli(args, r),
}


def check(task, result):
    return CHECKS[task.kind](task.args, result)


def _opt(argv, flag):
    """Value of `--flag value` or `--flag=value` in argv, else None."""
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    return None


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _parts(text):
    """A partition argument: '0' and trailing zeros stand for no rows."""
    return tuple(x for x in _ints(text) if x)


def _check_cli(argv, result):
    code, out, _ = result
    if code != 0:
        return False
    obj = json.loads(out)
    return CLI_CHECKS[argv[0]](argv, obj)


def _cli_signature(argv, obj):
    raw = [(e["row"], e["sign"]) for e in obj["raw"]]
    red = [(e["row"], e["sign"]) for e in obj["reduced"]]
    signs = "".join(s for _, s in red)
    balance = lambda sig: sum(1 if s == "+" else -1 for _, s in sig)
    it = iter(raw)
    return (all(x in it for x in red)            # reduced is a subsequence of raw
            and signs == "+" * signs.count("+") + "-" * signs.count("-")
            and balance(raw) == balance(red))


def _cli_crystal_op(argv, obj):
    p, alpha = int(_opt(argv, "--p")), int(_opt(argv, "--alpha"))
    partition = _opt(argv, "--partition") is not None
    lam = _parts(_opt(argv, "--partition")) if partition else _ints(_opt(argv, "--weight"))
    raising = "--e" in argv
    result = obj["result"]
    if result is None:
        return obj["epsilon" if raising else "phi"] == 0
    result = tuple(result)
    small, big = (result, lam) if raising else (lam, result)
    row = _one_box_apart(small, big)
    if row is None or obj["epsilon" if raising else "phi"] == 0:
        return False
    # the moved box is (row, big[row - 1]) in both models
    if (big[row - 1] - row - alpha) % p:
        return False
    # the opposite operator undoes the move
    if partition:
        back = (crystal.partition_crystal_f if raising else crystal.partition_crystal_e)
    else:
        back = crystal.crystal_f if raising else crystal.crystal_e
    return back(result, alpha, p) == lam


def _cli_fock_apply(argv, obj):
    p, alpha = int(_opt(argv, "--p")), int(_opt(argv, "--alpha"))
    wedge = _opt(argv, "--model") == "wedge"
    label = _ints(_opt(argv, "--weight")) if wedge else _parts(_opt(argv, "--partition"))
    terms = {tuple(t["label"]): t["coeff"] for t in obj["result"]}
    if wedge:
        s = set(label)
        ups = [x for x in label if (x - alpha) % p == 0 and x + 1 not in s]
        downs = [x for x in label if (x - 1 - alpha) % p == 0 and x - 1 not in s]
        moved = lambda old, new: tuple(new if x == old else x for x in label)
        f = {moved(x, x + 1): 1 for x in ups}
        e = {moved(x, x - 1): 1 for x in downs}
    else:
        rows = len(label)
        lam = list(label)
        f, e = {}, {}
        for i in range(rows + 1):
            cur = lam[i] if i < rows else 0
            if (i == 0 or lam[i - 1] > cur) and (cur + 1 - (i + 1) - alpha) % p == 0:
                f[tuple(x for x in lam[:i] + [cur + 1] + lam[i + 1:] if x)] = 1
            if i < rows and (i + 1 == rows or lam[i] > lam[i + 1]) \
                    and (lam[i] - (i + 1) - alpha) % p == 0:
                e[tuple(x for x in lam[:i] + [lam[i] - 1] + lam[i + 1:] if x)] = 1
    if "--f" in argv:
        want = f
    elif "--e" in argv:
        want = e
    else:
        want = {label: len(f) - len(e)} if len(f) != len(e) else {}
    return terms == want


def _cli_branch(argv, obj):
    p = int(_opt(argv, "--p"))
    lam = _parts(_opt(argv, "--partition"))
    alphas = [e["alpha"] for e in obj]
    if len(set(alphas)) != len(alphas):
        return False
    for e in obj:
        row = _one_box_apart(tuple(e["partition"]), lam)
        if row is None or (lam[row - 1] - row - e["alpha"]) % p:
            return False
    return True


def _cli_groth_check(argv, obj):
    lam = _ints(_opt(argv, "--weight"))
    f_terms = e_terms = 0
    for row in obj["checks"]:
        for t in row["terms"]:
            w = tuple(t["weight"])
            if tuple(x - k for k, x in enumerate(w)) != tuple(t["label"]):
                return False
            if row["side"] == "f":
                f_terms += 1
                ok = _one_box_apart(lam, w) is not None
            else:
                e_terms += 1
                ok = _one_box_apart(w, lam) is not None
            if not ok or t["coeff"] != 1:
                return False
    if "--alpha" in argv:
        return True
    return f_terms == len(addable_rows(lam)) and e_terms == len(removable_rows(lam))


def _cli_character(argv, obj):
    lam = _ints(_opt(argv, "--weight"))
    ok = (obj["dimension"] == hook_content_dim(lam, len(lam))
          and sum(t["mult"] for t in obj["character"]) == obj["dimension"])
    if "--verify" in argv:
        ok = ok and all(obj["verified"].values())
    return ok


def _cli_eigendims(argv, obj):
    n, d = int(_opt(argv, "--n")), int(_opt(argv, "--d"))
    return obj["match"] is True and sum(obj["computed"].values()) == n ** (d + 1)


def _cli_crystal_graph(argv, obj):
    p = int(_opt(argv, "--p"))
    partition = _opt(argv, "--partition") is not None
    seed = _parts(_opt(argv, "--partition")) if partition else _ints(_opt(argv, "--weight"))
    vertices = {tuple(v) for v in obj["vertices"]}
    if seed not in vertices or not {tuple(v) for v in obj["singular"]} <= vertices:
        return False
    for e in obj["edges"]:
        s, t = tuple(e["source"]), tuple(e["target"])
        row = _one_box_apart(s, t)
        if s not in vertices or t not in vertices or row is None:
            return False
        if (t[row - 1] - row - e["alpha"]) % p:
            return False
    return True


def _cli_classify(argv, obj):
    p, max_size = int(_opt(argv, "--p")), int(_opt(argv, "--max-size"))
    count = gap_partition_count(p, max_size)
    return (obj["match"] is True and obj["singular"] == [[]]
            and len(obj["computed"]) == count == len(obj["predicted"]))


CLI_CHECKS = {
    "signature": _cli_signature,
    "crystal-op": _cli_crystal_op,
    "crystal-graph": _cli_crystal_graph,
    "character": _cli_character,
    "pieri": lambda argv, obj: obj["holds"] is True,
    "fock-apply": _cli_fock_apply,
    "fock-relations": lambda argv, obj: obj == [],
    "groth-check": _cli_groth_check,
    "hecke-verify": lambda argv, obj: obj == [],
    "eigendims": _cli_eigendims,
    "classify-component": _cli_classify,
    "branch": _cli_branch,
}


# ---------------------------------------------------------------------------
# input generators

def _fmt(t):
    return ",".join(str(x) for x in t) if t else "0"


def _partition(rng, size, max_rows=None):
    """A random partition of exactly `size` with at most max_rows rows."""
    while True:
        parts, rem = [], size
        while rem:
            part = rng.randint(1, min(rem, parts[-1]) if parts else rem)
            parts.append(part)
            rem -= part
        if max_rows is None or len(parts) <= max_rows:
            return tuple(parts)


def _dominant(rng, n, lo, hi):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True))


def _wedge_label(rng, n, lo, hi):
    return tuple(sorted(rng.sample(range(lo, hi + 1), n), reverse=True))


def _gap_partition(rng, p, rows):
    """A nonempty partition whose gaps are all below p (valid for `branch`)."""
    parts = [rng.randint(1, p - 1)]
    for _ in range(rows - 1):
        parts.append(parts[-1] + rng.randint(0, p - 1))
    return tuple(reversed(parts))


def _shifted(shape, n, shift):
    return tuple(x + shift for x in tuple(shape) + (0,) * (n - len(shape)))


# Each sweep round is laid out by cost rank so that the p99, p90 and p50
# ranks of the task latencies fall in the middle of a block of tasks of
# nearly equal cost ("plateau"), not on a jump between two sizes: with
# per-task timing noise of 10-30% on a shared machine, a percentile taken on a
# jump swings by the size of the jump. The cost estimates in the comments are
# single-task timings at the seed commit, ms.

def _hecke_round(rng):
    """50 tasks. By rank from the most costly: p99 between the two dim-729
    tasks (ranks 1 and 2), p90 on the 6th, the middle of five identical
    dim-256 relation suites (ranks 4-8), p50 on the 25th and 26th, the middle
    of ten identical dim-16 relation suites (ranks 21-30)."""
    # relation suites cost the same for p = 3 and 5; eigendims and coproduct
    # checks do not, so their p is part of the size
    rel = lambda cls, n, N, d: Task("hecke-relations", f"{cls}:rel:{n},{N},{d}",
                                    (n, N, d, rng.choice((3, 5))))
    cop = lambda cls, n, k, p: Task("hecke-coproduct", f"{cls}:cop:{n},{k},{p}", (n, k, p))
    eig = lambda cls, n, d, p: Task("hecke-eigendims", f"{cls}:eig:{n},{d},{p}", (n, d, p))
    flip = lambda n, p: Task("hecke-flip", f"S:flip:{n},{p}", (n, p))
    return [
        eig("L", 3, 5, 3), rel("L", 3, 3, 3),                     # p99: 2140, 1880
        cop("M", 4, 4, 5),                                        # 237
        *(rel("M", 4, 3, 1) for _ in range(5)),                   # p90: 228
        eig("M", 4, 3, 5), eig("M", 3, 4, 5), rel("M", 3, 3, 2),  # 200, 188, 138
        cop("M", 3, 5, 3), rel("M", 3, 2, 3),                     # 124, 80
        eig("S", 3, 3, 5), cop("S", 3, 4, 3), eig("S", 4, 2, 5),  # 24, 17, 16
        rel("S", 3, 3, 1), cop("S", 4, 3, 5), rel("S", 4, 2, 1),  # 16, 15, 13
        rel("S", 3, 2, 2),                                        # 12
        *(rel("S", 2, 4, 1) for _ in range(10)),                  # p50: 5.2
        eig("S", 3, 2, 5), eig("S", 2, 4, 3), cop("S", 3, 3, 3),  # 4.6, 4.4, 4.1
        rel("S", 2, 3, 2), eig("S", 3, 2, 3), cop("S", 4, 2, 5),  # 4.0, 3.9, 3.8
        cop("S", 2, 5, 3), rel("S", 3, 2, 1), eig("S", 4, 1, 5),  # 3.7, 3.2, 3.1
        eig("S", 2, 3, 5), rel("S", 2, 2, 3), eig("S", 4, 1, 3),  # 2.8, 2.4, 2.3
        rel("S", 2, 3, 1), rel("S", 4, 2, 0), eig("S", 2, 2, 5),  # 0.6 .. 1.8
        flip(4, 5), cop("S", 3, 2, 3), cop("S", 2, 4, 5),
        rel("S", 2, 2, 1), flip(3, 3),
    ]


def _wedge_window(n, window, centre):
    vals = range(centre + window, centre - window - 1, -1)
    return tuple(itertools.combinations(vals, n))


def _fock_round(rng):
    """100 tasks: p99 on the largest wedge verifier, p90 on mid-size
    verifiers, p50 on single-label level sums."""
    def wedge(cls, n, p, w):
        # a shifted window costs the same as a centred one: residues are only
        # relabelled; it goes through the verifier's explicit-label path
        labels = _wedge_window(n, w, rng.randint(-7, 7))
        return Task("fock-verify", f"{cls}:wedge:{n},{p},{w}", (fock.WEDGE, p, n, w, labels, None))

    def part(cls, p, size):
        return Task("fock-verify", f"{cls}:partition:{p},{size}",
                    (fock.PARTITION, p, None, None, None, size))

    def levels(n, p):
        label = _wedge_label(rng, n, -9, 9)
        return Task("fock-levels", f"S:wedge:{n},{p}", (fock.WEDGE, p, label))

    def part_levels(p):
        label = _partition(rng, rng.randint(1, 12))
        return Task("fock-levels", f"S:partition:{p}", (fock.PARTITION, p, label))

    def groth(n, p):
        return Task("fock-groth", f"S:groth:{n},{p}", (_dominant(rng, n, -6, 6), p))

    # the window API exactly as the CLI calls it (centre 0)
    window = Task("fock-verify", "L:wedge:3,5,13", (fock.WEDGE, 5, 3, 13, None, None))
    return [
        window, window,                                              # 1100
        wedge("M", 2, 7, 13), part("M", 5, 12), wedge("M", 3, 3, 7),  # 152, 120, 92
        part("M", 3, 12), part("M", 3, 12), part("M", 7, 10),       # p90: 80, 80, 86
        part("M", 7, 10), *(wedge("M", 4, 3, 5) for _ in range(4)),  # p90: 86, 82
        wedge("M", 3, 3, 5), wedge("M", 2, 3, 9), part("M", 5, 8),   # 32, 30, 29
        part("M", 3, 8), wedge("M", 1, 7, 13), wedge("M", 2, 3, 5),  # 17, 11, 10
        wedge("M", 1, 5, 9),                                         # 5
        *(part_levels(7) for _ in range(8)),                         # 0.41
        *(part_levels(5) for _ in range(6)),                         # 0.21
        *(groth(n, 7) for n in (1, 2, 3, 4, 1)),                     # 0.14 .. 0.22
        *(levels(n, 5) for n in (3, 4) for _ in range(10)),          # p50: 0.09, 0.1
        *(levels(1 + k % 4, 3) for k in range(21)),                  # 0.04 .. 0.08
        *(levels(1 + k % 2, 5) for k in range(12)),                  # 0.06, 0.08
        *(groth(1 + k % 4, 3) for k in range(8)),                    # 0.08 .. 0.12
    ]


def _weyl_round(rng):
    """100 tasks: p99 on n = 6 Weyl formula checks, p90 on n = 6 Pieri and
    formula checks near 100 ms, p50 on n = 4 checks near 1.2 ms."""
    # only shifts <= 0 keep the cost: a positive last entry enlarges the
    # tableau shape that the character is enumerated on
    def task(cls, kind, n, shape):
        return Task(kind, f"{cls}:{kind}:{n}:{_fmt(shape)}",
                    (_shifted(shape, n, rng.randint(-3, 0)), n))

    def drawn(cls, kind, n, sizes):
        shape = _partition(rng, rng.choice(sizes), max_rows=n)
        return Task(kind, f"{cls}:{kind}:{n}:{sizes[0]}..{sizes[-1]}",
                    (_shifted(shape, n, rng.randint(-3, 0)), n))

    W, P, C = "weyl-formula", "weyl-pieri", "weyl-character"
    return [
        task("L", W, 6, (6,)), task("L", W, 6, (4, 2)),               # 400, 380
        task("M", W, 7, (2,)), task("M", W, 6, (4, 1)),               # 266, 203
        task("M", W, 7, (1, 1)), task("M", W, 6, (3, 2)),             # 191, 183
        task("M", P, 6, (5, 1)), task("M", P, 6, (4, 2)),             # p90: 145, 128
        task("M", P, 6, (4, 1, 1)), task("M", W, 6, (2, 2, 1)),       # p90: 110, 107
        task("M", W, 6, (4,)), task("M", W, 6, (3, 1)),               # p90: 106, 105
        task("M", P, 6, (3, 2, 1)), task("M", W, 7, (1,)),            # p90: 90, 85
        task("M", W, 6, (2, 2)), task("M", W, 6, (2, 1, 1)),          # 79, 68
        task("M", P, 6, (6,)), task("M", P, 6, (3, 3)),               # 63, 60
        task("M", W, 6, (3,)), task("M", W, 6, (2, 1)),               # 54, 46
        task("M", W, 5, (6,)), task("M", W, 5, (4, 2)),               # 37, 28
        task("M", W, 5, (5, 1)), task("M", P, 5, (5, 1)),             # 27, 27
        task("M", P, 5, (4, 2)),                                      # 26
        *(drawn("S", W, 5, (4, 5)) for _ in range(5)),                # 5 .. 17
        *(drawn("S", P, 5, (4,)) for _ in range(4)),                  # 6 .. 12
        *(drawn("S", C, n, (5, 6)) for n in (6, 7, 6, 7, 7)),         # 0.3 .. 5
        *(task("S", kind, 4, shape) for kind, shape in (              # p50: 1.0 .. 1.5
            (W, (4,)), (W, (3, 1)), (W, (3, 2)), (W, (3, 1, 1)), (W, (4, 1)),
            (P, (2, 2)), (P, (2, 1, 1)), (P, (3,)), (P, (2, 1)), (P, (4,)))
            for _ in range(2)),
        *(drawn("S", W, 3, (1, 2, 3, 4, 5, 6)) for _ in range(10)),  # 0.06 .. 0.3
        *(drawn("S", P, 3, (1, 2, 3, 4)) for _ in range(10)),        # 0.2 .. 0.7
        *(drawn("S", C, n, (1, 2, 3, 4)) for n in (3, 4, 5) for _ in range(4)),  # < 0.3
        *(drawn("S", W, 4, (1, 2, 3)) for _ in range(4)),             # 0.3 .. 0.7
        *(drawn("S", P, 4, (1, 2)) for _ in range(5)),                # 0.3 .. 0.9
    ]


def _cli(size, *argv):
    argv = [str(a) for a in argv]
    # joined as --weight=-1,-2: a separate value starting with '-' parses as a flag
    for flag in ("--weight", "--partition"):
        if flag in argv:
            i = argv.index(flag)
            argv[i:i + 2] = [f"{flag}={argv[i + 1]}"]
    return Task("cli", size, tuple(argv))


def _cli_round(rng):
    tasks = []
    p357 = lambda: rng.choice((3, 5, 7))
    for _ in range(97):
        p = p357()
        w = _dominant(rng, rng.randint(3, 14), -20, 20)
        tasks.append(_cli("S:signature", "signature", "--p", p, "--alpha",
                          rng.randrange(p), "--weight", _fmt(w), "--format", "json"))
    for k in range(120):
        p = rng.choice((2, 3, 5, 7))
        gen = ("--f", "--e")[k % 2]
        if k % 4 < 2:
            label = ("--weight", _fmt(_dominant(rng, rng.randint(2, 8), -6, 8)))
        else:
            label = ("--partition", _fmt(_partition(rng, rng.randint(0, 10))))
        tasks.append(_cli("S:crystal-op", "crystal-op", gen, "--p", p, "--alpha",
                          rng.randrange(p), *label, "--format", "json"))
    for k in range(110):
        p = p357()
        gen = ("--f", "--e", "--h")[k % 3]
        if k % 2:
            label = ("--model", "wedge", "--weight",
                     _fmt(_wedge_label(rng, rng.randint(1, 4), -8, 8)))
        else:
            label = ("--model", "partition", "--partition",
                     _fmt(_partition(rng, rng.randint(0, 10))))
        tasks.append(_cli("S:fock-apply", "fock-apply", *label, gen, "--p", p,
                          "--alpha", rng.randrange(p), "--format", "json"))
    for _ in range(80):
        p = rng.choice((2, 3, 5))
        tasks.append(_cli("S:branch", "branch", "--p", p, "--partition",
                          _fmt(_gap_partition(rng, p, rng.randint(1, 4))), "--format", "json"))
    for k in range(70):
        p = rng.choice((3, 5))
        alpha = ("--alpha", rng.randrange(p)) if k % 2 else ()
        tasks.append(_cli("S:groth-check", "groth-check", "--p", p, *alpha, "--weight",
                          _fmt(_dominant(rng, rng.randint(1, 4), -4, 4)), "--format", "json"))
    for k in range(80):
        n = rng.randint(2, 4) if k % 8 < 5 else rng.randint(2, 3)
        verify = ("--verify",) if k % 8 >= 5 else ()
        w = _shifted(_partition(rng, rng.randint(0, 4), max_rows=n), n, rng.randint(-2, 0))
        tasks.append(_cli("S:character", "character", "--weight", _fmt(w), *verify,
                          "--format", "json"))
    # a few milliseconds each: small sweeps through the CLI
    for _ in range(25):
        n = rng.randint(2, 3)
        w = _shifted(_partition(rng, rng.randint(0, 3), max_rows=n), n, rng.randint(-2, 0))
        tasks.append(_cli("M:pieri", "pieri", "--weight", _fmt(w), "--format", "json"))
    for _ in range(20):
        n, d = rng.choice(((2, 1), (2, 2), (3, 1)))
        tasks.append(_cli("M:eigendims", "eigendims", "--p", rng.choice((3, 5)), "--n", n,
                          "--d", d, "--format", "json"))
    for _ in range(20):
        n, N, d = rng.choice(((2, 2, 0), (2, 2, 1), (3, 2, 0)))
        tasks.append(_cli("M:hecke-verify", "hecke-verify", "--p", rng.choice((3, 5)),
                          "--n", n, "--N", N, "--d", d, "--format", "json"))
    for k in range(20):
        if k % 2:
            shape = ("--model", "wedge", "--n", rng.randint(1, 2), "--window", 2)
        else:
            shape = ("--model", "partition", "--max-size", 3)
        tasks.append(_cli("M:fock-relations", "fock-relations", *shape, "--p", 3,
                          "--format", "json"))
    for _ in range(20):
        tasks.append(_cli("M:crystal-graph", "crystal-graph", "--p", rng.choice((2, 3)),
                          "--partition", "0", "--max-steps", 3, "--format", "json"))
    # the tail: crystal graphs and component classification
    # p99 (the 8th largest of 700) falls in the middle of these 15, whose
    # costs climb in steps of 10-25% (ms at the seed commit in the comments).
    # Identical tasks would not do here: the host switches between a fast
    # and a slow state about 1.5x apart, so a percentile inside a block of
    # equal cost jumps by that factor whenever about half of the block ran
    # fast; a ladder spreads the two states into one smooth distribution.
    for p, max_size, count in ((3, 13, 2), (5, 11, 3), (3, 12, 3),   # 91, 70, 65
                               (5, 10, 3), (3, 11, 2), (2, 14, 2)):  # 55, 50, 45
        for _ in range(count):
            tasks.append(_cli(f"L:classify:{p},{max_size}", "classify-component", "--p", p,
                              "--max-size", max_size, "--format", "json"))
    for _ in range(8):
        tasks.append(_cli("L:classify:2,12", "classify-component", "--p", 2,
                          "--max-size", 12, "--format", "json"))
    for _ in range(8):
        tasks.append(_cli("L:graph:partition", "crystal-graph", "--p", 3, "--partition",
                          "0", "--max-steps", 7, "--format", "json"))
    for _ in range(7):
        # a uniform shift relabels residues, so the graph size does not change
        w = _shifted((2, 1), 4, rng.randint(-3, 3))
        tasks.append(_cli("L:graph:weight", "crystal-graph", "--p", 5, "--weight", _fmt(w),
                          "--max-steps", 5, "--format", "json"))
    return tasks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object

    def round(self, seed, index):
        """The task list of one round; the same (seed, index) always gives the
        same list."""
        rng = random.Random(f"{self.name}:{seed}:{index}")
        tasks = self.make(rng)
        rng.shuffle(tasks)
        return tasks


WORKLOADS = {w.name: w for w in (
    Workload("hecke-tower",
             "Hecke relation suites, coproduct identities and eigenspace dims on "
             "tensor towers of dim 8..729: dense n^(N+d) matrices dominate",
             _hecke_round),
    Workload("fock-window",
             "Kac-Moody verifier on wedge windows and partitions plus per-label "
             "e/f/h level sums and the intertwiner: the fock layer's dict work",
             _fock_round),
    Workload("weyl-characters",
             "Weyl formula, Pieri rules and characters on shapes of size <= 6 "
             "with n = 3..7: the characters layer's n! products",
             _weyl_round),
    Workload("cli-queries",
             "Thousands of in-process CLI calls over all 12 subcommands, mostly "
             "small: argparse set-up at p50, crystal graphs in the tail",
             _cli_round),
)}


def warmup_tasks(tasks):
    """The first task of each (kind, class) pair with the smallest class
    present: one cheap call per code path before timing starts."""
    seen = {}
    for t in tasks:
        key = (t.kind, t.args[0] if t.kind == "cli" else None)
        cls = t.size[0]
        if key not in seen or "SML".index(cls) < "SML".index(seen[key].size[0]):
            seen[key] = t
    return list(seen.values())

