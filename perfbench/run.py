"""fqg benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload selftest|hopf-ladder|family-files
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process, single-threaded
(``FQG_THREADS=1``).  Passes over the workload repeat until the next one
would end after ``--seconds``; every pass starts from cold caches and every
verdict is checked against ``perfbench/expected.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: CPU times in
reference seconds (see ``meter.py``), which stay steady when the host's speed
drifts; the raw wall and CPU times of a pass are printed beside them.
``--trace 1`` runs one untraced pass, installs the span wrappers of
``tracer.py`` and reports the per-layer metrics from the traced passes; spans
are written to ``perfbench/_out/``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

import meter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 7


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["selftest", "hopf-ladder", "family-files"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="make the inputs and exit (used to time set-up)")
    return p.parse_args(argv)


def item_quantile(passes, q):
    """Quantile over the items of the workload, each item timed by its median
    over the passes of the run.  Every pass repeats the same items, so this
    reads the same whether the run made one pass or five.  Interpolating
    between neighbouring items keeps it from jumping when two items of
    similar cost swap ranks."""
    per_item = defaultdict(list)
    for p in passes:
        for it in p.items:
            per_item[it.id].append(it.seconds)
    times = [statistics.median(v) for v in per_item.values()]
    return statistics.quantiles(times, n=100, method="inclusive")[round(q * 100) - 1]


# -- set-up --------------------------------------------------------------------


def setup_seconds(args):
    """Median CPU time, in reference seconds, of fresh processes that start
    the interpreter, import fqg and make this workload's seeded inputs.  Each
    child's CPU time comes from the rusage of waited-for children; the speed
    of the host is taken from ticks run just before and just after it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]

    def children_cpu():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    times = []
    for _ in range(SETUP_REPEATS):
        before, cpu0 = meter.calibrate(), children_cpu()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        cpu = children_cpu() - cpu0
        tick = (before + meter.calibrate()) / 2
        times.append(cpu * meter.REF_TICK_S / tick)
    return statistics.median(times)


# -- passes --------------------------------------------------------------------


class Pass(NamedTuple):
    items: list
    wall: float
    cpu: float  # without the meter's ticks
    misses: int  # LRU misses, the cold-cache fingerprint
    counts: Counter | None = None  # traced passes only
    self_s: dict | None = None  # traced passes only


def timed_pass(one_pass, caches, ticker=None, tracer=None):
    """One pass; ``ticker`` is the running meter.Meter of an untraced run."""
    if tracer is not None:
        tracer.reset_pass()
        first_span = len(tracer.spans)
        counts_before = Counter(tracer.counts)
    cpu_clock = ticker.work_clock if ticker else time.thread_time
    wall0, cpu0 = time.perf_counter(), cpu_clock()
    items = one_pass()
    wall, cpu = time.perf_counter() - wall0, cpu_clock() - cpu0
    misses = caches.take_misses()
    if tracer is None:
        return Pass(items, wall, cpu, misses)
    counts = Counter(tracer.counts)
    counts.subtract(counts_before)
    return Pass(items, wall, cpu, misses, +counts, tracer.self_times(first_span))


def run_until(one_pass, caches, seconds, started, ticker=None, tracer=None):
    """Passes until the next one would end after ``seconds`` (at least one)."""
    passes = []
    while True:
        passes.append(timed_pass(one_pass, caches, ticker, tracer))
        est = statistics.median(p.wall for p in passes)
        if time.perf_counter() - started + est > seconds:
            return passes


# -- metrics -------------------------------------------------------------------


def end_to_end(passes, setup_s):
    """Item times are in reference seconds here; a pass is the sum of its
    items."""
    return {
        "pass_ref_s": statistics.median(sum(it.seconds for it in p.items) for p in passes),
        "item_ref_s_p50": item_quantile(passes, 0.5),
        "item_ref_s_p90": item_quantile(passes, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def raw_times(passes):
    """Unscaled pass times, printed for reading but not gated: they move
    with the host's speed."""
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
    }


def _is_load(name):
    return "_from_" in name or name.startswith("load")


def layer_values(p, workload, suites, commands, cli_commands):
    """Per-layer metrics of one traced pass."""
    s, c = defaultdict(float, p.self_s), p.counts
    rank_calls = c["linalg.rank_of_vectors.calls"]
    cache_calls = c["cache.calls"]
    m = {
        "linalg.rank.calls": rank_calls,
        "linalg.rank.s": s["linalg.rank_of_vectors"],
        "linalg.rank.cells": c["linalg.rank.cells"],
        "linalg.rank.full_ratio": c["linalg.rank.full"] / rank_calls if rank_calls else 0.0,
        "linalg.nullspace.s": s["linalg.nullspace_basis"],
        "linalg.nullspace.calls": c["linalg.nullspace_basis.calls"],
        "linalg.inverse.s": s["linalg.LinearMap.inverse"],
        "linalg.inverse.calls": c["linalg.LinearMap.inverse.calls"],
        "algebra.tensor_mult.s": s["algebra.tensor_mult"],
        "algebra.tensor_mult.calls": c["algebra.tensor_mult.calls"],
        "algebra.verify_star_algebra.s": s["algebra.verify_star_algebra"],
        "algebra.multiply_vec.calls": c["algebra.StarAlgebra.multiply_vec.calls"],
        "hopf.verify_quantum_group.s": s["hopf.verify_quantum_group"],
        "hopf.solve_haar.s": s["hopf.solve_haar_state"] + s["hopf.solve_haar_element"],
        "fourier.build_dual.s": s["fourier.build_dual"],
        "fourier.verify_fourier_identities.s": s["fourier.verify_fourier_identities"],
        "fourier.check_iteration_lemma.s": s["fourier.check_iteration_lemma"],
        "constructors.build.s": s["constructors.function_algebra"] + s["constructors.group_algebra"],
        "qfamily.check_family.s": s["qfamily.check_family"],
        "qfamily.conv_preservation.s": s["qfamily.check_convolution_preservation"],
        "qfamily.slice_commutative.s": s["qfamily.slice_commutative"],
        "qfamily.hat.s": s["qfamily.hat"],
        "qfamily.check_action.s": s["qfamily.check_action"],
        "qfamily.compose.s": s["qfamily.compose"],
        "classical.relations.s": sum(s["classical." + f] for f in (
            "check_pointwise_relations", "check_magic_unitary", "check_dualact_consequences",
            "check_order_properties", "check_cyclic_identity", "check_dual_group_theorem")),
        "classical.enumerate_automorphisms.s": s["classical.enumerate_automorphisms"],
        "serialize.load.s": sum(v for k, v in s.items()
                                if k.startswith("serialize.") and _is_load(k[10:])),
        "serialize.dump.s": sum(v for k, v in s.items()
                                if k.startswith("serialize.") and not _is_load(k[10:])),
        "serialize.bytes_in": c["serialize.bytes_in"],
        "serialize.bytes_out": c["serialize.bytes_out"],
        "cache.calls": cache_calls,
        "cache.hit_ratio": c["cache.hits"] / cache_calls if cache_calls else 0.0,
    }
    for suite in suites:
        m["selftest.%s.s" % suite] = sum(it.seconds for it in p.items
                                         if workload == "selftest" and it.id == suite)
    for cmd in cli_commands:
        m["cli.%s.s" % cmd] = sum(it.seconds for it in p.items
                                  if commands.get(it.id) == cmd)
    return m


def operand_kind(x):
    """Size class of a QQi operand: 'unit' (components 0/±1), 'rational'
    (a component with a denominator), 'int' (integers up to 32 bits) or
    'bigint'."""
    re, im = x.re, x.im
    if re.denominator != 1 or im.denominator != 1:
        return "rational"
    bits = max(abs(re.numerator).bit_length(), abs(im.numerator).bit_length())
    return "unit" if bits <= 1 else "int" if bits <= 32 else "bigint"


def scalar_microbench(QQi, pairs):
    """ns per QQi multiply, add and equality over operand pairs the traced
    passes sampled from the workload's own multiplies (tracer.OperandSample).
    Returns the metrics and the share of each operand kind."""
    pairs = [(a, b) for a, b in pairs if type(a) is QQi and type(b) is QQi]
    kinds = Counter(operand_kind(x) for pair in pairs for x in pair)
    shares = {k: kinds[k] / (2 * len(pairs)) for k in ("unit", "rational", "int", "bigint")}

    def loop(op):
        start = time.perf_counter_ns()
        if op == "mul":
            for a, b in pairs:
                a * b
        elif op == "add":
            for a, b in pairs:
                a + b
        elif op == "eq":
            for a, b in pairs:
                a == b
        else:
            for a, b in pairs:
                pass
        return time.perf_counter_ns() - start

    out = {}
    for op in ("mul", "add", "eq"):
        runs = [(loop(op) - loop("empty")) / len(pairs) for _ in range(19)]
        out["scalar.%s_ns" % op] = statistics.median(runs)
    return out, shares


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fqg" / "__init__.py").is_file():
        sys.stderr.write("error: no fqg sources under %s\n" % SRC)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    os.environ["FQG_THREADS"] = "1"
    sys.path.insert(0, str(SRC))

    import fqg
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        caches = workloads.Caches()
        ticker = None if args.trace else meter.Meter()
        measure = ticker.measure if ticker else meter.measure_cpu
        prepare = workloads.PREPARE[args.workload]
        one_pass, commands = prepare(args.seed, workdir, expected, caches, measure)
        caches.take_misses()
        if args.setup_only:
            return 0
        setup_s = setup_seconds(args) if not args.trace else None

        started = time.perf_counter()
        if not args.trace:
            ticker.start()
            try:
                passes = run_until(one_pass, caches, args.seconds, started, ticker)
            finally:
                ticker.stop()
            metrics = end_to_end(passes, setup_s)
            traced = []
        else:
            untraced = timed_pass(one_pass, caches)
            tracer = Tracer(fqg, args.seed)
            tracer.install()
            try:
                traced = run_until(one_pass, caches, args.seconds, started, tracer=tracer)
            finally:
                tracer.uninstall()
            passes = [untraced] + traced
            suites = list(expected["selftest"]["suites"])
            per_pass = [layer_values(p, args.workload, suites, commands, workloads.CLI_COMMANDS)
                        for p in traced]
            metrics = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
            metrics["trace.overhead_ratio"] = \
                statistics.median(p.wall for p in traced) / untraced.wall
            scalar_ns, shares = scalar_microbench(workloads.scalar_module.QQi,
                                                  tracer.operands.pairs())
            metrics.update(scalar_ns)
            tracer.write(str(OUT / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed))))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    if set(units) != set(metrics):
        sys.stderr.write("error: metrics %s differ from BENCHMARK.json %s\n"
                         % (sorted(set(metrics) ^ set(units)), section))
        return 2

    known = expected[args.workload].get("known_failures", {})
    all_items = [it for p in passes for it in p.items]
    failed = [it for it in all_items if not it.ok]
    unexpected = sorted({it.id for it in failed if it.id not in known})
    fixed = sorted(set(known) - {it.id for it in failed})
    cold = len({p.misses for p in passes}) == 1 and \
        len({tuple(sorted(p.counts.items())) for p in traced}) <= 1

    for name, value in metrics.items():
        print("%-40s %14.6g %s" % (name, value, units[name]))
    if not args.trace:
        print("raw, not gated: " + ", ".join(
            "%s %.6g" % kv for kv in raw_times(passes).items()))
    print("passes %d; items attempted %d, failed %d (fail_ratio %.4f)"
          % (len(passes), len(all_items), len(failed), len(failed) / len(all_items)))
    for it in failed:
        tag = "known failure" if it.id in known else "UNEXPECTED"
        print("  %s: %s %s" % (tag, it.id, it.detail))
    for fid in fixed:
        print("  known failure %s now gives the documented answer" % fid)
    if args.trace:
        print("scalar operands sampled: %s" % ", ".join(
            "%s %.3f" % kv for kv in shares.items()))
    print("cold caches: %s (LRU misses per pass %s; pass 1 %.3fs, pass %d %.3fs)"
          % ("ok" if cold else "LEAK", [p.misses for p in passes], passes[0].wall,
             len(passes), passes[-1].wall))

    result = {
        "correct": not unexpected and cold,
        "attempted": len(all_items),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
