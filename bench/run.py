"""Certification benchmark for apolarium.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of catalecticant, partials, sweet,
cli, or ``all`` (each workload in its own child process, one after another).

Load is a closed loop with one task in flight: a pass runs the workload's
tasks in order, and passes repeat until S seconds have gone by (at least one
pass).  Garbage is collected between passes, outside the timed region.
Every answer is checked against its reference (see workloads.py); a wrong
answer, an exception, or a refusal where none is expected counts as failed,
and the command then exits 1.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the per-layer metrics, from passes that alternate untraced and traced runs
of the same in-process tasks.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
HASH_SEED = "0"
# Wall time of reference_loop on a quiet 2-core 2.0 GHz host with Python
# 3.11; times are reported at that speed.
REFERENCE_S = 0.05
SETUP_PROBES = 7
CLI_PROBES = 5
PROBE_TIMEOUT = 60

END_TO_END_UNITS = {"pass_s.p50": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "exact.self_s": "s", "exact.rref_calls": "count",
    "exact.rref_cells": "count", "exact.echelons_built": "count",
    "exact.echelon_inserts": "count", "exact.insert_accept_ratio": "ratio",
    "poly.self_s": "s", "poly.apply_calls": "count", "poly.apply_terms": "count",
    "apolar.self_s": "s", "apolar.echelons_per_hilbert": "count",
    "encompass.self_s": "s", "encompass.calls": "count",
    "tensor3.self_s": "s", "tensor3.entries_built": "count",
    "sweet.self_s": "s", "sweet.combos_visited": "count",
    "sweet.entries_kept": "count", "sweet.keep_ratio": "ratio",
    "papersuite.self_s": "s", "papersuite.entries_run": "count",
    "papersuite.useful_ratio": "ratio",
    "cli.interp_start_s": "s", "cli.import_s": "s", "cli.run_self_s": "s",
    "trace.overhead_ratio": "ratio",
}
WORKLOAD_NAMES = ("catalecticant", "partials", "sweet", "cli")


@dataclass
class PassResult:
    seconds: float          # wall time of the tasks
    ref_seconds: float      # the same at reference speed, see reference_loop
    task_seconds: List[float]
    answers: List[Optional[dict]]
    failed: int


@dataclass
class Totals:
    attempted: int = 0
    failed: int = 0
    passes: List[PassResult] = field(default_factory=list)

    def add(self, result: PassResult) -> None:
        self.attempted += len(result.answers)
        self.failed += result.failed
        self.passes.append(result)


def child_env() -> dict:
    """Environment of every child: the sources on the path, and a fixed hash
    seed so that set and dict orders repeat from run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def reference_loop() -> float:
    """Wall time of a fixed stdlib loop of rational arithmetic and dict
    inserts, the kind of work every task does.

    On a shared host, speed can drift by a third or more within seconds.  A
    pass's wall time times REFERENCE_S over this loop's mean time, measured
    before, between and after its tasks, is that time at reference speed.
    Across six runs of the sweet workload on a shared 2-vCPU host, the
    median pass wall time spread by 0.41 of its median (quartile distance),
    at reference speed by 0.04.
    """
    start = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 15000):
        total += Fraction(1, i % 97 + 1)
        seen[i, i % 7] = total
    return perf_counter() - start


def at_reference_speed(seconds: float, loops: List[float]) -> float:
    return seconds * REFERENCE_S / statistics.mean(loops)


def run_pass(tasks, check, tracer=None, inprocess: bool = False) -> PassResult:
    gc.collect()
    times, answers, failed = [], [], 0
    loops = [reference_loop()]
    for i, task in enumerate(tasks):
        fn = task.run_inprocess if inprocess and task.run_inprocess else task.run
        start = perf_counter()
        try:
            if tracer is None:
                answer = fn()
            else:
                tracer.task = i
                answer = tracer.span("bench", f"task:{task.name}", fn)
        except Exception:
            sys.stderr.write(f"task {task.name!r} raised:\n{traceback.format_exc()}")
            answer = None
        times.append(perf_counter() - start)
        loops.append(reference_loop())
        answers.append(answer)
        if answer is None or not check(task, answer):
            failed += 1
            if answer is not None:
                sys.stderr.write(f"task {task.name!r}: wrong answer {answer!r}, "
                                 f"expected {task.expected!r}\n")
    return PassResult(sum(times), at_reference_speed(sum(times), loops),
                      times, answers, failed)


def tail(values: List[float]):
    """Highest percentile with at least ten values beyond it, as
    (percentile, value), or None with fewer than eleven values."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def probe_setup(workload: str, seed: int) -> tuple:
    """Set-up time of a fresh process, as (wall, reference-speed) seconds."""
    before = reference_loop()
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, env=child_env(), timeout=PROBE_TIMEOUT,
        check=True)
    wall = float(out.stdout.strip().splitlines()[-1])
    return wall, at_reference_speed(wall, [before, reference_loop()])


def probe_cli_start() -> tuple:
    """Median interpreter start (wall time of a bare child) and median
    import time of apolarium.cli (measured inside a child)."""
    bare, imports = [], []
    code = ("import time; t = time.perf_counter(); import apolarium.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(CLI_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(),
                       timeout=PROBE_TIMEOUT, check=True)
        bare.append(perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=child_env(), timeout=PROBE_TIMEOUT,
                             check=True)
        imports.append(float(out.stdout))
    return statistics.median(bare), statistics.median(imports)


def measure(workload: str, tasks, check, seconds: float, totals: Totals) -> dict:
    start = perf_counter()
    while not totals.passes or perf_counter() - start < seconds:
        totals.add(run_pass(tasks, check))
    if workload == "cli":
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for i, task in enumerate(tasks):
        task_med = statistics.median(p.task_seconds[i] for p in totals.passes)
        print(f"{workload} task {task.name!r}: median wall {task_med:.4f} s")
    wall = [p.seconds for p in totals.passes]
    ref = [p.ref_seconds for p in totals.passes]
    print(f"{workload} pass wall times: {' '.join(f'{x:.3f}' for x in wall)} s")
    print(f"{workload} pass times at reference speed: "
          f"{' '.join(f'{x:.3f}' for x in ref)} s")
    print(f"{workload} pass_wall_s.p50 = {statistics.median(wall)!r} s")
    t = tail(ref)
    if t is None:
        print(f"{workload} pass_s.tail: n/a ({len(ref)} passes; "
              "needs at least 11)")
    else:
        print(f"{workload} pass_s.tail = {t[1]!r} s "
              f"(p{t[0]:.1f} of {len(ref)} passes)")
    print(f"{workload} fail_ratio = {totals.failed / totals.attempted!r} "
          f"({totals.failed}/{totals.attempted} tasks)")
    return {"pass_s.p50": statistics.median(ref),
            "peak_rss_mib": rss_kib / 1024}


def measure_traced(workload: str, tasks, check, seconds: float,
                   totals: Totals, seed: int) -> dict:
    import tracing

    tracer = tracing.Tracer()
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        if len(untraced) <= len(traced):
            result = run_pass(tasks, check, inprocess=True)
            untraced.append(result)
        else:
            tracer.install()
            try:
                result = run_pass(tasks, check, tracer, inprocess=True)
            finally:
                tracer.uninstall()
            traced.append(result)
        totals.add(result)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")

    n = len(traced)
    c, s = tracer.counts, tracer.self_s
    interp_s, import_s = probe_cli_start()
    reported = sum(a.get("reported_entries", 0) for p in traced
                   for a in p.answers if a)
    print(f"{workload} traced passes: {n}, untraced passes: {len(untraced)}, "
          f"spans: {len(tracer.spans)}")

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "exact.self_s": s["exact"] / n,
        "exact.rref_calls": c["exact.rref_calls"] / n,
        "exact.rref_cells": c["exact.rref_cells"] / n,
        "exact.echelons_built": c["exact.echelons_built"] / n,
        "exact.echelon_inserts": c["exact.echelon_inserts"] / n,
        "exact.insert_accept_ratio": ratio(c["exact.echelon_accepts"],
                                           c["exact.echelon_inserts"]),
        "poly.self_s": s["poly"] / n,
        "poly.apply_calls": c["poly.apply_calls"] / n,
        "poly.apply_terms": c["poly.apply_terms"] / n,
        "apolar.self_s": s["apolar"] / n,
        "apolar.echelons_per_hilbert": ratio(c["apolar.echelons_in_hilbert"],
                                             c["apolar.hilbert_calls"]),
        "encompass.self_s": s["encompass"] / n,
        "encompass.calls": c["encompass.entered"] / n,
        "tensor3.self_s": s["tensor3"] / n,
        "tensor3.entries_built": c["tensor3.entries_built"] / n,
        "sweet.self_s": s["sweet"] / n,
        "sweet.combos_visited": c["sweet.combos_visited"] / n,
        "sweet.entries_kept": c["sweet.entries_kept"] / n,
        "sweet.keep_ratio": ratio(c["sweet.entries_kept"],
                                  c["sweet.combos_visited"]),
        "papersuite.self_s": s["papersuite"] / n,
        "papersuite.entries_run": c["papersuite.entries_run"] / n,
        "papersuite.useful_ratio": ratio(reported, c["papersuite.entries_run"]),
        "cli.interp_start_s": interp_s,
        "cli.import_s": import_s,
        "cli.run_self_s": s["cli"] / n,
        "trace.overhead_ratio": (statistics.median(p.seconds for p in traced)
                                 / statistics.median(p.seconds for p in untraced)),
    }


def run_one(args) -> int:
    setup_start = perf_counter()
    import workloads
    tasks = workloads.build(args.workload, args.seed, child_env())
    setup_s = perf_counter() - setup_start
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    totals = Totals()
    if args.trace:
        metrics = measure_traced(args.workload, tasks, workloads.check,
                                 args.seconds, totals, args.seed)
        units = PER_LAYER_UNITS
    else:
        metrics = measure(args.workload, tasks, workloads.check, args.seconds,
                          totals)
        probes = [probe_setup(args.workload, args.seed)
                  for _ in range(SETUP_PROBES)]
        print(f"{args.workload} setup_wall_s = "
              f"{statistics.median(w for w, _ in probes)!r} s")
        metrics["setup_s"] = statistics.median(r for _, r in probes)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if totals.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own child, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, env=child_env())
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        code = code or proc.returncode
        if not lines:
            combined["correct"] = False
            continue
        doc = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for name, value in doc["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "apolarium" / "__init__.py").is_file():
        sys.stderr.write(f"apolarium sources not found under {SRC}; "
                         "run from a checkout of the repository\n")
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Fix string hashing, and with it set and dict orders, for this
        # process as for its children.
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env())
    # One core for the whole run, children included, so that the reference
    # loop measures the speed of the core the tasks run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
