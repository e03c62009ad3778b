"""Run sets of benchmark runs and print each metric's median and quartiles.

    python3 perfbench/steady.py --workloads small-m,file-cli --runs 10 --first-seed 1

Each run is a fresh ``perfbench/run.py`` process with its own seed. For
every run this prints wall seconds, the process's CPU seconds and the
host's steal share over the run (from ``/proc/stat``, read only), so a run
on a busy host can be told apart. Then, per workload and metric, it prints
the median, the quartiles, the spread (q3 - q1) / median and the metric's
bound from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _cpu_times():
    """(steal, total) jiffies over all CPUs, or None where /proc is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    before, cpu0, t0 = _cpu_times(), _children_cpu(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall, cpu, after = time.perf_counter() - t0, _children_cpu() - cpu0, _cpu_times()
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "wall_s": wall, "cpu_s": cpu, "steal": steal,
            "exit": proc.returncode, "stderr": proc.stderr.strip(), "result": result}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(runs, spec) -> None:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    by_workload = {}
    for r in runs:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, rs in by_workload.items():
        ok = [r["result"] for r in rs if r["result"]]
        print(f"\n{workload}: {len(ok)}/{len(rs)} runs gave a result, "
              f"correct in {sum(r['correct'] for r in ok)}")
        if not ok:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in ok})
        print(f"  failed share per run: {shares}")
        print(f"  {'metric':34s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in ok[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in ok]
            if len(values) < 2:
                print(f"  {name:34s} {'':>12s} {values[0]:12.6g}")
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:34s} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{'' if bound is None else format(bound, '6.2f')}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10, help="runs per workload, one seed each")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    runs = []
    # seeds outer, workloads inner: a slow spell of the host spreads over
    # all workloads instead of landing on one
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workloads.split(","):
            r = one_run(workload, seed, args.seconds, args.trace)
            runs.append(r)
            steal = "n/a" if r["steal"] is None else f"{100 * r['steal']:.1f}%"
            status = "ok" if r["result"] and r["result"]["correct"] else f"FAILED exit {r['exit']}"
            shown = ""
            if r["result"]:
                m = r["result"]["metrics"]
                shown = " ".join(f"{k}={m[k]['value']:.5g}" for k in list(m)[:4])
            print(f"{workload} seed {seed}: wall {r['wall_s']:.1f}s cpu {r['cpu_s']:.1f}s "
                  f"steal {steal} {status} {shown}", flush=True)
            if r["stderr"]:
                print("  " + r["stderr"].replace("\n", "\n  "), flush=True)
    summarise(runs, spec)
    return 0 if all(r["result"] and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
