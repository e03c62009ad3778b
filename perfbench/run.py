"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload small-m --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/``. The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. Failed checks are listed on standard error. Inputs, models
and traces are written under ``perfbench/.work/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

# one process, at most two threads: the program's reader thread and this one
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the timed rounds run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ofs", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads

    cfg = workloads.WORKLOADS.get(args.workload)
    if cfg is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{cfg.name}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "tmp"))
    tempfile.tempdir = os.path.join(workdir, "tmp")  # the sweep's shuffled copies
    try:
        result, details = workloads.run(cfg, args.seed, args.seconds, bool(args.trace), workdir)
    except workloads.OperationFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in details["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    if args.trace:
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, f"{cfg.name}-seed{args.seed}.csv")
        details["tracer"].write(path)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    print(
        f"# {cfg.name} seed {args.seed} trace {args.trace}: {details['rounds']} rounds "
        f"in {details['wall_s']:.2f}s, job_s {details['job_s']:.4f}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
