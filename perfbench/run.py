"""Benchmark of the cutrom solver: one workload per process.

    python3 perfbench/run.py --workload online-queries --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the same checkout.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the spans are written to
``perfbench/out/trace_<workload>.jsonl``.  Lines before it name the
workload's own figures.  ``--workload all`` runs every workload in its own
process and prints all of them.  The exit code is 0 only when every
correctness gate passed.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# One BLAS thread, set before numpy loads: with two OpenBLAS threads on a
# two-core machine, fresh paper-pipeline runs stalled in the POD stage.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("online-queries", "truth-solves", "paper-pipeline")


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def report(workload: str, outcome, traced: bool):
    """Printable lines and the result object of one workload run."""
    import workloads

    lines = []
    if traced:
        units = workloads.PER_LAYER
        values = {name: outcome.layers.get(name, 0.0) for name in units}
    else:
        units = workloads.END_TO_END
        values = outcome.end_to_end()
        named = dict(outcome.named)
        named["ops_failed_frac"] = (outcome.failed / outcome.attempted, "1")
        lines += [f"{workload} {name} {value:.6g} {unit}"
                  for name, (value, unit) in named.items()]
    lines += [f"{workload} {name} {values[name]:.6g} {unit}"
              for name, unit in units.items()]
    result = {"correct": outcome.failed == 0,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": {name: {"value": float(values[name]), "unit": unit}
                          for name, unit in units.items()}}
    return lines, result


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = tracing.Tracer() if args.trace else None
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    if tracer is not None:
        tracer.dump(OUT / f"trace_{args.workload}.jsonl",
                    {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "machine": machine})
    lines, result = report(args.workload, outcome, tracer is not None)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in a fresh process, one after the other."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status or (0 if all(results.values()) else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cutrom" / "__init__.py").is_file():
        print(f"error: no cutrom package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
