"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at smoke size (coarse mesh, a few parameters, about
two seconds of measurement), once untraced and once traced.  Checks that
every metric listed in BENCHMARK.json is emitted with its unit, that each
workload prints its own figures, and that a deliberately wrong reduced
solution fails a gate and yields a non-zero failed fraction.
"""

import json
import shutil
import sys
import tempfile

import run  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from cutrom import rom as rom_module  # noqa: E402

SECONDS = 2.0
NAMED = {"online-queries": ("query_p50_ms", "query_p99_ms", "queries_per_s",
                            "rom_err_max"),
         "truth-solves": ("truth_p50_ms", "truth_p90_ms",
                          "truth_solves_per_s"),
         "paper-pipeline": ("offline_s", "report_s", "rom_err_max")}
ALWAYS = ("setup_s", "peak_rss_mb", "ops_failed_frac")


def smoke(name, traced):
    run.OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    tracer = tracing.Tracer() if traced else None
    try:
        outcome = workloads.WORKLOADS[name](7, SECONDS, tracer,
                                            run.Path(work),
                                            sizes=workloads.SMOKE)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return outcome, run.report(name, outcome, traced)


def check_metrics(spec):
    for name in run.WORKLOAD_NAMES:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            outcome, (lines, result) = smoke(name, traced)
            assert result["correct"], (name, traced, result)
            assert result["attempted"] >= 1 and result["failed"] == 0
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, key, set(got) ^ set(want))
            assert all(np.isfinite(v["value"])
                       for v in result["metrics"].values()), result
            if traced:
                layers = outcome.layers
                total = sum(layers[f"{layer}.self_ms"]
                            for layer in tracing.LAYERS)
                assert abs(total - layers["trace.op_ms"]) \
                    <= 1e-6 * layers["trace.op_ms"], (total, layers)
            else:
                printed = {line.split()[1] for line in lines}
                missing = set(NAMED[name] + ALWAYS) - printed
                assert not missing, (name, missing)
            print(f"ok {name} {key}: {result['attempted']} ops")


def check_failing_gate():
    """A reduced solution that is 10% off must fail the online gates."""
    original = rom_module.rom_solve

    def wrong(model, mu, lift=True):
        sol = original(model, mu, lift)
        sol.y = 1.1 * sol.y
        return sol

    rom_module.rom_solve = wrong
    try:
        outcome, (lines, result) = smoke("online-queries", False)
    finally:
        rom_module.rom_solve = original
    frac = [ln for ln in lines if ln.split()[1] == "ops_failed_frac"]
    assert not result["correct"] and result["failed"] > 0, result
    assert float(frac[0].split()[2]) > 0, frac
    print(f"ok failing gate: {result['failed']} of {result['attempted']} "
          f"ops failed")


def main():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_failing_gate()
    print("selftest passed")


if __name__ == "__main__":
    main()
