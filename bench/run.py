"""rangekit's benchmark: four seeded CLI workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload range-long --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads in turn.  Each workload writes
its inputs from the seed, measures the set-up time of a fresh interpreter
importing ``rangekit.cli``, then runs its job in a fresh worker process
(see worker.py) for ``--seconds`` seconds and checks every output against
the generated truth.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of one traced repetition.  The full record, with
machine and library versions, goes to ``bench/.work/BENCH_<workload>.json``.
See bench/README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

# one thread per BLAS/OpenMP pool, so --workers 2 never exceeds 2 threads
THREAD_PINS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)}
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150

# the printed name and unit of each phase's rate (see bench/README.md)
RATES = {"range-long": (("trials_per_s", "trials/s"), ("trials_per_s_2w", "trials/s")),
         "range-sweep": (("cells_per_s", "cells/s"),),
         "coherence": (("trials_per_s", "trials/s"), ("trials_per_s_2w", "trials/s")),
         "antenna-files": (("sets_per_s", "sets/s"),)}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing rangekit.cli.

    The median also discards the one sample that byte-compiles a fresh checkout.
    """
    cmd = [sys.executable, "-c", "import rangekit.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    env = child_env()
    setup_s = measure_setup(env)
    job = workloads.make_inputs(name, seed, work / "inputs")
    spec = {"phases": job["phases"], "seconds": seconds, "trace": trace,
            "out": str(work / "out"), "spans": str(work / "spans.csv")}
    spec_path, result_path = work / "spec.json", work / "worker.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
                   env=env, cwd=ROOT, stdout=sys.stderr, check=True, timeout=WORKER_TIMEOUT_S)
    result = json.loads(result_path.read_text())

    failures = []
    attempted = 0
    reps = {}
    for run in result["runs"]:
        reps.setdefault((run["traced"], run["rep"]), []).append(run)
    for (_, k), runs in reps.items():
        rep_dir = Path(spec["out"]) / f"rep{k}"
        verdicts = workloads.check_outputs(name, [rep_dir / r["name"] for r in runs],
                                           [r["rcs"] for r in runs], job["truth"])
        for run, run_verdicts in zip(runs, verdicts):
            attempted += len(run_verdicts)
            failures += [f"rep {k} {run['name']}: {v}" for v in run_verdicts if v]
        shutil.rmtree(rep_dir)

    untraced = [r for r in result["runs"] if not r["traced"]]
    by_phase = [[r for r in untraced if r["name"] == p["name"]] for p in job["phases"]]
    # a phase's rate is that of its median unit (one CLI call, or one antenna set)
    rates = [statistics.median(r["ops"] / len(r["unit_s"]) / t for r in runs for t in r["unit_s"])
             for runs in by_phase]
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(r["wall_s"] for r in by_phase[0]),
        "ops_per_s": rates[0],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    unit_ms = [1e3 * s for r in by_phase[0] for s in r["unit_s"]]
    latency = {}
    if len(unit_ms) > 1:
        deciles = statistics.quantiles(unit_ms, n=10, method="inclusive")
        latency = {"unit_p50_ms": statistics.median(unit_ms), "unit_p90_ms": deciles[8],
                   "unit_samples": len(unit_ms)}
    if trace:
        traced_s = next(r["wall_s"] for r in result["runs"] if r["traced"])
        values = dict(result["layers"])
        values["trace.overhead_frac"] = traced_s / end_to_end["wall_s"] - 1.0
    else:
        values = end_to_end
    metrics = labelled(values, "per_layer" if trace else "end_to_end")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": result["env"], "thread_pins": THREAD_PINS, "inputs_sha256": job["sha256"],
        "truth": job["truth"], "end_to_end": end_to_end, "phase_rates": rates, "latency": latency,
        "metrics": metrics, "attempted": attempted, "failures": failures,
        "runs": [{k: r[k] for k in ("name", "rep", "traced", "wall_s", "unit_s")}
                 for r in result["runs"]],
    }
    (WORK / f"BENCH_{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def labelled(values: dict, kind: str) -> dict:
    """Attach units from BENCHMARK.json, which must list exactly these metrics."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: {sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def report(record: dict) -> None:
    """Human-readable summary, then the one-line JSON result."""
    name, env = record["workload"], record["env"]
    print(f"# {name}: seed {record['seed']}, {record['seconds']} s, trace {int(record['trace'])}, "
          f"{len(record['runs'])} phase runs")
    print(f"# nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, threads {env['threads']}")
    e2e = record["end_to_end"]
    print(f"setup_s = {e2e['setup_s']:.4f} s")
    print(f"wall_s = {e2e['wall_s']:.4f} s")
    for (rate, unit), value in zip(RATES[name], record["phase_rates"]):
        print(f"{rate} = {value:.2f} {unit}")
    print(f"peak_rss_mb = {e2e['peak_rss_mb']:.1f} MB")
    lat = record["latency"]
    if name == "antenna-files" and lat:
        print(f"set_p50_ms = {lat['unit_p50_ms']:.2f} ms, set_p90_ms = {lat['unit_p90_ms']:.2f} ms "
              f"({lat['unit_samples']} sets)")
    failed = len(record["failures"])
    print(f"failed_frac = {failed / record['attempted']:.4f} ({failed} of {record['attempted']} calls)")
    for reason in record["failures"][:10]:
        print(f"# failed: {reason}")
    if record["trace"]:
        for key, m in record["metrics"].items():
            print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": record["attempted"],
                      "failed": failed, "metrics": record["metrics"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rangekit" / "cli.py").is_file():
        print(f"bench: no rangekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        report(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
