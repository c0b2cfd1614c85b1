"""Run one workload's job in a fresh process and report its timings.

Usage: python worker.py SPEC_JSON RESULT_JSON

The spec holds the job's phases (see workloads.py), the measuring budget in
seconds, whether to trace, and the directory for outputs.  The whole job
runs once untraced, then its first phase repeats while the budget lasts;
with tracing on, that takes half the budget and one traced repetition of
the whole job follows.  Each repetition writes its
outputs under ``<out>/rep<k>/<phase>`` for the parent process to check.  Every CLI call goes through
``rangekit.cli.dispatch``, looked up at call time so that tracing applies.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import rangekit.cli
from tracer import Tracer


def _dispatch(argv) -> int:
    try:
        return rangekit.cli.dispatch(argv)
    except Exception:  # a traceback breaks the CLI's exit-code contract; count it
        traceback.print_exc()
        return -1


def run_phase(phase: dict, out: Path) -> dict:
    out.mkdir(parents=True)
    rcs, unit_s = [], []
    start = time.perf_counter()
    for unit in phase["units"]:
        unit_start = time.perf_counter()
        for argv in unit:
            rcs.append(_dispatch([arg.replace("{out}", str(out)) for arg in argv]))
        unit_s.append(time.perf_counter() - unit_start)
    wall = time.perf_counter() - start
    return {"name": phase["name"], "ops": phase["ops"], "wall_s": wall, "unit_s": unit_s, "rcs": rcs}


def run_in(spec: dict, index: int, rep: int, traced: bool) -> dict:
    """Run phase ``index`` of the job as part of repetition ``rep``."""
    phase = spec["phases"][index]
    out = Path(spec["out"]) / f"rep{rep}" / phase["name"]
    return dict(run_phase(phase, out), rep=rep, traced=traced)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in os.environ.items() if "THREADS" in k},
    }


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    budget = spec["seconds"] / 2.0 if spec["trace"] else spec["seconds"]
    n_phases = len(spec["phases"])
    start = time.perf_counter()
    runs = [run_in(spec, i, 0, traced=False) for i in range(n_phases)]
    # then only the first (single-worker) phase repeats, since the bounded
    # metrics come from it; it starts only if its last run would still fit
    last = runs[0]["wall_s"]
    while time.perf_counter() - start + last <= budget:
        runs.append(run_in(spec, 0, len(runs), traced=False))
        last = runs[-1]["wall_s"]
    result = {"env": environment(), "runs": runs}
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            runs += [run_in(spec, i, len(runs), traced=True) for i in range(n_phases)]
        finally:
            tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(spec["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
