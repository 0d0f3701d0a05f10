"""The credal benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload lp-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the benchmark measures the ``src`` of the checkout it
sits in. A closed loop with one caller: each call starts when the one
before it has returned. With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer ones (see README.md). The last
line of stdout is one JSON object with keys correct, attempted, failed
and metrics; the lines above it are a table for people and a record of
what was measured (commit, source digest, numpy, nproc).

Exit status is 0 when the run finished (``correct`` says whether every
answer matched its reference), 2 when the checkout has no credal
sources, and 3 when the references or the measured process could not
run, or when the run was too short to fill its tail percentile. Only a
finished run prints a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("lp-sweep", "fresh-problems", "families", "cli")

# Fresh processes timed for setup_s, half before the measured process
# and half after it; the median is reported.
SETUP_PROBES = 10

# Tail percentile per workload, chosen so that it falls inside the
# slowest kind of call of the list (see README.md). A run with fewer
# than MIN_BEYOND samples beyond it is refused.
TAIL_PERCENTILE = {"lp-sweep": 99.0, "fresh-problems": 95.0, "families": 99.0, "cli": 75.0}
MIN_BEYOND = 10

# Passes over the list per traced run, made untraced and then traced.
TRACE_PASSES = {"lp-sweep": 1, "fresh-problems": 1, "families": 4, "cli": 2}

# error_rate is printed in the table; the result line carries it as
# attempted and failed, since a metric that reads 0 has no spread.
RESULT_METRICS = ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb")

CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict:
    """The checkout's src first; BLAS on one thread, so that a process's
    CPU time is the work of the one caller (see README.md)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list[str], stdin: str | None = None) -> dict:
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = p / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(workload: str, sorted_values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the workload's tail
    percentile."""
    p = TAIL_PERCENTILE[workload]
    n = len(sorted_values)
    beyond = n - 1 - math.floor(p / 100.0 * (n - 1))
    if beyond < MIN_BEYOND:
        raise BenchError(f"{n} samples leave {beyond} beyond p{p:g}; "
                         f"{MIN_BEYOND} are needed: run longer")
    return p, percentile(sorted_values, p), beyond


def ops_per_s(latencies: list[float], calls_per_pass: int) -> float:
    """Calls per second over one pass of the list, each call at its mean
    latency, so that the share of the list in the last, partial pass
    does not weigh on the figure."""
    total = sum(statistics.fmean(latencies[i::calls_per_pass])
                for i in range(min(calls_per_pass, len(latencies))))
    return min(calls_per_pass, len(latencies)) / total


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "credal").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT:
            commit = git[1]
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0))}


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    refs = subprocess.run([sys.executable, str(HERE / "refs.py"), workload, str(seed)],
                          capture_output=True, text=True, cwd=ROOT, env=child_env(),
                          timeout=CHILD_TIMEOUT_S)
    if refs.returncode != 0:
        raise BenchError(f"cannot build references for {workload}:\n{refs.stderr[-2000:]}")
    worker = str(HERE / "worker.py")
    if traced:
        out = run_child([worker, "trace", workload, str(seed), str(TRACE_PASSES[workload])],
                        refs.stdout)
        if out["leftover_wrappers"]:
            raise BenchError(f"wrappers left in place: {out['leftover_wrappers']}")
        metrics = {k: (v, _unit(k)) for k, v in out["metrics"].items()}
        extra = {}
    else:
        setups = [run_child([worker, "setup", workload, str(seed)])
                  for _ in range(SETUP_PROBES // 2)]
        out = run_child([worker, "measure", workload, str(seed), str(seconds)], refs.stdout)
        setups += [run_child([worker, "setup", workload, str(seed)])
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        lat = sorted(out["latencies"])
        p, tail_s, beyond = tail(workload, lat)
        metrics = {
            "ops_per_s": (ops_per_s(out["latencies"], out["calls_per_pass"]), "1/s"),
            "latency_p50_ms": (1e3 * percentile(lat, 50.0), "ms"),
            "latency_tail_ms": (1e3 * tail_s, "ms"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
            "error_rate": (out["failed"] / out["attempted"], "ratio"),
        }
        extra = {"passes": out["passes"], "calls_per_pass": out["calls_per_pass"],
                 "samples": len(lat), "tail_percentile": p, "tail_beyond": beyond,
                 "cpu_s": out["cpu_s"], "cal_median_ms": out["cal_median_ms"],
                 "setup_probes_s": [s["setup_s"] for s in setups],
                 "setup_probes_cpu_s": [s["cpu_s"] for s in setups]}
    if not out["credal_file"].startswith(str(SRC)):
        raise BenchError(f"measured {out['credal_file']}, not this checkout's src")
    return {"workload": workload, "seed": seed, "traced": traced, "metrics": metrics,
            "attempted": out["attempted"], "failed": out["failed"],
            "failures": out["failures"], "numpy": out["numpy"], **extra}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".points", ".refine_evals")):
        return "count"
    return "ratio"


def print_table(res: dict):
    print(f"== {res['workload']} (seed {res['seed']}, {'traced' if res['traced'] else 'untraced'})")
    for name, (value, unit) in res["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{res['tail_percentile']:g} of {res['samples']} samples, "
                    f"{res['tail_beyond']} beyond)")
        print(f"  {name:42s} {value:14.6g} {unit}{note}")
    print(f"  {'attempted':42s} {res['attempted']:14d}")
    print(f"  {'failed':42s} {res['failed']:14d}")
    for f in res["failures"]:
        print(f"  FAILED call {f['index']} ({f['kind']}): {json.dumps(f['summary'])[:300]}")


def result_line(res: dict) -> dict:
    names = RESULT_METRICS if not res["traced"] else list(res["metrics"])
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": res["metrics"][n][0], "unit": res["metrics"][n][1]}
                    for n in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "credal" / "__init__.py").is_file():
        print(f"no credal sources under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads]
    except (BenchError, subprocess.TimeoutExpired) as ex:
        print(f"benchmark could not run: {ex}", file=sys.stderr)
        return 3
    record = source_record()
    for res in results:
        print_table(res)
        print("# record " + json.dumps({
            "workload": res["workload"], "seed": res["seed"], **record,
            "numpy": res["numpy"],
            **{k: res[k] for k in ("passes", "calls_per_pass", "samples", "tail_percentile",
                                   "tail_beyond", "cpu_s", "cal_median_ms", "setup_probes_s",
                                   "setup_probes_cpu_s") if k in res}}))
    lines = [result_line(r) for r in results]
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({r["workload"]: line for r, line in zip(results, lines)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
