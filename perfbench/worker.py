"""The measured process: builds one workload's inputs and makes its calls.

    python3 perfbench/worker.py setup   WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS  < refs.json
    python3 perfbench/worker.py trace   WORKLOAD SEED PASSES   < refs.json

A workload is a list of distinct calls. ``setup`` times importing credal
and building the inputs in this fresh process. ``measure`` walks the list
round and round, one call at a time, until SECONDS of wall time have
passed, and reports every call's latency. ``trace`` makes a short
warm-up, then PASSES passes over the list untraced and the same passes
traced, and reports the per-layer totals. Every answer is checked against the
references read from stdin. The result is one JSON object on the last
line of stdout.

The checkout's own ``src`` goes first on the path, here and for the cli
children, so each commit measures its own code.

Times are CPU time: of this process for a library call or set-up, of
the child for a cli invocation. The run starts these processes with BLAS
on one thread; the library is single-threaded and a call does no I/O, so
on an idle machine CPU time is the wall time a caller waits. On a shared
virtual machine the host takes the CPU away for tens to hundreds of
milliseconds at a time (steal), which wall time would count and CPU time
does not.

CPU time still depends on the host: on a shared machine the same work
takes up to half as long again for seconds at a time while other guests
load the core. So every time is scaled to a reference speed. A fixed
calibration loop runs between calls at least every CAL_EVERY_S of wall
time, and a call's CPU time is multiplied by CAL_REF_S over the loop's
CPU time around it. A change to credal does not change the loop, so the
scaled times move with the library and not with the host.
"""

import sys
import time

T_START = time.process_time()

import bisect  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Share of the list run before a traced comparison, outside both sides.
WARMUP_SHARE = 0.05

# The calibration loop's CPU time at the reference speed (about its
# time on an unloaded core of the 2-core x86-64 machine of README.md),
# the longest wall time between two loops, and the loops averaged for
# one set-up probe.
CAL_REF_S = 0.002
CAL_EVERY_S = 0.1
SETUP_CAL_LOOPS = 5


def build(workload: str, data: dict, workdir: Path, traced_cli_stats: Path | None = None):
    """The list of calls; for cli this writes the problem files."""
    import ops

    if workload != "cli":
        return ops.BUILDERS[workload](data)
    args = ops.write_cli_files(data, workdir)
    if traced_cli_stats is None:
        prefix = [sys.executable, "-m", "credal.cli"]
    else:
        prefix = [sys.executable, str(HERE / "clishim.py"), str(traced_cli_stats)]
    return ops.cli_calls(data, args, prefix)


def calibrate() -> float:
    """CPU time of the calibration loop: interpreter work and small numpy
    array operations, the mix of credal's own calls."""
    import numpy as np

    start = time.process_time()
    acc = 0
    for i in range(20000):
        acc += (i * i) % 7
    a = np.arange(16.0)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.process_time() - start


def scales(cal_at: array, cal_s: array, starts: array) -> list[float]:
    """CAL_REF_S over the calibration time around each start: the mean of
    the loops just before and just after it, each the median of itself
    and its two neighbours on either side."""
    smooth = [statistics.median(cal_s[max(0, j - 2):j + 3]) for j in range(len(cal_s))]
    out = []
    for t in starts:
        j = bisect.bisect_right(cal_at, t)
        around = (smooth[max(j - 1, 0)] + smooth[min(j, len(smooth) - 1)]) / 2
        out.append(CAL_REF_S / around)
    return out


def run_call(workload: str, calls, i: int, data: dict, refs: dict) -> tuple:
    """Make call i alone under the clock, then check its answer.

    Returns (kind, latency_s, ok, summary).
    """
    import ops

    call = calls[i]
    clock = _children_cpu if workload == "cli" else time.process_time
    exc = None
    result = None
    start = clock()
    try:
        result = call.call()
    except Exception as ex:  # a failed call is counted, not fatal
        exc = ex
    latency = clock() - start
    summary = call.summarize(result, exc)
    if workload == "cli":
        ok = ops.check("cli", call.kind, summary, refs.get(call.kind, {}), refs)
    else:
        ok = ops.check(workload, data["calls"][i], summary, refs["calls"][i], refs)
    return call.kind, latency, ok, summary


def _children_cpu() -> float:
    """CPU time of the waited-for children: one cli process at a time."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_passes(workload: str, calls, data: dict, refs: dict, record: list, passes: int,
               after=None):
    for _ in range(passes):
        for i in range(len(calls)):
            record.append(run_call(workload, calls, i, data, refs))
            if after is not None:
                after()


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _failures(record: list) -> list:
    return [{"index": i, "kind": k, "summary": s}
            for i, (k, _, ok, s) in enumerate(record) if not ok][:5]


def measure(workload: str, seed: int, seconds: float, refs: dict, workdir: Path) -> dict:
    """Walk the list until SECONDS of wall time have passed. Only the
    latencies, the calibration and the first failures are kept, so the
    peak RSS does not grow with the number of calls made."""
    import gen

    data = gen.generate(workload, seed)
    calls = build(workload, data, workdir)
    cpu, starts, cal_at, cal_s = array("d"), array("d"), array("d"), array("d")
    failed, failures = 0, []
    start = time.perf_counter()
    while not cpu or time.perf_counter() - start < seconds:
        now = time.perf_counter() - start
        if not cal_at or now - cal_at[-1] >= CAL_EVERY_S:
            cal_at.append(now)
            cal_s.append(calibrate())
        starts.append(time.perf_counter() - start)
        kind, latency, ok, summary = run_call(workload, calls, len(cpu) % len(calls), data, refs)
        cpu.append(latency)
        if not ok:
            failed += 1
            if len(failures) < 5:
                failures.append({"index": len(cpu) - 1, "kind": kind, "summary": summary})
    cal_at.append(time.perf_counter() - start)
    cal_s.append(calibrate())
    rss = peak_rss_mb(workload)
    return {
        "passes": len(cpu) / len(calls),
        "calls_per_pass": len(calls),
        "latencies": [c * k for c, k in zip(cpu, scales(cal_at, cal_s, starts))],
        "cpu_s": sum(cpu),
        "cal_median_ms": 1e3 * statistics.median(cal_s),
        "attempted": len(cpu),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": rss,
    }


def traced_passes(workload: str, data: dict, refs: dict, passes: int, workdir: Path):
    """(record, tracer snapshot) of traced passes. The cli workload traces
    inside each child process and sums their snapshots."""
    import tracer

    record: list = []
    if workload == "cli":
        snap: dict = {}
        stats = workdir / "trace-stats.json"
        calls = build(workload, data, workdir, traced_cli_stats=stats)

        def collect():
            tracer.merge(snap, json.loads(stats.read_text()))
            stats.unlink()

        run_passes(workload, calls, data, refs, record, passes, after=collect)
        return record, snap
    calls = build(workload, data, workdir)
    tr = tracer.Tracer()
    tr.install()
    try:
        run_passes(workload, calls, data, refs, record, passes)
    finally:
        tr.uninstall()
    return record, tr.snapshot()


def trace(workload: str, seed: int, passes: int, refs: dict, workdir: Path) -> dict:
    """Warm-up, untraced passes, then the same passes traced."""
    import gen
    import tracer

    data = gen.generate(workload, seed)
    calls = build(workload, data, workdir)
    warm = [run_call(workload, calls, i, data, refs)
            for i in range(max(1, int(WARMUP_SHARE * len(calls))))]
    plain: list = []
    run_passes(workload, calls, data, refs, plain, passes)
    traced, snap = traced_passes(workload, data, refs, passes, workdir)
    metrics = tracer.layer_metrics(snap)
    metrics["trace.overhead_ratio"] = (sum(r[1] for r in traced)
                                       / sum(r[1] for r in plain))
    record = warm + plain + traced
    return {
        "metrics": metrics,
        "attempted": len(record),
        "failed": sum(not r[2] for r in record),
        "failures": _failures(record),
        "leftover_wrappers": tracer.leftover_wrappers(),
    }


def setup(workload: str, seed: int, workdir: Path) -> dict:
    """Import credal and build the inputs, scaled by the calibration
    loops that follow (the first one warms up and is not counted).
    Drawing the seeded numbers is the benchmark's own work and is left
    out."""
    import ops  # noqa: F401  (imports credal)
    import gen

    imported = time.process_time()
    data = gen.generate(workload, seed)
    start = time.process_time()
    build(workload, data, workdir)
    cpu_s = (imported - T_START) + (time.process_time() - start)
    cal = statistics.median([calibrate() for _ in range(SETUP_CAL_LOOPS + 1)][1:])
    return {"setup_s": cpu_s * CAL_REF_S / cal, "cpu_s": cpu_s}


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        if mode == "setup":
            out = setup(workload, seed, workdir)
        else:
            refs = json.load(sys.stdin)
            if mode == "measure":
                out = measure(workload, seed, float(argv[3]), refs, workdir)
            else:
                out = trace(workload, seed, int(argv[3]), refs, workdir)
        import credal
        import numpy

        out["credal_file"] = credal.__file__
        out["numpy"] = numpy.__version__
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
