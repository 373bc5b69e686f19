"""specrad benchmark: serial time to a certified Perron eigenpair.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One process runs one workload: one caller, closed loop (each op starts
after the previous one ends), BLAS pinned to one thread, repeated set-up,
one untimed warm-up op, then ops for ``--seconds`` (by default
``run_seconds`` from ``BENCHMARK.json``).  Every op is checked by the
benchmark's own oracle.  ``--workload all`` (the default) runs each
workload in a fresh process and prints a summary.  ``--trace 1`` wraps
specrad's public functions and reports per-layer metrics instead of the
end-to-end ones.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import os

# Pin BLAS before numpy is imported, in this process and in its children.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up runs back to back before the warm-up op, at least SETUP_MIN_REPS
#: times and for at least SETUP_MIN_SECONDS; setup_s is the median.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 3.0

#: Fewest ops in a run for which op_s_p90 is reported.
P90_MIN_OPS = 100

#: Share of a traced run spent on untraced ops, to measure the overhead.
UNTRACED_SHARE = 1 / 3

#: Metrics the machine-readable result carries (see BENCHMARK.json).
END_TO_END = {"ops_per_s": "1/s", "op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
EXTRA_UNITS = {"op_s_p90": "s", "failed_frac": "ratio"}


def import_specrad():
    """Import specrad from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "specrad" / "__init__.py").is_file():
        sys.exit(f"perfbench: no specrad sources under {src}")
    sys.path.insert(0, str(src))
    import specrad

    if Path(specrad.__file__).resolve().parent != (src / "specrad").resolve():
        sys.exit(f"perfbench: imported specrad from {specrad.__file__}, not {src}")
    return specrad


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def describe(e: Exception) -> str:
    where = traceback.extract_tb(e.__traceback__)[-1]
    return f"{type(e).__name__}: {e} (in {where.name})"


class Loop:
    """Runs a workload's ops in a closed loop, checking each one."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.causes: Counter = Counter()

    def one(self, i: int, tracer=None) -> float:
        """Run and check op ``i``; returns its wall time."""
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = self.wl.op(i)
            causes = None
        except Exception as e:  # an op that raises counts as failed; the run goes on
            causes = [describe(e)]
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op_id = tracing.IDLE
        if causes is None:
            try:
                causes = self.wl.check(i, out)
            except Exception as e:  # a check that raises fails the op, not the run
                causes = [f"check raised {describe(e)}"]
        self.attempted += 1
        if causes:
            self.failed += 1
            self.causes.update(causes)
        return dt

    def run(self, seconds: float, whole_passes: bool = False, tracer=None) -> list[float]:
        """Ops for ``seconds``: at least one, and with ``whole_passes`` on
        to the end of a pass.  Returns the op times."""
        times: list[float] = []
        t0 = time.perf_counter()
        while not times or time.perf_counter() - t0 < seconds or (
            whole_passes and len(times) % self.wl.pass_len
        ):
            times.append(self.one(len(times), tracer))
        return times


def repeated_setup(wl) -> list[float]:
    """Set-up back to back; returns the wall time of each repetition."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def measure(wl, seconds: float):
    """Untraced run: repeated set-up, warm-up op, then timed ops."""
    setup_times = repeated_setup(wl)
    wl.verify_setup()
    loop = Loop(wl)
    loop.one(0)
    times = loop.run(seconds)
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": loop.failed / loop.attempted,
    }
    if len(times) >= P90_MIN_OPS:
        metrics["op_s_p90"] = statistics.quantiles(times, n=10)[-1]
    info = {"timed_ops": len(times), "setup_reps": len(setup_times)}
    return loop, metrics, info


def measure_traced(wl, seconds: float, spans_path: Path):
    """Traced run: untraced ops for a third of the time, traced ops for the
    rest, both ending on a pass boundary."""
    tracer = tracing.Tracer()
    with tracer:
        wl.setup()
    tracer.op_id = tracing.IDLE
    wl.verify_setup()
    loop = Loop(wl)
    loop.one(0)
    plain = loop.run(seconds * UNTRACED_SHARE, whole_passes=True)
    with tracer:
        traced = loop.run(seconds * (1 - UNTRACED_SHARE), whole_passes=True, tracer=tracer)
    tracer.save(spans_path)
    ops = set(range(len(traced)))
    passes = len(traced) // wl.pass_len
    plain_pass = sum(plain) / (len(plain) // wl.pass_len)
    traced_pass = sum(traced) / passes
    metrics = tracing.layer_metrics(tracer, ops, passes)
    metrics.update(tracing.module_shares(tracer, ops, sum(traced)))
    metrics["trace.pass_s"] = traced_pass
    metrics["trace.overhead_s"] = traced_pass - plain_pass
    metrics["trace.overhead_frac"] = traced_pass / plain_pass - 1
    info = {
        "traced_passes": passes,
        "untraced_passes": len(plain) // wl.pass_len,
        "absent": tracer.absent,
        "self_shares": tracing.function_shares(tracer, ops, sum(traced)),
    }
    return loop, metrics, info


def unit_of(name: str) -> str:
    return {**END_TO_END, **EXTRA_UNITS, **tracing.PER_LAYER}[name]


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sr = import_specrad()
    env = environment(seed)
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name](sr, seed, OUT / f"work-{os.getpid()}")
    try:
        if trace:
            loop, metrics, info = measure_traced(wl, seconds, OUT / f"spans-{name}.npz")
        else:
            loop, metrics, info = measure(wl, seconds)
    finally:
        wl.close()
    print("env " + json.dumps(env))
    print(f"workload {name}  seed {seed}  trace {int(trace)}  " + "  ".join(
        f"{k}={v}" for k, v in info.items() if k != "self_shares"))
    for k, v in metrics.items():
        n = f"  (n={info['timed_ops']})" if k == "op_s_p90" else ""
        print(f"  {k:<36} {v:>14.6g} {unit_of(k)}{n}")
    for k, v in info.get("self_shares", {}).items():
        print(f"  self share  {k:<40} {100 * v:6.2f} %")
    for note in wl.notes:
        print(f"note: {note}")
    for cause, count in loop.causes.items():
        print(f"FAILED x{count}: {cause}")
    wanted = tracing.PER_LAYER if trace else END_TO_END
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in wanted},
    }
    record = {"env": env, "workload": name, "trace": int(trace), "info": info,
              "metrics": metrics, "notes": wl.notes, "failures": dict(loop.causes)}
    (OUT / f"result-{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_seconds() -> float:
    """The run length fixed in ``BENCHMARK.json``."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, then a summary."""
    summary, status = {}, 0
    for name in WORKLOADS:
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(trace))],
                stdout=subprocess.PIPE, text=True, timeout=600)
        except subprocess.TimeoutExpired:
            summary[name], status = None, 1
            continue
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[name] = None
        if proc.returncode != 0 or summary[name] is None:
            status = 1
    print()
    for name, res in summary.items():
        if res is None:
            print(f"{name:<14} no result")
            continue
        vals = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()) if not trace else f"{len(res['metrics'])} per-layer metrics"
        print(f"{name:<14} correct={res['correct']} attempted={res['attempted']} failed={res['failed']}  {vals}")
    print(json.dumps({"correct": status == 0, "workloads": summary}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed run length (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
