"""Benchmark of entmd: one workload per process, timed passes, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload desk-exp --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (median pass time, set-up time,
peak resident memory, share of operations that passed their checks).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones, plus the tracing overhead.  The last
line of standard output is the result object; the line before it is a
report with the pass times, the matvec floors, the output digests, every
failure and the machine the run measured.
"""

import os

# One BLAS thread in this process and in the set-up processes it starts.
# Must precede the first numpy import: with two threads the 1000x2000
# trajectory changes and its timing spread widens.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 2  # the desk-exp digests compare a pass with an earlier one
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 15
SETUP_BUDGET_S = 2.0  # cheap set-ups take more samples within this budget
FLOOR_REPEATS = 21


def setup_seconds(workload: str, seed: int, workdir: Path) -> list[float]:
    """Import entmd and build the workload's inputs in fresh processes.

    Each sample times ``import entmd`` (numpy included) plus the builders,
    from a clock read before the import; interpreter start-up is excluded.
    """
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import entmd\n"
        "import pathlib, sys, workloads\n"
        f"workloads.build({workload!r}, {seed}, pathlib.Path(sys.argv[1]))\n"
        "print(time.perf_counter() - t0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    samples = []
    start = time.perf_counter()
    while len(samples) < SETUP_MIN_SAMPLES or (
            len(samples) < SETUP_MAX_SAMPLES and time.perf_counter() - start < SETUP_BUDGET_S):
        target = workdir / f"setup{len(samples)}"
        target.mkdir()
        done = subprocess.run([sys.executable, "-c", code, str(target)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=150, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def matvec_floor_us(m: int, n: int) -> float:
    """Median time of a bare ``at @ (a @ x - b)`` at this shape, in microseconds.

    Each of FLOOR_REPEATS samples times a batch of at least 2 ms.
    """
    import numpy as np

    rng = np.random.default_rng(m * 100_003 + n)
    a = rng.standard_normal((m, n))
    at = np.ascontiguousarray(a.T)
    x = rng.random(n)
    b = rng.standard_normal(m)
    for _ in range(3):
        at @ (a @ x - b)
    t0 = time.perf_counter()
    at @ (a @ x - b)
    batch = max(1, int(2e-3 / max(time.perf_counter() - t0, 1e-7)))
    samples = []
    for _ in range(FLOOR_REPEATS):
        t0 = time.perf_counter()
        for _ in range(batch):
            at @ (a @ x - b)
        samples.append((time.perf_counter() - t0) / batch)
    return 1e6 * statistics.median(samples)


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten passes beyond it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 2), "value": sorted(values)[n - 11]}


def _probe() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - t0


def pin_fastest_cpu(cpus: list[int]) -> int | None:
    """Pin this process to the CPU where a short pure-Python probe runs fastest.

    On a shared host each CPU's speed drifts with the neighbours' load (a
    probe loop varied 17-30 ms per CPU within a minute, while the faster
    of two CPUs stayed within 17-26 ms), so every pass starts on the least
    contended CPU.  Returns None where affinity cannot be set.
    """
    if len(cpus) < 2:
        return None
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_probe() for _ in range(3)), cpu))
    cpu = min(timings)[1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_pass(ops) -> tuple[list[float], list[str]]:
    """Run every operation once; return the seconds of each call and the failures."""
    import workloads

    results = [workloads.run_operation(op) for op in ops]
    return [secs for secs, _ in results], [err for _, err in results if err]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entmd" / "__init__.py").is_file():
        print(f"error: no entmd sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return _measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(args, spec, workdir) -> int:
    import envinfo
    import tracer
    import workloads

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    pinned = [pin_fastest_cpu(cpus)]
    setup = [] if args.trace else setup_seconds(args.workload, args.seed, workdir)
    tr = tracer.Tracer()
    if args.trace:
        with tracer.patched(tr):
            inputs = workloads.build(args.workload, args.seed, workdir)
    else:
        inputs = workloads.build(args.workload, args.seed, workdir)
    setup_spans = tr.take()
    floors = {f"{m}x{n}": matvec_floor_us(m, n) for m, n in workloads.SHAPES[args.workload]}

    state: dict = {}
    ops = workloads.operations(args.workload, inputs, workdir, state)
    # Untraced passes give the end-to-end metrics; with --trace 1 every
    # second pass is traced, and the difference is the tracing overhead.
    plain, traced, layer, failures = [], [], [], []
    op_seconds: dict[str, list[float]] = {op.name: [] for op in ops}
    installed: set[str] = set()
    start = time.perf_counter()
    while len(plain) + len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        pinned.append(pin_fastest_cpu(cpus))
        if args.trace and len(plain) > len(traced):
            tr.spans = list(setup_spans)
            with tracer.patched(tr) as installed:
                secs, errs = run_pass(ops)
            layer.append(tracer.layer_metrics(tr.take(), installed, floors))
            traced.append(sum(secs))
        else:
            secs, errs = run_pass(ops)
            for op, s in zip(ops, secs):
                op_seconds[op.name].append(s)
            plain.append(sum(secs))
        failures += errs
    attempted = (len(plain) + len(traced)) * len(ops)

    failed = len(failures)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        merged = {key: statistics.median(row[key] for row in layer if key in row)
                  for key in {k for row in layer for k in row}}
        merged["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        values = tracer.select(merged, names, installed)
    else:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(plain) + len(traced),
        "pinned_cpu": pinned,
        "pass_wall_s": plain,
        "traced_pass_wall_s": traced,
        "wall_s_tail": tail(plain),
        "op_median_s": {name: statistics.median(v) for name, v in op_seconds.items() if v},
        "setup_s_samples": setup,
        "floor_matvec_pair_us": floors,
        "floor_repeats": FLOOR_REPEATS,
        "digests": state.get("digests", {}),
        "error_rate": failed / attempted,
        "failures": failures,
        "env": envinfo.environment(ROOT, BLAS_THREADS),
    }
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
