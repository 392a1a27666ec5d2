"""Benchmark of the dicka simulator and key-rate workbench.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate-long --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
(``op_p50_ms``, ``peak_rss_mb``, ``setup_s``) with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # the start of a run, for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One numerical-library thread in this process and in every child, fixed
# before numpy loads: the machine is shared and has few cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
MAX_RSS_MB = 2048

END_TO_END_UNITS = {"op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def load_program():
    """Import dicka from this checkout's sources, never from elsewhere."""
    if not (SRC / "dicka" / "__init__.py").is_file():
        sys.exit(f"error: no dicka sources under {SRC}; run from the root of a dicka checkout")
    sys.path.insert(0, str(SRC))
    import dicka

    if not Path(dicka.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported dicka from {dicka.__file__}, not from {SRC}")
    return dicka


def make_workload(name: str, seed: int, work_dir: Path):
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    wl.setup(seed, work_dir, child_env())
    return wl


def median_of_children(argv: list[str]) -> float:
    """Median of the number that each of SETUP_SAMPLES fresh processes prints."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(argv, env=child_env(), check=True, capture_output=True, text=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def setup_seconds(args) -> float:
    """Set-up time of fresh runs: from the start of run.py to the end of input generation."""
    return median_of_children([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(args.seed), "--seconds", "0", "--setup-only"])


def import_ms() -> float:
    """Time a fresh interpreter spends in ``import dicka.cli``, in ms."""
    code = "import time; t = time.perf_counter(); import dicka.cli; print((time.perf_counter() - t) * 1e3)"
    return median_of_children([sys.executable, "-c", code])


def closed_loop(wl, seconds: float, tracer):
    """One untimed warm-up, then operations back to back until ``seconds`` have passed.

    The clock is only read at the end of a whole round of operations, so
    every run attempts whole rounds.
    """
    warm_up = wl.prepare(0)
    if tracer is not None:
        tracer.memory = True
    wl.record(warm_up, wl.run(warm_up, tracer), timed=False)
    if tracer is not None:
        tracer.memory = False
    op_ms, failed = [], 0
    deadline = time.perf_counter() + seconds
    index = 1
    while True:
        for _ in range(wl.round_size):
            job = wl.prepare(index)
            if tracer is not None:
                tracer.op = len(op_ms)
            start = time.perf_counter()
            result = wl.run(job, tracer)
            op_ms.append((time.perf_counter() - start) * 1e3)
            if tracer is not None:
                tracer.op = None
            failed += wl.record(job, result, timed=True)
            index += 1
        if time.perf_counter() >= deadline:
            return op_ms, failed


def measure(wl, seconds: float, traced: bool):
    """Run the closed loop and check the outputs.

    Returns (op_ms, failed, problems, values, tracer); ``values`` holds
    op_p50_ms and peak_rss_mb untraced, the per-layer figures traced.
    """
    if not traced:
        op_ms, failed = closed_loop(wl, seconds, None)
        peak = wl.peak_rss_mb()
        problems = wl.check(None)
        if peak > MAX_RSS_MB:
            problems.append(f"peak RSS {peak:.0f} MB exceeds {MAX_RSS_MB} MB")
        return op_ms, failed, problems, {"op_p50_ms": statistics.median(op_ms), "peak_rss_mb": peak}, None
    from tracing import Tracer, instrument, layer_metrics

    tracer = Tracer()
    with instrument(tracer):
        op_ms, failed = closed_loop(wl, seconds, tracer)
        problems = wl.check(tracer)
    return op_ms, failed, problems, layer_metrics(tracer.spans, op_ms), tracer


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    work_dir = HERE / "out" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        load_program()
        if args.setup_only:
            make_workload(args.workload, args.seed, work_dir)
            print(time.perf_counter() - STARTED)
            return 0
        setup_s = None if args.trace else setup_seconds(args)
        wl = make_workload(args.workload, args.seed, work_dir)
        op_ms, failed, problems, values, tracer = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if tracer is not None:
        from tracing import PER_LAYER

        tracer.write(HERE / "out" / f"trace-{args.workload}-{args.seed}.json", workload=args.workload, seed=args.seed)
        values["cli.import_ms"] = import_ms()
        units = PER_LAYER
    else:
        values["setup_s"] = setup_s
        units = END_TO_END_UNITS.items()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(op_ms), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
