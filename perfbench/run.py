"""Run one benchmark workload of ``bdgeom`` and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paths --seed 1 --seconds 20 --trace 0

The workload runs in this one process on one thread, with ``bdgeom``
imported from the checkout's ``src/``.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full result, with machine information, goes to
``perfbench/out/``, and a traced run also writes its spans there.  Exit
code 2 means ``bdgeom`` could not be imported from ``src/``.
"""
import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[19])  # field 22 of stat(5), counted after the name
        return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


PROCESS_START = time.perf_counter() - _process_age()

# numpy links a threaded OpenBLAS: pin every pool before numpy is imported
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def import_bdgeom() -> SimpleNamespace:
    """The package modules, imported from this checkout's ``src/`` only."""
    sys.path.insert(0, str(SRC))
    import bdgeom
    from bdgeom import functionals, geometry, process, statistics, theory, verify

    if not Path(bdgeom.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bdgeom resolved to {bdgeom.__file__}, outside {SRC}")
    return SimpleNamespace(
        functionals=functionals,
        geometry=geometry,
        process=process,
        statistics=statistics,
        theory=theory,
        verify=verify,
    )


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["paths", "slices", "models"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        bd = import_bdgeom()
    except ImportError as exc:
        print(f"cannot import bdgeom from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads
    from spans import SpanTable, Tracer

    workload = workloads.WORKLOADS[args.workload](bd, args.seed, args.seconds)
    setup_s = time.perf_counter() - PROCESS_START
    untraced = workload.run()
    problems = workload.check(untraced)
    attempted, failed = untraced.attempted, untraced.failed
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    unscaled = None
    if args.trace:
        tracer = Tracer()
        for owner, attr, name, units in workloads.trace_targets(bd):
            tracer.wrap(owner, attr, name, units)
        try:
            traced = workload.run(tracer.span)
        finally:
            tracer.restore()
        attempted += traced.attempted
        failed += traced.failed
        if workloads.fingerprint(traced.outputs) != workloads.fingerprint(untraced.outputs):
            problems.append("traced outputs differ from untraced outputs")
        metrics = workload.per_layer(traced, SpanTable(tracer))
        overhead = sum(traced.seconds.values()) - sum(untraced.seconds.values())
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.spans"] = {"value": float(len(tracer)), "unit": "count"}
        tracer.save(OUT / f"spans-{stem}.npz")
    else:
        clock = untraced.clock
        metrics = workload.end_to_end(untraced)
        metrics["setup_s"] = {"value": setup_s * clock.scale(clock.first), "unit": "s"}
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
        unscaled = workload.end_to_end(replace(untraced, seconds=untraced.raw_seconds))
        unscaled["setup_s"] = {"value": setup_s, "unit": "s"}

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    info = machine()
    with open(OUT / f"result-{stem}.json", "w") as handle:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": info, "problems": problems,
                   "unscaled_metrics": unscaled, "seconds_by_kind": untraced.seconds,
                   "raw_seconds_by_kind": untraced.raw_seconds}, handle, indent=2)
        handle.write("\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"machine: {json.dumps(info)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
