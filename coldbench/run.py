"""Cold-process benchmark for star-spectra.

    python3 coldbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src and
nowhere else.  One run is one fresh process.  Set-up (interpreter start,
imports, inputs) is timed once from process creation; then the workload
repeats whole rounds until S seconds of rounds have passed (at least one
round); then the outputs are checked.  The last line on stdout is one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones (setup_s, wall_s = median round,
peak_rss_mb); with --trace 1 they are the per-layer ones, taken from spans
that a traced run records and writes to coldbench/results/.  See README.md.
"""

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time

_M_TRIM_THRESHOLD = -1  # mallopt parameters, glibc malloc.h
_M_MMAP_THRESHOLD = -3

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")


def _seconds_since_process_start() -> float:
    """Boot-clock now minus the process start time the kernel recorded.

    The start time has the kernel's clock-tick resolution (10 ms), which is
    small against a set-up of a few tenths of a second.
    """
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def _pin_allocator() -> None:
    """Fix glibc malloc's thresholds, so large temporaries reuse heap pages.

    By default glibc moves its mmap threshold as blocks are freed, and the
    solver's ~10 MB temporaries then either stay on the heap or are mapped
    and unmapped on every evaluation.  Which one happens varied between runs
    of the same code.  Unmapped temporaries fault in again each time (about
    64k page faults per solve at v=100), which made an R2 round take 1.7-2.0 s
    at 70 MB instead of 1.0-1.2 s at 79 MB.  Fixed thresholds make every run
    take the same path: blocks up to 32 MB come from the heap, and the heap
    gives memory back only once 64 MB at its top are free, so the solver's
    working set stays mapped.  Call before the first large allocation; forked
    pool workers inherit the setting.
    """
    libc = ctypes.CDLL("libc.so.6")
    if not (libc.mallopt(_M_MMAP_THRESHOLD, 32 * 2**20) and libc.mallopt(_M_TRIM_THRESHOLD, 64 * 2**20)):
        sys.exit("glibc mallopt refused the benchmark's malloc thresholds")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import star_spectra from ./src of the current directory, or exit with an error."""
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.isfile(os.path.join(src, "star_spectra", "__init__.py")):
        sys.exit(f"no star_spectra package under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import star_spectra

    if not os.path.realpath(star_spectra.__file__).startswith(src + os.sep):
        sys.exit(f"star_spectra was imported from {star_spectra.__file__}, not {src}")


def _peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped pool workers."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_allocator()
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    work = workloads.WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        work.traced_layers(tracer)
    setup_s = _seconds_since_process_start()

    if tracer is not None:
        tracer.phase = "timed"
    results, round_s = [], []
    timed_start = time.perf_counter()
    while True:
        if results:
            work.reset()
        start = time.perf_counter()
        if tracer is None:
            results.append(work.run_round())
        else:
            with tracer.span("round"):
                results.append(work.run_round())
        round_s.append(time.perf_counter() - start)
        if time.perf_counter() - timed_start >= args.seconds:
            break
    peak_rss_mb = _peak_rss_mb()
    cpu_s = _cpu_seconds()

    if tracer is not None:
        tracer.phase = "check"
    check_start = time.perf_counter()
    failed, messages = work.check(results)
    check_s = time.perf_counter() - check_start
    for line in messages:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = len(work.ops) * len(results)
    wall_s = statistics.median(round_s)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} rounds={len(results)} "
        f"wall_s={wall_s:.4f} setup_s={setup_s:.4f} peak_rss_mb={peak_rss_mb:.1f} "
        f"cpu_s={cpu_s:.2f} check_s={check_s:.2f} rounds_s={' '.join(f'{t:.3f}' for t in round_s)}",
        file=sys.stderr,
    )

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        tracer.close()
        metrics = tracing.layer_metrics(tracer.spans, len(results), work.counts(results))
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": len(results),
                       "wall_s": wall_s, "metrics": metrics, "spans": tracer.spans}, fh, indent=1)
    correct = failed == 0 and not messages
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
