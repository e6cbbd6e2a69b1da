"""One benchmark process: set up a workload, time passes over its jobs, report.

run.py starts a fresh interpreter with this script for every process of a
run, so each begins with cold fusionkit module caches.  They are emptied
before every CLI job, so that one starts as cold as a CLI call however often it
runs in the process, and restored after it: API jobs share the caches of their
process, as calls in one session do.  The result goes to the JSON file named
by --out.

Untraced, the process runs passes over all jobs, every other one in reverse,
and stops at the first job that ends after its --seconds are used, but not
before one whole pass.  Traced, it runs one untraced pass, installs the tracer
and runs one traced pass.

Between jobs, at most every CAL_EVERY_S, it times ``calibrate``, a fixed loop
that uses no fusionkit code.  Each job run also gets a time in reference
seconds ("ref_s"): its time scaled by CAL_REF_S over the median of the
calibrations around it.  On a shared host the CPU's speed changes by a factor
of up to 1.7 within seconds and can stay changed for a minute; the scaling
takes most of that out, and a change to fusionkit moves ref_s as much as s.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def module_caches():
    """The module-level caches in fusionkit (dicts named with CACHE), by qualified name."""
    for name, module in sorted(sys.modules.items()):
        if name.startswith("fusionkit."):
            for attr, value in vars(module).items():
                if "CACHE" in attr and isinstance(value, dict):
                    yield f"{name}.{attr}", value


# A calibration loop takes about 5 ms on a 2-core Xeon VM; CAL_REF_S defines
# the reference seconds.  Calibrating at most every CAL_EVERY_S costs under 3%;
# a median over CAL_WINDOW_S on each side of a job smooths the loop's own jitter.
CAL_REF_S = 0.005
CAL_EVERY_S = 0.2
CAL_WINDOW_S = 1.0


def calibrate() -> float:
    """Time one run of a fixed pure-Python loop: the host's speed just now."""
    start = time.perf_counter()
    counts, total = {}, 0
    for i in range(25000):
        key = i * 7 % 97
        counts[key] = counts.get(key, 0) + i
        total += counts[key] % 5
    return time.perf_counter() - start


def clear_caches() -> None:
    for _, cache in module_caches():
        cache.clear()


def run_job(job) -> dict:
    saved = [(cache, dict(cache)) for _, cache in module_caches()] if job.cold else []
    for cache, _ in saved:
        cache.clear()
    start = time.perf_counter()
    try:
        out, error = job.run(), None
    except (Exception, SystemExit) as exc:  # a failed job is recorded, and the loop goes on
        traceback.print_exc()
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    digest = ""
    if error is None:
        try:
            digest, error = job.check(out)
        except Exception as exc:
            traceback.print_exc()
            error = f"check raised {type(exc).__name__}: {exc}"
    for cache, content in saved:  # the API jobs of the process keep their caches
        cache.clear()
        cache.update(content)
    return {"name": job.name, "s": elapsed, "ok": error is None, "error": error, "digest": digest}


def run_jobs(order, more) -> tuple[list[dict], list[float]]:
    """Run the jobs of ``order`` cyclically while ``more(records)``, calibrating between them.

    A job run's host speed is the median calibration within CAL_WINDOW_S of it,
    counting always the last one before and the first one after it.
    """
    clock = time.perf_counter
    cals = [(clock(), calibrate())]  # (start, seconds)
    records = []
    while more(records):
        if clock() - cals[-1][0] >= CAL_EVERY_S:
            cals.append((clock(), calibrate()))
        start = clock()
        record = run_job(order[len(records) % len(order)])
        record.update(start=start, end=start + record["s"], cal=len(cals) - 1)
        records.append(record)
    cals.append((clock(), calibrate()))
    starts = [t for t, _ in cals]
    for record in records:
        k, start, end = record.pop("cal"), record.pop("start"), record.pop("end")
        lo = min(k, bisect.bisect_left(starts, start - CAL_WINDOW_S))
        hi = max(k + 2, bisect.bisect_right(starts, end + CAL_WINDOW_S))
        speed = statistics.median(c for _, c in cals[lo:hi])
        record["ref_s"] = record["s"] * CAL_REF_S / speed
    return records, [c for _, c in cals]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time for the passes of this process")
    ap.add_argument("--part", type=int, required=True, help="process number; odd ones start with a reversed pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--goldens", required=True)
    ap.add_argument("--out", required=True, help="result file; spans go beside it")
    args = ap.parse_args()

    import fusionkit  # noqa: F401  (the import is part of set-up)

    caches = {name: len(cache) for name, cache in module_caches()}
    import workloads

    with open(args.goldens) as fh:
        goldens = json.load(fh).get(args.workload, {})
    jobs = workloads.build(args.workload, args.seed, args.smoke, goldens)

    first_job = time.monotonic()
    result = {"first_job": first_job, "caches_at_start": caches, "trace": None}
    one_pass = lambda records: len(records) < len(jobs)  # noqa: E731
    if args.trace:
        from tracer import Tracer

        plain, cals = run_jobs(jobs, one_pass)
        tracer = Tracer().install(extra_modules=[workloads])
        clear_caches()  # both passes start cold, as the process did
        traced, _ = run_jobs(jobs, one_pass)
        overhead = sum(r["s"] for r in traced) - sum(r["s"] for r in plain)
        result.update(jobs=plain, traced_jobs=traced, overhead_s=overhead, trace=tracer.raw_stats())
        tracer.write_spans(Path(args.out).with_name("spans.jsonl"))
    else:
        deadline = time.perf_counter() + args.seconds
        cycle = jobs + jobs[::-1] if args.part % 2 == 0 else jobs[::-1] + jobs
        records, cals = run_jobs(cycle, lambda records: one_pass(records) or time.perf_counter() < deadline)
        result["jobs"] = records
    result["cal_median_s"] = statistics.median(cals)  # scales setup_s, which ran before any calibration
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
