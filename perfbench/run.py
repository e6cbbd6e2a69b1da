"""fusionkit benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify|h3|verify|feudal \
        --seed N --seconds S --trace 0|1

With --trace 0 a run starts PROCESSES[workload] fresh interpreters one after
another (closed loop, one client), all on one CPU; each sets up the workload
from the seed and runs passes over all its jobs for its share of the seconds.
A job's time is the median of its runs, each in reference seconds: scaled by
the host's speed measured just before and after it (see child.py).  With
--trace 1 one process runs a pass untraced and a pass traced, requires
identical per-job outcomes, and prints the per-layer metrics.  The last line of
stdout is the result object; the line before it is a summary with provenance,
fail_share and the end-to-end metrics in unscaled seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import CAL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Processes per run: each starts cold and sets up again, so setup_s is a median.
# verify has two, because its set-up takes about 5 s.
PROCESSES = {"classify": 3, "h3": 3, "verify": 2, "feudal": 3}
DEADLINE_S = 170


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ten jobs beyond it; None means the maximum."""
    q = math.floor(100 - 1000 / n) if n else 0
    return q if q >= 50 else None


def tail_value(times: list[float]) -> float:
    q = tail_percentile(len(times))
    ordered = sorted(times)
    if q is None:
        return ordered[-1]
    return ordered[math.ceil(q * len(ordered) / 100) - 1]


def job_times(records: list[dict], key: str = "ref_s") -> dict[str, float]:
    """Each distinct job's median time over its runs, in reference ("ref_s") or unscaled ("s") seconds."""
    samples = {}
    for j in records:
        samples.setdefault(j["name"], []).append(j[key])
    return {name: statistics.median(v) for name, v in samples.items()}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, jobs_per_run: int, job_runs: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_pinned": min(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "processes_per_run": 1 if args.trace else PROCESSES[args.workload],
        "jobs_per_run": jobs_per_run,  # distinct jobs: the samples behind the percentiles
        "job_runs_per_run": job_runs,  # runs of those jobs; a job's time is the median of its runs
        "job_s_tail_percentile": tail_percentile(jobs_per_run) or "max",
    }


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
        )

    def spawn(self, argv, cwd: Path, log: Path) -> None:
        with open(log, "w") as err:
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise SystemExit(f"perfbench: the run exceeded its {DEADLINE_S} s deadline")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            sys.stderr.write(log.read_text()[-4000:])
            raise SystemExit(f"perfbench: a benchmark process exited with code {code}")

    def warm(self) -> None:
        """Compile the bytecode once, so no timed set-up pays for it."""
        self.spawn([sys.executable, "-c", "import tracer, workloads"], self.workdir, self.workdir / "warm.log")

    def processes(self, trace: int) -> list[dict]:
        """Run the workload's processes one after another; return their results."""
        parts = 1 if trace else PROCESSES[self.args.workload]
        results = []
        for part in range(parts):
            cwd = self.workdir / f"{'traced' if trace else 'plain'}{part}"
            cwd.mkdir()
            argv = [
                sys.executable, str(HERE / "child.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--seconds", str(self.args.seconds / parts), "--part", str(part),
                "--trace", str(trace), "--goldens", str(self.args.goldens), "--out", str(cwd / "result.json"),
            ]
            if self.args.smoke:
                argv.append("--smoke")
            spawned = time.monotonic()
            self.spawn(argv, cwd, cwd / "stderr.log")
            with open(cwd / "result.json") as fh:
                res = json.load(fh)
            res["setup_s"] = res["first_job"] - spawned
            results.append(res)
        return results


def end_to_end(results: list[dict], key: str = "ref_s") -> dict:
    times = list(job_times([j for r in results for j in r["jobs"]], key).values())
    scale = (lambda r: CAL_REF_S / r["cal_median_s"]) if key == "ref_s" else (lambda r: 1.0)
    return {
        "setup_s": {"value": statistics.median(r["setup_s"] * scale(r) for r in results), "unit": "s"},
        "wall_s": {"value": sum(times), "unit": "s"},
        "job_s_p50": {"value": statistics.median(times), "unit": "s"},
        "job_s_tail": {"value": tail_value(times), "unit": "s"},
        "peak_rss_mb": {"value": max(r["maxrss_kib"] for r in results) / 1024, "unit": "MiB"},
    }


def outcomes(records: list[dict]) -> list:
    return sorted((j["name"], j["ok"], j["digest"]) for j in records)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=PROCESSES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a tiny subset of each workload (self-test)")
    ap.add_argument("--goldens", type=Path, default=HERE / "goldens.json", help="report digests to check against")
    args = ap.parse_args()
    args.goldens = args.goldens.resolve()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))  # runs the cleanup in spawn

    if not (ROOT / "src" / "fusionkit" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no fusionkit sources under {ROOT / 'src'}\n")
        return 2
    # Every process of the run shares one CPU: a process that moves between
    # CPUs of a shared host also moves between their speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    runner = Runner(args, workdir)
    runner.warm()
    results = runner.processes(args.trace)
    records = [j for r in results for j in r["jobs"] + r.get("traced_jobs", [])]
    failed = [j for j in records if not j["ok"]]
    correct = not failed
    for j in failed[:10]:
        sys.stderr.write(f"perfbench: {args.workload} job {j['name']} failed: {j['error']}\n")
    caches = {k: v for r in results for k, v in r["caches_at_start"].items() if v}
    if caches:
        sys.stderr.write(f"perfbench: module caches were warm at process start: {caches}\n")
        correct = False

    e2e = end_to_end(results)
    if args.trace:
        import tracer

        (res,) = results
        if outcomes(res["traced_jobs"]) != outcomes(res["jobs"]):
            sys.stderr.write("perfbench: traced and untraced runs gave different outcomes\n")
            correct = False
        metrics = tracer.per_layer_metrics(tracer.merge_stats([res["trace"]]), res["overhead_s"])
    else:
        metrics = e2e

    plain = [j for r in results for j in r["jobs"]]
    summary = {
        "provenance": provenance(args, len(job_times(plain)), len(plain)),
        "end_to_end": e2e,
        "end_to_end_unscaled": end_to_end(results, key="s"),
        "fail_share": {"value": len(failed) / len(records) if records else 0.0, "unit": "ratio"},
    }
    print("perfbench summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
