"""Self-test of the benchmark on a tiny subset of every workload.

Run from the root of a checkout:  python3 perfbench/selftest.py

It checks that every end-to-end and per-layer metric in BENCHMARK.json is
printed with its unit, that a wrong golden digest makes jobs fail, and that
every benchmark process starts with cold fusionkit module caches.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def run(workload: str, trace: int, goldens: Path | None = None) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    if goldens is not None:
        argv += ["--goldens", str(goldens)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    *_, summary, result = proc.stdout.strip().splitlines()
    assert summary.startswith("perfbench summary "), summary
    return json.loads(summary.split(" ", 2)[2]), json.loads(result)


def check_metrics(metrics: dict, declared: list[dict], where: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == want, f"{where}: printed {sorted(got.items())}, declared {sorted(want.items())}"
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is not a number"


def check_cold_caches(workload: str) -> None:
    results = sorted((WORK / workload).glob("*/result.json"))
    assert results, f"{workload}: no process results"
    for path in results:
        caches = json.loads(path.read_text())["caches_at_start"]
        assert caches, f"{path}: no fusionkit module caches found to check"
        warm = {k: v for k, v in caches.items() if v}
        assert not warm, f"{path}: caches warm at process start: {warm}"


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            summary, result = run(workload, trace)
            where = f"{workload} trace={trace}"
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{where}: {result}"
            check_metrics(result["metrics"], declared, where)
            check_metrics(summary["end_to_end"], bench["end_to_end"], f"{where} summary")
            assert summary["fail_share"] == {"value": 0.0, "unit": "ratio"}, f"{where}: {summary['fail_share']}"
            check_cold_caches(workload)
        print(f"selftest: {workload} ok")

    goldens = json.loads((HERE / "goldens.json").read_text())
    wrong = {w: {name: "0" * 64 for name in digests} for w, digests in goldens.items()}
    path = WORK / "goldens-wrong.json"
    path.write_text(json.dumps(wrong))
    summary, result = run("classify", 0, goldens=path)
    assert summary["fail_share"]["value"] > 0 and result["failed"] > 0 and not result["correct"], result
    print("selftest: a wrong golden fails the run")


if __name__ == "__main__":
    main()
