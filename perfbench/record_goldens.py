"""Record the sha256 of every CLI report the workloads check, into goldens.json.

Run from the root of a checkout at the commit whose reports are the
reference:  python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> None:
    workdir = ROOT / ".perfbench_work" / "goldens"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    goldens = {}
    for workload in ("classify", "h3", "feudal"):
        digests = {}
        for job in workloads.build(workload, 0, False, None):
            if not job.name.startswith("datum_"):
                digest, error = job.check(job.run())
                if error:
                    raise SystemExit(f"{workload} {job.name}: {error}")
                digests[job.name] = digest
        goldens[workload] = dict(sorted(digests.items()))
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
