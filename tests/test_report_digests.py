"""Byte identity of `uber classify` reports.

classify_digests.json holds the sha256 of the JSON report of each bundled
rule, keyed "name@p".  A change that alters any byte of a report (class
order, representatives, orbits, lattice figures) fails here.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from fusionkit.cli import main

DIGESTS = json.loads((Path(__file__).parent / "classify_digests.json").read_text())


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_classify_report_bytes(case):
    name, p = case.split("@")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["uber", "classify", "--rule", f"builtin:{name}", "--p", p])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[case]
