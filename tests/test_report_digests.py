"""Byte identity of `uber classify` and `cohom h3` reports.

classify_digests.json holds the sha256 of the JSON report of each bundled
rule, keyed "name@p".  H3_DIGESTS holds the sha256 of `cohom h3` reports,
keyed by their argument lists; D3 is the one non-abelian group among them.
A change that alters any byte of a report (class order, representatives,
orbits, lattice figures, normalized cocycle values) fails here.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from fusionkit.cli import main

DIGESTS = json.loads((Path(__file__).parent / "classify_digests.json").read_text())

H3_DIGESTS = {
    "Z4@17 --via-uber auto": "5316cd9ebdcbcffe78a0e5996009e22eb88d21a972ba5833f2b9e87f138b3c0a",
    "Z2xZ2@13": "09797ab73a41deccb8272b57e6a639b7d2915901ebd45625f39a32fb54ebb472",
    "D3@7": "f462001b4bd2a54c24810a8aa5ec656bc79718b06bcb6eacb9e9ef0cd743e1c5",
}


def _report_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_classify_report_bytes(case):
    name, p = case.split("@")
    argv = ["uber", "classify", "--rule", f"builtin:{name}", "--p", p]
    assert _report_digest(argv) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(H3_DIGESTS))
def test_h3_report_bytes(case):
    group_at_p, *extra = case.split()
    group, p = group_at_p.split("@")
    argv = ["cohom", "h3", "--group", group, "--p", p, *extra]
    assert _report_digest(argv) == H3_DIGESTS[case]
