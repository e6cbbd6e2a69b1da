"""Byte identity of `uber classify`, `cohom h3` and `fsys enumerate` reports.

classify_digests.json holds the sha256 of the JSON report of each bundled
rule, keyed "name@p".  H3_DIGESTS holds the sha256 of `cohom h3` reports,
keyed by their argument lists: every catalog group of order 6 to 8 at p=17
(D3, Q8 and D4 are the non-abelian ones) and three smaller cases.
FSYS_DIGESTS holds the sha256 of `fsys enumerate` reports (the brute-force
search), keyed "rule@p".  A change that alters any byte of a report (class
order, representatives, orbits, lattice figures, normalized cocycle values,
enumerated systems) fails here.

The order 6 to 8 reports are also checked against the universal
coefficient theorem, H^3(G, Z/16) = Hom(H_3 G, Z/16) + Ext(H_2 G, Z/16),
from the integral homology of each group (H_2, H_3):
Z6 (0, Z6), D3 (0, Z6), Z7 (0, Z7), Z8 (0, Z8), Q8 (0, Z8),
D4 (Z2, Z2+Z2+Z4), Z2xZ4 (Z2, Z2+Z2+Z4), Z2xZ2xZ2 (Z2^3, Z2^7).
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
    "Z6@17": "26e5d425f149a6f71db1838461bf837dec890cc2d0c623fafe23934fe311c903",
    "D3@17": "ca06d4ec9a03cec300ca6ef32d4e57dd1e359e76fb2039d08fb91b1f551b82a0",
    "Z7@17": "cf10e95d5aa8be6357fc6a1c2cf66350d4eba94b0a09358090542806fe443261",
    "Z8@17": "8650539872dbe715c442c4f50ebd793ae4da17b0fdafd1d3e7ed82cb6966f7d8",
    "Q8@17": "3454c583256956e9bec6da7bbed847df1788f475a209b74d53256158b5540fe8",
    "D4@17": "35682b63a3b7b28fb7775ae57794d112f77b25789530706914b354a5c786a270",
    "Z2xZ4@17": "7e199b41e641e7f4c9a8aea09539a89bb94a26f6418c6876b2e2769b0a24308f",
    "Z2xZ2xZ2@17": "88e95c442b69dd2b1c5f80a4503cbb755bca79cfd4b1f201b93f66f877a4171d",
}

FSYS_DIGESTS = {
    "builtin:ty_z2@17": "82a38013ad5619e1700ffc41d2c954e2dea0b1679b3d4ce824aa83e91faaa7a8",
    "builtin:ty_z2@7": "5ec0d8c488ec7920a16b3fd19b4bc46165003afb48d6810846b9100ed5891f4b",
    "builtin:z2xz2@3": "f23a1ea6e8f76d44ec1047c1d7b8d6e80ade0a288a6d5ea100339d9713de977f",
}

# |H^3| and its invariant factors by universal coefficients (see the module docstring)
H3_UNIVERSAL_COEFFICIENTS = {
    "Z6@17": (2, [2]),
    "D3@17": (2, [2]),
    "Z7@17": (1, []),
    "Z8@17": (8, [8]),
    "Q8@17": (8, [8]),
    "D4@17": (32, [2, 2, 2, 4]),
    "Z2xZ4@17": (32, [2, 2, 2, 4]),
    "Z2xZ2xZ2@17": (1024, [2] * 10),
}


def _report(argv):
    """(sha256, text) of the report a CLI run prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), out.getvalue()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_classify_report_bytes(case):
    name, p = case.split("@")
    argv = ["uber", "classify", "--rule", f"builtin:{name}", "--p", p]
    assert _report(argv)[0] == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(H3_DIGESTS))
def test_h3_report_bytes(case):
    group_at_p, *extra = case.split()
    group, p = group_at_p.split("@")
    argv = ["cohom", "h3", "--group", group, "--p", p, *extra]
    digest, text = _report(argv)
    assert digest == H3_DIGESTS[case]
    if case in H3_UNIVERSAL_COEFFICIENTS:
        doc = json.loads(text)
        assert (doc["order"], doc["invariant_factors"]) == H3_UNIVERSAL_COEFFICIENTS[case]


@pytest.mark.parametrize("case", sorted(FSYS_DIGESTS))
def test_fsys_enumerate_report_bytes(case):
    rule, p = case.split("@")
    argv = ["fsys", "enumerate", "--rule", rule, "--p", p]
    assert _report(argv)[0] == FSYS_DIGESTS[case]
