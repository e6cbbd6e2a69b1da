"""Byte identity of `uber classify`, `cohom h3` and `fsys enumerate` reports.

classify_digests.json holds the sha256 of the JSON report of each bundled
rule, keyed "name@p", and CLASSIFY_RULE_DIGESTS that of each rule of the
benchmark's classify workload, read from a rule file.  H3_DIGESTS holds the sha256 of `cohom h3` reports,
keyed by their argument lists: every catalog group of order 6 to 8 at p=17
(D3, Q8 and D4 are the non-abelian ones) and three smaller cases.
FSYS_DIGESTS holds the sha256 of `fsys enumerate` reports (the brute-force
search), keyed "rule@p".  DICTIONARY_DIGESTS holds the sha256 of `uber
reconstruct`, `uber psi`, `fsys verify` and `fsys gauge-apply` reports on
Moore-Read and TY(Z2xZ2) documents.  A change that alters any byte of a report (class
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
import random
from pathlib import Path

import pytest

from fusionkit import (
    Ambi,
    Field,
    FusionSystem,
    apply_gauge,
    cyclic,
    enumerate_feudal,
    enumerate_uber,
    jsonio,
    klein_four,
    moore_read,
    random_gauge,
    reconstruct,
    tambara_yamagami,
)
from fusionkit.cli import main

DIGESTS = json.loads((Path(__file__).parent / "classify_digests.json").read_text())

# `uber classify` on the benchmark's classify rules, written as "<name>.json" in
# the working directory (the report echoes the rule path): the 16 feudal rules
# of order <= 8 (feudal_00 to feudal_15, in enumerate_feudal(8) order) at p=17,
# TY(Z3) at p=13 and TY(Z5) at p=41; keyed "name@p".
CLASSIFY_RULE_DIGESTS = {
    "feudal_00@17": "5fa47d048e215c627c1687f55e865d76019b4e6ee820a9f5e9578cf75ad78c43",
    "feudal_01@17": "dad891560ee670b672056649d6bc94acacdb7b529ef3a8415403ab13f580c659",
    "feudal_02@17": "ffcc30860f7a503ffb3498cba6a07906da67890d1e323cfd2144ab92bb7737a6",
    "feudal_03@17": "4fb994879f540ab0ad9c27d34b32a504d6f7a4f8c7fd24aa1a5676b6b661c7b3",
    "feudal_04@17": "a754c93ac124758723dc23298c07ddd90130c2e3f0f0135bf281bad4de08451f",
    "feudal_05@17": "e5e9a1a0619a921fb41138dab29eb5555c1788c41a379519870756b2792f1248",
    "feudal_06@17": "ac3877d6d5b74a9cb66ed0a51f4b17368ecc9ee83e46cf893d55aa95ffb6eff6",
    "feudal_07@17": "4a14b761d4669e33ee0f07dd00d3aee61b6b3820d8660c51aa5665e336037967",
    "feudal_08@17": "ae0abb158b196833cb503c47d1292ed5df58a820f957781325c96e972dbf1542",
    "feudal_09@17": "213753350aea94f580142deefd97d749a347e1320ff4b586b5fd3b9ea0ff481b",
    "feudal_10@17": "2c228458ab82c9e0c34bf1f900c6cac02dbde0146e3ce9ee0cad99ec8d3359d7",
    "feudal_11@17": "b553ba2b19e4585f6f06b7b5a6d8096d2df41e709aad892b74d445852d28c9f9",
    "feudal_12@17": "089fa06c58c8f280920bb3c4c751d2fb7e6d5a173329e0f169657b488430f516",
    "feudal_13@17": "69daf4e505c893c35fd151a1623305605f7855cdecea5b666c67497fb6dc3313",
    "feudal_14@17": "1d045ebddfdf5f230805d5c84e36872130ee1877c167ba630d12d2cf66a27956",
    "feudal_15@17": "d77515e57ecf27f195108bbd1fad29c86661a6c83a9b080750c39d031a69466f",
    "ty_z3@13": "2ab5b562ba42a931d26a2859d739775d37ebcbf88e219b7a2683e1682f3d1ad2",
    "ty_z5@41": "8f500e123af369f48e178bab56a5fe950828035f5a9251d8a6e892ca80647a1f",
}

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

# The feudal dictionary both ways, at p=17, on the documents dictionary_documents
# writes: "<rule>_uber.json" (the last gauge class representative),
# "<rule>_normal.json" (the system it reconstructs to), "<rule>_xi.json" (a
# seeded random gauge), "<rule>_gauged.json" (the normal system under it) and
# "<rule>_bad.json" (the gauged system with one coefficient scaled), for the
# rules "mr" (the document names builtin:mr) and "ty" (TY(Z2xZ2), inline);
# keyed by the command line.
DICTIONARY_DIGESTS = {
    "fsys gauge-apply mr_normal.json --xi mr_xi.json": "28195641981e7cef2ce52f750a86c3ec2a93a9235abde6aa44b2aef71cae97ff",
    "fsys gauge-apply ty_normal.json --xi ty_xi.json": "338a990f34464a3d0ee8a5c18d5896ba2b10378ba9fbd7ec097baf5fd1aa564f",
    "fsys verify mr_bad.json": "688c29c1b8e8c33c136b9cf8f195ab3e28268f101c991279027fc23f6a9f3a36",
    "fsys verify mr_gauged.json": "4f503ea02dc1137a442494ff716ff0089be307b954d43fd3267d10c0d3f45fa6",
    "fsys verify ty_bad.json": "124e6fd0e47e02ddcb2b8dd7894efb258dc41f4f550b2bb8a898d901116961f7",
    "fsys verify ty_gauged.json": "1bef1c83c55bd81eb129a782398973e0420ccc3d2aa00b24340ed506884b6a9d",
    "uber psi mr_gauged.json": "b038af09421572d71d022068ee0e8485fe15293516bcac751877797fcb906f5d",
    "uber psi mr_normal.json": "dddb15007f22f76ebc29c631244fb7afe76b878189da6372dd776137a6c09cd9",
    "uber psi ty_gauged.json": "81f08ca8253865c8eb8e7d7d17b35b5302cc27411aa5074fd2d1a903a60d8b49",
    "uber psi ty_normal.json": "5e37367690f85c191c08f1f9bdd8693d31708686ebfa455c2fb9f32f66073fa5",
    "uber reconstruct mr_uber.json": "d483b3ca77ed291eaa5db5491774e05cee3fa02c39683bd39090b1e6dbc5095a",
    "uber reconstruct ty_uber.json": "a026ea9fb6d4f6efe2d66b9055ce2dcbb472ed87abfa0413289c9a9ae31fc220",
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


@pytest.fixture(scope="module")
def classify_rules():
    rules = {f"feudal_{i:02d}": fr for i, fr in enumerate(enumerate_feudal(8).rules)}
    rules.update(ty_z3=tambara_yamagami(cyclic(3)), ty_z5=tambara_yamagami(cyclic(5)))
    return rules


@pytest.mark.parametrize("case", sorted(CLASSIFY_RULE_DIGESTS))
def test_classify_rule_file_report_bytes(case, classify_rules, tmp_path, monkeypatch):
    name, p = case.split("@")
    monkeypatch.chdir(tmp_path)
    Path(f"{name}.json").write_text(jsonio.dumps(jsonio.rule_to_dict(classify_rules[name].rule)))
    argv = ["uber", "classify", "--rule", f"{name}.json", "--p", p]
    assert _report(argv)[0] == CLASSIFY_RULE_DIGESTS[case]


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


@pytest.fixture(scope="module")
def dictionary_documents(tmp_path_factory):
    where = tmp_path_factory.mktemp("dictionary")
    F = Field(17)
    rng = random.Random(13)
    for name, fr in (("mr", moore_read()), ("ty", tambara_yamagami(klein_four()))):
        u = enumerate_uber(Ambi(fr, F), with_orbits=False).class_reps[-1]
        normal = reconstruct(u)
        xi = random_gauge(fr.rule, F, rng)
        gauged = apply_gauge(normal, xi)
        coeffs = dict(gauged.coeffs)
        key = rng.choice(sorted(coeffs))
        coeffs[key] = coeffs[key] * 3 % F.p
        docs = {
            "uber": jsonio.uber_to_dict(u),
            "normal": jsonio.system_to_dict(normal),
            "xi": jsonio.gauge_to_dict(xi),
            "gauged": jsonio.system_to_dict(gauged),
            "bad": jsonio.system_to_dict(FusionSystem(fr.rule, F, coeffs)),
        }
        for kind, doc in docs.items():
            if name == "mr":
                doc["rule"] = "builtin:mr"
            (where / f"{name}_{kind}.json").write_text(jsonio.dumps(doc))
    return where


@pytest.mark.parametrize("case", sorted(DICTIONARY_DIGESTS))
def test_dictionary_report_bytes(case, dictionary_documents, monkeypatch):
    monkeypatch.chdir(dictionary_documents)
    assert _report(case.split())[0] == DICTIONARY_DIGESTS[case]
