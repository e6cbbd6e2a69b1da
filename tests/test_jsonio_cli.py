import argparse
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (
    Ambi,
    cyclic,
    detect_feudal,
    enumerate_uber,
    gamma,
    group_rule,
    klein_four,
    moore_read,
    reconstruct,
    tambara_yamagami,
    verify_fusion_rule,
)
from fusionkit import cli, jsonio
from fusionkit.cli import main
from fusionkit.errors import ValidationError
from fusionkit.jsonio import (
    BUILTIN_RULES,
    dumps,
    gauge_to_dict,
    gauge_from_dict,
    group_to_dict,
    hom_datum_from_dict,
    hom_datum_to_dict,
    load_document,
    load_rule,
    rule_from_dict,
    rule_to_dict,
    system_from_dict,
    system_to_dict,
    uber_from_dict,
    uber_to_dict,
)
from fusionkit.systems import DEFAULT_BUDGET_BITS


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ---- json round trips ----------------------------------------------------------


def test_rule_round_trip(mr):
    doc = rule_to_dict(mr.rule)
    back = rule_from_dict(doc)
    assert back == mr.rule


def test_builtin_fixtures_load():
    for name in ("ty_z2", "ty_z3", "mr", "z4_graded", "z2xz2"):
        rule = load_rule(f"builtin:{name}")
        assert verify_fusion_rule(rule).passed
    broken = load_rule("builtin:broken")
    assert not verify_fusion_rule(broken).passed


def test_builtin_fixtures_are_their_constructors():
    """The bundled rules are the named constructors' rules, labels, carrier
    order and duals included, so the data files and the code cannot drift."""
    fixtures = {
        "ty_z2": tambara_yamagami(cyclic(2)).rule,
        "ty_z3": tambara_yamagami(cyclic(3)).rule,
        "mr": moore_read().rule,
        "z2xz2": group_rule(klein_four()),
        "z4_graded": group_rule(cyclic(4, labels=["1", "i", "-1", "-i"])),
    }
    assert sorted(fixtures) == sorted(set(BUILTIN_RULES) - {"broken"})
    for name, rule in fixtures.items():
        assert load_rule(f"builtin:{name}").key == rule.key, name


def test_hom_datum_round_trip(mr):
    from fusionkit import gamma

    h = gamma(mr)
    doc = hom_datum_to_dict(h)
    back = hom_datum_from_dict(doc)
    assert (back.mapping == h.mapping).all()
    assert back.source.labels == h.source.labels


def test_system_and_uber_round_trip(f17, ty2):
    cls = enumerate_uber(Ambi(ty2, f17), with_orbits=False)
    u = cls.class_reps[0]
    f = reconstruct(u)
    f2 = system_from_dict(system_to_dict(f))
    assert f2 == f
    u2 = uber_from_dict(uber_to_dict(u))
    assert u2 == u


def test_gauge_round_trip(f17, mr):
    import random

    from fusionkit import random_gauge

    xi = random_gauge(mr.rule, f17, random.Random(1))
    xi2 = gauge_from_dict(gauge_to_dict(xi))
    assert xi2.values == xi.values


def test_malformed_rule_documents():
    with pytest.raises(ValidationError):
        rule_from_dict({"labels": ["a", "a"], "unit": "a", "dual": {"a": "a"}})
    with pytest.raises(ValidationError):
        rule_from_dict({"labels": ["a"], "unit": "b", "dual": {"a": "a"}})
    with pytest.raises(ValidationError):
        load_document("builtin:nope")


# ---- CLI ------------------------------------------------------------------------


def test_cli_rule_analyze_mr():
    code, out, _ = run_cli(["rule", "analyze", "builtin:mr"])
    assert code == 0
    doc = json.loads(out)
    assert doc["simple_current_index"] == 2
    assert doc["adjoint_size"] == 2
    assert doc["universal_grading"]["isomorphic_to"] == "Z4"
    assert doc["nilpotency_class"] == 2
    assert doc["feudal"]["properly_feudal"] is True


def test_cli_rule_analyze_ty():
    for name in ("ty_z2", "ty_z3"):
        code, out, _ = run_cli(["rule", "analyze", f"builtin:{name}"])
        assert code == 0
        assert json.loads(out)["universal_grading"]["isomorphic_to"] == "Z2"


def test_cli_rule_verify_broken():
    code, out, _ = run_cli(["rule", "verify", "builtin:broken"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is False and doc["assoc_witnesses"]


def test_cli_uber_classify_mr():
    code, out, _ = run_cli(["uber", "classify", "--rule", "builtin:mr", "--p", "17"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gauge_classes"] == 4 == doc["equivalence_classes"]
    xs = sorted(c["invariants"]["chi_diag"]["i"][0] for c in doc["classes"])
    assert xs == [2, 8, 9, 15]


def test_cli_uber_classify_builds_the_rule_dict_once(monkeypatch):
    """A classify report embeds the rule in every class, built once."""
    calls = []
    real = jsonio.rule_to_dict
    monkeypatch.setattr(jsonio, "rule_to_dict", lambda rule: calls.append(rule) or real(rule))
    code, out, _ = run_cli(["uber", "classify", "--rule", "builtin:mr", "--p", "17"])
    doc = json.loads(out)
    assert code == 0 and len(calls) == 1 and len(doc["classes"]) == 4
    assert all(c["uber"]["rule"] == real(calls[0]) for c in doc["classes"])


def test_cli_uber_classify_obstructed():
    code, out, _ = run_cli(["uber", "classify", "--rule", "builtin:ty_z3", "--p", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gauge_classes"] == 0 and doc["obstructions"]["clear"] is False


def test_cli_uber_obstructions():
    code, out, _ = run_cli(["uber", "obstructions", "--rule", "builtin:ty_z3", "--p", "7"])
    doc = json.loads(out)
    assert code == 0 and doc["clear"] is False


def test_cli_cohom_h3():
    code, out, _ = run_cli(["cohom", "h3", "--group", "Z4", "--p", "17", "--via-uber", "auto"])
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 4
    assert sorted(doc["roots_of_unity"].values()) == [1, 4, 13, 16]
    assert doc["via_uber"]["agree"] is True


def test_cli_h3_via_uber_runs_h3_once(monkeypatch):
    """cohom h3 --via-uber compares the uber count with the H^3 it has just
    reported, instead of computing H^3 a second time."""
    from fusionkit import cli, cohomology

    calls = []
    real = cohomology.h3
    counted = lambda g, field: calls.append((g.name, field.p)) or real(g, field)
    monkeypatch.setattr(cli, "h3", counted)
    monkeypatch.setattr(cohomology, "h3", counted)
    for argv in (["--via-uber", "auto"], ["--via-uber", "Z2"]):
        calls.clear()
        code, out, _ = run_cli(["cohom", "h3", "--group", "Z4", "--p", "17", *argv])
        assert code == 0 and json.loads(out)["via_uber"]["agree"] is True
        assert calls == [("Z4", 17)]


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["Z9", "17", "auto"], 2, "resource budget exceeded: h3 is bounded at |G| <= 8"),
        (["Z9", "17", "x"], 2, "resource budget exceeded: h3 is bounded at |G| <= 8"),
        (["Z4", "263", "auto"], 2, "resource budget exceeded: h3 is bounded at p <= 257"),
        (["Z3", "17", "auto"], 1, "error: Z3 has no index-2 subgroup"),
        (["1", "17", "auto"], 1, "error: 1 has no index-2 subgroup"),
        (["Z4", "17", "Z3"], 1, "error: Z3 is not an index-2 subgroup of Z4"),
        (["Z4", "17", "Z4"], 1, "error: Z4 is not an index-2 subgroup of Z4"),
        (["Z4", "17", "Z1"], 1, "error: Z1 is not an index-2 subgroup of Z4"),
        (["Z2", "17", "Z2"], 1, "error: Z2 is not an index-2 subgroup of Z2"),
        (["Z4", "17", "x"], 1, "error: unknown group name 'x'"),
        (["x", "17", "auto"], 1, "error: unknown group name 'x'"),
    ],
)
def test_cli_h3_via_uber_bad_input_keeps_its_error(args, code, message):
    """Each bad --via-uber input exits with the code and the one line it gave
    when the comparison ran H^3 a second time: H^3's own bounds come first."""
    group, p, via = args
    got, out, err = run_cli(["cohom", "h3", "--group", group, "--p", p, "--via-uber", via])
    assert (got, out, err.strip()) == (code, "", message)


def test_cli_h3_via_uber_reports_a_disagreement(monkeypatch):
    """An uber count that differs from the reported |H^3| is one error line."""
    from fusionkit import cli

    real = cli.h3
    monkeypatch.setattr(cli, "h3", lambda g, field: dataclasses.replace(real(g, field), order=5))
    code, out, err = run_cli(["cohom", "h3", "--group", "Z4", "--p", "17", "--via-uber", "auto"])
    assert (code, out, err.strip()) == (1, "", "error: uber count 4 disagrees with h3 order 5")


def test_cli_feudal_phi_gamma(tmp_path):
    code, out, _ = run_cli(["feudal", "gamma", "builtin:mr"])
    assert code == 0
    datum = json.loads(out)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    code, out, _ = run_cli(["feudal", "phi", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rule"]["labels"]) == 6


def test_cli_feudal_enumerate():
    code, out, _ = run_cli(["feudal", "enumerate", "--max-order", "3"])
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_cli_fsys_pipeline(tmp_path, f17, ty2):
    cls = enumerate_uber(Ambi(ty2, f17), with_orbits=False)
    f = reconstruct(cls.class_reps[0])
    spath = tmp_path / "sys.json"
    spath.write_text(dumps(system_to_dict(f)))
    code, out, _ = run_cli(["fsys", "verify", str(spath)])
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run_cli(["uber", "psi", str(spath)])
    assert code == 0
    upath = tmp_path / "uber.json"
    upath.write_text(out)
    code, out, _ = run_cli(["uber", "reconstruct", str(upath)])
    assert code == 0
    assert json.loads(out)["verified"] is True
    # gauge-apply with the identity gauge reproduces the system
    from fusionkit import identity_gauge

    xi = identity_gauge(ty2.rule, f17)
    gpath = tmp_path / "xi.json"
    gpath.write_text(dumps(gauge_to_dict(xi)))
    code, out, _ = run_cli(["fsys", "gauge-apply", str(spath), "--xi", str(gpath)])
    assert code == 0
    assert json.loads(out)["coeffs"] == system_to_dict(f)["coeffs"]


def test_cli_fsys_enumerate_and_budget():
    code, out, _ = run_cli(["fsys", "enumerate", "--rule", "builtin:ty_z2", "--p", "17"])
    assert code == 0 and json.loads(out)["count"] == 32
    code, _, err = run_cli(["fsys", "enumerate", "--rule", "builtin:mr", "--p", "17"])
    assert code == 2 and "budget" in err


def test_cli_rejects_multiplicities_beyond_the_bound(tmp_path):
    # 2**32 on c*c: int64 associativity sums wrapped and verified this rule as associative
    m = 2**32
    doc = {
        "labels": ["1", "b", "c"],
        "unit": "1",
        "dual": {"1": "1", "b": "b", "c": "c"},
        "table": {
            "1,1": {"1": 1}, "1,b": {"b": 1}, "1,c": {"c": 1}, "b,1": {"b": 1}, "c,1": {"c": 1},
            "b,b": {"1": 1, "c": 1}, "b,c": {"b": 1, "c": m}, "c,b": {"b": 1, "c": m}, "c,c": {"1": 1, "b": m},
        },
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["rule", "verify", str(path)])
    assert code == 2 and out == "" and err.count("\n") == 1 and "exceeds the bound 65536" in err


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"labels": [,]}')
    code, _, err = run_cli(["rule", "verify", str(bad)])
    assert code == 1
    assert "bad.json:1:" in err  # location-bearing diagnostic
    code, _, err = run_cli(["rule", "analyze", "builtin:broken"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["fsys", "verify", "builtin:mr"],  # a rule where a system is expected
        ["uber", "psi", "builtin:mr"],
        ["rule", "verify", "{tmp}/missing.json"],
        ["rule", "verify", "{tmp}/list.json"],  # top level is not an object
        ["fsys", "verify", "{tmp}/p_not_int.json"],  # wrongly typed fields
        ["uber", "reconstruct", "{tmp}/chi_list.json"],
        ["rule", "verify", "{tmp}/dual_unknown_label.json"],  # malformed rule documents
        ["rule", "verify", "{tmp}/unit_list.json"],
        ["rule", "verify", "{tmp}/dual_list.json"],
        ["uber", "reconstruct", "{tmp}/chi_missing_pair.json"],  # malformed triples
        ["uber", "reconstruct", "{tmp}/ups_missing_pair.json"],
        ["uber", "reconstruct", "{tmp}/tau_empty.json"],
        ["uber", "reconstruct", "{tmp}/tau_too_long.json"],
        ["uber", "reconstruct", "{tmp}/chi_lord_key.json"],
        ["uber", "classify", "--rule", "builtin:ty_z2", "--p", "x"],  # malformed arguments
        ["cohom", "h3", "--group", "Z2"],
        ["feudal", "phi", "{tmp}/map_unknown_label.json"],  # malformed hom data and groups
        ["feudal", "phi", "{tmp}/map_list.json"],
        ["cohom", "h3", "--p", "5", "--group", "{tmp}/group_entry_list.json"],
    ],
    ids=[
        "fsys_verify_rule",
        "uber_psi_rule",
        "missing_file",
        "top_level_list",
        "p_not_int",
        "chi_list",
        "dual_unknown_label",
        "unit_list",
        "dual_list",
        "chi_missing_pair",
        "ups_missing_pair",
        "tau_empty",
        "tau_too_long",
        "chi_lord_key",
        "p_arg_not_int",
        "p_arg_missing",
        "map_unknown_label",
        "map_list",
        "group_entry_list",
    ],
)
def test_cli_bad_input_is_one_error_line(tmp_path, argv):
    (tmp_path / "list.json").write_text("[1, 2]")
    rule = load_document("builtin:ty_z2")
    for name, field, val in (
        ("dual_unknown_label", "dual", {"1": "1", "g": "b", "m": "m"}),
        ("unit_list", "unit", ["1"]),
        ("dual_list", "dual", ["1", "g", "m"]),
    ):
        (tmp_path / f"{name}.json").write_text(json.dumps(rule | {field: val}))
    system = {"rule": "builtin:ty_z2", "p": "x", "coeffs": {}}
    (tmp_path / "p_not_int.json").write_text(json.dumps(system))
    triple = {"rule": "builtin:ty_z2", "p": 17, "chi": [1, 2], "ups": {}, "tau": [1]}
    (tmp_path / "chi_list.json").write_text(json.dumps(triple))
    pairs = ("1,1", "1,g", "g,1", "g,g")
    ones = {k: [1] for k in pairs}
    triple = {"rule": "builtin:ty_z2", "p": 17, "chi": ones, "ups": ones}
    malformed = {
        "chi_missing_pair": triple | {"chi": {k: [1] for k in pairs[1:]}, "tau": [3]},
        "ups_missing_pair": triple | {"ups": {k: [1] for k in pairs[1:]}, "tau": [3]},
        "tau_empty": triple | {"tau": []},
        "tau_too_long": triple | {"tau": [3, 3]},
        "chi_lord_key": triple | {"chi": {k: [1] for k in (*pairs, "m,1")}, "tau": [3]},
    }
    for name, doc in malformed.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    datum = load_document("builtin:ty_z2")
    datum = hom_datum_to_dict(gamma(detect_feudal(rule_from_dict(datum))))
    (tmp_path / "map_unknown_label.json").write_text(json.dumps(datum | {"map": {"1": "z", "g": "1"}}))
    (tmp_path / "map_list.json").write_text(json.dumps(datum | {"map": {"1": ["1"], "g": "1"}}))
    group = group_to_dict(cyclic(2))
    group["table"]["g,g"] = ["1"]
    (tmp_path / "group_entry_list.json").write_text(json.dumps(group))
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "list indices" not in err
    name = argv[-1].removeprefix("{tmp}/").removesuffix(".json")
    if name in malformed:  # the message names the offending field
        assert f"'{name.split('_')[0]}'" in err


def _retyped_documents(tmp_path, f17, ty2):
    """name -> (argv without the document's path, document, field named in
    the error): each document a valid one with one integer field given as a
    float, a digit string or a bool."""
    from fusionkit import identity_gauge

    u = enumerate_uber(Ambi(ty2, f17), with_orbits=False).class_reps[0]
    system, triple = system_to_dict(reconstruct(u)), uber_to_dict(u)
    gauge = gauge_to_dict(identity_gauge(ty2.rule, f17))
    (tmp_path / "system.json").write_text(dumps(system))
    key = sorted(system["coeffs"])[0]
    rule = rule_to_dict(ty2.rule)
    retyped = lambda doc, field, key, val: doc | {field: doc[field] | {key: val}}
    return {
        "p_float": (["fsys", "verify"], system | {"p": 17.9}, "'p'"),
        "coeff_float": (["fsys", "verify"], retyped(system, "coeffs", key, 1.5), f"'coeffs:{key}'"),
        "coeff_string": (["fsys", "verify"], retyped(system, "coeffs", key, "1"), f"'coeffs:{key}'"),
        "coeff_bool": (["fsys", "verify"], retyped(system, "coeffs", key, True), f"'coeffs:{key}'"),
        "gauge_float": (["fsys", "gauge-apply", str(tmp_path / "system.json"), "--xi"], retyped(gauge, "values", "1,1,1", 1.0), "'values:1,1,1'"),
        "chi_half": (["uber", "reconstruct"], retyped(triple, "chi", "g,g", [v + 0.5 for v in triple["chi"]["g,g"]]), "'chi:g,g'"),
        "tau_bool": (["uber", "reconstruct"], triple | {"tau": [True]}, "'tau'"),
        "rule_multiplicity": (["rule", "verify"], retyped(rule, "table", "g,g", {"1": 1.0}), "'table:g,g'"),
    }


@pytest.mark.parametrize(
    "name",
    ["p_float", "coeff_float", "coeff_string", "coeff_bool", "gauge_float", "chi_half", "tau_bool", "rule_multiplicity"],
)
def test_cli_reads_integer_fields_strictly(tmp_path, f17, ty2, name):
    """p, coefficients, gauge values, triple residues and rule multiplicities
    must be JSON integers: a float, a digit string or a bool exits 1 with one
    error line naming the field, where each used to be cast by int() and
    verified (a p of 17.9 read as 17, a chi entry v + 0.5 as v)."""
    argv, doc, field = _retyped_documents(tmp_path, f17, ty2)[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([*argv, str(path)])
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith(f"error: field {field} has a value of the wrong type: "), err


_JUNK = ([], [1, "a"], 0, -1, 2**70, 1.5, True, "", "x", None, {}, {"a": 1})


@pytest.fixture(scope="module")
def fuzz_documents(tmp_path_factory):
    """(argv, document) pairs, the document's path going last in argv: every
    bundled rule, a TY(Z2) system for fsys verify and uber psi, a TY(Z2)
    triple for uber reconstruct, a gauge for fsys gauge-apply --xi, a group
    for cohom h3 --group and a hom datum for feudal phi."""
    import random

    from fusionkit import Field, random_gauge, tambara_yamagami

    tmp = tmp_path_factory.mktemp("fuzz")
    docs = [(["rule", "verify"], load_document(f"builtin:{name}")) for name in BUILTIN_RULES]
    ty2, f17 = tambara_yamagami(cyclic(2)), Field(17)
    u = enumerate_uber(Ambi(ty2, f17)).class_reps[0]
    system = system_to_dict(reconstruct(u))
    docs += [(["fsys", "verify"], system), (["uber", "psi"], system)]
    docs.append((["uber", "reconstruct"], uber_to_dict(u)))
    (tmp / "system.json").write_text(dumps(system))
    xi = gauge_to_dict(random_gauge(ty2.rule, f17, random.Random(2)))
    docs.append((["fsys", "gauge-apply", str(tmp / "system.json"), "--xi"], xi))
    docs.append((["cohom", "h3", "--p", "5", "--group"], group_to_dict(cyclic(4))))
    docs.append((["feudal", "phi"], hom_datum_to_dict(gamma(ty2))))
    return tmp / "doc.json", docs


def _assert_one_error_line(argv):
    """main(argv) exits 0, 1 or 2, never raising, and a failure prints one line."""
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert out == "" and err.count("\n") == 1


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_fuzzed_documents_never_trace_back(fuzz_documents, data):
    """Dropped or retyped fields anywhere in a rule, system, triple, gauge,
    group or hom-datum document give exit code 0, 1 or 2, never an exception
    out of main."""
    path, docs = fuzz_documents
    argv, doc = data.draw(st.sampled_from(docs))
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        node = doc
        while node:
            key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
                node = node[key]
                continue
            junk = data.draw(st.integers(-1, len(_JUNK) - 1))  # -1 drops the field
            if junk < 0:
                del node[key]
            else:
                node[key] = copy.deepcopy(_JUNK[junk])
            break
    path.write_text(json.dumps(doc))
    _assert_one_error_line([*argv, str(path)])


def test_cli_seeded_fuzz_of_the_pentagon_commands(tmp_path):
    """A seeded guard over the commands that run the pentagon kernel or the
    feudal dictionary: 150 copies each of a Moore-Read@17 class (uber
    reconstruct), of its system (fsys verify, uber psi), of the Moore-Read
    rule (rule analyze, uber classify) and of its hom datum (feudal phi),
    each with one value replaced, one key deleted or one key renamed at a
    random depth, give exit code 0, 1 or 2, one stderr line on failure and
    no traceback."""
    import random

    from fusionkit import Field

    rng = random.Random(23)
    mr = moore_read()
    u = enumerate_uber(Ambi(mr, Field(17)), with_orbits=False).class_reps[1]
    system, rule = system_to_dict(reconstruct(u)), rule_to_dict(mr.rule)
    docs = [
        (["uber", "reconstruct"], uber_to_dict(u)),
        (["fsys", "verify"], system),
        (["rule", "analyze"], rule),
        (["uber", "classify", "--p", "17", "--rule"], rule),
        (["uber", "psi"], system),
        (["feudal", "phi"], hom_datum_to_dict(gamma(mr))),
    ]
    path = tmp_path / "doc.json"
    codes = {0: 0, 1: 0, 2: 0}
    for trial in range(150 * len(docs)):
        argv, doc = docs[trial % len(docs)]
        doc = copy.deepcopy(doc)
        node = doc
        while True:
            key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
            if not isinstance(node[key], (dict, list)) or not node[key] or rng.random() < 0.3:
                break
            node = node[key]
        mutation = rng.randrange(3) if isinstance(node, dict) else 0
        if mutation == 0:  # a junk value, or half the time a residue that the checks may reject
            node[key] = rng.randrange(-40, 40) if rng.random() < 0.5 else copy.deepcopy(rng.choice(_JUNK))
        elif mutation == 1:
            del node[key]
        else:
            node[rng.choice([f"{key},1", key[::-1], key.upper(), "1"])] = node.pop(key)
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([*argv, str(path)])
        assert code in codes and "Traceback" not in err, (argv, doc)
        assert code == 0 or (out == "" and err.count("\n") == 1), err
        codes[code] += 1
    assert codes[0] and codes[1], codes


_ARGS = {
    "classify": {
        "--rule": ["builtin:ty_z2", "builtin:ty_z3", "builtin:z2xz2", "builtin:broken", "builtin:nope", "", "x.json"],
        "--p": ["2", "3", "5", "13", "0", "-1", "4", "257", "263", "x", "", "1.5", "2305843009213693951"],
    },
    "h3": {
        "--group": ["1", "Z2", "Z3", "Z4", "Z9", "Z0", "x", "", "x.json"],
        "--p": ["2", "3", "5", "13", "0", "-1", "4", "257", "263", "x", "", "1.5", "2305843009213693951"],
        "--via-uber": ["auto", "Z2", "Z1", "Z3", "x", ""],
    },
}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_fuzzed_arguments_never_trace_back(data):
    """uber classify and cohom h3 with arguments dropped, repeated or set to
    junk (a non-number, a composite, a prime past a bound, an unknown name)
    give exit code 0, 1 or 2, never an exception out of main."""
    command = data.draw(st.sampled_from(sorted(_ARGS)))
    argv = ["uber", "classify"] if command == "classify" else ["cohom", "h3"]
    for flag, values in _ARGS[command].items():
        for _ in range(data.draw(st.integers(0, 2))):  # 0 drops a flag, 2 repeats it
            argv += [flag, data.draw(st.sampled_from(values))]
    if data.draw(st.booleans()):
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(st.sampled_from(["x", "--x", "-1"])))
    _assert_one_error_line(argv)


def test_cli_determinism_and_out_file(tmp_path):
    _, out1, _ = run_cli(["uber", "classify", "--rule", "builtin:mr", "--p", "17"])
    _, out2, _ = run_cli(["uber", "classify", "--rule", "builtin:mr", "--p", "17"])
    assert out1 == out2
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["--out", str(target), "rule", "analyze", "builtin:mr"])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["simple_current_index"] == 2


def test_cli_text_format():
    code, out, _ = run_cli(["--format", "text", "rule", "analyze", "builtin:ty_z2"])
    assert code == 0
    assert "simple_current_index: 2" in out


def test_module_entry_point_and_cross_process_determinism():
    import os
    import subprocess
    import sys

    import fusionkit

    # the child finds the fusionkit this process imported, whether from an
    # install or through pytest's pythonpath setting, which it does not inherit
    path = [os.path.dirname(os.path.dirname(fusionkit.__file__)), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    cmd = [sys.executable, "-m", "fusionkit", "uber", "classify", "--rule", "builtin:ty_z2", "--p", "17"]
    r1 = subprocess.run(cmd, capture_output=True, text=True, env=env)
    r2 = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert r1.returncode == 0 and r1.stdout == r2.stdout
    assert json.loads(r1.stdout)["gauge_classes"] == 2


def test_cli_needs_feudal_structure(tmp_path):
    """The commands that read serfs and lords exit 1 with one error line on a
    rule that has none."""
    doc = tmp_path / "u.json"
    doc.write_text(json.dumps({"rule": "builtin:broken", "p": 17, "chi": {}, "ups": {}, "tau": [1]}))
    for argv in (
        ["feudal", "gamma", "builtin:broken"],
        ["uber", "obstructions", "--rule", "builtin:broken", "--p", "17"],
        ["uber", "reconstruct", str(doc)],
    ):
        code, out, err = run_cli(argv)
        assert (code, out, err) == (1, "", "error: rule carries no feudal structure\n"), argv


# ---- the branch parser and the one-pass writer ------------------------------------


def _reference_build_parser() -> argparse.ArgumentParser:
    """cli.build_parser written out command by command, as it was before the
    full tree and main's branch were both read off cli._COMMANDS."""
    ap = cli._Parser(prog="fusionkit", description=cli.__doc__)
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--out", default=None, help="write the report to a file")
    sub = ap.add_subparsers(dest="command", required=True)

    rule = sub.add_parser("rule", help="fusion-rule structure").add_subparsers(dest="sub", required=True)
    v = rule.add_parser("verify")
    v.add_argument("path")
    v.set_defaults(fn=cli.cmd_rule_verify)
    a = rule.add_parser("analyze")
    a.add_argument("path")
    a.set_defaults(fn=cli.cmd_rule_analyze)

    feu = sub.add_parser("feudal", help="serf/lord structure and the hom dictionary").add_subparsers(dest="sub", required=True)
    p = feu.add_parser("phi")
    p.add_argument("path")
    p.set_defaults(fn=cli.cmd_feudal_phi)
    g = feu.add_parser("gamma")
    g.add_argument("path")
    g.set_defaults(fn=cli.cmd_feudal_gamma)
    e = feu.add_parser("enumerate")
    e.add_argument("--max-order", type=int, required=True)
    e.set_defaults(fn=cli.cmd_feudal_enumerate)

    fsys = sub.add_parser("fsys", help="fusion systems").add_subparsers(dest="sub", required=True)
    fv = fsys.add_parser("verify")
    fv.add_argument("path")
    fv.set_defaults(fn=cli.cmd_fsys_verify)
    fg = fsys.add_parser("gauge-apply")
    fg.add_argument("path")
    fg.add_argument("--xi", required=True)
    fg.set_defaults(fn=cli.cmd_fsys_gauge_apply)
    fe = fsys.add_parser("enumerate")
    fe.add_argument("--rule", required=True)
    fe.add_argument("--p", type=int, required=True)
    fe.add_argument("--budget-bits", type=int, default=DEFAULT_BUDGET_BITS)
    fe.set_defaults(fn=cli.cmd_fsys_enumerate)

    uber = sub.add_parser("uber", help="uberderivations and classification").add_subparsers(dest="sub", required=True)
    up = uber.add_parser("psi")
    up.add_argument("path")
    up.set_defaults(fn=cli.cmd_uber_psi)
    ur = uber.add_parser("reconstruct")
    ur.add_argument("path")
    ur.set_defaults(fn=cli.cmd_uber_reconstruct)
    uc = uber.add_parser("classify")
    uc.add_argument("--rule", required=True)
    uc.add_argument("--p", type=int, required=True)
    uc.set_defaults(fn=cli.cmd_uber_classify)
    uo = uber.add_parser("obstructions")
    uo.add_argument("--rule", required=True)
    uo.add_argument("--p", type=int, required=True)
    uo.set_defaults(fn=cli.cmd_uber_obstructions)

    coh = sub.add_parser("cohom", help="group cohomology").add_subparsers(dest="sub", required=True)
    ch = coh.add_parser("h3")
    ch.add_argument("--group", required=True)
    ch.add_argument("--p", type=int, required=True)
    ch.add_argument("--via-uber", default=None, help="an index-2 subgroup name, or 'auto'")
    ch.set_defaults(fn=cli.cmd_cohom_h3)

    return ap


@pytest.fixture(scope="module")
def parser_corpus(tmp_path_factory):
    """argv lists for the parser oracle, with {d} (a hom datum), {s} (a
    TY(Z2) system), {u} (its triple), {x} (a gauge) and {o} (an --out file)
    filled in: every (command, sub) with valid arguments, help at the root, a
    group and a leaf, missing, repeated and abbreviated options, the global
    options before the command in both forms, unknown commands and subs,
    stray tokens and an empty argv."""
    from fusionkit import Field, identity_gauge, tambara_yamagami

    tmp = tmp_path_factory.mktemp("parser")
    ty2, f17 = tambara_yamagami(cyclic(2)), Field(17)
    u = enumerate_uber(Ambi(ty2, f17), with_orbits=False).class_reps[0]
    files = {
        "d": hom_datum_to_dict(gamma(ty2)),
        "s": system_to_dict(reconstruct(u)),
        "u": uber_to_dict(u),
        "x": gauge_to_dict(identity_gauge(ty2.rule, f17)),
    }
    for name, doc in files.items():
        (tmp / f"{name}.json").write_text(dumps(doc))
    paths = {name: str(tmp / f"{name}.json") for name in files} | {"o": str(tmp / "out.txt")}
    R, P = ["--rule", "builtin:ty_z2"], ["--p", "17"]
    corpus = [
        ["rule", "verify", "builtin:ty_z2"],
        ["rule", "analyze", "builtin:ty_z2"],
        ["feudal", "phi", "{d}"],
        ["feudal", "gamma", "builtin:ty_z2"],
        ["feudal", "enumerate", "--max-order", "3"],
        ["fsys", "verify", "{s}"],
        ["fsys", "gauge-apply", "{s}", "--xi", "{x}"],
        ["fsys", "enumerate", *R, "--p", "5"],
        ["fsys", "enumerate", *R, "--p", "5", "--budget-bits", "4"],
        ["uber", "psi", "{s}"],
        ["uber", "reconstruct", "{u}"],
        ["uber", "classify", *R, *P],
        ["uber", "obstructions", *P, *R],
        ["cohom", "h3", "--group", "Z2", *P],
        ["cohom", "h3", "--group", "Z4", *P, "--via-uber", "Z2"],
        # help
        ["-h"], ["--help"], ["uber", "-h"], ["uber", "classify", "-h"], ["--format", "text", "cohom", "h3", "--help"],
        ["-h", "uber", "classify"], ["uber", "-h", "classify"], ["uber", "classify", *R, *P, "-h"],
        # missing options and values
        ["uber", "classify", *R], ["uber", "classify"], ["uber"], ["rule", "verify"], ["fsys", "gauge-apply", "{s}"],
        ["uber", "classify", *R, "--p"], ["--format"], ["--out"], ["--format", "text"], ["--out", "{o}", "uber"],
        # repeated options
        ["uber", "classify", *R, "--p", "5", *P],
        ["--format", "text", "--format", "json", "rule", "verify", "builtin:ty_z2"],
        ["--out=x", "--out", "{o}", "rule", "verify", "builtin:ty_z2"],
        ["rule", "verify", "builtin:ty_z2", "builtin:ty_z3"],
        # abbreviated options and subs
        ["uber", "classify", "--ru", "builtin:ty_z2", *P],
        ["cohom", "h3", "--gr", "Z2", *P, "--via", "auto"],
        ["--form", "text", "rule", "verify", "builtin:ty_z2"],
        ["--fo=text", "rule", "verify", "builtin:ty_z2"],
        ["--o", "{o}", "rule", "verify", "builtin:ty_z2"],
        ["uber", "class", *R, *P],
        # the global options before the command, in both forms, good and bad
        ["--format", "text", "uber", "obstructions", *R, *P],
        ["--format=text", "uber", "obstructions", *R, *P],
        ["--out", "{o}", "rule", "analyze", "builtin:ty_z2"],
        ["--out={o}", "--format=text", "rule", "analyze", "builtin:ty_z2"],
        ["--format", "xml", "rule", "verify", "builtin:ty_z2"],
        ["--format=", "rule", "verify", "builtin:ty_z2"],
        ["--format", "--out", "{o}", "rule", "verify", "builtin:ty_z2"],
        ["--out", "rule", "verify", "builtin:ty_z2"],
        # unknown commands and subs, stray and misplaced tokens
        ["bogus"], ["bogus", "classify"], ["uber", "bogus"], ["rule", "classify", *R, *P], ["cohom", "h3", "h3"],
        ["uber", "classify", *R, *P, "--format", "text"], ["uber", "classify", *R, "--p", "x"],
        ["--", "rule", "verify", "builtin:ty_z2"], ["rule", "verify", "--", "builtin:ty_z2"],
        ["x", "uber", "classify", *R, *P], ["--x", "uber", "classify", *R, *P],
        [],
    ]
    return [[a.format(**paths) for a in argv] for argv in corpus], paths["o"]


def _main_outcome(monkeypatch, argv, parse, out_file):
    """main(argv) with cli._parse replaced by parse, recording its namespace:
    (exit code, stdout, stderr, the namespace's fields, the --out file)."""
    seen, out, err = [], io.StringIO(), io.StringIO()
    monkeypatch.setattr(cli, "_parse", lambda a: seen.append(parse(a)) or seen[-1])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # help
            code = ("exit", exc.code)
    written = None
    if os.path.exists(out_file):
        with open(out_file) as fh:
            written = fh.read()
        os.remove(out_file)
    return code, out.getvalue(), err.getvalue(), vars(seen[0]) if seen else None, written


def test_main_parses_as_the_full_tree(monkeypatch, parser_corpus):
    """main, which builds only the branch argv selects, gives the exit code,
    stdout, stderr, namespace and --out file of the hand-written full tree on
    every argv of the corpus; help text included."""
    corpus, out_file = parser_corpus
    real = cli._parse
    codes = set()
    for argv in corpus:
        want = _main_outcome(monkeypatch, argv, lambda a: _reference_build_parser().parse_args(a), out_file)
        assert _main_outcome(monkeypatch, argv, real, out_file) == want, argv
        codes.add(want[0])
        if want[0] == ("exit", 0):
            assert want[1].startswith("usage: fusionkit")
    assert codes == {0, 1, 2, ("exit", 0)}
    assert vars(cli.build_parser().parse_args(corpus[0])) == vars(_reference_build_parser().parse_args(corpus[0]))


def test_main_builds_three_parsers_for_a_valid_command(monkeypatch):
    """A valid uber classify builds the root, its group and its leaf, not the
    19 parsers of the full tree; so does a usage error in that leaf."""
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    assert run_cli(["uber", "classify", "--rule", "builtin:ty_z2", "--p", "17"])[0] == 0
    assert len(built) == 3
    built.clear()
    cli.build_parser()
    assert len(built) == 19
    built.clear()
    assert run_cli(["uber", "classify", "--rule", "builtin:ty_z2"])[0] == 1
    assert len(built) == 3


def _reference_dumps(doc) -> str:
    """jsonio.dumps as it was: json's indented (pure-Python) encoder."""
    return json.dumps(doc, indent=2, sort_keys=True, default=jsonio._json_default) + "\n"


def _dumps_outcome(fn, doc):
    try:
        return fn(doc)
    except Exception as exc:  # the exception type is compared
        return type(exc)


_STRINGS = st.one_of(st.text(max_size=8), st.sampled_from(['"', "\\", "\x00\x1f\n\t\r\x7f", "é☃\U0001f600", "\ud800", "a\"b\\c"]))
_JSON_SCALARS = st.one_of(
    _STRINGS,
    st.integers(),
    st.integers(2**63 - 2, 2**70),
    st.integers(-(2**70), -(2**63) + 2),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.integers(-(2**40), 2**40), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=3).map(np.array),
)
_KEY_TYPES = [_STRINGS, st.integers(), st.floats(), st.booleans(), st.none()]


def _containers(inner):
    keyed = [st.dictionaries(k, inner, max_size=4) for k in _KEY_TYPES]
    mixed = st.dictionaries(st.one_of(*_KEY_TYPES), inner, max_size=3)  # mostly unsortable
    # dicts of plain int values (dumps' one-append path) and of bools, which are ints but not plain ones
    flat = [
        st.dictionaries(k, v, min_size=1, max_size=4)
        for k in (*_KEY_TYPES, st.one_of(*_KEY_TYPES))
        for v in (st.integers(), st.booleans())
    ]
    return st.one_of(st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple), *keyed, mixed, *flat)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(doc=st.recursive(_JSON_SCALARS, _containers, max_leaves=24))
def test_dumps_is_json_dumps(doc):
    """jsonio.dumps writes the bytes of json.dumps(indent=2, sort_keys=True)
    and a newline, or raises the same exception type."""
    assert _dumps_outcome(jsonio.dumps, doc) == _dumps_outcome(_reference_dumps, doc)


def test_dumps_raises_as_json_dumps():
    """A mixed-key sort, an unknown key type and an unknown value type raise
    what json raises, at any depth; reports of every kind are byte-identical."""
    bad = [
        {1: 0, "a": 0},
        {None: 0, False: 1},
        [{(1, 2): 0}],
        {"k": {np.int64(3): 0}},
        {"k": [1, {2, 3}]},
        (object(),),
        {"k": np.float32(1.5)},
        MappingProxyType({"a": 1}),
    ]
    for doc in bad:
        want = _dumps_outcome(_reference_dumps, doc)
        assert want is TypeError and _dumps_outcome(jsonio.dumps, doc) is want, doc
    from fusionkit import Field

    mr = moore_read()
    u = enumerate_uber(Ambi(mr, Field(17)), with_orbits=False).class_reps[0]
    for doc in (uber_to_dict(u), system_to_dict(reconstruct(u)), hom_datum_to_dict(gamma(mr))):
        assert jsonio.dumps(doc) == _reference_dumps(doc)
