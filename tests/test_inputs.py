"""The input contract: every integer a caller hands the library passes one
check, errors.integers, which refuses a float, bool, str, None, object,
ragged or nested entry with a one-line FusionkitError naming the field and
its first bad entry, reduces exactly wherever a modulus applies, and
refuses an entry past int64 where none does."""

import ast
import copy
import json
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionkit import (
    Ambi,
    Cochain,
    FeudalRule,
    Field,
    FiniteGroup,
    FusionRule,
    FusionSystem,
    GaugeTriple,
    GaugeXi,
    HomDatum,
    Uberderivation,
    cyclic,
    enumerate_uber,
    h3_via_uber,
    is_homomorphism,
    nth_roots_of,
    random_gauge,
    reconstruct,
    roots_of_unity,
)
from fusionkit.cli import main
from fusionkit.cohomology import Units
from fusionkit.errors import DomainError, FusionkitError, ValidationError, integers
from fusionkit.jsonio import group_from_dict, group_to_dict, hom_datum_from_dict, hom_datum_to_dict
from fusionkit.rules import as_multiset, subrule_generated
from fusionkit.uber import transport

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fusionkit"


def test_integers_reads_integers_and_refuses_the_rest():
    """A new int64 array of the input's shape; refusals name what and the
    first bad entry in the caller's order, in the error class asked for."""
    x = np.arange(4, dtype=np.uint8).reshape(2, 2)
    got = integers(x, "x")
    assert got.dtype == np.int64 and got.tolist() == [[0, 1], [2, 3]] and not np.shares_memory(got, x)
    assert integers([[1, np.int32(2)], [np.uint64(3), 4]], "x").tolist() == [[1, 2], [3, 4]]
    assert integers(np.int64(7), "x").shape == () and integers([], "x").shape == (0,)
    assert integers(np.zeros(0), "x").dtype == np.int64
    assert integers([-(2**63), 2**63 - 1], "x").tolist() == [-(2**63), 2**63 - 1]
    big = [2**70, -1, np.uint64(2**63), -(2**64) - 5]
    assert integers(big, "x", modulus=17).tolist() == [int(v) % 17 for v in big]
    assert integers(np.array([2**64 - 1], np.uint64), "x", modulus=17).tolist() == [(2**64 - 1) % 17]
    assert integers(np.array([-3, 20]), "x", modulus=17).tolist() == [14, 3]
    for bad, message in (
        ([1, 2.0], "x: 2.0 is not an integer"),
        ([True, 2], "x: True is not an integer"),
        (np.array([[0.5, 1.0]]), "x: 0.5 is not an integer"),
        (np.array([False]), "x: False is not an integer"),
        (["3"], "x: '3' is not an integer"),
        ([1, None], "x: None is not an integer"),
        ([1, object], "x: <class 'object'> is not an integer"),
        ({0, 1}, "x: {0, 1} is not an integer"),
        ([[0, 1], [1]], "x: [0, 1] is not an integer (ragged or nested)"),
        ([1, [2, 3]], "x: [2, 3] is not an integer (ragged or nested)"),
        ([np.zeros(2), np.zeros((2, 2))], "x is ragged"),
        ([1, 2**63], f"x: {2**63} is past int64"),
        ([-(2**63) - 1], f"x: {-(2**63) - 1} is past int64"),
        (np.array([1, 2**63], np.uint64), f"x: {2**63} is past int64"),
    ):
        with pytest.raises(ValidationError) as exc:
            integers(bad, "x")
        assert str(exc.value) == message
    with pytest.raises(DomainError, match="^y: 1.5 is not an integer$"):
        integers([1.5], "y", DomainError, modulus=17)


# ---- each library edge, on the inputs that were truncated or escaped -------------


@pytest.fixture(scope="module")
def edges(f17, ty2, mr):
    """The objects the cases of test_every_edge_refuses_what_is_not_an_integer
    start from: TY(Z2) and its system at p = 17, a gauge on it, a Moore-Read
    triple and a cochain on Z2."""
    A = Ambi(mr, f17)
    u = enumerate_uber(A, with_orbits=False).class_reps[0]
    f = reconstruct(enumerate_uber(Ambi(ty2, f17), with_orbits=False).class_reps[0])
    c = Cochain(cyclic(2), 2, {(a, b): 3 for a in range(2) for b in range(2)}, Units(f17))
    return dict(r=ty2.rule, F=f17, f=f, xi=random_gauge(ty2.rule, f17, random.Random(3)), A=A, u=u, c=c, mr=mr)


def _table_ragged(r):
    t = r.table.tolist()
    t[0][0] = t[0][0][:-1]
    return t


def _gauge_tables(A, fraction) -> tuple:
    """theta, phi and sigma of the identity gauge on A, with the phi key of
    the second serf plus fraction, which int() truncated back to it."""
    pairs = [(a, b) for a in A.serf_ids for b in A.serf_ids]
    b = A.serf_ids[1]
    phi = {a + fraction * (a == b): [1] * A.npoints for a in A.serf_ids}
    return dict.fromkeys(pairs, [1] * A.npoints), phi, [1] * A.npoints


def _set(d: dict, value, at: int = -1) -> dict:
    """d with the value of its key at position at replaced."""
    return {**d, list(d)[at]: value}


def _rekey(d, make) -> dict:
    """d with its first key k replaced by make(k), in the same place."""
    k = next(iter(d))
    return {make(k) if x == k else x: v for x, v in d.items()}


def _triple(e, make) -> Uberderivation:
    """e's Moore-Read triple, its first chi key k made make(k)."""
    return Uberderivation(e["A"], _rekey(e["u"].chi, make), dict(e["u"].ups), e["u"].tau)


def _gauge(e, make) -> GaugeTriple:
    """The identity gauge on e's Moore-Read ambient, its first phi key k made make(k)."""
    theta, phi, sigma = _gauge_tables(e["A"], 0)
    return GaugeTriple(e["A"], theta, _rekey(phi, make), sigma)


EDGE_CASES = {
    # the truncations and escapes this contract closes
    "rule table + 0.2": (ValidationError, lambda e: FusionRule(e["r"].labels, e["r"].table + 0.2, e["r"].unit, e["r"].dual)),
    "rule unit 0.7": (ValidationError, lambda e: FusionRule(e["r"].labels, e["r"].table, 0.7, e["r"].dual)),
    "system coefficient 1.5": (ValidationError, lambda e: FusionSystem(e["r"], e["F"], _set(e["f"].coeffs, 1.5))),
    "system coefficient '3'": (ValidationError, lambda e: FusionSystem(e["r"], e["F"], _set(e["f"].coeffs, "3"))),
    "system coefficient True": (ValidationError, lambda e: FusionSystem(e["r"], e["F"], _set(e["f"].coeffs, True))),
    "gauge value 1.5": (ValidationError, lambda e: GaugeXi(e["r"], e["F"], _set(e["xi"].values, 1.5))),
    "system from_vec float": (ValidationError, lambda e: FusionSystem.from_vec(e["r"], e["F"], e["f"].vec + 0.0)),
    "gauge from_vec float": (ValidationError, lambda e: GaugeXi.from_vec(e["r"], e["F"], e["xi"].vec + 0.0)),
    "triple from_vec float": (ValidationError, lambda e: Uberderivation.from_vec(e["A"], e["u"].vec + 0.0)),
    "cochain from_logs float": (ValidationError, lambda e: Cochain.from_logs(cyclic(2), 2, e["c"].vec + 0.0, e["c"].module)),
    "transport float perm": (DomainError, lambda e: transport(e["u"], np.arange(e["mr"].rule.n) + 0.0)),
    "feudal serfs {0, True}": (ValidationError, lambda e: FeudalRule(e["r"], {0, True})),
    "gauge lookup (0.5, 0, 0)": (ValidationError, lambda e: e["xi"][(0.5, 0, 0)]),
    "triple phi key + 0.5": (ValidationError, lambda e: GaugeTriple(e["A"], *_gauge_tables(e["A"], 0.5))),
    "h3_via_uber serfs [0, 2.0]": (DomainError, lambda e: h3_via_uber(cyclic(4), [0, 2.0], e["F"])),
    "feudal serfs 5": (ValidationError, lambda e: FeudalRule(e["r"], 5)),
    "h3_via_uber serfs 5": (DomainError, lambda e: h3_via_uber(cyclic(4), 5, e["F"])),
    "field log 1.5": (DomainError, lambda e: e["F"].log(1.5)),
    "field inv 1.5": (DomainError, lambda e: e["F"].inv(1.5)),
    "roots_of_unity n 2.0": (DomainError, lambda e: roots_of_unity(e["F"], 2.0)),
    "nth_roots_of a 4.0": (DomainError, lambda e: nth_roots_of(e["F"], 4.0, 2)),
    "triple chi key scalar": (ValidationError, lambda e: _triple(e, lambda k: k[0])),
    "gauge phi key pair": (ValidationError, lambda e: _gauge(e, lambda k: (k, k))),
    # and the other malformed inputs of the same edges
    "rule bool table": (ValidationError, lambda e: FusionRule(e["r"].labels, e["r"].table > 0, e["r"].unit, e["r"].dual)),
    "rule str table": (ValidationError, lambda e: FusionRule(e["r"].labels, e["r"].table.astype(str), e["r"].unit, e["r"].dual)),
    "rule ragged table": (ValidationError, lambda e: FusionRule(e["r"].labels, _table_ragged(e["r"]), e["r"].unit, e["r"].dual)),
    "rule unit True": (ValidationError, lambda e: FusionRule(e["r"].labels, e["r"].table, True, e["r"].dual)),
    "rule dual + 0.3": (ValidationError, lambda e: FusionRule(e["r"].labels, e["r"].table, e["r"].unit, e["r"].dual + 0.3)),
    "group ragged table": (ValidationError, lambda e: FiniteGroup(["a", "b"], [[0, 1], [1]])),
}
# the callables that take member ids: a float, a bool, a str that names no label and an id
# past int64 are each refused
_ID_SITES = {
    "multiset": lambda e, x: as_multiset(e["r"], [0, x]),
    "subrule": lambda e, x: subrule_generated(e["r"], [0, x]),
    "map": lambda e, x: is_homomorphism([0, x, 2], e["r"], e["r"]),
}
for _site, _call in _ID_SITES.items():
    for _name, _x in (("1.5", 1.5), ("True", True), ("'2'", "2"), ("past int64", 2**64)):
        EDGE_CASES[f"{_site} id {_name}"] = (DomainError, lambda e, call=_call, x=_x: call(e, x))
# a group's JSON name is a string or null; any other JSON value was kept or silently replaced
_BAD_NAMES = (("3", 3), ("1.5", 1.5), ("[]", []), ("{}", {}), ("{'a': 1}", {"a": 1}), ("true", True))
for _name, _value in _BAD_NAMES:
    EDGE_CASES[f"json group name {_name}"] = (ValidationError, lambda e, v=_value: group_from_dict({**group_to_dict(cyclic(2)), "name": v}))
    for _end in ("source", "target"):
        EDGE_CASES[f"json datum {_end} name {_name}"] = (ValidationError, lambda e, end=_end, v=_value: _renamed_datum(end, v))


def _datum_doc(end: str, field: str, value) -> dict:
    """The JSON datum of the trivial map Z3 -> Z2 with field of its source or
    target group set to value."""
    doc = hom_datum_to_dict(HomDatum(cyclic(3), cyclic(2), [0, 0, 0]))
    doc[end][field] = value
    return doc


def _renamed_datum(end: str, name) -> HomDatum:
    """_datum_doc with its source or target group named name, loaded."""
    return hom_datum_from_dict(_datum_doc(end, "name", name))


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_every_edge_refuses_what_is_not_an_integer(edges, case):
    """Each input was truncated or coerced (a table + 0.2 was the rule, unit
    0.7 the unit 0, a coefficient 1.5, "3" or True read as 1, 3 or 1, a
    float vector, log array or permutation cast), or escaped as a bare
    numpy or Python error (a ragged table, an id past int64, a serf set that
    is one int, a float in the field's arithmetic, a table key of the wrong
    arity), or was a JSON group name that is no string; each is now a
    one-line FusionkitError of the edge's class."""
    error, build = EDGE_CASES[case]
    with pytest.raises(FusionkitError) as exc:
        build(edges)
    assert type(exc.value) is error and "\n" not in str(exc.value)


def test_a_json_group_name_is_a_string_or_null():
    """A string names the group; null or no name keeps FiniteGroup's default,
    and a refused name is named in the message."""
    doc = group_to_dict(cyclic(2))
    assert group_from_dict({**doc, "name": "Z"}).name == "Z"
    assert group_from_dict({**doc, "name": None}).name == "group2"
    assert group_from_dict({k: v for k, v in doc.items() if k != "name"}).name == "group2"
    assert _renamed_datum("target", None).target.name == "group2"
    with pytest.raises(ValidationError, match=r"^field 'source.name' has a value of the wrong type: \[\]$"):
        _renamed_datum("source", [])


@pytest.mark.parametrize("end", ["source", "target"])
@pytest.mark.parametrize("name", [name for name, _ in _BAD_NAMES])
def test_feudal_phi_names_the_group_of_a_bad_datum_name(tmp_path, capsys, end, name):
    """feudal phi on a datum whose source or target name is no string exits 1
    with one line naming the field by its group, as 'source.name'; it read
    'name' for either group."""
    value = dict(_BAD_NAMES)[name]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(_datum_doc(end, "name", value)))
    assert main(["feudal", "phi", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: field '{end}.name' has a value of the wrong type: {value!r}\n"


def test_a_datum_names_the_group_of_each_bad_field(tmp_path, capsys):
    """Every field of a datum's groups is named after its group: its labels,
    its table, a key and an entry of the table, and a missing field."""
    tables = {end: group_to_dict(g)["table"] for end, g in (("source", cyclic(3)), ("target", cyclic(2)))}
    no_labels = _datum_doc("source", "labels", None)
    del no_labels["source"]["labels"]
    cases = [
        (_datum_doc("target", "labels", ["x", 1]), "field 'target.labels' has a value of the wrong type: ['x', 1]"),
        (_datum_doc("source", "table", []), "field 'source.table' has a value of the wrong type: []"),
        (_datum_doc("source", "table", tables["source"] | {"g,a": "g"}), "bad key 'g,a' in 'source.table'"),
        (_datum_doc("target", "table", tables["target"] | {"g,g": ["1"]}), "field 'target.table:g,g' has a value of the wrong type: ['1']"),
        (no_labels, "document has no field 'source.labels'"),
    ]
    for doc, want in cases:
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(doc))
        assert main(["feudal", "phi", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {want}\n")


def test_a_python_int_past_int64_is_reduced_exactly_mod_p(edges):
    """2**70 is 13 mod 17 in a coefficient, a gauge value, a triple's tau
    and a cochain value, as Python's % gives it."""
    e, big = edges, 2**70
    assert big % 17 == 13
    f = e["f"]
    key = list(f.coeffs)[-1]
    assert FusionSystem(e["r"], e["F"], {**f.coeffs, key: big}).coeffs[key] == 13
    assert FusionSystem.from_vec(e["r"], e["F"], [big] * len(f.vec)).vec.tolist() == [13] * len(f.vec)
    xi = e["xi"]
    key = next(k for k in xi.values if e["r"].unit not in k[:2])
    assert GaugeXi(e["r"], e["F"], {**xi.values, key: big})[key] == 13
    u = e["u"]
    assert Uberderivation(e["A"], u.chi, u.ups, [big, 1]).tau.tolist() == [13, 1]
    assert Uberderivation.from_vec(e["A"], [big] * len(u.vec)).vec.tolist() == [13] * len(u.vec)
    values = {k: big if k == (1, 1) else 3 for k in product_keys(2, 2)}
    assert Cochain(cyclic(2), 2, values, Units(e["F"])).values[(1, 1)] == 13


def product_keys(n: int, degree: int) -> list[tuple]:
    return [tuple(int(d) for d in np.unravel_index(i, (n,) * degree)) for i in range(n**degree)]


def test_field_takes_its_modulus_through_integers():
    """A numpy integer modulus builds the field with p a Python int, where
    the three-argument pow raised a bare TypeError; a float, bool or
    non-scalar modulus is a one-line ValidationError."""
    F = Field(np.int64(17))
    assert type(F.p) is int and F == Field(17) and hash(F) == hash(Field(17)) and F.inv(3) == 6
    for bad, message in (
        (17.0, "modulus: 17.0 is not an integer"),
        (True, "modulus: True is not an integer"),
        ("17", "modulus: '17' is not an integer"),
        ([17], "modulus must be one integer, got [17]"),
        (2**70, f"modulus: {2**70} is past int64"),
    ):
        with pytest.raises(ValidationError) as exc:
            Field(bad)
        assert str(exc.value) == message


# ---- mutation of every public constructor's input --------------------------------


@pytest.fixture(scope="module")
def mutation_specs(f17, ty2, mr):
    """(name, build, fields, modulus, key): build(fields) constructs the
    object from plain lists and dicts of ints; modulus is the modulus of the
    values, None where there is none; key(obj) is what equal objects share."""
    F, p = f17, f17.p
    r = ty2.rule
    f = reconstruct(enumerate_uber(Ambi(ty2, F), with_orbits=False).class_reps[0])
    xi = random_gauge(r, F, random.Random(5))
    A = Ambi(mr, F)
    u = enumerate_uber(A, with_orbits=False).class_reps[1]
    pairs = [(a, b) for a in A.serf_ids for b in A.serf_ids]
    theta, phi = dict.fromkeys(pairs, [1, 1]), {a: [1, 1] if a == A.unit_serf else [2, 3] for a in A.serf_ids}
    rows = lambda view: {k: v.tolist() for k, v in view.items()}
    c = Cochain(cyclic(3), 2, {k: 1 + (3 * k[0] + k[1]) % 16 for k in product_keys(3, 2)}, Units(F))
    z4 = cyclic(4)
    vec = lambda x: x.vec.tolist()
    return [
        ("FusionRule", lambda d: FusionRule(r.labels, d["table"], d["unit"], d["dual"]),
         {"table": r.table.tolist(), "unit": r.unit, "dual": r.dual.tolist()}, None, lambda x: x.key),
        ("FiniteGroup", lambda d: FiniteGroup(z4.labels, d["table"]), {"table": z4.table.tolist()}, None, lambda x: x.key),
        ("HomDatum", lambda d: HomDatum(cyclic(2), z4, d["mapping"]), {"mapping": [0, 2]}, None, lambda x: x.mapping.tolist()),
        ("FeudalRule", lambda d: FeudalRule(mr.rule, d["serfs"]), {"serfs": sorted(mr.serfs)}, None, lambda x: x.serfs),
        ("FusionSystem", lambda d: FusionSystem(r, F, d["coeffs"]), {"coeffs": dict(f.coeffs)}, p, vec),
        ("FusionSystem.from_vec", lambda d: FusionSystem.from_vec(r, F, d["vec"]), {"vec": vec(f)}, p, vec),
        ("GaugeXi", lambda d: GaugeXi(r, F, d["values"]), {"values": dict(xi.values)}, p, vec),
        ("GaugeXi.from_vec", lambda d: GaugeXi.from_vec(r, F, d["vec"]), {"vec": vec(xi)}, p, vec),
        ("Uberderivation", lambda d: Uberderivation(A, d["chi"], d["ups"], d["tau"]),
         {"chi": rows(u.chi), "ups": rows(u.ups), "tau": u.tau.tolist()}, p, vec),
        ("Uberderivation.from_vec", lambda d: Uberderivation.from_vec(A, d["vec"]), {"vec": vec(u)}, p, vec),
        ("GaugeTriple", lambda d: GaugeTriple(A, d["theta"], d["phi"], d["sigma"]),
         {"theta": theta, "phi": phi, "sigma": [5, 7]}, p, vec),
        ("Cochain", lambda d: Cochain(cyclic(3), 2, d["values"], Units(F)), {"values": dict(c.values)}, p, vec),
        ("Cochain.from_logs", lambda d: Cochain.from_logs(cyclic(3), 2, d["logs"], Units(F)), {"logs": c.vec.tolist()}, p - 1, vec),
    ]


def _leaves(x, path=()):
    """The paths to every int in nested dicts and lists, and to every item
    of a dict or list (which a drop removes)."""
    if isinstance(x, (dict, list)):
        items = x.items() if isinstance(x, dict) else enumerate(x)
        for k, v in items:
            yield from _leaves(v, (*path, k))
    else:
        yield path


def _at(x, path):
    """The item of nested dicts and lists x at path."""
    for k in path:
        x = x[k]
    return x


# the specs whose dict constructors read their keys through integers, so that a key of the
# wrong arity or a float key is refused; the others look their keys up as given
KEYED = {"Uberderivation", "GaugeTriple"}
# the specs that read a list of ids as a set, so that the set of that list builds the same object
SETS = {"FeudalRule"}


def _mutate(fields, path, kind, modulus):
    """fields with one mutation at path, and whether it keeps the value mod
    the modulus.  "unwrap" puts the value in place of the list that holds
    it, "set" that list's set; the "key" kinds change the key path[1] of the
    dict fields[path[0]]: a scalar for a pair (a 1-tuple for a scalar), one
    entry more, or its first entry a float."""
    out = copy.deepcopy(fields)
    *head, last = path
    box = out
    for k in head:
        box = box[k]
    v = box[last]
    keeps = False
    if kind == "drop":
        del box[last]
    elif kind in ("unwrap", "set"):
        _at(out, head[:-1])[head[-1]] = v if kind == "unwrap" else set(box)
    elif kind.startswith("key"):
        k = path[1]
        t = k if isinstance(k, tuple) else (k,)
        new = {"key scalar": t[0] if len(t) > 1 else t, "key arity": (*t, t[0]), "key float": (float(t[0]), *t[1:])}[kind]
        out[path[0]] = {new if x == k else x: y for x, y in out[path[0]].items()}
    elif kind == "huge":  # a multiple of the modulus far past int64 (and not of 2**64), or past int64
        box[last] = v + (modulus or 1) * 3**45 * (-2 if v % 2 else 1)
        keeps = modulus is not None
    elif kind == "huge off":
        box[last] = v + (modulus or 1) * 3**45 + 1
    else:
        box[last] = {"float": float(v), "half": v + 0.5, "str": str(v), "bool": bool(v), "None": None, "nested": [v]}[kind]
    return out, keeps


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_constructor_input_is_refused_or_kept_exactly(mutation_specs, data):
    """One value of a public constructor's valid input made a float, a
    fraction, a str, a bool, None, nested or huge, one item dropped, a list
    replaced by one of its values or by its set, or a key of a triple's or
    gauge's table made a scalar, one entry longer or a float: only a
    one-line FusionkitError escapes, and the object built equals the
    unmutated one exactly when the mutation keeps the value mod p, or makes
    a set of a list that the constructor reads as a set."""
    name, build, fields, modulus, key = data.draw(st.sampled_from(mutation_specs))
    path = data.draw(st.sampled_from(list(_leaves(fields))))
    kinds = ["float", "half", "str", "bool", "None", "nested", "huge", "huge off", "drop", "unwrap", "set", "key scalar", "key arity", "key float"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop" and len(path) == 1 and not isinstance(fields[path[0]], (dict, list)):
        kind = "huge off"  # a scalar field has no item to drop
    if kind == "unwrap" and not (len(path) > 1 and isinstance(fields[path[0]], list)):
        kind = "huge off"  # no list holds the value
    if kind == "set" and not (len(path) > 1 and isinstance(_at(fields, path[:-1]), list)):
        kind = "huge off"  # no list holds the value
    if kind.startswith("key") and not (name in KEYED and isinstance(fields[path[0]], dict)):
        kind = "huge off"  # no dict of checked keys holds the value
    if kind == "drop" and len(path) > 1:
        path = path[:-1] if data.draw(st.booleans()) and len(path) > 2 else path
    mutated, keeps = _mutate(fields, path, kind, modulus)
    keeps = keeps or (kind == "set" and name in SETS)
    try:
        obj = build(mutated)
    except FusionkitError as exc:
        assert "\n" not in str(exc), (name, path, kind)
        assert not keeps, (name, path, kind, str(exc))
        return
    assert (key(obj) == key(build(fields))) == keeps, (name, path, kind)


# ---- one check: no module but errors.py reads a dtype's integer kinds ------------


def _integer_kind_comparisons(source: str) -> list[int]:
    """The lines of source where a .dtype.kind is compared with a string
    naming the integer kinds "i" or "u"."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        kind = any(isinstance(s, ast.Attribute) and s.attr == "kind" and isinstance(s.value, ast.Attribute) and s.value.attr == "dtype" for s in sides)
        ints = any(isinstance(s, ast.Constant) and isinstance(s.value, str) and set(s.value) & set("iu") for s in sides)
        if kind and ints:
            lines.append(node.lineno)
    return lines


def test_only_errors_py_checks_integer_dtypes():
    """errors.integers is the one integer check: a dtype.kind compared with
    "iu" in any other module is a second encoding of that decision."""
    assert _integer_kind_comparisons('if a.dtype.kind not in "iu" or "u" == x.dtype.kind:\n    pass') == [1, 1]
    found = {p.name: _integer_kind_comparisons(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "errors.py"}
    assert len(found) > 10 and {name: lines for name, lines in found.items() if lines} == {}


# ---- one check: no module but zmodlin.py runs an elimination of its own ----------


def _elimination_uses(source: str) -> list[int]:
    """The lines of source that name smith_mod (a call, an attribute or an
    import of it) or read a .Vinv."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            (isinstance(node, ast.Name) and node.id == "smith_mod")
            or (isinstance(node, ast.Attribute) and node.attr in ("smith_mod", "Vinv"))
            or (isinstance(node, ast.alias) and node.name == "smith_mod")
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_zmodlin_calls_smith_mod_or_reads_vinv():
    """Every elimination goes through nullspace_mod, solve_mod, factor_mod or
    quotient_structure, which state which transforms they read, so smith_mod
    builds Vinv only where zmodlin asks for it."""
    snippet = "from .zmodlin import smith_mod as s\nx = zmodlin.smith_mod(A, n)\ny = s(A, n).Vinv\nz = smith_mod(A, n)\n"
    assert _elimination_uses(snippet) == [1, 2, 3, 4]
    assert _elimination_uses("sm = factor_mod(A, n)\nv = sm.V @ q._Vinv\n") == []
    found = {p.name: _elimination_uses(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "zmodlin.py"}
    assert len(found) > 10 and {name: lines for name, lines in found.items() if lines} == {}
    assert _elimination_uses((SRC / "zmodlin.py").read_text())  # the guard reads what zmodlin does


def _gather_spellings(source: str) -> dict[str, list[int]]:
    """The lines of source that name tensordot (a call, an attribute or an
    import of it) or np.add.at, by name."""
    found: dict[str, list[int]] = {"tensordot": [], "add.at": []}
    for node in ast.walk(ast.parse(source)):
        if (
            (isinstance(node, ast.Name) and node.id == "tensordot")
            or (isinstance(node, ast.Attribute) and node.attr == "tensordot")
            or (isinstance(node, ast.alias) and node.name == "tensordot")
        ):
            found["tensordot"].append(node.lineno)
        if isinstance(node, ast.Attribute) and node.attr == "at" and isinstance(node.value, ast.Attribute) and node.value.attr == "add":
            found["add.at"].append(node.lineno)
    return {name: sorted(lines) for name, lines in found.items()}


def test_signed_sums_go_through_the_gather_type():
    """The coboundary, the gauge action, the normal system and the axiom rows
    are each a zmodlin.Gather, applied and densified by its methods: no
    module but zmodlin sums over signs with tensordot, and uber and
    cohomology scatter no matrix with np.add.at.  rules' multiset count and
    zmodlin's level counts are counts, not gathers, and stay."""
    snippet = "from numpy import tensordot as td\nx = np.tensordot(a, b, 1)\nnp.add.at(D, i, s)\ny = numpy.add.at\nz = tensordot(a, b)\n"
    assert _gather_spellings(snippet) == {"tensordot": [1, 2, 5], "add.at": [3, 4]}
    assert _gather_spellings("np.add(a, b)\nnp.subtract.at(c, i, 1)\ng.apply(x, n)\n") == {"tensordot": [], "add.at": []}
    found = {p.name: _gather_spellings(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: f["tensordot"] for name, f in found.items() if f["tensordot"] and name != "zmodlin.py"} == {}
    assert found["uber.py"]["add.at"] == found["cohomology.py"]["add.at"] == []
    assert found["rules.py"]["add.at"] and found["zmodlin.py"]["add.at"]  # the guard reads the counts it leaves alone
