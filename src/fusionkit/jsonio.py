"""JSON formats for rules, groups, homomorphism data, systems, and triples.

Loads validate eagerly and raise ValidationError: with a file/line location
when the JSON itself is malformed, and for a missing file, a top level that
is not an object, a missing field, or a field of the wrong type.  Dumps are
deterministic: keys sorted, stable orderings throughout.
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import product
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path

import numpy as np

from .ambient import Ambi
from .errors import ValidationError
from .fields import Field
from .feudal import HomDatum, detect_feudal
from .groups import FiniteGroup
from .rules import FusionRule
from .systems import FusionSystem, GaugeXi
from .uber import Uberderivation

_INF = float("inf")
_SCALARS = {None: "null", True: "true", False: "false"}

BUILTIN_RULES = ("ty_z2", "ty_z3", "mr", "z4_graded", "z2xz2", "broken")


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ValidationError(f"{path}: {e.strerror or e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be a JSON object, not {type(doc).__name__}")
    return doc


def _field(doc, key: str):
    """doc[key], or a ValidationError naming the missing field."""
    try:
        return doc[key]
    except (KeyError, TypeError) as e:
        raise ValidationError(f"document has no field {key!r}") from e


def _checked(cast, val, where: str):
    """cast(val) for a value read off a document (_int, dict.items, a list of
    residues, _labels, a label lookup), or a ValidationError naming the field whose
    value has the wrong type or names no label."""
    try:
        return cast(val)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"field {where!r} has a value of the wrong type: {val!r}") from e
    except LookupError as e:
        raise ValidationError(f"field {where!r} names no label: {val!r}") from e


def _int(val) -> int:
    """val if it is a JSON integer: an int, not a bool, a float or a string."""
    if not isinstance(val, int) or isinstance(val, bool):
        raise TypeError(f"expected an integer, not {type(val).__name__}")
    return val


def _name(val) -> str | None:
    """val if it is a JSON string or null; null keeps FiniteGroup's default name."""
    if val is not None and not isinstance(val, str):
        raise TypeError(f"expected a string, not {type(val).__name__}")
    return val


def _labels(vec) -> list[str]:
    labels = list(vec)
    if not all(isinstance(lab, str) for lab in labels):
        raise TypeError("labels must be strings")
    return labels


def _keyed(doc, name: str, idx: dict, arity: int, cast) -> dict:
    """Object field name of doc: label tuples (arity labels joined by commas)
    to cast values; an error names the field and the key, as 'name:key'."""
    out = {}
    for key, val in _checked(dict.items, _field(doc, name), name):
        parts = key.split(",")
        if len(parts) != arity or any(p not in idx for p in parts):
            raise ValidationError(f"bad key {key!r} in {name!r}")
        out[tuple(idx[p] for p in parts)] = _checked(cast, val, f"{name}:{key}")
    return out


def _rule_field(doc) -> FusionRule:
    """The rule of a document: inline, or a path or builtin name to load."""
    spec = _field(doc, "rule")
    return rule_from_dict(spec) if isinstance(spec, dict) else load_rule(spec)


def load_document(path) -> dict:
    """Load a JSON file or a bundled fixture named builtin:<name>."""
    path = str(path)
    if path.startswith("builtin:"):
        name = path.split(":", 1)[1]
        if name not in BUILTIN_RULES:
            raise ValidationError(f"unknown builtin {name!r}; have {', '.join(BUILTIN_RULES)}")
        text = resources.files("fusionkit.data").joinpath(f"{name}.json").read_text()
        return json.loads(text)
    return _load_json(path)


def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"cannot serialize {type(o).__name__}")


def _floatstr(o: float) -> str:
    """A float as json writes it, nan and the infinities included."""
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def _key(k) -> str:
    """An object key as json converts it to a string."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _floatstr(k)
    if k is True or k is False or k is None:
        return _SCALARS[k]
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write(o, out: list, nl: str) -> None:
    """Append the text of o to out; nl is a newline and o's indent."""
    if isinstance(o, str):
        out.append(_encode(o))
    elif o is None or o is True or o is False:
        out.append(_SCALARS[o])
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_floatstr(o))
    elif isinstance(o, (list, tuple)):
        inner = nl + "  "
        if not o:
            out.append("[]")
        elif all(type(v) is int for v in o):  # a list of plain ints in one join
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, o))}{nl}]")
        else:
            sep = "[" + inner
            for v in o:  # one string per item: out holds the pieces of one item at a time
                part = [sep]
                _write(v, part, inner)
                out.append("".join(part))
                sep = "," + inner
            out.append(nl + "]")
    elif isinstance(o, dict):
        inner = nl + "  "
        if not o:
            out.append("{}")
            return
        sep = "{" + inner
        for k, v in sorted(o.items()):
            if type(v) is int:  # a plain int value goes out with its key, in one append
                out.append(f"{sep}{_encode(_key(k))}: {int.__repr__(v)}")
            else:
                out.append(f"{sep}{_encode(_key(k))}: ")
                _write(v, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    else:
        _write(_json_default(o), out, nl)


def dumps(doc) -> str:
    """The report text of doc: exactly json.dumps(doc, indent=2,
    sort_keys=True, default=_json_default) and a newline, for any acyclic
    doc, written in one pass into one list.  json's indented encoder is
    pure Python and yields every token through a chain of generators; here
    each list of plain ints is one join, each plain int value of a dict
    one append with its key, and each item of any other list one string,
    so the list holds the pieces of one item at a time (the 41-rule
    enumerate report peaks ≈0.6 MiB lower than with every piece kept).
    Strings go through json's own ASCII escaper, keys, bools, None and
    floats follow json's rules, and an unsortable or unknown key or an
    unknown value raises as json does."""
    out = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


# ---- fusion rules -------------------------------------------------------------


def rule_from_dict(doc: dict) -> FusionRule:
    labels = _checked(_labels, _field(doc, "labels"), "labels")
    table_map = doc.get("table", {})
    idx = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    unit = _checked(idx.__getitem__, _field(doc, "unit"), "unit")
    dual_map = _keyed(doc, "dual", idx, 1, idx.__getitem__)
    dual = np.zeros(n, dtype=np.int64)
    for i, lab in enumerate(labels):
        if (i,) not in dual_map:
            raise ValidationError(f"dual map missing {lab!r}")
        dual[i] = dual_map[(i,)]
    table = np.zeros((n, n, n), dtype=np.int64)
    for key, cell in _checked(dict.items, table_map, "table"):
        parts = key.split(",")
        if len(parts) != 2 or parts[0] not in idx or parts[1] not in idx:
            raise ValidationError(f"bad table key {key!r}")
        x, y = idx[parts[0]], idx[parts[1]]
        for lab, mult in _checked(dict.items, cell, f"table:{key}"):
            if lab not in idx:
                raise ValidationError(f"bad product label {lab!r} at {key!r}")
            table[x, y, idx[lab]] = _checked(lambda m: np.int64(_int(m)), mult, f"table:{key}")
    return FusionRule(labels, table, unit, dual)


def _check_labels(labels):
    for lab in labels:
        if "," in lab:
            raise ValidationError(f"label {lab!r} contains a comma; keys would be ambiguous")


def rule_to_dict(rule: FusionRule) -> dict:
    labels = rule.labels
    _check_labels(labels)
    table = {}
    at = np.nonzero(rule.table)  # the products in (x, y, z) order
    for x, y, z, mult in zip(*(a.tolist() for a in at), rule.table[at].tolist()):
        table.setdefault(f"{labels[x]},{labels[y]}", {})[labels[z]] = mult
    return {
        "labels": list(labels),
        "unit": labels[rule.unit],
        "dual": dict(zip(labels, (labels[d] for d in rule.dual.tolist()))),
        "table": table,
    }


def load_rule(path) -> FusionRule:
    return rule_from_dict(load_document(path))


# ---- groups and homomorphism data ------------------------------------------------


def group_from_dict(doc: dict) -> FiniteGroup:
    labels = _checked(_labels, _field(doc, "labels"), "labels")
    idx = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    table = np.zeros((n, n), dtype=np.int64)
    for (a, b), c in _keyed(doc, "table", idx, 2, idx.__getitem__).items():
        table[a, b] = c
    return FiniteGroup(labels, table, name=_checked(_name, doc.get("name"), "name"))


def group_to_dict(g: FiniteGroup) -> dict:
    _check_labels(g.labels)
    return {
        "name": g.name,
        "labels": list(g.labels),
        "table": {
            f"{g.labels[a]},{g.labels[b]}": g.labels[g.mul(a, b)]
            for a, b in product(range(len(g)), repeat=2)
        },
    }


def hom_datum_from_dict(doc: dict) -> HomDatum:
    src = group_from_dict(_field(doc, "source"))
    tgt = group_from_dict(_field(doc, "target"))
    mapping = np.zeros(len(src), dtype=np.int64)
    src_idx, tgt_idx = ({lab: i for i, lab in enumerate(g.labels)} for g in (src, tgt))
    for (a,), img in _keyed(doc, "map", src_idx, 1, tgt_idx.__getitem__).items():
        mapping[a] = img
    return HomDatum(src, tgt, mapping)


def hom_datum_to_dict(h: HomDatum) -> dict:
    return {
        "source": group_to_dict(h.source),
        "target": group_to_dict(h.target),
        "map": {
            h.source.labels[a]: h.target.labels[int(h.mapping[a])] for a in range(len(h.source))
        },
    }


def load_hom_datum(path) -> HomDatum:
    return hom_datum_from_dict(load_document(path))


# ---- fusion systems ------------------------------------------------------------


def system_from_dict(doc: dict) -> FusionSystem:
    rule = _rule_field(doc)
    field = Field(_checked(_int, _field(doc, "p"), "p"))
    idx = {lab: i for i, lab in enumerate(rule.labels)}
    return FusionSystem(rule, field, _keyed(doc, "coeffs", idx, 6, _int))


def system_to_dict(f: FusionSystem) -> dict:
    labels = f.rule.labels
    return {
        "rule": rule_to_dict(f.rule),
        "p": f.field.p,
        "coeffs": {
            ",".join(labels[i] for i in key): int(val) for key, val in sorted(f.coeffs.items())
        },
    }


def load_system(path) -> FusionSystem:
    return system_from_dict(load_document(path))


def gauge_from_dict(doc: dict, rule: FusionRule | None = None, field: Field | None = None) -> GaugeXi:
    if rule is None:
        rule = _rule_field(doc)
    if field is None:
        field = Field(_checked(_int, _field(doc, "p"), "p"))
    idx = {lab: i for i, lab in enumerate(rule.labels)}
    return GaugeXi(rule, field, _keyed(doc, "values", idx, 3, _int))


def gauge_to_dict(xi: GaugeXi) -> dict:
    labels = xi.rule.labels
    return {
        "rule": rule_to_dict(xi.rule),
        "p": xi.field.p,
        "values": {",".join(labels[i] for i in k): int(v) for k, v in sorted(xi.values.items())},
    }


# ---- uberderivations ---------------------------------------------------------------


def uber_from_dict(doc: dict) -> Uberderivation:
    rule = _rule_field(doc)
    field = Field(_checked(_int, _field(doc, "p"), "p"))
    fr = detect_feudal(rule)
    if fr is None:
        raise ValidationError("rule carries no feudal structure")
    ambi = Ambi(fr, field)
    idx = {lab: i for i, lab in enumerate(rule.labels)}
    residues = lambda vec: [_int(v) % field.p for v in vec]
    chi, ups = (_keyed(doc, name, idx, 2, residues) for name in ("chi", "ups"))
    return Uberderivation(ambi, chi, ups, _checked(residues, _field(doc, "tau"), "tau"))


def uber_to_dict(u: Uberderivation, rule: dict | None = None) -> dict:
    """u's document; rule, when given, is rule_to_dict of u's rule, built once
    by a caller that writes many triples on that rule."""
    A = u.ambi
    labels = A.feudal.rule.labels
    keyed = lambda view: {f"{labels[a]},{labels[b]}": row.tolist() for (a, b), row in view.items()}
    return {
        "rule": rule_to_dict(A.feudal.rule) if rule is None else rule,
        "p": A.field.p,
        "chi": keyed(u.chi),
        "ups": keyed(u.ups),
        "tau": u.tau.tolist(),
    }


def load_uber(path) -> Uberderivation:
    return uber_from_dict(load_document(path))
