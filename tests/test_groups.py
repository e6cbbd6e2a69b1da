import random
import re
from itertools import product

import numpy as np
import pytest

from fusionkit import (
    cyclic,
    dihedral,
    direct_product,
    groups,
    homomorphisms,
    isomorphisms,
    klein_four,
    named_group,
    quaternion,
    standard_catalog,
    trivial_group,
)
from fusionkit.errors import DomainError, ValidationError
from fusionkit.groups import _ISO_CACHE, FiniteGroup, automorphisms, identify_group


def test_construction_validates():
    with pytest.raises(ValidationError):
        FiniteGroup(["a", "b"], [[0, 1], [0, 1]])  # no unit column
    with pytest.raises(ValidationError):
        FiniteGroup(["a", "b", "c"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not associative


def test_a_table_that_is_not_integer_is_refused():
    """A float, bool, str, ragged or past-int64 table is refused naming its
    first bad entry, where a cast used to truncate [[0.2, 1.7], [1.1, 0.4]]
    to the table of Z2 and numpy raised a bare ValueError on a ragged one;
    an integer table of any width, or of Python ints in an object array, is
    read as it is."""
    for table, bad in (
        ([[0.2, 1.7], [1.1, 0.4]], "0.2 is not an integer"),
        ([[0.0, 1.0], [1.0, 0.0]], "0.0 is not an integer"),
        ([[0, True], [True, 0]], "True is not an integer"),
        ([["0", "1"], ["1", "0"]], "'0' is not an integer"),
        ([[0, 1], [1]], "[0, 1] is not an integer (ragged or nested)"),
        ([[0, 1], [1, 2**70]], f"{2**70} is past int64"),
    ):
        with pytest.raises(ValidationError, match=f"^table: {re.escape(bad)}$"):
            FiniteGroup(["a", "b"], table)
    for dtype in (np.int8, np.uint8, np.int32, np.uint64, object):
        g = FiniteGroup(["a", "b"], np.array([[0, 1], [1, 0]], dtype=dtype))
        assert g.table.dtype == np.int64 and g == FiniteGroup(["a", "b"], [[0, 1], [1, 0]])


def test_catalog_is_complete_through_8():
    cat = standard_catalog(8)
    by_order = {}
    for g in cat:
        by_order.setdefault(len(g), []).append(g)
    counts = {n: len(gs) for n, gs in by_order.items()}
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5}
    for gs in by_order.values():
        for i, g in enumerate(gs):
            for h in gs[i + 1 :]:
                assert not isomorphisms(g, h)


def test_known_hom_counts():
    z4 = cyclic(4)
    assert len(homomorphisms(z4, z4)) == 4
    assert len(homomorphisms(cyclic(2), cyclic(3))) == 1
    assert len(homomorphisms(dihedral(3), cyclic(2))) == 2
    assert len(homomorphisms(quaternion(), cyclic(2))) == 4
    for f in homomorphisms(z4, cyclic(2)):
        assert f[z4.unit] == 0


def test_known_automorphism_counts():
    assert len(automorphisms(cyclic(4))) == 2
    assert len(automorphisms(klein_four())) == 6
    assert len(automorphisms(quaternion())) == 24
    assert len(automorphisms(direct_product(cyclic(2), klein_four()))) == 168


def test_index2_subgroups():
    assert cyclic(4).index2_subgroups() == [frozenset({0, 2})]
    assert len(klein_four().index2_subgroups()) == 3
    assert cyclic(3).index2_subgroups() == []
    assert len(dihedral(4).index2_subgroups()) == 3


def test_named_and_identify():
    assert named_group("Z4").name == "Z4"
    assert named_group("S3").name == "D3"
    assert identify_group(direct_product(cyclic(3), cyclic(2))) == "Z6"
    assert identify_group(trivial_group()) == "1"
    with pytest.raises(DomainError):
        named_group("E8")


def test_element_orders_and_inverses():
    q8 = quaternion()
    i = q8.index("i")
    assert q8.element_order(i) == 4
    assert q8.mul(i, q8.inverse(i)) == q8.unit
    assert not q8.is_abelian
    assert cyclic(5).is_abelian


@pytest.mark.parametrize("g", standard_catalog(8), ids=lambda g: g.name)
def test_every_catalog_group_resolves_by_its_name(g):
    named = named_group(g.name)
    assert len(named) == len(g) and isomorphisms(named, g)


# ---- array kernels against the loops they replace ---------------------------------------


def _reference_unit_and_inverses(labels, table):
    """FiniteGroup's unit and inverse search as per-element loops, or the first failure's message."""
    t = np.asarray(table, dtype=np.int64)
    n = len(labels)
    units = [e for e in range(n) if (t[e] == np.arange(n)).all() and (t[:, e] == np.arange(n)).all()]
    if len(units) != 1:
        return "table has no two-sided unit"
    if not (t[t] == t[:, t]).all():
        return "table is not associative"
    inv = []
    for a in range(n):
        hits = np.nonzero(t[a] == units[0])[0]
        if len(hits) != 1 or t[hits[0], a] != units[0]:
            return f"element {labels[a]} has no two-sided inverse"
        inv.append(int(hits[0]))
    return units[0], inv


def test_unit_and_inverses_match_reference():
    rng = random.Random(8)
    seen = set()
    for g in standard_catalog(8):
        assert (g.unit, g.inv.tolist()) == _reference_unit_and_inverses(g.labels, g.table)
        for _ in range(30):
            t = g.table.copy()
            for _ in range(rng.randint(1, 2)):
                t[rng.randrange(len(g)), rng.randrange(len(g))] = rng.randrange(len(g))
            if rng.random() < 0.2:  # associative with a unit, but a*b = a for a != 0: no inverses
                t = np.array([[b if a == 0 else a for b in range(len(g))] for a in range(len(g))])
            want = _reference_unit_and_inverses(g.labels, t)
            try:
                h = FiniteGroup(g.labels, t)
                got = (h.unit, h.inv.tolist())
            except ValidationError as exc:
                got = str(exc)
            assert got == want
            seen.add(want.split()[-1] if isinstance(want, str) else "ok")
    assert len(seen) == 4, seen


def test_isomorphisms_match_reference():
    cat = standard_catalog(8)
    for g in cat:
        for h in cat:
            want = [f for f in homomorphisms(g, h) if len(set(f.tolist())) == len(h)] if len(g) == len(h) else []
            _ISO_CACHE.clear()
            cold, warm = isomorphisms(g, h), isomorphisms(g, h)
            # the same arrays of the homomorphism cache, in its order, on a miss and on a hit
            for got in (cold, warm):
                assert len(got) == len(want) and all(f is w for f, w in zip(got, want))
            if len(g) == len(h):  # and stacked once, read-only, in the same cache entry
                assert cold is warm and not cold.stacked.flags.writeable
                assert cold.stacked.dtype == np.int64 and cold.stacked.tolist() == [f.tolist() for f in want]


def _reference_homomorphisms(g, h):
    """homomorphisms as it was: one candidate map built and checked at a time."""
    gens = g.generating_sequence()
    expr = {g.unit: ("unit",)}
    order = [g.unit]
    frontier = [g.unit]
    while frontier:
        nxt = []
        for a in frontier:
            for gen in gens:
                b = g.mul(a, gen)
                if b not in expr:
                    expr[b] = ("mul", a, gen)
                    order.append(b)
                    nxt.append(b)
        frontier = nxt
    results = []
    n = len(g)
    ht = h.table

    def build(images):
        f = np.full(n, -1, dtype=np.int64)
        f[g.unit] = h.unit
        for e in order[1:]:  # discovery order: the prior element is resolved
            _, prior, gen = expr[e]
            f[e] = ht[f[prior], images[gen]]
        return f

    g_orders, h_orders = g.orders, h.orders
    candidates = [
        [img for img in range(len(h)) if g_orders[gen] % h_orders[img] == 0] for gen in gens
    ]
    for combo in product(*candidates):
        f = build(dict(zip(gens, combo)))
        ft = h.table[f][:, f]
        if (ft == f[g.table]).all():
            results.append(f)
    return results


def _assert_homomorphisms_match_reference(g, h):
    got, want = homomorphisms(g, h), _reference_homomorphisms(g, h)
    assert [f.tolist() for f in got] == [f.tolist() for f in want], (g, h)
    assert all(f.dtype == np.int64 and not f.flags.writeable for f in got)
    assert homomorphisms(g, h) is got  # cached by table content


def test_homomorphisms_match_reference(monkeypatch):
    """The batched check returns the maps of the one-at-a-time loop, in its
    order: on every ordered pair of the catalog through order 8, from and to
    the trivial group, and on 1,728 candidate maps, more than one block."""
    cat = standard_catalog(8)
    monkeypatch.setattr(groups, "_HOM_CACHE", {})
    monkeypatch.setattr(groups, "_ISO_CACHE", {})
    one = trivial_group()
    for g, h in [*product(cat, repeat=2), *((one, g) for g in cat), *((g, one) for g in cat)]:
        _assert_homomorphisms_match_reference(g, h)
    z2_cubed, z2_d4 = direct_product(cyclic(2), klein_four()), direct_product(cyclic(2), dihedral(4))
    sizes = [int((z2_cubed.orders[gen] % z2_d4.orders == 0).sum()) for gen in z2_cubed.generating_sequence()]
    assert sizes == [12, 12, 12] and 12**3 > groups._HOM_BLOCK == 1024
    _assert_homomorphisms_match_reference(z2_cubed, z2_d4)


def test_homomorphism_blocks_of_any_size_agree(monkeypatch):
    """Blocks of 1, 7 or 64 candidates, whose boundaries fall anywhere in the
    candidate order, give the same maps in the same order."""
    cat = standard_catalog(8)
    pairs = [(g, h) for g in cat for h in cat if len(g) in (1, 4, 6, 8) and len(h) in (2, 6, 8)]
    for block in (1, 7, 64):
        monkeypatch.setattr(groups, "_HOM_BLOCK", block)
        monkeypatch.setattr(groups, "_HOM_CACHE", {})
        monkeypatch.setattr(groups, "_ISO_CACHE", {})
        for g, h in pairs:
            _assert_homomorphisms_match_reference(g, h)


def test_homomorphism_cache_refuses_writes():
    """homomorphisms hands out its cached arrays (isomorphisms the same ones):
    a write raises, and later calls, on tables built apart, return the full
    lists."""
    z4 = cyclic(4)
    with pytest.raises(ValueError, match="read-only"):
        homomorphisms(z4, z4)[1][1] = 0
    with pytest.raises(ValueError, match="read-only"):
        isomorphisms(z4, z4)[1][3] = 0
    assert [f.tolist() for f in homomorphisms(cyclic(4), cyclic(4))] == [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 1]]
    assert [f.tolist() for f in isomorphisms(cyclic(4), cyclic(4))] == [[0, 1, 2, 3], [0, 3, 2, 1]]


def test_index_names_an_unknown_label():
    g = cyclic(3)
    assert [g.index(lab) for lab in g.labels] == [0, 1, 2]
    for label in ("x", "", 1):
        with pytest.raises(DomainError, match=f"unknown label {label!r}"):
            g.index(label)


def _counting_table_axioms(monkeypatch) -> list[bytes]:
    """An empty group axiom store, and the table of every _table_axioms call in order."""
    monkeypatch.setattr(groups, "_AXIOM_CACHE", {})
    calls, real = [], groups._table_axioms
    monkeypatch.setattr(groups, "_table_axioms", lambda t, labels: calls.append(t.tobytes()) or real(t, labels))
    return calls


def test_a_failing_group_table_is_checked_in_full_every_time(monkeypatch):
    """Each table axiom, failing alone, raises its message on every
    construction, each of which runs the check again: a failing table is
    never stored.  The inverse failure names the element by the labels of
    the group being built, whichever labels an earlier build of the same
    table had."""
    calls = _counting_table_axioms(monkeypatch)
    no_inverse = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]  # associative with unit 0, but a*b = a for a != 0
    cases = [
        (["a", "b"], [[0, 1], [0, 1]], "table has no two-sided unit"),
        (["a", "b", "c"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]], "table is not associative"),
        (["e", "b", "c"], no_inverse, "element b has no two-sided inverse"),
        (["1", "x", "y"], no_inverse, "element x has no two-sided inverse"),
    ]
    for labels, table, message in cases:
        for _ in range(2):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                FiniteGroup(labels, table)
    assert calls == [np.array(t, dtype=np.int64).tobytes() for _, t, _ in cases for _ in range(2)]
    assert not groups._AXIOM_CACHE


def test_equal_group_tables_share_one_check(monkeypatch):
    """Groups whose tables are equal share one check of the table axioms,
    whatever their labels and names, and the one read-only inverse map it
    found; another table is checked on its own."""
    calls = _counting_table_axioms(monkeypatch)
    z4 = cyclic(4)
    other = FiniteGroup(["a", "b", "c", "d"], z4.table.tolist(), name="other")
    assert calls == [z4.table_key]
    assert other.unit == z4.unit and other.inv is z4.inv and not other.inv.flags.writeable
    assert other.labels == ("a", "b", "c", "d") and other != z4
    v4 = klein_four()  # Z2 twice, then its own table
    assert cyclic(4).inv.tolist() == [0, 3, 2, 1] and v4.inv.tolist() == [0, 1, 2, 3]
    assert calls == [z4.table_key, cyclic(2).table_key, v4.table_key]
