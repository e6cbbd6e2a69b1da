"""Group cochains valued in unit groups, coboundaries, and H^3 by exact linear algebra.

Cochains take values either in GF(p)^x with the trivial action or in the
invertible part of an ambient algebra B = F^M with its two-sided actions.
A cochain is its log array: one row of discrete logs mod p - 1 per tuple,
in product order, with Cochain.values a read-only view of it.  Cocycle and
coboundary conditions are integer-linear over Z_(p-1); p - 1 is composite,
so kernels and images go through the gcd-pivot machinery in zmodlin.

The coboundary is encoded once, by `_delta`, as a signed gather of tuple
indices; the coboundary of a cochain, the cocycle test, normalization, the
exponent-space matrices of `h3` and the alpha of `uber.reconstruct` all
read off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from types import MappingProxyType

import numpy as np

from .ambient import Ambi
from .errors import DomainError, ResourceError, ValidationError, integers
from .feudal import graded_group, group_rule
from .fields import Field
from .groups import FiniteGroup
from .rules import group_from_members
from .systems import FusionSystem, _OnVec, _slot_lookup, admissible_sextuples
from .zmodlin import nullspace_mod, quotient_structure, solve_mod


@dataclass(frozen=True)
class Units:
    """The coefficient module of a cochain.

    Units(field) is GF(p)^x with both actions trivial, valued in ints;
    Units(field, ambi) is B^x for the ambient algebra B = F^M, valued in
    length-M vectors, with the two-sided serf actions.  In exponent
    coordinates a value is a length-M log vector (M = 1 for GF(p)^x), and a
    group element acts on it by a permutation of the M points.
    """

    field: Field
    ambi: Ambi | None = None

    def __post_init__(self):
        if self.ambi is not None and self.ambi.field != self.field:
            raise ValidationError("the ambient algebra lives over a different field")

    @property
    def points(self) -> int:
        return 1 if self.ambi is None else self.ambi.npoints

    def one(self):
        return self.exp(np.zeros(self.points, dtype=np.int64))

    def mul(self, *xs):
        out = self.one()
        for x in xs:
            out = out * x % self.field.p
        return out

    def inv(self, x):
        return self.exp(-self.log(x))

    def eq(self, x, y) -> bool:
        return bool(((np.asarray(x) - np.asarray(y)) % self.field.p == 0).all())

    def log(self, x) -> np.ndarray:
        """The log vector of a value, or the (N, M) log array of a sequence of N values."""
        v = integers(x, "value", DomainError, modulus=self.field.p)
        if (v == 0).any():
            raise DomainError("discrete log of 0 is undefined")
        lead = v.shape if self.ambi is None else v.shape[:-1]
        return self.field._log_table[v].reshape(lead + (self.points,))

    def exp(self, logs):
        """The value with log vector logs, or the N values of an (N, M) log array."""
        vals = self.field._exp_table[np.asarray(logs, dtype=np.int64) % (self.field.p - 1)]
        return vals[..., 0].tolist() if self.ambi is None else vals

    def action(self, n: int, side: str) -> np.ndarray:
        """Row i: the point permutation by which group element i acts on the
        given side.  Element i of a B^x cochain's group is serf serf_ids[i]."""
        if self.ambi is None:
            return np.zeros((n, 1), dtype=np.int64)
        A = self.ambi
        e = A.serf_ids.index(A.unit_serf)
        return A.act_table[:, e] if side == "left" else A.act_table[e]


@lru_cache(maxsize=None)
def _rows(n: int, degree: int) -> dict:
    """Each tuple of S^degree (|S| = n), as ints, at its row in product order,
    for the degrees a cochain may have."""
    if degree not in (1, 2, 3, 4):
        raise DomainError("degree must be 1, 2, 3, or 4")
    return {t: i for i, t in enumerate(product(range(n), repeat=degree))}


def _touches_unit(g: FiniteGroup, degree: int) -> np.ndarray:
    """Which tuples of G^degree, in product order, have the unit as an entry."""
    return (np.indices((len(g),) * degree).reshape(degree, -1) == g.unit).any(axis=0)


class Cochain(_OnVec):
    """A degree-k cochain: its log array vec, a read-only (n^k, M) int64 array
    mod p - 1 with rows in product order (see `Units`).  values is a read-only
    view keyed by tuple, built on first read (read-only rows for B^x)."""

    _from_vec_args = ("group", "degree", "vec", "module")

    def __init__(self, group: FiniteGroup, degree: int, values: dict, module: Units):
        rows = _rows(len(group), degree)
        want, shape = ("one integer", ()) if module.ambi is None else (f"{module.points} integers", (module.points,))
        v = np.empty((len(values), module.points), dtype=np.int64)
        for i, (k, x) in enumerate(values.items()):  # the first value that is not one row names its key
            x = integers(x, f"cochain value at {k}", modulus=module.field.p)
            if x.shape != shape:
                raise ValidationError(f"cochain value at {k} must be {want}")
            v[i] = x
        if (v == 0).any():
            raise ValidationError("cochain values must be invertible")
        at = [rows.get(k) for k in values]  # keys of any integer type, as tuples of ints
        if len(at) != len(rows) or None in at:
            raise ValidationError("cochain must be total on S^n")
        logs = np.empty((len(at), module.points), dtype=np.int64)
        logs[at] = module.field._log_table[v]
        self._set(group, degree, logs, module)

    @classmethod
    def from_logs(cls, group: FiniteGroup, degree: int, logs: np.ndarray, module: Units) -> "Cochain":
        """The cochain whose log array (see `logs`) is logs, reduced mod p - 1."""
        c = cls.__new__(cls)
        c._set(group, degree, logs, module)
        return c

    from_vec = from_logs  # what copy and pickle call

    def _set(self, group: FiniteGroup, degree: int, logs, module: Units) -> None:
        shape = (len(_rows(len(group), degree)), module.points)
        logs = integers(logs, "log array", modulus=module.field.p - 1)
        if logs.shape != shape:
            raise ValidationError(f"expected a log array of shape (n^degree, M) = {shape}, got {logs.shape}")
        logs.flags.writeable = False
        self.__dict__.update(group=group, degree=degree, vec=logs, module=module)

    @cached_property
    def values(self) -> MappingProxyType:
        vals = self.module.exp(self.vec)
        if self.module.ambi is not None:
            vals.flags.writeable = False
        return MappingProxyType(dict(zip(_rows(len(self.group), self.degree), vals)))

    def __call__(self, *args):
        return self.values[args]

    def logs(self) -> np.ndarray:
        """The (n^degree, M) array of log vectors, rows in product order of the tuples."""
        return self.vec

    def is_normalized(self) -> bool:
        return not self.vec[_touches_unit(self.group, self.degree)].any()

    def mul(self, other: "Cochain") -> "Cochain":
        return Cochain.from_logs(self.group, self.degree, self.vec + other.vec, self.module)

    def inv(self) -> "Cochain":
        return Cochain.from_logs(self.group, self.degree, -self.vec, self.module)

    def eq(self, other: "Cochain") -> bool:
        return np.array_equal(self.vec, other.vec)

    def __eq__(self, other):
        key = lambda c: (c.group, c.degree, c.module.field, getattr(c.module.ambi, "key", None))
        return isinstance(other, Cochain) and key(self) == key(other) and self.eq(other)


def trivial_cochain(group: FiniteGroup, degree: int, field: Field) -> Cochain:
    return Cochain.from_logs(group, degree, np.zeros((len(group) ** degree, 1), dtype=np.int64), Units(field))


# ---- the coboundary, once -----------------------------------------------------------


def _delta(g: FiniteGroup, degree: int, side: str):
    """The coboundary C^k -> C^(k+1) of g (k = degree) as a signed gather.

    On the left,
        (dh)(g0..gk) = g0.h(g1..gk) * prod_i h(..g_(i-1) g_i..)^((-1)^i)
                       * h(g0..g_(k-1))^((-1)^(k+1)),
    and on the right the action moves to the last term, h(g0..g_(k-1)).gk.
    Returns (src, signs, acted, actor): src[r, j] is the C^k tuple index of
    term j at the r-th (k+1)-tuple in product order, term j enters with
    exponent signs[j], and term `acted` is acted on by element actor[r].
    """
    n, k = len(g), degree
    t = np.indices((n,) * (k + 1)).reshape(k + 1, -1).T
    terms = [t[:, 1:]]
    terms += [np.column_stack([t[:, : i - 1], g.table[t[:, i - 1], t[:, i]], t[:, i + 1 :]]) for i in range(1, k + 1)]
    terms.append(t[:, :k])
    weights = n ** np.arange(k - 1, -1, -1)
    src = np.stack([x @ weights for x in terms], axis=1)
    signs = (-1) ** np.arange(k + 2)
    if side == "left":
        return src, signs, 0, t[:, 0]
    return src, signs, k + 1, t[:, k]


def coboundary_logs(logs: np.ndarray, module: Units, g: FiniteGroup, degree: int, side: str) -> np.ndarray:
    """The coboundary in exponent coordinates: the (n^degree, M) log array of
    a cochain (see `Cochain.logs`) to that of its coboundary, mod p - 1.  With
    the trivial action, logs may hold K cochains side by side, (n^degree, K)."""
    src, signs, acted, actor = _delta(g, degree, side)
    terms = np.asarray(logs)[src]
    if module.ambi is not None:  # the trivial action moves nothing
        terms[:, acted] = np.take_along_axis(terms[:, acted], module.action(len(g), side)[actor], axis=1)
    return np.tensordot(signs, terms, axes=(0, 1)) % (module.field.p - 1)


def coboundary(h: Cochain, side: str = "left") -> Cochain:
    """The left or right coboundary; raises on degree-3 right for real bimodules."""
    if side not in ("left", "right"):
        raise DomainError("side must be 'left' or 'right'")
    A = h.module.ambi
    if side == "right" and h.degree == 3 and A is not None and A.npoints > 1:
        raise DomainError("degree-3 right coboundary is only defined for trivial actions")
    logs = coboundary_logs(h.logs(), h.module, h.group, h.degree, side)
    return Cochain.from_logs(h.group, h.degree + 1, logs, h.module)


def is_cocycle(h: Cochain) -> bool:
    return not coboundary_logs(h.logs(), h.module, h.group, h.degree, "left").any()


def _normalize3_logs(logs: np.ndarray, module: Units, g: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """normalize_cocycle3 in exponent coordinates: (normalized cocycle, witness),
    for K cocycles side by side too, as coboundary_logs takes them."""
    n, e, mod = len(g), g.unit, module.field.p - 1
    a, b = np.indices((n, n)).reshape(2, -1)
    k1 = logs[(e * n + e) * n + b]  # k1(a, b) = h(e, e, b)
    step1 = logs - coboundary_logs(k1, module, g, 2, "left")
    k2 = step1[(a * n + e) * n + e]  # k2(a, b) = step1(a, e, e)
    out = (step1 + coboundary_logs(k2, module, g, 2, "left")) % mod
    if out[_touches_unit(g, 3)].any():
        raise ValidationError("normalization failed")
    return out, (k2 - k1) % mod


def normalize_cocycle3(h: Cochain) -> tuple[Cochain, Cochain]:
    """(normalized cohomologous cocycle, witness 2-cochain k with h' = h * d(k))."""
    if h.degree != 3 or not is_cocycle(h):
        raise DomainError("input must be a 3-cocycle")
    out, witness = _normalize3_logs(h.logs(), h.module, h.group)
    return Cochain.from_logs(h.group, 3, out, h.module), Cochain.from_logs(h.group, 2, witness, h.module)


# ---- H^3 over GF(p)^x ------------------------------------------------------------


def _coboundary_matrix(g: FiniteGroup, degree: int) -> np.ndarray:
    """Exponent-space matrix of the left coboundary C^degree -> C^(degree+1)
    with the trivial action."""
    src, signs, _, _ = _delta(g, degree, "left")
    D = np.zeros((len(src), len(g) ** degree), dtype=np.int64)
    np.add.at(D, (np.arange(len(src))[:, None], src), signs)
    return D


@dataclass
class H3Report:
    group: FiniteGroup
    field: Field
    order: int
    invariant_factors: list[int]
    representatives: list[Cochain]
    roots_table: dict | None  # rep index -> root of unity, for cyclic groups

    def to_dict(self) -> dict:
        keys = [",".join(self.group.labels[i] for i in k) for k in _rows(len(self.group), 3)]
        out = {
            "group": self.group.name,
            "p": self.field.p,
            "order": self.order,
            "invariant_factors": self.invariant_factors,
            "representatives": [dict(zip(keys, c.values.values())) for c in self.representatives],
        }
        if self.roots_table is not None:
            out["roots_of_unity"] = {str(k): int(v) for k, v in sorted(self.roots_table.items())}
        return out


def h3(g: FiniteGroup, field: Field) -> H3Report:
    """H^3(G, GF(p)^x) with trivial action: kernel/image over Z_(p-1)."""
    if len(g) > 8:
        raise ResourceError("h3 is bounded at |G| <= 8")
    if field.p > 257:
        raise ResourceError("h3 is bounded at p <= 257")
    n = field.p - 1
    D3 = _coboundary_matrix(g, 3)
    D2 = _coboundary_matrix(g, 2)
    kernel = nullspace_mod(D3, n)
    src, signs, _, _ = _delta(g, 3, "left")  # D3 @ D2 as a gather of D2's rows
    if (np.tensordot(D2[src], signs, (1, 0)) % n).any():
        raise ValidationError("coboundary image is not closed")  # dd != 1
    quot = quotient_structure(kernel, (D2 % n).T, D3.shape[1], n)
    mod = Units(field)
    logs, _ = _normalize3_logs(np.array(list(quot.representatives(limit=4096))).T, mod, g)
    reps = [Cochain.from_logs(g, 3, logs[:, i : i + 1], mod) for i in range(logs.shape[1])]
    roots = None
    gen = _cyclic_generator(g)
    if gen is not None:
        roots = {i: _cyclic_trace(c, gen) for i, c in enumerate(reps)}
    return H3Report(g, field, quot.order, quot.invariant_factors, reps, roots)


def _cyclic_generator(g: FiniteGroup) -> int | None:
    gens = np.flatnonzero(g.orders == len(g))
    return int(gens[0]) if gens.size else None


def _cyclic_trace(c: Cochain, gen: int) -> int:
    """prod_j c(gen, gen^j, gen): a coboundary-stable root of unity.  The
    powers of gen cover the group, so this is the product over all x."""
    n = len(c.group)
    return c.module.exp(c.vec[(gen * n + np.arange(n)) * n + gen].sum(axis=0))


def cohomologous3(c1: Cochain, c2: Cochain, field: Field) -> Cochain | None:
    """A 2-cochain k with c2 = c1 * d(k), or None."""
    g = c1.group
    n = field.p - 1
    sol = solve_mod(_coboundary_matrix(g, 2), (c2.logs() - c1.logs())[:, 0] % n, n)
    if sol is None:
        return None
    return Cochain.from_logs(g, 2, np.reshape(sol, (-1, 1)), Units(field))


# ---- the bridge to fusion systems ---------------------------------------------------


def cocycle_to_fusion_system(g: FiniteGroup, omega: Cochain, field: Field):
    """The fusion system on the group rule with coefficients delta-supported on omega."""
    if omega.group != g:
        raise DomainError("omega is a cochain on a different group")
    if omega.degree != 3 or not is_cocycle(omega):
        raise DomainError("omega must be a 3-cocycle")
    logs, _ = _normalize3_logs(omega.logs(), omega.module, omega.group)  # a normalized one is kept as it is
    rule, n = group_rule(g), len(g)
    x, y, z = np.array(admissible_sextuples(rule)).T[:3]
    return FusionSystem.from_vec(rule, field, omega.module.exp(logs[(x * n + y) * n + z]))


def fusion_system_to_cocycle(f) -> Cochain:
    """Read the 3-cocycle back off a fusion system on a group rule."""
    n = f.rule.n
    g = group_from_members(f.rule, range(n))
    a, b, c = np.indices((n,) * 3).reshape(3, -1)  # product order
    ab = g.table[a, b]
    slots = _slot_lookup(f.rule)(a, b, c, ab, g.table[ab, c], g.table[b, c])
    mod = Units(f.field)
    c = Cochain.from_logs(g, 3, mod.log(f.vec[slots]), mod)  # a group rule admits every slot read
    if not is_cocycle(c):
        raise ValidationError("fusion system does not define a cocycle")
    return c


# ---- the cross-check through uberderivations ------------------------------------------


@dataclass
class H3ViaUberReport:
    group: FiniteGroup
    serfs: tuple[int, ...]
    field: Field
    count: int
    h3_order: int
    classification: object

    @property
    def agree(self) -> bool:
        return self.count == self.h3_order

    def to_dict(self) -> dict:
        return {
            "group": self.group.name,
            "serfs": [self.group.labels[s] for s in self.serfs],
            "p": self.field.p,
            "uber_classes": self.count,
            "h3_order": self.h3_order,
            "agree": self.agree,
        }


def h3_via_uber(g: FiniteGroup, serfs, field: Field, direct: H3Report | None = None) -> H3ViaUberReport:
    """Count gauge classes of uberderivations on an index-2 subgroup over F^(G-S),
    and check the count against h3 directly.  direct is the H3Report of g over
    field when the caller holds one, as `cohom h3 --via-uber` does; otherwise
    h3 runs here.  The serfs are checked and the classes counted before h3
    runs, so a bad input raises what the first failing stage raises."""
    from .uber import enumerate_uber

    try:
        serfs = list(serfs)
    except TypeError:
        raise DomainError(f"serfs must be a collection of ids, got {serfs!r}") from None
    serfs = frozenset(integers(serfs, "serfs", DomainError).tolist())
    if 2 * len(serfs) != len(g):
        raise DomainError("serfs must form an index-2 subgroup")
    fr = graded_group(g, serfs)
    ambi = Ambi(fr, field)
    cls = enumerate_uber(ambi, with_orbits=False)
    if direct is None:
        direct = h3(g, field)
    report = H3ViaUberReport(g, tuple(sorted(serfs)), field, cls.gauge_classes, direct.order, cls)
    if not report.agree:
        raise ValidationError(
            f"uber count {report.count} disagrees with h3 order {report.h3_order}"
        )
    return report
