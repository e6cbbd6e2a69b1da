"""Group cochains valued in unit groups, coboundaries, and H^3 by exact linear algebra.

Cochains take values either in GF(p)^x with the trivial action or in the
invertible part of an ambient algebra B = F^M with its two-sided actions.
All computation happens in discrete-log coordinates, where cocycle and
coboundary conditions are integer-linear over Z_(p-1); p - 1 is composite,
so kernels and images go through the gcd-pivot machinery in zmodlin.

The coboundary is encoded once, by `_delta`, as a signed gather of tuple
indices; the coboundary of a cochain, the cocycle test, normalization, the
exponent-space matrices of `h3` and the alpha of `uber.reconstruct` all
read off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .ambient import Ambi
from .errors import DomainError, ResourceError, ValidationError
from .fields import Field
from .groups import FiniteGroup
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

    def coerce(self, xs) -> list:
        """The values xs reduced mod p: a list of ints, or of length-M vectors."""
        v = np.asarray(xs, dtype=np.int64) % self.field.p
        if (v == 0).any():
            raise ValidationError("cochain values must be invertible")
        return v.reshape(len(xs)).tolist() if self.ambi is None else list(v)

    def log(self, x) -> np.ndarray:
        """The log vector of a value, or the (N, M) log array of a sequence of N values."""
        v = np.asarray(x, dtype=np.int64) % self.field.p
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
def _tuples(n: int, degree: int) -> dict:
    """Every tuple of S^degree (|S| = n), as ints, keyed by itself."""
    return {t: t for t in product(range(n), repeat=degree)}


@dataclass
class Cochain:
    group: FiniteGroup
    degree: int
    values: dict
    module: Units

    def __post_init__(self):
        if self.degree not in (1, 2, 3, 4):
            raise DomainError("degree must be 1, 2, 3, or 4")
        vals = self.module.coerce(list(self.values.values()))
        tuples = _tuples(len(self.group), self.degree)
        keys = [tuples.get(k) for k in self.values]  # as tuples of ints
        if len(keys) != len(tuples) or None in keys:
            raise ValidationError("cochain must be total on S^n")
        self.values = dict(zip(keys, vals))

    @classmethod
    def from_logs(cls, group: FiniteGroup, degree: int, logs: np.ndarray, module: Units) -> "Cochain":
        """The cochain whose log array (see `logs`) is logs."""
        tuples = product(range(len(group)), repeat=degree)
        return cls(group, degree, dict(zip(tuples, module.exp(logs))), module)

    def __call__(self, *args):
        return self.values[args]

    def logs(self) -> np.ndarray:
        """The (n^degree, M) array of log vectors, rows in product order of the tuples."""
        return self.module.log([self.values[t] for t in sorted(self.values)])

    def is_normalized(self) -> bool:
        e = self.group.unit
        one = self.module.one()
        return all(self.module.eq(v, one) for k, v in self.values.items() if e in k)

    def mul(self, other: "Cochain") -> "Cochain":
        vals = {k: self.module.mul(v, other.values[k]) for k, v in self.values.items()}
        return Cochain(self.group, self.degree, vals, self.module)

    def inv(self) -> "Cochain":
        return Cochain(self.group, self.degree, {k: self.module.inv(v) for k, v in self.values.items()}, self.module)

    def eq(self, other: "Cochain") -> bool:
        return all(self.module.eq(v, other.values[k]) for k, v in self.values.items())


def trivial_cochain(group: FiniteGroup, degree: int, field: Field) -> Cochain:
    return Cochain(group, degree, {k: 1 for k in product(range(len(group)), repeat=degree)}, Units(field))


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
    a cochain (see `Cochain.logs`) to that of its coboundary, mod p - 1."""
    src, signs, acted, actor = _delta(g, degree, side)
    terms = np.asarray(logs)[src]
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
    """normalize_cocycle3 in exponent coordinates: (normalized cocycle, witness)."""
    n, e, mod = len(g), g.unit, module.field.p - 1
    a, b = np.indices((n, n)).reshape(2, -1)
    k1 = logs[(e * n + e) * n + b]  # k1(a, b) = h(e, e, b)
    step1 = logs - coboundary_logs(k1, module, g, 2, "left")
    k2 = step1[(a * n + e) * n + e]  # k2(a, b) = step1(a, e, e)
    out = (step1 + coboundary_logs(k2, module, g, 2, "left")) % mod
    if out[(np.indices((n,) * 3).reshape(3, -1) == e).any(axis=0)].any():
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
        reps = []
        for c in self.representatives:
            reps.append({",".join(self.group.labels[i] for i in k): int(v) for k, v in sorted(c.values.items())})
        out = {
            "group": self.group.name,
            "p": self.field.p,
            "order": self.order,
            "invariant_factors": self.invariant_factors,
            "representatives": reps,
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
    reps = []
    for vec in quot.representatives(limit=4096):
        logs, _ = _normalize3_logs(np.reshape(vec, (-1, 1)), mod, g)
        reps.append(Cochain.from_logs(g, 3, logs, mod))
    roots = None
    gen = _cyclic_generator(g)
    if gen is not None:
        roots = {i: _cyclic_trace(c, gen) for i, c in enumerate(reps)}
    return H3Report(g, field, quot.order, quot.invariant_factors, reps, roots)


def _cyclic_generator(g: FiniteGroup) -> int | None:
    for a in range(len(g)):
        if g.element_order(a) == len(g):
            return a
    return None


def _cyclic_trace(c: Cochain, gen: int) -> int:
    """prod_j c(gen, gen^j, gen): a coboundary-stable root of unity."""
    g = c.group
    out = 1
    x = g.unit
    for _ in range(len(g)):
        out = c.module.mul(out, c(gen, x, gen))
        x = g.mul(x, gen)
    return out


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
    from .feudal import group_rule
    from .systems import FusionSystem, admissible_sextuples

    if omega.degree != 3 or not is_cocycle(omega):
        raise DomainError("omega must be a 3-cocycle")
    if not omega.is_normalized():
        omega, _ = normalize_cocycle3(omega)
    rule = group_rule(g)
    coeffs = {}
    for (x, y, z, u, r, v) in admissible_sextuples(rule):
        coeffs[(x, y, z, u, r, v)] = omega(x, y, z)
    return FusionSystem(rule, field, coeffs)


def fusion_system_to_cocycle(f) -> Cochain:
    """Read the 3-cocycle back off a fusion system on a group rule."""
    g_rule = f.rule
    n = g_rule.n
    from .rules import group_from_members

    g = group_from_members(g_rule, range(n))
    vals = {}
    for a, b, c in product(range(n), repeat=3):
        ab = g.mul(a, b)
        vals[(a, b, c)] = f.coeff(a, b, c, ab, g.mul(ab, c), g.mul(b, c))
    c = Cochain(g, 3, vals, Units(f.field))
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
    from .feudal import graded_group
    from .uber import enumerate_uber

    serfs = frozenset(int(s) for s in serfs)
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
