"""Exact linear algebra over Z/n for composite n.

n = p - 1 is composite in every interesting case, so field elimination is
wrong; everything here pivots on gcds.  The one workhorse is a Smith-style
diagonalization mod n with tracked column transforms, from which solving,
kernels, quotient-group enumeration and its inverse (the index of the coset
of a vector) all follow.

Each elimination builds only the transforms its caller reads.  The column
transform V is always built: kernels, solutions and coset indices read it.
Its inverse Vinv is built only for the relation matrix of
quotient_structure, whose representatives read it: nullspace_mod,
solve_mod, factor_mod and the elimination of quotient_structure's
generators each pass inverse=False.  No module but this one calls smith_mod
or reads Vinv.

Factor once, solve many: smith_mod carries any number of right-hand sides
(the columns of a matrix rhs) through a single elimination, and
back_substitute finishes each of them.  Right-hand sides known up front are
passed together; for ones that arrive later, factor_mod(A, n) factors A once
and its .solve(b, n) answers each of them without another elimination.
quotient_structure does both with one elimination of its generators: it
carries all of its t_gens, and, for a caller that will index, the identity
alongside them, which leaves the row transform index solves against.

Gather is the one form of a signed sum of coordinates: the coboundary, the
gauge action, the normal system of a triple and the axiom rows are each one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from math import gcd, prod

import numpy as np

from .errors import DomainError, ResourceError, ValidationError


GATHER_SLICE = 1 << 16  # terms Gather.apply gathers at once (512 KiB of int64): it takes a batch a slice at a time


@dataclass(frozen=True, eq=False)
class Gather:
    """A padded signed gather, compared by identity: row r of its image of x
    is the sum over t of signs[r, t] * x[src[r, t]].  src and signs are
    read-only (rows, width) arrays; a row with fewer terms than the widest
    is padded with sign 0, and a column named twice in a row counts twice."""

    src: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        self.src.flags.writeable = self.signs.flags.writeable = False

    @classmethod
    def of(cls, families) -> "Gather":
        """The rows of each family (terms, signs) in turn, padded to the widest:
        terms is a list of index arrays, (rows,) for one term or (rows, w) for
        w, stacked as columns, and signs has one sign per column."""
        blocks = [(np.column_stack(terms), signs) for terms, signs in families]
        src = np.zeros((sum(len(b) for b, _ in blocks), max(b.shape[1] for b, _ in blocks)), np.intp)
        signs, row = np.zeros(src.shape, np.int64), 0
        for block, block_signs in blocks:
            src[row : row + len(block), : block.shape[1]] = block
            signs[row : row + len(block), : block.shape[1]] = block_signs
            row += len(block)
        return cls(src, signs)

    def apply(self, x, n: int) -> np.ndarray:
        """The image mod n of x over its last axis, one row per row of the
        gather; any leading axes of x are kept."""
        x = np.asarray(x)
        vecs = x.reshape(-1, x.shape[-1])
        out = np.empty((len(vecs), len(self.src)), np.int64)
        step = max(1, GATHER_SLICE // (self.src.size or 1))
        for i in range(0, len(vecs), step):
            out[i : i + step] = np.einsum("krt,rt->kr", vecs[i : i + step].take(self.src, axis=1), self.signs)
        out %= n
        return out.reshape(x.shape[:-1] + (len(self.src),))

    def dense(self, columns: int) -> np.ndarray:
        """The int64 matrix of the gather, with the given number of columns."""
        out = np.zeros((len(self.src), columns), np.int64)
        np.add.at(out, (np.arange(len(self.src))[:, None], self.src), self.signs)
        return out


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _unit_scale(a: int, g: int, n: int) -> int:
    """A unit w mod n with a*w = g (mod n), where g = gcd(a, n)."""
    a1, n1 = a // g, n // g
    w = pow(a1, -1, n1)
    # lift to a unit mod n; w is already coprime to n1
    while gcd(w, n) != 1:
        w += n1
    return w % n


@dataclass
class SmithMod:
    """Diagonalization A ~ diag(d_i) over Z/n via unimodular row/col ops.

    Only the column transform V, and its inverse Vinv when the caller asks
    for it, is materialized; row operations are applied to the optional
    right-hand side instead (a vector, or a matrix with one column per
    right-hand side).  Vinv is None when smith_mod was called with
    inverse=False, as every caller but quotient_structure's relation
    matrix is: representatives reads Vinv, and nothing else does.
    Diagonal entries are divisors of n and satisfy d_1 | d_2 | ... .
    """

    diag: list[int]
    V: np.ndarray
    Vinv: np.ndarray | None
    rhs: np.ndarray | None
    rows: int
    cols: int

    def solve(self, b, n: int) -> np.ndarray | None:
        """x with A @ x = b mod n, or None; self's rhs must be the row
        transform, as factor_mod leaves it."""
        return back_substitute(self, self.rhs @ b % n, n)


def _swap(X, i, j) -> None:
    """Swap X[i] and X[j] in place."""
    X[i], X[j] = X[j], X[i].copy()


def smith_mod(A, n: int, rhs=None, *, inverse: bool = True) -> SmithMod:
    """Diagonalize A mod n, carrying rhs (if given) through the row operations,
    and tracking the inverse column transform Vinv only if inverse is set.

    The pivot of step t is the entry of A[t:, t:] with the smallest gcd with
    n, first in row-major order.  Rows at or below t are zero left of column
    t, and A stays reduced mod n, so each operation writes only the cells it
    can change: the row step the rows with a nonzero multiplier in the
    pivot row's nonzero columns, the column step row t.  Each row below the
    pivot keeps a count of its entries per gcd level, updated with every
    write, so the pivot is found from the per-row lowest level, and the
    chain condition from the levels a non-unit pivot does not divide,
    without rescanning A.  Divisibility is scanned only on nonzero entries,
    and not at all for a pivot of 1.  The pivots, V and rhs do not depend on
    whether Vinv is tracked.
    """
    # column-major: the pivot column is read on every pass, and swapped whole
    A = np.mod(np.atleast_2d(np.asarray(A, dtype=np.int64)), n, order="F")
    m, k = A.shape
    VT = np.eye(k, dtype=np.int64)  # V transposed: its column operations act on rows
    Vi = np.eye(k, dtype=np.int64) if inverse else None
    b = None if rhs is None else np.asarray(rhs, dtype=np.int64) % n
    # level[v] orders residues by gcd(v, n), with 0 on the last level
    gcds = np.gcd(np.arange(n), n)
    gcds[0] = n + 1
    levels, level = np.unique(gcds, return_inverse=True)
    zero = len(levels) - 1

    # per-row level counts and lowest level; a row's are not read again once it holds a pivot
    cells = np.arange(m)[:, None] * len(levels) + level[A]
    count = np.bincount(cells.ravel(), minlength=m * len(levels)).reshape(m, len(levels))
    flat = count.reshape(-1)  # a view: count's cell (row, level) at row * len(levels) + level
    low = (count > 0).argmax(axis=1)

    def write(rows, cols, new, old):
        """A[rows, cols] = new over old, for a column of distinct rows,
        keeping count and low of those rows up to date."""
        at = rows * len(levels)
        np.add.at(flat, (at + level[new]).ravel(), 1)
        np.subtract.at(flat, (at + level[old]).ravel(), 1)
        r = rows[:, 0]
        low[r] = (count[r] > 0).argmax(axis=1)
        A[rows, cols] = new

    t = 0
    while t < min(m, k):
        i0 = t + int(low[t:].argmin())
        if low[i0] == zero:
            break
        j0 = t + int(level[A[i0, t:]].argmin())
        if i0 != t:  # row t's count and low are not read again
            _swap(A[:, t:], t, i0)
            count[i0], low[i0] = count[t], low[t]
            if b is not None:
                _swap(b, t, i0)
        if j0 != t:
            _swap(A[t:].T, t, j0)
            _swap(VT, t, j0)
            if Vi is not None:
                _swap(Vi, t, j0)

        guard = 0
        while True:
            guard += 1
            if guard > 4 * (m + k) * (n.bit_length() + 2):
                raise ValidationError("diagonalization failed to converge")
            a = int(A[t, t])  # never 0: every operation below keeps a nonzero pivot
            # make the pivot divide its column: combine with the first row it does not divide
            col = A[t + 1 :, t]
            nz = col.nonzero()[0]
            hard = () if a == 1 else (col[nz] % a).nonzero()[0]
            if len(hard):
                i2 = t + 1 + int(nz[hard[0]])
                c = int(A[i2, t])
                g, x, y = xgcd(a, c)
                # [row t; row i2] <- M @ [row t; row i2], det M = 1
                M = np.array([[x, y], [-c // g, a // g]])
                old = A[[t, i2], t:]
                write(np.array([[t], [i2]]), np.arange(t, k), M @ old % n, old)
                if b is not None:
                    b[[t, i2]] = M @ b[[t, i2]] % n
                continue
            if len(nz):
                q = col[nz] // a
                rows = (t + 1 + nz)[:, None]
                cols = t + A[t, t:].nonzero()[0]
                old = A[rows, cols]
                write(rows, cols, (old - q[:, None] * A[t, cols]) % n, old)
                if b is not None:
                    b[rows[:, 0]] = (b[rows[:, 0]] - np.multiply.outer(q, b[t])) % n
            # column t is now zero off row t; make the pivot divide its row
            row = A[t, t + 1 :]
            nz = row.nonzero()[0]
            hard = () if a == 1 else (row[nz] % a).nonzero()[0]
            if len(hard):
                j2 = t + 1 + int(nz[hard[0]])
                c = int(A[t, j2])
                g, x, y = xgcd(a, c)
                u, v = -c // g, a // g
                # [col t, col j2] <- [col t, col j2] @ N, det N = 1; N^-1 acts on the rows of Vi
                N = np.array([[x, u], [y, v]])
                rows = (t + A[t:, j2].nonzero()[0])[:, None]  # column t is zero below row t
                cols = np.array([t, j2])
                old = A[rows, cols]
                write(rows, cols, old @ N % n, old)
                VT[[t, j2]] = N.T @ VT[[t, j2]] % n
                if Vi is not None:
                    Vi[[t, j2]] = np.array([[v, -u], [-y, x]]) @ Vi[[t, j2]] % n
                continue
            if len(nz):
                q = row[nz] // a
                cols = t + 1 + nz
                A[t, cols] = 0  # only row t meets the nonzero of column t
                vr = VT[t].nonzero()[0]
                cell = (cols[:, None], vr)
                VT[cell] = (VT[cell] - q[:, None] * VT[t, vr]) % n
                if Vi is not None:
                    Vi[t] = (Vi[t] + q @ Vi[cols]) % n
            # chain condition: pivot must divide the remaining submatrix, whose
            # rows' nonzero levels it divides exactly when it divides their entries
            g = gcd(a, n)
            if g > 1:
                bad = count[t + 1 :, :zero][:, levels[:zero] % g != 0].any(axis=1)
                if bad.any():
                    i2 = t + 1 + int(bad.argmax())
                    A[t, t:] = (A[t, t:] + A[i2, t:]) % n
                    if b is not None:
                        b[t] = (b[t] + b[i2]) % n
                    continue
            break

        a = int(A[t, t])
        g = gcd(a, n)
        if a != g:
            w = _unit_scale(a, g, n)
            A[t, t] = a * w % n
            VT[t] = VT[t] * w % n
            if Vi is not None:
                Vi[t] = Vi[t] * pow(w, -1, n) % n
        t += 1

    diag = np.gcd(A.diagonal()[:t], n).tolist()
    return SmithMod(diag=diag, V=np.ascontiguousarray(VT.T), Vinv=Vi, rhs=b, rows=m, cols=k)


def factor_mod(A, n: int) -> SmithMod:
    """smith_mod of A with the identity as rhs, which leaves the row transform."""
    return smith_mod(A, n, rhs=np.eye(np.atleast_2d(A).shape[0], dtype=np.int64), inverse=False)


def _unique_rows(A: np.ndarray) -> np.ndarray:
    """np.unique(A, axis=0) for a nonnegative int64 matrix: the distinct rows,
    sorted.  Nonnegative rows sort as their big-endian bytes do, so one sort
    of a byte view per row replaces the field-by-field sort."""
    rows = np.ascontiguousarray(A.astype(">i8")).view(f"V{8 * A.shape[1]}").ravel()
    return A[np.unique(rows, return_index=True)[1]]


def nullspace_mod(A, n: int) -> list[np.ndarray]:
    """Generators of {x : A @ x = 0 mod n}."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64)) % n
    if A.shape[0] > 1:
        A = _unique_rows(A)  # row space, hence kernel, is unchanged
    sm = smith_mod(A, n, inverse=False)
    gens = []
    for i in range(sm.cols):
        d = sm.diag[i] if i < len(sm.diag) else 0
        mult = n // gcd(d, n)  # d = 0 gives mult = 1 (free coordinate)
        if mult % n == 0:
            continue  # d == 1: no kernel in this coordinate
        g = sm.V[:, i] * mult % n
        if g.any():
            gens.append(g.astype(np.int64))
    return gens


def back_substitute(sm: SmithMod, c, n: int) -> np.ndarray | None:
    """Finish a solve: x with A @ x = b mod n, where c is b with sm's row
    operations applied (sm.rhs, or U @ b for the row transform U); None if
    there is none.  A matrix c is solved column by column, and gives None
    unless every column has a solution.
    """
    c = np.asarray(c, dtype=np.int64) % n
    r = len(sm.diag)
    d = np.array(sm.diag, dtype=np.int64).reshape((r,) + (1,) * (c.ndim - 1))
    if c[r:].any() or (c[:r] % d).any():
        return None
    y = np.zeros((sm.cols,) + c.shape[1:], dtype=np.int64)
    y[:r] = c[:r] // d % (n // d)
    return sm.V @ y % n


def solve_mod(A, rhs, n: int) -> np.ndarray | None:
    """One solution of A @ x = rhs mod n, or None (rhs a vector or a matrix)."""
    sm = smith_mod(A, n, rhs=rhs, inverse=False)
    return back_substitute(sm, sm.rhs, n)


@dataclass
class QuotientStructure:
    """The finite abelian group <H>/<T> inside (Z/n)^k, with coset reps.

    A coset is named by y in prod(Z/factors[i]): its representative is
    (y @ Vinv) @ gens, where V, Vinv are the Smith column transforms of the
    relation matrix on the coefficients of gens.  representatives reads
    Vinv; index reads V and the row transform of the generators' elimination
    (_solver), which quotient_structure builds only when asked to: a
    structure built without it refuses index.
    """

    order: int
    factors: list[int]  # cyclic factor sizes, divisor chain then full-n factors
    _V: np.ndarray
    _Vinv: np.ndarray
    _gens: np.ndarray
    _solver: SmithMod | None  # factor_mod(_gens.T), or None if not indexed: solves for coefficients over the gens
    _n: int

    @property
    def invariant_factors(self) -> list[int]:
        return [f for f in self.factors if f > 1]

    def representatives(self, limit: int = 1_000_000):
        """Yield one ambient vector per coset, deterministically ordered."""
        if self.order > limit:
            raise ResourceError(f"quotient of order {self.order} exceeds limit {limit}")
        n = self._n
        for y in product(*(range(f) for f in self.factors)):
            c = np.array(y, dtype=np.int64) @ self._Vinv % n
            yield c @ self._gens % n

    def index(self, v) -> int | list[int]:
        """Position in representatives() of the coset of v, which must lie in
        span(H); for a (K, dim) batch, the list of the K positions, from one
        solve.  The last factor varies fastest."""
        if self._solver is None:
            raise DomainError("this quotient was built without the row transform index solves against")
        n = self._n
        c = self._solver.solve(np.asarray(v, dtype=np.int64).T % n, n)
        if c is None:
            raise ValidationError("vector is not in the span of the quotient's generators")
        places = [prod(self.factors[i + 1 :]) for i in range(len(self.factors))]
        digits = c.T @ self._V % n % np.array(self.factors, dtype=np.int64)
        return (digits @ np.array(places, dtype=np.int64 if self.order < 2**63 else object)).tolist()


def quotient_structure(h_gens, t_gens, dim: int, n: int, *, indexed: bool = True) -> QuotientStructure:
    """Structure of span(h_gens)/span(t_gens) in (Z/n)^dim; t must lie in h.

    The elimination of the generators carries the dim x dim identity, whose
    image is the row transform index solves against, only if indexed is set;
    a caller that never indexes (h3, and enumerate_uber without orbits)
    says so.  The relation matrix's elimination tracks Vinv, which
    representatives reads; the generators' tracks no inverse.
    """
    H = [np.asarray(g, dtype=np.int64) % n for g in h_gens]
    H = [g for g in H if g.any()]
    if not H:
        empty = np.eye(0, dtype=np.int64)
        solver = SmithMod([], empty, None, np.eye(dim, dtype=np.int64), dim, 0) if indexed else None  # factor_mod of no columns
        return QuotientStructure(1, [], empty, empty, np.zeros((0, dim), dtype=np.int64), solver, n)
    GH = np.vstack(H)
    r = GH.shape[0]
    rel = nullspace_mod(GH.T, n)
    # pivots depend only on GH, so one elimination of GH.T solves t_gens and,
    # for a caller that indexes, carries the row transform index solves against
    T = np.array(t_gens, dtype=np.int64).reshape(len(t_gens), dim).T
    lead = dim if indexed else 0  # the identity's columns, ahead of T's
    fac = smith_mod(GH.T, n, rhs=np.hstack([np.eye(dim, lead, dtype=np.int64), T]), inverse=False)
    C = back_substitute(fac, fac.rhs[:, lead:], n)
    if C is None:
        raise ValidationError("t_gens are not contained in span(h_gens)")
    rel.extend(C.T)
    M = np.vstack(rel) if rel else np.zeros((0, r), dtype=np.int64)
    sm = smith_mod(M, n, inverse=True)  # representatives reads Vinv
    factors = [sm.diag[i] if i < len(sm.diag) else n for i in range(r)]
    solver = replace(fac, rhs=fac.rhs[:, :dim]) if indexed else None
    return QuotientStructure(prod(factors), factors, sm.V, sm.Vinv, GH, solver, n)
