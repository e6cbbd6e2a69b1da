"""Exact linear algebra over Z/n for composite n.

n = p - 1 is composite in every interesting case, so field elimination is
wrong; everything here pivots on gcds.  The one workhorse is a Smith-style
diagonalization mod n with tracked column transforms, from which solving,
kernels, quotient-group enumeration and its inverse (the index of the coset
of a vector) all follow.

Factor once, solve many: smith_mod carries any number of right-hand sides
(the columns of a matrix rhs) through a single elimination, and
back_substitute finishes each of them.  Right-hand sides known up front are
passed together (quotient_structure solves all of its t_gens in one
elimination); for ones that arrive later, factor_mod(A, n) factors A once and
its .solve(b, n) answers each of them without another elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd, prod

import numpy as np

from .errors import ResourceError, ValidationError


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

    Only the column transform V (and its inverse) is materialized; row
    operations are applied to the optional right-hand side instead (a vector,
    or a matrix with one column per right-hand side).
    Diagonal entries are divisors of n and satisfy d_1 | d_2 | ... .
    """

    diag: list[int]
    V: np.ndarray
    Vinv: np.ndarray
    rhs: np.ndarray | None
    rows: int
    cols: int

    def solve(self, b, n: int) -> np.ndarray | None:
        """x with A @ x = b mod n, or None; self must come from factor_mod,
        whose rhs is the row transform."""
        return back_substitute(self, self.rhs @ b % n, n)


def smith_mod(A, n: int, rhs=None) -> SmithMod:
    A = np.atleast_2d(np.asarray(A, dtype=np.int64)) % n
    m, k = A.shape
    V = np.eye(k, dtype=np.int64)
    Vi = np.eye(k, dtype=np.int64)
    b = None if rhs is None else np.asarray(rhs, dtype=np.int64).copy() % n

    def row_combine(i1, i2, x, y, u, v):
        # [row i1; row i2] <- [[x, y], [u, v]] @ [row i1; row i2], det 1 mod n
        r1 = (x * A[i1] + y * A[i2]) % n
        r2 = (u * A[i1] + v * A[i2]) % n
        A[i1], A[i2] = r1, r2
        if b is not None:
            c1 = (x * b[i1] + y * b[i2]) % n
            c2 = (u * b[i1] + v * b[i2]) % n
            b[i1], b[i2] = c1, c2

    def col_combine(j1, j2, x, y, u, v):
        c1 = (x * A[:, j1] + y * A[:, j2]) % n
        c2 = (u * A[:, j1] + v * A[:, j2]) % n
        A[:, j1], A[:, j2] = c1, c2
        w1 = (x * V[:, j1] + y * V[:, j2]) % n
        w2 = (u * V[:, j1] + v * V[:, j2]) % n
        V[:, j1], V[:, j2] = w1, w2
        # inverse transform acts on Vi rows with the inverse 2x2 block
        r1 = (v * Vi[j1] - u * Vi[j2]) % n
        r2 = (-y * Vi[j1] + x * Vi[j2]) % n
        Vi[j1], Vi[j2] = r1, r2

    t = 0
    while t < min(m, k):
        sub = A[t:, t:] % n
        nz = np.argwhere(sub != 0)
        if nz.size == 0:
            break
        # pivot with the smallest gcd with n, earliest position on ties
        best, pos = None, None
        for i, j in nz:
            g = gcd(int(sub[i, j]), n)
            if best is None or g < best:
                best, pos = g, (t + int(i), t + int(j))
                if g == 1:
                    break
        i0, j0 = pos
        if i0 != t:
            A[[t, i0]] = A[[i0, t]]
            if b is not None:
                b[[t, i0]] = b[[i0, t]]
        if j0 != t:
            A[:, [t, j0]] = A[:, [j0, t]]
            V[:, [t, j0]] = V[:, [j0, t]]
            Vi[[t, j0]] = Vi[[j0, t]]

        guard = 0
        while True:
            guard += 1
            if guard > 4 * (m + k) * (n.bit_length() + 2):
                raise ValidationError("diagonalization failed to converge")
            a = int(A[t, t]) % n
            # make the pivot divide its column
            col = A[t + 1 :, t] % n
            hard = [t + 1 + int(i) for i in np.nonzero(col)[0] if a == 0 or col[int(i)] % a]
            if hard:
                i2 = hard[0]
                g, x, y = xgcd(a, int(A[i2, t]))
                row_combine(t, i2, x, y, -int(A[i2, t]) // g, a // g)
                continue
            if a:
                q = (A[t + 1 :, t] % n) // a
                if q.any():
                    A[t + 1 :] = (A[t + 1 :] - np.outer(q, A[t])) % n
                    if b is not None:
                        b[t + 1 :] = (b[t + 1 :] - np.multiply.outer(q, b[t])) % n
            # make the pivot divide its row
            row = A[t, t + 1 :] % n
            hard = [t + 1 + int(j) for j in np.nonzero(row)[0] if a == 0 or row[int(j)] % a]
            if hard:
                j2 = hard[0]
                g, x, y = xgcd(a, int(A[t, j2]))
                col_combine(t, j2, x, y, -int(A[t, j2]) // g, a // g)
                continue
            if a:
                q = (A[t, t + 1 :] % n) // a
                if q.any():
                    A[:, t + 1 :] = (A[:, t + 1 :] - np.outer(A[:, t], q)) % n
                    V[:, t + 1 :] = (V[:, t + 1 :] - np.outer(V[:, t], q)) % n
                    Vi[t] = (Vi[t] + q @ Vi[t + 1 :]) % n
            if (A[t + 1 :, t] % n).any() or (A[t, t + 1 :] % n).any():
                continue
            # chain condition: pivot must divide the remaining submatrix
            g = gcd(int(A[t, t]), n)
            rest = A[t + 1 :, t + 1 :] % n
            bad = np.argwhere(rest % g != 0)
            if bad.size:
                i2 = t + 1 + int(bad[0][0])
                A[t] = (A[t] + A[i2]) % n
                if b is not None:
                    b[t] = (b[t] + b[i2]) % n
                continue
            break

        a = int(A[t, t]) % n
        g = gcd(a, n)
        if a != g:
            w = _unit_scale(a, g, n)
            A[:, t] = A[:, t] * w % n
            V[:, t] = V[:, t] * w % n
            Vi[t] = Vi[t] * pow(w, -1, n) % n
        t += 1

    diag = [gcd(int(A[i, i]), n) for i in range(t)]
    return SmithMod(diag=diag, V=V, Vinv=Vi, rhs=b, rows=m, cols=k)


def factor_mod(A, n: int) -> SmithMod:
    """smith_mod of A with the identity as rhs, which leaves the row transform."""
    return smith_mod(A, n, rhs=np.eye(np.atleast_2d(A).shape[0], dtype=np.int64))


def nullspace_mod(A, n: int) -> list[np.ndarray]:
    """Generators of {x : A @ x = 0 mod n}."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64)) % n
    if A.shape[0] > 1:
        A = np.unique(A, axis=0)  # row space, hence kernel, is unchanged
    sm = smith_mod(A, n)
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
    sm = smith_mod(A, n, rhs=rhs)
    return back_substitute(sm, sm.rhs, n)


@dataclass
class QuotientStructure:
    """The finite abelian group <H>/<T> inside (Z/n)^k, with coset reps.

    A coset is named by y in prod(Z/factors[i]): its representative is
    (y @ Vinv) @ gens, where V, Vinv are the Smith column transforms of the
    relation matrix on the coefficients of gens.
    """

    order: int
    factors: list[int]  # cyclic factor sizes, divisor chain then full-n factors
    _V: np.ndarray
    _Vinv: np.ndarray
    _gens: np.ndarray
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

    @cached_property
    def _solver(self) -> SmithMod:
        return factor_mod(self._gens.T, self._n)

    def index(self, v) -> int:
        """Position in representatives() of the coset of v, which must lie in span(H)."""
        n = self._n
        c = self._solver.solve(np.asarray(v, dtype=np.int64) % n, n)
        if c is None:
            raise ValidationError("vector is not in the span of the quotient's generators")
        pos = 0
        for y, f in zip((c @ self._V % n).tolist(), self.factors):
            pos = pos * f + y % f
        return pos


def quotient_structure(h_gens, t_gens, dim: int, n: int) -> QuotientStructure:
    """Structure of span(h_gens)/span(t_gens) in (Z/n)^dim; t must lie in h."""
    H = [np.asarray(g, dtype=np.int64) % n for g in h_gens]
    H = [g for g in H if g.any()]
    if not H:
        empty = np.eye(0, dtype=np.int64)
        return QuotientStructure(1, [], empty, empty, np.zeros((0, dim), dtype=np.int64), n)
    GH = np.vstack(H)
    r = GH.shape[0]
    rel = nullspace_mod(GH.T, n)
    if len(t_gens):
        C = solve_mod(GH.T, np.array(t_gens, dtype=np.int64).T, n)
        if C is None:
            raise ValidationError("t_gens are not contained in span(h_gens)")
        rel.extend(C.T)
    M = np.vstack(rel) if rel else np.zeros((0, r), dtype=np.int64)
    sm = smith_mod(M, n)
    factors = [sm.diag[i] if i < len(sm.diag) else n for i in range(r)]
    return QuotientStructure(prod(factors), factors, sm.V, sm.Vinv, GH, n)
