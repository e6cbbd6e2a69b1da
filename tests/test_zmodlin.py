import inspect
import itertools
import random
import sys
from math import gcd

import numpy as np
import pytest

from fusionkit.cohomology import _coboundary_matrix
from fusionkit.errors import ResourceError, ValidationError
from fusionkit.groups import cyclic
from fusionkit.zmodlin import (
    SmithMod,
    _unique_rows,
    _unit_scale,
    factor_mod,
    nullspace_mod,
    quotient_structure,
    smith_mod,
    solve_mod,
    xgcd,
)


def brute_kernel(A, n):
    k = A.shape[1]
    return {
        x
        for x in itertools.product(range(n), repeat=k)
        if not ((A @ np.array(x)) % n).any()
    }


def span_of(gens, k, n):
    s = {tuple([0] * k)}
    for g in gens:
        s = {tuple((np.array(b) + c * np.array(g)) % n) for b in s for c in range(n)}
    return s


def test_xgcd():
    rng = random.Random(0)
    for _ in range(100):
        a, b = rng.randrange(-50, 50), rng.randrange(-50, 50)
        g, x, y = xgcd(a, b)
        assert x * a + y * b == g >= 0


def test_smith_diag_divides_modulus_and_chains():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.choice([4, 6, 12, 16])
        m, k = rng.randrange(1, 5), rng.randrange(1, 5)
        A = np.array([[rng.randrange(-3, 9) for _ in range(k)] for _ in range(m)])
        sm = smith_mod(A, n)
        for d in sm.diag:
            assert d != 0 and n % d == 0
        for d1, d2 in zip(sm.diag, sm.diag[1:]):
            assert d2 % d1 == 0
        k = sm.cols
        assert not ((sm.V @ sm.Vinv - np.eye(k, dtype=np.int64)) % n).any()


def test_nullspace_against_brute_force():
    rng = random.Random(2)
    for _ in range(150):
        n = rng.choice([2, 4, 6, 12, 16])
        m, k = rng.randrange(1, 4), rng.randrange(1, 4)
        A = np.array([[rng.randrange(-3, 8) for _ in range(k)] for _ in range(m)])
        gens = nullspace_mod(A, n)
        assert span_of(gens, k, n) == brute_kernel(A, n)


def test_solve_finds_and_refuses():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice([4, 6, 12, 16])
        m, k = rng.randrange(1, 4), rng.randrange(1, 4)
        A = np.array([[rng.randrange(-3, 8) for _ in range(k)] for _ in range(m)])
        xs = np.array([rng.randrange(n) for _ in range(k)])
        b = A @ xs % n
        x0 = solve_mod(A, b, n)
        assert x0 is not None and not ((A @ x0 - b) % n).any()
        b2 = np.array([rng.randrange(n) for _ in range(m)])
        x1 = solve_mod(A, b2, n)
        if x1 is None:
            assert not any(
                not ((A @ np.array(x) - b2) % n).any()
                for x in itertools.product(range(n), repeat=k)
            )
        else:
            assert not ((A @ x1 - b2) % n).any()
        # factor once, then solve each vector against the stored row transform
        sm = factor_mod(A, n)
        for rhs, x in ((b, x0), (b2, x1)):
            y = sm.solve(rhs, n)
            assert (y is None) == (x is None)
            if y is not None:
                assert not ((A @ y - rhs) % n).any()
                assert (y == x).all()
        # both right-hand sides as the columns of one matrix
        X = solve_mod(A, np.stack([b, b2], axis=1), n)
        assert (X is None) == (x1 is None)
        if X is not None:
            assert (X[:, 0] == x0).all() and (X[:, 1] == x1).all()


def test_in_span():
    n = 12
    gens = [np.array([2, 0, 4]), np.array([0, 3, 3])]
    v = (5 * gens[0] + 7 * gens[1]) % n
    sm = factor_mod(np.vstack(gens).T, n)
    c = sm.solve(v, n)
    assert c is not None and not ((c @ np.vstack(gens) - v) % n).any()
    assert sm.solve(np.array([1, 0, 0]), n) is None


def test_quotient_structure_brute():
    rng = random.Random(4)
    probe = random.Random(5)  # outside vectors, drawn apart so the cases stay the same
    for _ in range(150):
        n = rng.choice([4, 6, 12, 16])
        k = rng.randrange(1, 4)
        H = [np.array([rng.randrange(n) for _ in range(k)]) for _ in range(rng.randrange(0, 3))]
        T = []
        for _ in range(rng.randrange(0, 3)):
            if H:
                T.append(sum(rng.randrange(n) * h for h in H) % n)
        SH, ST = span_of(H, k, n), span_of(T, k, n)
        q = quotient_structure(H, T, k, n)
        assert q.order == len(SH) // len(ST)
        seen = set()
        for i, r in enumerate(q.representatives()):
            assert tuple(r) in SH
            coset = frozenset(tuple((r + np.array(t)) % n) for t in ST)
            assert coset not in seen
            seen.add(coset)
            # index is the inverse of representatives, constant on each coset
            assert q.index(r) == i
            assert all(q.index((r + np.array(t)) % n) == i for t in ST)
        assert len(seen) == q.order
        v = np.array([probe.randrange(n) for _ in range(k)])
        if tuple(v) not in SH:
            with pytest.raises(ValidationError):
                q.index(v)


def _reference_index(q, v) -> int:
    """QuotientStructure.index as it stood: one solve and a Horner loop per vector."""
    n = q._n
    c = q._solver.solve(np.asarray(v, dtype=np.int64) % n, n)
    if c is None:
        raise ValidationError("vector is not in the span of the quotient's generators")
    pos = 0
    for y, f in zip((c @ q._V % n).tolist(), q.factors):
        pos = pos * f + y % f
    return pos


def test_quotient_index_batch_matches_reference():
    """A (K, dim) batch gives the per-vector positions in one call, on the
    brute-force cases (the trivial quotient with no factors among them) and
    on an order beyond int64; one vector outside the span fails the batch."""
    rng = random.Random(4)
    probe = random.Random(6)
    trivial = 0
    for _ in range(150):
        n = rng.choice([4, 6, 12, 16])
        k = rng.randrange(1, 4)
        H = [np.array([rng.randrange(n) for _ in range(k)]) for _ in range(rng.randrange(0, 3))]
        T = [sum(rng.randrange(n) * h for h in H) % n for _ in range(rng.randrange(0, 3)) if H]
        q = quotient_structure(H, T, k, n)
        trivial += not q.factors
        batch = np.array([sum(probe.randrange(n) * h for h in H) % n + np.zeros(k, np.int64) for _ in range(5)])
        want = [_reference_index(q, v) for v in batch]
        assert q.index(batch) == want and [q.index(v) for v in batch] == want
        assert all(type(i) is int for i in q.index(batch)) and type(q.index(batch[0])) is int
        outside = np.array([probe.randrange(n) for _ in range(k)])
        if tuple(outside) not in span_of(H, k, n):
            with pytest.raises(ValidationError):
                q.index(np.vstack([batch, outside]))
    assert trivial
    q = quotient_structure(list(np.eye(40, dtype=np.int64)), [], 40, 16)
    assert q.order == 16**40
    batch = np.array([[probe.randrange(16) for _ in range(40)] for _ in range(4)])
    assert q.index(batch) == [_reference_index(q, v) for v in batch]


def test_quotient_representative_limit():
    q = quotient_structure([np.array([1, 0]), np.array([0, 1])], [], 2, 16)
    assert q.order == 256
    with pytest.raises(ResourceError):
        list(q.representatives(limit=10))


def test_invariant_factors_of_known_quotient():
    # Z16^2 / <(2,0)> has factors [2, 16]
    q = quotient_structure(
        [np.array([1, 0]), np.array([0, 1])], [np.array([2, 0])], 2, 16
    )
    assert sorted(q.invariant_factors) == [2, 16]


# ---- the dense elimination smith_mod replaced, kept as the reference ----------------


def _reference_smith_mod(A, n: int, rhs=None) -> SmithMod:
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


def _reference_with_chain_adds(A, n, rhs):
    """_reference_smith_mod(A, n, rhs), and how often its chain-condition row add ran."""
    lines, first = inspect.getsourcelines(_reference_smith_mod)
    target = first + next(i for i, line in enumerate(lines) if "A[t] = (A[t] + A[i2]) % n" in line)
    code, hits = _reference_smith_mod.__code__, 0

    def trace(frame, event, arg):
        nonlocal hits
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == target:
            hits += 1
        return trace

    sys.settrace(trace)
    try:
        sm = _reference_smith_mod(A, n, rhs)
    finally:
        sys.settrace(None)
    return sm, hits


def _smith_cases():
    """(n, A, rhs): 1x1 up to 205 rows, 2% dense to full, scaled by 1, 2 and 4
    (non-unit pivots), zero rows and columns, no rhs, a vector or a matrix."""
    rng = np.random.default_rng(9)
    shapes = [(1, 1), (1, 6), (6, 1), (3, 3), (8, 5), (5, 9), (24, 16), (70, 30), (205, 24)]
    densities = [0.02, 0.1, 0.5, 1.0]
    for n in (2, 12, 16, 40, 72):
        for i, (m, k) in enumerate(shapes):
            for scale in (1, 2, 4):
                A = rng.integers(0, n, (m, k)) * (rng.random((m, k)) < densities[(i + scale) % 4]) * scale
                if m > 2 and k > 2 and scale != 1:
                    A[rng.integers(m)] = 0
                    A[:, rng.integers(k)] = 0
                rhs = [None, rng.integers(0, n, m), rng.integers(0, n, (m, 3))][(i + scale) % 3]
                yield n, A, rhs
    D3 = _coboundary_matrix(cyclic(4), 3)
    yield 16, D3, None
    yield 16, D3, np.eye(len(D3), dtype=np.int64)


def test_smith_matches_reference_elimination():
    chain_adds = non_units = 0
    for n, A, rhs in _smith_cases():
        want, adds = _reference_with_chain_adds(A, n, rhs)
        got = smith_mod(A, n, rhs)
        assert got.diag == want.diag
        for name in ("V", "Vinv", "rhs"):
            w, g = getattr(want, name), getattr(got, name)
            assert (w is None) == (g is None)
            if w is not None:
                assert g.dtype == w.dtype and g.shape == w.shape and (g == w).all(), name
        assert (got.rows, got.cols) == (want.rows, want.cols)
        chain_adds += adds
        non_units += sum(d > 1 for d in want.diag)
    assert chain_adds > 0 and non_units > 0


def _pivot_kind_cases():
    """(n, A, rhs) for n in 6, 12, 16, 40 and 256: a pivot of exactly 1 (an
    entry 1 in a random matrix), unit pivots other than 1 (every entry n - 1,
    or random units), chains of non-unit pivots (the entries multiples of a
    divisor of n, or of different divisors per row), each with no rhs, a
    vector or a matrix."""
    rng = np.random.default_rng(23)
    for n in (6, 12, 16, 40, 256):
        units = np.array([u for u in range(2, n) if gcd(u, n) == 1])
        divisors = np.array([d for d in range(2, n) if n % d == 0])
        for m, k in ((1, 1), (3, 4), (7, 5), (12, 12), (30, 18)):
            one = rng.integers(0, n, (m, k))
            one[rng.integers(m), rng.integers(k)] = 1
            kinds = [
                one,
                np.full((m, k), n - 1),
                rng.choice(units, (m, k)) * (rng.random((m, k)) < 0.6),
                rng.integers(0, n, (m, k)) * rng.choice(divisors),
                rng.integers(0, n, (m, k)) * rng.choice(divisors, (m, 1)),
            ]
            for i, A in enumerate(kinds):
                rhs = [None, rng.integers(0, n, m), rng.integers(0, n, (m, 2))][(i + k) % 3]
                yield n, A, rhs


def test_smith_matches_reference_on_pivot_kinds():
    """smith_mod skips the divisibility scans for a pivot of 1 and reads the
    chain condition off its level counts; on every kind of pivot it returns
    what the dense elimination returns, bit for bit."""
    seen = set()
    for n, A, rhs in _pivot_kind_cases():
        want, got = _reference_smith_mod(A, n, rhs), smith_mod(A, n, rhs)
        assert got.diag == want.diag
        for name in ("V", "Vinv", "rhs"):
            w, g = getattr(want, name), getattr(got, name)
            assert (w is None) == (g is None)
            if w is not None:
                assert g.dtype == w.dtype and g.shape == w.shape and (g == w).all(), name
        seen |= {"unit" if d == 1 else "non-unit" for d in want.diag}
        seen.add("rhs" if rhs is None else f"rhs{np.ndim(rhs)}")
    assert seen == {"unit", "non-unit", "rhs", "rhs1", "rhs2"}


def test_quotient_structure_and_index_eliminate_the_generators_once(monkeypatch):
    """quotient_structure solves t_gens and keeps the row transform index
    solves against from one elimination of GH.T; index adds none."""
    from fusionkit import zmodlin

    real, calls = zmodlin.smith_mod, []
    monkeypatch.setattr(zmodlin, "smith_mod", lambda A, n, rhs=None: calls.append((np.array(A), rhs)) or real(A, n, rhs))
    n, H = 12, [np.array([2, 0, 4]), np.array([0, 3, 3]), np.array([1, 1, 1])]
    q = quotient_structure(H, [(2 * H[0] + H[1]) % n], 3, n)
    reps = list(q.representatives())
    assert [q.index(r) for r in reps] == list(range(q.order)) and q.index(np.array(reps)) == list(range(q.order))
    GHT = np.vstack(H).T
    with_rhs = [A for A, rhs in calls if rhs is not None]
    assert len(with_rhs) == 1 and (with_rhs[0] == GHT).all()
    assert len(calls) == 3  # the kernel of GH.T, GH.T with its rhs, the relations


def test_unique_rows_matches_numpy_unique():
    """The byte-view dedupe nullspace_mod runs before eliminating gives the
    rows of np.unique(axis=0), in the same order, on matrices with duplicate
    and zero rows, small and large moduli, and entries near the modulus."""
    rng = np.random.default_rng(17)
    for n in (2, 3, 16, 255, 256, 257, 65536, 2**31 - 1, 2**31):
        for m, k in ((2, 1), (5, 3), (40, 7), (200, 12), (64, 1)):
            for hi in (2, n):
                A = rng.integers(0, hi, (m, k), dtype=np.int64) % n
                A[rng.integers(m)] = 0
                A = np.vstack([A, A[rng.integers(0, m, m // 2 + 1)], np.full((1, k), n - 1)])
                A = A[rng.permutation(len(A))]
                want = np.unique(A, axis=0)
                got = _unique_rows(A)
                assert got.dtype == want.dtype and got.shape == want.shape and (got == want).all()
