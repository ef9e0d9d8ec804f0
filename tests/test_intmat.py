import math
import random
from fractions import Fraction

import pytest

from surfembed import intmat
from surfembed.intmat import (
    IntMatrix,
    IntMatrixError,
    _best_multiplier,
    factor_alternating,
    parse_intmatrix,
    rank_q,
    serialize_intmatrix,
    symplectic_matrix_int,
)


def skew_from_upper(n, upper):
    m = IntMatrix(n, n)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            m.data[i][j] = upper[k]
            m.data[j][i] = -upper[k]
            k += 1
    return m


def test_rank_q_basics():
    assert rank_q(IntMatrix(3, 4)) == 0
    assert rank_q(IntMatrix(2, 2, [[0, 2], [-2, 0]])) == 2
    a = IntMatrix(3, 3, [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
    assert rank_q(a) == 2


def test_rank_q_matches_sympy_on_seeded_products():
    # B.C with an inner dimension k has rank at most k, so most products
    # are rank-deficient; sympy's exact rank is the oracle.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    deficient = 0
    for _ in range(1000):
        rows, cols, k = rng.randrange(1, 8), rng.randrange(1, 8), rng.randrange(0, 6)
        b = IntMatrix(rows, k, [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(rows)])
        c = IntMatrix(k, cols, [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(k)])
        a = b @ c
        r = sympy.Matrix(a.data).rank()
        assert rank_q(a) == r
        deficient += r < min(rows, cols)
    assert deficient >= 400


def test_symplectic_matrix():
    assert symplectic_matrix_int(0).rows == 0
    assert symplectic_matrix_int(1).data == [[0, 1], [-1, 0]]
    for g in range(4):
        m = symplectic_matrix_int(g)
        assert m.is_skew()


def test_factor_alternating_unit_block():
    a = IntMatrix(2, 2, [[0, 1], [-1, 0]])
    b = factor_alternating(a)
    assert b.rows == 2
    assert b.transpose() @ symplectic_matrix_int(1) @ b == a


def test_factor_alternating_divisor_block():
    a = IntMatrix(2, 2, [[0, 2], [-2, 0]])
    b = factor_alternating(a)
    assert b.transpose() @ symplectic_matrix_int(1) @ b == a
    # the documented explicit factor also works
    bb = IntMatrix(2, 2, [[2, 0], [0, 1]])
    assert bb.transpose() @ symplectic_matrix_int(1) @ bb == a


def test_factor_alternating_roundtrip_random():
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randrange(1, 9)
        g = rng.randrange(0, 4)
        b0 = IntMatrix(2 * g, n, [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(2 * g)])
        a = b0.transpose() @ symplectic_matrix_int(g) @ b0
        assert a.is_skew()
        r = rank_q(a)
        assert r % 2 == 0
        b = factor_alternating(a)
        assert b.rows == r
        assert b.transpose() @ symplectic_matrix_int(r // 2) @ b == a


def _l1(rows):
    return sum(abs(v) for row in rows for v in row)


def _elementary_symplectic(g, k):
    """Every elementary move of Sp(2g, Z) with multiplier k, as a matrix S
    acting on the rows x_h = 2h, y_h = 2h + 1 of a factor."""
    out = []

    def move(*entries):
        s = [[int(i == j) for j in range(2 * g)] for i in range(2 * g)]
        for i, j, c in entries:
            s[i][j] = c
        out.append(IntMatrix(2 * g, 2 * g, s))

    for i in range(g):
        xi, yi = 2 * i, 2 * i + 1
        move((xi, yi, -k))  # x_i -= k y_i
        move((yi, xi, -k))  # y_i -= k x_i
        for j in range(g):
            xj, yj = 2 * j, 2 * j + 1
            if i != j:
                move((xi, xj, -k), (yj, yi, k))  # x_i -= k x_j, y_j += k y_i
                move((xi, yj, -k), (xj, yi, -k))  # x_i -= k y_j, x_j -= k y_i
                move((yi, xj, -k), (yj, xi, -k))  # y_i -= k x_j, y_j -= k x_i
    return out


def test_factor_alternating_is_symplectically_reduced():
    rng = random.Random(13)
    moves = {g: [s for k in range(-3, 4) if k for s in _elementary_symplectic(g, k)] for g in range(4)}
    for g, ss in moves.items():
        h = symplectic_matrix_int(g)
        assert all(s.transpose() @ h @ s == h for s in ss)
    for _ in range(80):
        n = rng.randrange(1, 9)
        g = rng.randrange(0, 4)
        b0 = IntMatrix(2 * g, n, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(2 * g)])
        a = b0.transpose() @ symplectic_matrix_int(g) @ b0
        f = factor_alternating(a)
        assert f.rows == rank_q(a)
        assert f.transpose() @ symplectic_matrix_int(f.rows // 2) @ f == a
        weight = _l1(f.data)
        assert all(_l1((s @ f).data) >= weight for s in moves[f.rows // 2])


def test_best_multiplier_matches_a_scan():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randrange(0, 9)
        u = [rng.randint(-9, 9) for _ in range(n)]
        v = [rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(n)]

        def cost(k):
            return sum(abs(a - k * b) for a, b in zip(u, v))

        assert cost(_best_multiplier(u, v)) == min(cost(k) for k in range(-20, 21))


def _best_multiplier_fraction(u, v) -> int:
    """_best_multiplier as it was, with the weighted median taken over
    Fraction ratios."""
    pts = sorted((Fraction(a, b), abs(b)) for a, b in zip(u, v) if b)
    if not pts:
        return 0
    total, acc = sum(w for _, w in pts), 0
    for r, w in pts:
        acc += w
        if 2 * acc >= total:
            break
    lo = math.floor(r)
    return min((lo, lo + 1), key=lambda k: sum(abs(a - k * b) for a, b in zip(u, v)))


def test_best_multiplier_matches_the_fraction_median():
    rng = random.Random(15)
    for _ in range(2000):
        n = rng.randrange(0, 9)
        u = [rng.randint(-30, 30) for _ in range(n)]
        v = [rng.choice((0, rng.randint(-7, 7))) for _ in range(n)]
        assert _best_multiplier(u, v) == _best_multiplier_fraction(u, v)


def test_factor_alternating_is_unchanged_by_the_integer_median(monkeypatch):
    rng = random.Random(16)
    cases = []
    for g in (1, 2, 3):
        for _ in range(10):
            n = rng.randrange(2 * g, 9)
            b0 = IntMatrix(2 * g, n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2 * g)])
            cases.append(b0.transpose() @ symplectic_matrix_int(g) @ b0)
    got = [factor_alternating(a) for a in cases]
    monkeypatch.setattr(intmat, "_best_multiplier", _best_multiplier_fraction)
    assert got == [factor_alternating(a) for a in cases]
    assert {f.rows for f in got} >= {2, 4, 6}


def test_factor_alternating_rejects_non_skew():
    with pytest.raises(IntMatrixError):
        factor_alternating(IntMatrix(2, 2, [[0, 1], [1, 0]]))
    with pytest.raises(IntMatrixError):
        factor_alternating(IntMatrix(2, 2, [[1, 1], [-1, 0]]))


def test_an_entry_that_is_no_integer_is_refused():
    # int() stored "7" as 7 and 1.9 as 1, and so factored [[0, 1.5],
    # [-1.5, 0]] as if it were [[0, 1], [-1, 0]]; bool is an int, but True
    # is no entry.
    for bad in ("7", 1.9, 1.0, Fraction(1), True):
        with pytest.raises(IntMatrixError, match="^entries must be integers$"):
            IntMatrix(1, 1, [[bad]])
        m = IntMatrix(1, 1, [[3]])
        with pytest.raises(IntMatrixError, match="^entries must be integers$"):
            m.set(0, 0, bad)
        assert m.data == [[3]]
    with pytest.raises(IntMatrixError, match="^entries must be integers$"):
        factor_alternating(IntMatrix(2, 2, [[0, 1.5], [-1.5, 0]]))


def test_gram_rank_bound_over_q():
    # rank_Q(V^T M V) <= rows(V) for integer V and skew M.
    rng = random.Random(11)
    for _ in range(200):
        d = rng.randrange(1, 6)
        n = rng.randrange(1, 10)
        v = IntMatrix(d, n, [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(d)])
        m = IntMatrix(d, d)
        for i in range(d):
            for j in range(i + 1, d):
                x = rng.randrange(-4, 5)
                m.data[i][j] = x
                m.data[j][i] = -x
        assert rank_q(v.transpose() @ m @ v) <= d


def test_skew_rank_always_even():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randrange(1, 8)
        upper = [rng.randrange(-6, 7) for _ in range(n * (n - 1) // 2)]
        a = skew_from_upper(n, upper)
        assert rank_q(a) % 2 == 0


def test_parse_serialize_roundtrip():
    a = IntMatrix(2, 3, [[0, -7, 12], [3, 0, -1]])
    text = serialize_intmatrix(a)
    assert parse_intmatrix(text) == a
    with pytest.raises(IntMatrixError):
        parse_intmatrix("int 1 1\n1 2\n")
