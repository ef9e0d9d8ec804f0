import hashlib
import random

import pytest

from surfembed.gf2 import (
    BitMatrix,
    Gf2Elimination,
    Gf2Error,
    factor_even,
    factor_odd,
    hyperbolic_matrix_gf2,
    solve_gf2,
    parse_bitmatrix,
    rank_gf2,
    serialize_bitmatrix,
)


def random_bitmatrix(rng, rows, cols):
    m = BitMatrix(rows, cols)
    for i in range(rows):
        m.data[i] = rng.getrandbits(cols) if cols else 0
    return m


def gram_even(y: BitMatrix) -> BitMatrix:
    g = y.rows // 2
    return y.transpose() @ hyperbolic_matrix_gf2(g) @ y


def test_rank_basics():
    assert rank_gf2(BitMatrix(4, 4)) == 0
    for n in (1, 3, 7):
        assert rank_gf2(BitMatrix.identity(n)) == n
    assert rank_gf2(hyperbolic_matrix_gf2(1)) == 2


def rank_oracle(m):
    rows = [r for r in m.data]
    rank = 0
    for c in range(m.cols):
        piv = next((i for i in range(rank, len(rows)) if (rows[i] >> c) & 1), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> c) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def test_rank_matches_row_reduction_oracle():
    rng = random.Random(0)
    for _ in range(50):
        m = random_bitmatrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        assert rank_gf2(m) == rank_oracle(m)


def test_hyperbolic_matrix():
    assert hyperbolic_matrix_gf2(0).rows == 0
    assert hyperbolic_matrix_gf2(1) == BitMatrix.from_lists([[0, 1], [1, 0]])
    h2 = hyperbolic_matrix_gf2(2)
    assert h2 == BitMatrix.from_lists(
        [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    )


def test_factor_even_zero_and_identity_cases():
    y = factor_even(BitMatrix(5, 5))
    assert y.rows == 0 and y.cols == 5
    h1 = hyperbolic_matrix_gf2(1)
    y = factor_even(h1)
    assert y.rows == 2
    assert gram_even(y) == h1


def test_factor_even_roundtrip_random():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randrange(1, 15)
        g = rng.randrange(0, 4)
        y0 = random_bitmatrix(rng, 2 * g, n)
        a = gram_even(y0)
        y = factor_even(a)
        r = rank_gf2(a)
        assert y.rows == r and r % 2 == 0
        assert gram_even(y) == a


def test_factor_even_rejects_bad_input():
    with pytest.raises(Gf2Error):
        factor_even(BitMatrix.identity(2))  # odd diagonal
    m = BitMatrix.from_lists([[0, 1], [0, 0]])
    with pytest.raises(Gf2Error):
        factor_even(m)  # not symmetric


def test_factor_odd_small_cases():
    a = BitMatrix.from_lists([[1]])
    y = factor_odd(a)
    assert y == BitMatrix.from_lists([[1]])
    ident = BitMatrix.identity(4)
    y = factor_odd(ident)
    assert y.transpose() @ y == ident
    assert y.rows == 4
    ones = BitMatrix.from_lists([[1, 1], [1, 1]])
    y = factor_odd(ones)
    assert y.rows == 1
    assert y.transpose() @ y == ones


def test_factor_odd_roundtrip_random():
    rng = random.Random(2)
    done = 0
    while done < 100:
        n = rng.randrange(1, 15)
        m = rng.randrange(1, 8)
        y0 = random_bitmatrix(rng, m, n)
        a = y0.transpose() @ y0
        if a.is_even():
            continue
        done += 1
        y = factor_odd(a)
        assert y.rows == rank_gf2(a)
        assert y.transpose() @ y == a


def _seeded_symmetric(rng, n: int, even: bool) -> BitMatrix:
    """A random symmetric n x n matrix, even or odd: half of them the Gram
    matrix of a few random vectors, so often rank-deficient."""
    if rng.getrandbits(1):
        k = rng.randrange(0, n + 1)
        y = random_bitmatrix(rng, k, n)
        a = gram_even(BitMatrix(k // 2 * 2, n, y.data[: k // 2 * 2])) if even else y.transpose() @ y
    else:
        a = BitMatrix(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.getrandbits(1):
                    a.data[i] |= 1 << j
                    a.data[j] |= 1 << i
            if not even and rng.getrandbits(1):
                a.data[i] |= 1 << i
    if not even and a.is_even():
        a.data[0] |= 1
    return a


def test_factor_outputs_match_the_pinned_hash():
    # factor_even and factor_odd on 600 seeded matrices of up to 30
    # columns, as the two separate extractions that computed every form
    # value as a matrix-vector product factored them.
    rng = random.Random(2012)
    h = hashlib.sha256()
    for k in range(600):
        even = k % 2 == 0
        a = _seeded_symmetric(rng, rng.randrange(1, 31), even)
        y = factor_even(a) if even else factor_odd(a)
        h.update(serialize_bitmatrix(y).encode())
    assert h.hexdigest() == "3c7f812dc2e5b58189c538b344264c968d4c6d2d282c250ca3178b2eba18e0c4"


def test_factor_odd_rejects_even():
    with pytest.raises(Gf2Error):
        factor_odd(hyperbolic_matrix_gf2(1))


def test_gram_rank_bound_property():
    # rank(V^T M V) <= d for any d x n matrix V and symmetric d x d form M.
    rng = random.Random(3)
    for _ in range(300):
        d = rng.randrange(1, 7)
        n = rng.randrange(1, 12)
        v = random_bitmatrix(rng, d, n)
        m = random_bitmatrix(rng, d, d)
        for i in range(d):
            for j in range(i + 1, d):
                m.set(j, i, m.get(i, j))
        assert rank_gf2(v.transpose() @ m @ v) <= d


def test_alternate_rank_bound_property():
    # If Y^T Y is even then rank(Y^T Y) <= m - 1.
    rng = random.Random(4)
    found = 0
    while found < 200:
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 12)
        y = random_bitmatrix(rng, m, n)
        a = y.transpose() @ y
        if not a.is_even():
            continue
        found += 1
        assert rank_gf2(a) <= m - 1


def test_in_affine_span():
    # coefficients c with base + sum c_i gens_i = target solve gens . c = base ^ target
    rng = random.Random(5)
    nbits = 10
    # target = base: zero coefficients work.
    gens = [rng.getrandbits(nbits) for _ in range(4)]
    base = rng.getrandbits(nbits)
    coeffs = solve_gf2(gens, base ^ base)
    acc = base
    for c, g in zip(coeffs, gens):
        if c:
            acc ^= g
    assert acc == base
    # standard basis generators: always solvable
    basis = [1 << i for i in range(nbits)]
    for _ in range(20):
        t = rng.getrandbits(nbits)
        b = rng.getrandbits(nbits)
        coeffs = solve_gf2(basis, b ^ t)
        assert coeffs is not None
        acc = b
        for c, g in zip(coeffs, basis):
            if c:
                acc ^= g
        assert acc == t
    # substitution oracle on random instances
    for _ in range(100):
        k = rng.randrange(0, 6)
        gens = [rng.getrandbits(nbits) for _ in range(k)]
        base = rng.getrandbits(nbits)
        chosen = [rng.randrange(2) for _ in range(k)]
        t = base
        for c, g in zip(chosen, gens):
            if c:
                t ^= g
        coeffs = solve_gf2(gens, base ^ t)
        assert coeffs is not None
        acc = base
        for c, g in zip(coeffs, gens):
            if c:
                acc ^= g
        assert acc == t


def test_in_affine_span_unsolvable():
    assert solve_gf2([0b01], 0b00 ^ 0b11) is None


def test_parse_serialize_roundtrip():
    rng = random.Random(6)
    m = random_bitmatrix(rng, 3, 5)
    text = serialize_bitmatrix(m)
    assert parse_bitmatrix(text) == m
    with pytest.raises(Gf2Error):
        parse_bitmatrix("gf2 1 2\n0 1 1\n")


def test_light_solution_solves_and_weighs_no_more():
    rng = random.Random(44)
    for _ in range(200):
        nbits = rng.randrange(1, 10)
        cols = [rng.getrandbits(nbits) for _ in range(rng.randrange(1, 16))]
        rhs = 0
        for c in cols:
            if rng.getrandbits(1):
                rhs ^= c
        full = solve_gf2(cols, rhs)
        light = _light_solve(Gf2Elimination(cols), rhs)
        acc = 0
        for bit, c in zip(light, cols):
            if bit:
                acc ^= c
        assert acc == rhs
        assert sum(light) <= sum(full)


def _light_solve(elim, rhs):
    """elim's solution of rhs made lighter (Gf2Elimination.lighten), as a
    coefficient list, or None."""
    residual, coeff = elim.reduce(rhs)
    if residual:
        return None
    coeff = elim.lighten(coeff)
    return [(coeff >> i) & 1 for i in range(elim.count)]


def _reference_solve_gf2(columns, rhs, nbits, light=False):
    """The one-call solver as it stood before the elimination was split off."""
    k = len(columns)
    # Augmented vectors: column bits in low part, coefficient tag above.
    aug = [columns[i] | (1 << (nbits + i)) for i in range(k)]
    target = rhs
    coeff = 0
    pivots: list[tuple[int, int]] = []
    kernel: list[int] = []
    mask = (1 << nbits) - 1
    for v in aug:
        for pb, pv in pivots:
            if (v >> pb) & 1:
                v ^= pv
        if v & mask:
            pivots.append(((v & mask).bit_length() - 1, v))
        elif light:
            kernel.append(v >> nbits)
    # Each pivot's leading bit is its pivot bit, so one descending pass solves.
    for pb, pv in sorted(pivots, reverse=True):
        if (target >> pb) & 1:
            target ^= pv & mask
            coeff ^= pv >> nbits
    if target:
        return None
    if light:
        improved = True
        while improved:
            improved = False
            for z in kernel:
                if (coeff ^ z).bit_count() < coeff.bit_count():
                    coeff ^= z
                    improved = True
    return [(coeff >> i) & 1 for i in range(k)]


def test_split_solver_matches_the_one_call_reference():
    # one elimination, many right-hand sides: the same coefficient lists as
    # the reference, light and full, for solvable and unsolvable systems,
    # and the same coefficients packed
    rng = random.Random(45)
    solvable = unsolvable = 0
    for _ in range(300):
        nbits = rng.randrange(1, 14)
        cols = [rng.getrandbits(nbits) for _ in range(rng.randrange(0, 20))]
        elim = Gf2Elimination(cols)
        for _ in range(4):
            if rng.getrandbits(1):
                rhs = 0
                for c in cols:
                    if rng.getrandbits(1):
                        rhs ^= c
            else:
                rhs = rng.getrandbits(nbits)
            expect = _reference_solve_gf2(cols, rhs, nbits)
            assert elim.solve(rhs) == expect
            assert Gf2Elimination(cols).solve(rhs) == expect
            assert solve_gf2(cols, rhs) == expect
            assert _light_solve(elim, rhs) == _reference_solve_gf2(cols, rhs, nbits, light=True)
            residual, packed = elim.reduce(rhs)
            assert (residual == 0) == (expect is not None)
            if expect is not None:
                assert packed == sum(c << i for i, c in enumerate(expect))
            if expect is None:
                unsolvable += 1
            else:
                solvable += 1
    assert solvable > 100 and unsolvable > 100


class _ReferenceElimination:
    """Gf2Elimination as it stood when every column was tested against
    every pivot, in the order the pivots were found."""

    __slots__ = ("count", "nbits", "pivots", "kernel")

    def __init__(self, columns: list[int], nbits: int):
        self.count = len(columns)
        self.nbits = nbits
        mask = (1 << nbits) - 1
        pivots: list[tuple[int, int]] = []
        self.kernel: list[int] = []
        for i, v in enumerate(columns):
            v |= 1 << (nbits + i)
            for pb, pv in pivots:
                if (v >> pb) & 1:
                    v ^= pv
            if v & mask:
                pivots.append(((v & mask).bit_length() - 1, v))
            else:
                self.kernel.append(v >> nbits)
        self.pivots = sorted(pivots, reverse=True)

    def solve(self, rhs: int, light: bool = False):
        mask = (1 << self.nbits) - 1
        target = rhs
        coeff = 0
        for pb, pv in self.pivots:
            if (target >> pb) & 1:
                target ^= pv & mask
                coeff ^= pv >> self.nbits
        if target:
            return None
        if light:
            improved = True
            while improved:
                improved = False
                for z in self.kernel:
                    if (coeff ^ z).bit_count() < coeff.bit_count():
                        coeff ^= z
                        improved = True
        return [(coeff >> i) & 1 for i in range(self.count)]


def test_elimination_from_the_top_bit_matches_the_all_pivots_reference():
    # Same pivot bits, pivot columns, kernel tags and solutions, also with
    # no columns, no bits and columns of low rank.
    rng = random.Random(46)
    deficient = 0
    for case in range(600):
        nbits = rng.randrange(0, 16)
        count = rng.randrange(0, 24) if case % 10 else 0
        if case % 3 == 0 and nbits:
            # columns from a span of few generators: rank well below both
            gens = [rng.getrandbits(nbits) for _ in range(rng.randrange(1, 4))]
            cols = []
            for _ in range(count):
                c = 0
                for gv in gens:
                    if rng.getrandbits(1):
                        c ^= gv
                cols.append(c)
        else:
            cols = [rng.getrandbits(nbits) if nbits else 0 for _ in range(count)]
        ref = _ReferenceElimination(cols, nbits)
        elim = Gf2Elimination(cols)
        # The reference keeps its tags above the low nbits, as the pivots'
        # own vectors.
        assert [pb for pb, _, _ in elim.pivots] == [pb for pb, _ in ref.pivots]
        assert sorted(pc.bit_length() for _, _, pc in elim.pivots) == sorted(
            (pv >> nbits).bit_length() for _, pv in ref.pivots
        )
        assert elim.kernel == ref.kernel
        assert rank_gf2(BitMatrix(count, nbits, cols)) == len(ref.pivots)
        deficient += len(ref.pivots) < min(count, nbits)
        for _ in range(3):
            rhs = rng.getrandbits(nbits) if nbits else 0
            if rng.getrandbits(1):
                rhs = 0
                for c in cols:
                    if rng.getrandbits(1):
                        rhs ^= c
            assert elim.solve(rhs) == ref.solve(rhs)
            assert _light_solve(elim, rhs) == ref.solve(rhs, light=True)
    assert deficient > 100


def _lazy_table_cases(rng):
    """(columns, width) lists: the empty list, all-zero columns, duplicated
    columns, columns of low rank and columns over 1,000 bits wide."""
    yield [], 0
    yield [], 5
    yield [0, 0, 0], 7
    yield [0b101, 0b101, 0b11, 0b101], 3
    for case in range(240):
        kind = case % 4
        nbits = rng.randrange(1_000, 1_300) if kind == 3 else rng.randrange(1, 14)
        cols = [rng.getrandbits(nbits) for _ in range(rng.randrange(0, 18))]
        if kind == 1 and cols:  # duplicates and zeros among them
            cols = [rng.choice(cols + [0]) for _ in range(len(cols) + 3)]
        elif kind == 2:  # a span of two generators
            gens = [rng.getrandbits(nbits), rng.getrandbits(nbits)]
            cols = [gens[0] * rng.getrandbits(1) ^ gens[1] * rng.getrandbits(1) for _ in range(len(cols))]
        yield cols, nbits


def test_the_pivot_table_built_on_first_use_matches_the_references():
    # Whether the pivots are read before any solve, after it or never, the
    # kernel, pivots, solutions, reductions and lightened solutions are
    # those of the references, and rank_gf2 is the row-reduction rank.
    rng = random.Random(48)
    wide = 0
    for case, (cols, nbits) in enumerate(_lazy_table_cases(rng)):
        ref = _ReferenceElimination(cols, nbits)
        elim = Gf2Elimination(cols)
        mask = (1 << nbits) - 1
        early = list(elim.pivots) if case % 3 == 0 else None
        assert elim.kernel == ref.kernel
        for _ in range(3):
            rhs = 0
            if rng.getrandbits(1):
                for c in cols:
                    rhs ^= c * rng.getrandbits(1)
            else:
                rhs = rng.getrandbits(nbits) if nbits else 0
            expect = _reference_solve_gf2(cols, rhs, nbits)
            assert elim.solve(rhs) == ref.solve(rhs) == expect
            # the reference's descending pass: the same residual, the one
            # member of rhs + span that is 0 at every pivot bit
            residual, coeff = rhs, 0
            for pb, pv in ref.pivots:
                if (residual >> pb) & 1:
                    residual ^= pv & mask
                    coeff ^= pv >> nbits
            assert elim.reduce(rhs) == (residual, coeff)
            assert _light_solve(elim, rhs) == ref.solve(rhs, light=True)
        if early is not None:
            assert elim.pivots == early
        assert [pb for pb, _, _ in elim.pivots] == [pb for pb, _ in ref.pivots]
        for pb, pv, pc in elim.pivots:
            assert pv.bit_length() - 1 == pb
            acc = 0
            for i, c in enumerate(cols):
                acc ^= c * ((pc >> i) & 1)
            assert acc == pv
        assert sorted(pc.bit_length() for _, _, pc in elim.pivots) == sorted(
            (pv >> nbits).bit_length() for _, pv in ref.pivots
        )
        m = BitMatrix(len(cols), nbits, cols)
        assert rank_gf2(m) == rank_oracle(m) == len(ref.pivots)
        wide += nbits > 1_000
    assert wide >= 50
