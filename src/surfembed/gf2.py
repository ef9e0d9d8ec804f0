"""Dense exact linear algebra over GF(2).

Rows are packed into Python ints (bit i of row r is entry (r, i)), so row
operations are word-parallel XORs.  Includes the two factorizations used to
turn symmetric matrices into ribbon-pass vectors: an even (alternate) matrix
factors through the hyperbolic form, an odd one through the identity form.
Both come from one Gram-Schmidt that keeps each working vector with its
image under the matrix, updated by XOR, so every form value is one AND and
a popcount.
"""

from __future__ import annotations

from .graph import parse_int


class Gf2Error(ValueError):
    pass


class BitMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        if rows < 0 or cols < 0:
            raise Gf2Error("negative dimensions")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [0] * rows
        else:
            data = list(data)
            if len(data) != rows:
                raise Gf2Error("row count mismatch")
            mask = (1 << cols) - 1
            self.data = [r & mask for r in data]

    @classmethod
    def from_lists(cls, entries) -> "BitMatrix":
        entries = [list(r) for r in entries]
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        m = cls(rows, cols)
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise Gf2Error("ragged rows")
            acc = 0
            for j, v in enumerate(row):
                if v & 1:
                    acc |= 1 << j
            m.data[i] = acc
        return m

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i] = 1 << i
        return m

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise Gf2Error(f"index ({i},{j}) out of bounds")
        return (self.data[i] >> j) & 1

    def set(self, i: int, j: int, v: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise Gf2Error(f"index ({i},{j}) out of bounds")
        if v & 1:
            self.data[i] |= 1 << j
        else:
            self.data[i] &= ~(1 << j)

    def transpose(self) -> "BitMatrix":
        t = BitMatrix(self.cols, self.rows)
        for i, r in enumerate(self.data):
            while r:
                j = (r & -r).bit_length() - 1
                t.data[j] |= 1 << i
                r &= r - 1
        return t

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise Gf2Error("dimension mismatch in product")
        out = BitMatrix(self.rows, other.cols)
        for i, r in enumerate(self.data):
            acc = 0
            while r:
                k = (r & -r).bit_length() - 1
                acc ^= other.data[k]
                r &= r - 1
            out.data[i] = acc
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.data)))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.transpose().data == self.data

    def is_even(self) -> bool:
        """Diagonal all zero (a.k.a. alternate)."""
        return all(((self.data[i] >> i) & 1) == 0 for i in range(min(self.rows, self.cols)))

    def __repr__(self):
        body = "\n".join(
            " ".join(str((r >> j) & 1) for j in range(self.cols)) for r in self.data
        )
        return f"BitMatrix({self.rows}x{self.cols})\n{body}"


def rank_gf2(a: BitMatrix) -> int:
    """The rank of a: its row count less the dimension of the space of
    combinations of its rows that vanish."""
    return a.rows - len(Gf2Elimination(a.data).kernel)


def hyperbolic_matrix_gf2(g: int) -> BitMatrix:
    """2g x 2g block diagonal of [[0,1],[1,0]] blocks."""
    if g < 0:
        raise Gf2Error("g must be non-negative")
    m = BitMatrix(2 * g, 2 * g)
    for i in range(g):
        m.set(2 * i, 2 * i + 1, 1)
        m.set(2 * i + 1, 2 * i, 1)
    return m


def _gram_schmidt(a: BitMatrix) -> list[int]:
    """The rows of Y with A = Y^T H Y (A even) or A = Y^T Y (A odd).

    Gram-Schmidt on the form B(x, y) = x^T A y over GF(2)^n.  Each working
    vector w is kept with its image A.w: the image of e_i is row i of the
    symmetric A, and a XOR of vectors has the XOR of their images as its
    image, so a form value is one AND and a popcount.  While some w has
    B(w, w) = 1, the first such w is taken out as a unit and the rest are
    projected off it.  Otherwise the first pair u, v with B(u, v) = 1 is
    taken.  On an even A no unit ever exists, so it is a hyperbolic pair:
    its rows are A.u and A.v, and the rest are projected off both.  On an
    odd A the last unit w is put back as the three units w+u, w+v, w+u+v,
    which are pairwise orthogonal and span <w, u, v>.  The rows of the
    units are their images.
    """
    work = [(1 << i, r) for i, r in enumerate(a.data)]  # (w, A.w)
    units: list[tuple[int, int]] = []  # pairwise orthogonal, B(u, u) = 1
    rows: list[int] = []  # A.u, A.v of each hyperbolic pair
    while True:
        k = next((k for k, (w, aw) in enumerate(work) if (w & aw).bit_count() & 1), None)
        if k is not None:
            u, au = work.pop(k)
            work = [(w ^ u, aw ^ au) if (w & au).bit_count() & 1 else (w, aw) for w, aw in work]
            units.append((u, au))
            continue
        n = len(work)
        pair = next(
            ((i, j) for i in range(n) for j in range(i + 1, n) if (work[i][0] & work[j][1]).bit_count() & 1),
            None,
        )
        if pair is None:
            return rows + [au for _, au in units]
        i, j = pair
        (u, au), (v, av) = work[i], work[j]
        del work[j], work[i]
        if units:
            w, aw = units.pop()
            work += [(w ^ u, aw ^ au), (w ^ v, aw ^ av), (w ^ u ^ v, aw ^ au ^ av)]
            continue
        rows += [au, av]
        for k, (w, aw) in enumerate(work):
            if (w & av).bit_count() & 1:
                w, aw = w ^ u, aw ^ au
            if (w & au).bit_count() & 1:
                w, aw = w ^ v, aw ^ av
            work[k] = (w, aw)


def factor_even(a: BitMatrix) -> BitMatrix:
    """Factor a symmetric even A as Y^T H Y with Y of rank(A) rows; the
    hyperbolic pairs are taken with the lowest available indices (see
    _gram_schmidt)."""
    if not a.is_symmetric():
        raise Gf2Error("factor_even requires a symmetric matrix")
    if not a.is_even():
        raise Gf2Error("factor_even requires an even (zero-diagonal) matrix")
    rows = _gram_schmidt(a)
    return BitMatrix(len(rows), a.cols, rows)


def factor_odd(a: BitMatrix) -> BitMatrix:
    """Factor a symmetric odd A as Y^T Y with Y of rank(A) rows: an
    orthonormal basis of the non-degenerate part of the form (see
    _gram_schmidt)."""
    if not a.is_symmetric():
        raise Gf2Error("factor_odd requires a symmetric matrix")
    if a.is_even():
        raise Gf2Error("factor_odd requires an odd matrix (some diagonal 1)")
    rows = _gram_schmidt(a)
    return BitMatrix(len(rows), a.cols, rows)


class Gf2Elimination:
    """One elimination of a fixed column list, reused for many right-hand sides.

    Vectors are packed ints of any width.  Each column is shifted above
    the low count bits, which tag it with its own index bit, so a reduced
    row carries the combination of columns it stands for, and its leading
    bit is that of its vector part while that part is nonzero.  A column
    is reduced from its leading bit down by the pivot holding that bit,
    until its vector part is zero or leads with a bit of no pivot; then it
    becomes the pivot of that bit.  The pivot rows sit in a list indexed
    by their bit_length, 0 where no pivot holds the bit.  The columns that
    eliminate to zero leave kernel vectors of the column map in their
    tags.  Each tag is the column's unique combination over the earlier
    pivot columns, so it does not depend on the order of the XORs, nor on
    the order of the rows (the bits of the columns).  So kernel is a basis
    of the kernel packed over the column indices, in echelon form over the
    column order: each vector owns its highest bit, and every other bit it
    holds is a pivot column, which no vector owns.  The pivots, (bit,
    vector, coefficients) sorted by bit, highest first, are built from the
    list when pivots, solve or reduce first reads them; a caller that
    reads only the kernel never builds them.
    """

    __slots__ = ("count", "kernel", "_rows", "_pivots")

    def __init__(self, columns: list[int]):
        count = self.count = len(columns)
        top = 1 << count  # a row below it has a zero vector part
        # rows[b]: the pivot row of bit_length b, or 0
        rows = self._rows = [0] * (max(columns, default=0).bit_length() + count + 1)
        self._pivots = None
        kernel = self.kernel = []
        for i, v in enumerate(columns):
            v = v << count | 1 << i
            while v >= top:
                pb = v.bit_length()
                pv = rows[pb]
                if not pv:
                    rows[pb] = v
                    break
                v ^= pv
            else:
                kernel.append(v)

    @property
    def pivots(self) -> list[tuple[int, int, int]]:
        if self._pivots is None:
            count, rows = self.count, self._rows
            tags = (1 << count) - 1
            self._pivots = [
                (pb - 1 - count, rows[pb] >> count, rows[pb] & tags)
                for pb in range(len(rows) - 1, count, -1)
                if rows[pb]
            ]
        return self._pivots

    def solve(self, rhs: int):
        """Coefficients c with sum c_i * columns[i] = rhs as a list, or
        None; see reduce."""
        residual, coeff = self.reduce(rhs)
        if residual:
            return None
        return [(coeff >> i) & 1 for i in range(self.count)]

    def reduce(self, rhs: int) -> tuple[int, int]:
        """(residual, coefficients) of one descending pass over the pivots.

        rhs is solvable exactly when the residual is 0, and then the
        coefficients solve it.  Both are linear in rhs: each pivot's test
        reads a bit that earlier steps changed linearly.
        """
        coeff = 0
        for pb, pv, pc in self.pivots:
            if (rhs >> pb) & 1:
                rhs ^= pv
                coeff ^= pc
        return rhs, coeff

    def lighten(self, coeff: int) -> int:
        """coeff with kernel vectors XORed in while its popcount drops."""
        weight = coeff.bit_count()
        improved = True
        while improved:
            improved = False
            for z in self.kernel:
                c = coeff ^ z
                w = c.bit_count()
                if w < weight:
                    coeff, weight, improved = c, w, True
        return coeff


def solve_gf2(columns: list[int], rhs: int):
    """Solve sum_i c_i * columns[i] = rhs over GF(2), vectors packed as
    ints of any width; see Gf2Elimination.  Returns a coefficient list or
    None when no solution exists.
    """
    return Gf2Elimination(columns).solve(rhs)


def parse_bitmatrix(text: str) -> BitMatrix:
    """Parse the matrix text format: `gf2 <rows> <cols>` then 0/1 rows."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise Gf2Error("empty matrix file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "gf2":
        raise Gf2Error(f"bad gf2 header: {lines[0]!r}")
    try:
        rows, cols = parse_int(head[1]), parse_int(head[2])
    except ValueError:
        raise Gf2Error(f"bad gf2 header: {lines[0]!r}") from None
    if len(lines) - 1 != rows:
        raise Gf2Error(f"expected {rows} rows, got {len(lines) - 1}")
    m = BitMatrix(rows, cols)
    for i, ln in enumerate(lines[1:]):
        vals = ln.split()
        if len(vals) != cols:
            raise Gf2Error(f"row {i} has {len(vals)} entries, expected {cols}")
        acc = 0
        for j, v in enumerate(vals):
            if v not in ("0", "1"):
                raise Gf2Error(f"bad row line: {ln!r}")
            if v == "1":
                acc |= 1 << j
        m.data[i] = acc
    return m


def serialize_bitmatrix(m: BitMatrix) -> str:
    lines = [f"gf2 {m.rows} {m.cols}"]
    for r in m.data:
        lines.append(" ".join(str((r >> j) & 1) for j in range(m.cols)))
    return "\n".join(lines) + "\n"
