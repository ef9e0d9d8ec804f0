"""Dense exact linear algebra over GF(2).

Rows are packed into Python ints (bit i of row r is entry (r, i)), so row
operations are word-parallel XORs.  Includes the two factorizations used to
turn symmetric matrices into ribbon-pass vectors: an even (alternate) matrix
factors through the hyperbolic form, an odd one through the identity form.
"""

from __future__ import annotations


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

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.data]

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

    def mul_vec(self, v: int) -> int:
        """Matrix times a column vector packed as an int (bit j = entry j)."""
        acc = 0
        for i, r in enumerate(self.data):
            if (r & v).bit_count() & 1:
                acc |= 1 << i
        return acc

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
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(i + 1, self.cols):
                if self.get(i, j) != self.get(j, i):
                    return False
        return True

    def is_even(self) -> bool:
        """Diagonal all zero (a.k.a. alternate)."""
        return all(((self.data[i] >> i) & 1) == 0 for i in range(min(self.rows, self.cols)))

    def __repr__(self):
        body = "\n".join(
            " ".join(str((r >> j) & 1) for j in range(self.cols)) for r in self.data
        )
        return f"BitMatrix({self.rows}x{self.cols})\n{body}"


def rank_gf2(a: BitMatrix) -> int:
    rows = [r for r in a.data if r]
    rank = 0
    pivots = []  # (pivot bit, reduced row)
    for r in rows:
        for pb, pr in pivots:
            if (r >> pb) & 1:
                r ^= pr
        if r:
            pivots.append((r.bit_length() - 1, r))
            rank += 1
    return rank


def hyperbolic_matrix_gf2(g: int) -> BitMatrix:
    """2g x 2g block diagonal of [[0,1],[1,0]] blocks."""
    if g < 0:
        raise Gf2Error("g must be non-negative")
    m = BitMatrix(2 * g, 2 * g)
    for i in range(g):
        m.set(2 * i, 2 * i + 1, 1)
        m.set(2 * i + 1, 2 * i, 1)
    return m


def _form_value(a: BitMatrix, x: int, y: int) -> int:
    """x^T A y for packed vectors x, y."""
    return (x & a.mul_vec(y)).bit_count() & 1


def factor_even(a: BitMatrix) -> BitMatrix:
    """Factor a symmetric even A as Y^T H Y with Y of rank(A) rows.

    Symplectic Gram-Schmidt on the bilinear form (x, y) -> x^T A y: pull out
    hyperbolic pairs with the lowest available indices, project the rest.
    """
    if not a.is_symmetric():
        raise Gf2Error("factor_even requires a symmetric matrix")
    if not a.is_even():
        raise Gf2Error("factor_even requires an even (zero-diagonal) matrix")
    n = a.cols
    work = [1 << i for i in range(n)]  # current basis vectors of GF(2)^n
    y_rows: list[int] = []
    while True:
        pair = None
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if _form_value(a, work[i], work[j]):
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break
        i, j = pair
        u, v = work[i], work[j]
        # Rows of Y for this hyperbolic pair: the functionals B(u, .), B(v, .).
        au = a.mul_vec(u)
        av = a.mul_vec(v)
        y_rows.append(au)
        y_rows.append(av)
        rest = []
        for k, w in enumerate(work):
            if k in (i, j):
                continue
            if (w & av).bit_count() & 1:
                w ^= u
            if (w & au).bit_count() & 1:
                w ^= v
            rest.append(w)
        work = rest
    y = BitMatrix(len(y_rows), n, y_rows)
    return y


def factor_odd(a: BitMatrix) -> BitMatrix:
    """Factor a symmetric odd A as Y^T Y with Y of rank(A) rows.

    Extracts an orthonormal basis of the non-degenerate part of the form
    (x, y) -> x^T A y.  When the residual form turns alternate while still
    nonzero, the last extracted unit vector is recombined with a hyperbolic
    pair of the residual into three fresh unit vectors, and extraction
    continues.
    """
    if not a.is_symmetric():
        raise Gf2Error("factor_odd requires a symmetric matrix")
    if a.is_even():
        raise Gf2Error("factor_odd requires an odd matrix (some diagonal 1)")
    n = a.cols
    work = [1 << i for i in range(n)]
    units: list[int] = []  # pairwise orthogonal vectors with B(u, u) = 1

    def project_out(u: int) -> None:
        au = a.mul_vec(u)
        for k in range(len(work)):
            if (work[k] & au).bit_count() & 1:
                work[k] ^= u

    while True:
        idx = None
        for k, w in enumerate(work):
            if _form_value(a, w, w):
                idx = k
                break
        if idx is not None:
            u = work.pop(idx)
            project_out(u)
            units.append(u)
            continue
        # Residual is alternate; find a hyperbolic pair, if any.
        pair = None
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if _form_value(a, work[i], work[j]):
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break
        if not units:
            raise Gf2Error("internal: alternate residual with no extracted unit")
        i, j = pair
        wj = work.pop(j)
        wi = work.pop(i)
        u = units.pop()
        # u+wi, u+wj, u+wi+wj are pairwise orthogonal units spanning <u, wi, wj>.
        work.extend([u ^ wi, u ^ wj, u ^ wi ^ wj])
    y = BitMatrix(len(units), n, [a.mul_vec(u) for u in units])
    return y


def solve_gf2(columns: list[int], rhs: int, nbits: int, light: bool = False):
    """Solve sum_i c_i * columns[i] = rhs over GF(2).

    Vectors are packed ints of nbits bits.  Returns a coefficient list or
    None when no solution exists.  With light=True the solution is then
    made lighter: the columns that eliminate to zero carry kernel vectors
    of the column map in their tag bits, and these are XORed in while the
    number of nonzero coefficients drops.
    """
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


def in_affine_span(target: int, base: int, generators: list[int], nbits: int, light: bool = False):
    """Coefficients c with base + sum c_i gen_i = target, or None.

    All vectors are packed ints of nbits bits; light as in solve_gf2.
    """
    return solve_gf2(generators, base ^ target, nbits, light)


def parse_bitmatrix(text: str) -> BitMatrix:
    """Parse the matrix text format: `gf2 <rows> <cols>` then 0/1 rows."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise Gf2Error("empty matrix file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "gf2":
        raise Gf2Error(f"bad gf2 header: {lines[0]!r}")
    rows, cols = int(head[1]), int(head[2])
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
                raise Gf2Error(f"bad entry {v!r}")
            if v == "1":
                acc |= 1 << j
        m.data[i] = acc
    return m


def serialize_bitmatrix(m: BitMatrix) -> str:
    lines = [f"gf2 {m.rows} {m.cols}"]
    for r in m.data:
        lines.append(" ".join(str((r >> j) & 1) for j in range(m.cols)))
    return "\n".join(lines) + "\n"
