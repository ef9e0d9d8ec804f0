"""Exact integer linear algebra: rational rank and the alternating-form
factorization A = B^T H_g B for skew-symmetric integer matrices.

All arithmetic is arbitrary precision; intermediate swell in the congruence
reduction is real and expected.
"""

from __future__ import annotations

from fractions import Fraction


class IntMatrixError(ValueError):
    pass


class IntMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        if rows < 0 or cols < 0:
            raise IntMatrixError("negative dimensions")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            data = [list(r) for r in data]
            if len(data) != rows or any(len(r) != cols for r in data):
                raise IntMatrixError("shape mismatch")
            self.data = [[int(v) for v in r] for r in data]

    def get(self, i: int, j: int) -> int:
        return self.data[i][j]

    def set(self, i: int, j: int, v: int) -> None:
        self.data[i][j] = int(v)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise IntMatrixError("dimension mismatch in product")
        out = IntMatrix(self.rows, other.cols)
        for i in range(self.rows):
            ri = self.data[i]
            oi = out.data[i]
            for k in range(self.cols):
                a = ri[k]
                if a:
                    rk = other.data[k]
                    for j in range(other.cols):
                        oi[j] += a * rk[j]
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def is_skew(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            if self.data[i][i] != 0:
                return False
            for j in range(i + 1, self.cols):
                if self.data[i][j] != -self.data[j][i]:
                    return False
        return True

    def __repr__(self):
        body = "\n".join(" ".join(str(v) for v in r) for r in self.data)
        return f"IntMatrix({self.rows}x{self.cols})\n{body}"


def rank_q(a: IntMatrix) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in a.data]
    rows, cols = a.rows, a.cols
    rank = 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def symplectic_matrix_int(g: int) -> IntMatrix:
    """2g x 2g block diagonal of [[0,1],[-1,0]] blocks."""
    if g < 0:
        raise IntMatrixError("g must be non-negative")
    m = IntMatrix(2 * g, 2 * g)
    for i in range(g):
        m.data[2 * i][2 * i + 1] = 1
        m.data[2 * i + 1][2 * i] = -1
    return m


def factor_alternating(a: IntMatrix) -> IntMatrix:
    """Factor a skew-symmetric integer A as B^T H_g B, B integer, 2g = rank_Q(A).

    Congruence reduction of the alternating form to diag(e1*J, ..., eg*J, 0)
    with a unimodular change of basis, pivoting on the entry of minimal
    nonzero absolute value so that all divisions eventually come out exact.
    The divisors e_i are absorbed into B afterwards.
    """
    if not a.is_skew():
        raise IntMatrixError("factor_alternating requires a skew-symmetric matrix")
    n = a.rows
    m = [row[:] for row in a.data]
    # Invariant: a = q^T m q, with m the current form and q integer (unimodular).
    q = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap(i, j):
        if i == j:
            return
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        q[i], q[j] = q[j], q[i]

    def negate(i):
        m[i] = [-v for v in m[i]]
        for row in m:
            row[i] = -row[i]
        q[i] = [-v for v in q[i]]

    def addmul(t, s, c):
        # basis change e_t <- e_t + c*e_s
        if c == 0:
            return
        for row in m:
            row[t] += c * row[s]
        m[t] = [vt + c * vs for vt, vs in zip(m[t], m[s])]
        q[s] = [vs - c * vt for vs, vt in zip(q[s], q[t])]

    b = 0
    while b + 1 < n:
        # Minimal nonzero entry of the trailing block.
        best = None
        for i in range(b, n):
            for j in range(i + 1, n):
                v = m[i][j]
                if v != 0 and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        i, j, _ = best
        swap(i, b)
        swap(j, b + 1)
        if m[b][b + 1] < 0:
            negate(b + 1)
        p = m[b][b + 1]
        clean = True
        for t in range(b + 2, n):
            # Clear row b with column b+1, then row b+1 with column b.
            if m[b][t]:
                c = -(m[b][t] // p)
                addmul(t, b + 1, c)
                if m[b][t] != 0:
                    clean = False
                    break
            if m[b + 1][t]:
                c = m[b + 1][t] // p  # m[b+1][b] == -p
                addmul(t, b, c)
                if m[b + 1][t] != 0:
                    clean = False
                    break
        if clean:
            b += 2
        # Otherwise a smaller nonzero entry now exists; re-pivot.

    g = b // 2
    if rank_q(a) != 2 * g:
        raise IntMatrixError("internal: skew rank is not twice the block count")
    divisors = [m[2 * k][2 * k + 1] for k in range(g)]
    # b_mat = diag(e1, 1, e2, 1, ...) * (first 2g rows of q)
    out = IntMatrix(2 * g, n)
    for k in range(g):
        out.data[2 * k] = [divisors[k] * v for v in q[2 * k]]
        out.data[2 * k + 1] = list(q[2 * k + 1])
    return out


def parse_intmatrix(text: str) -> IntMatrix:
    """Parse the matrix text format: `int <rows> <cols>` then signed rows."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise IntMatrixError("empty matrix file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "int":
        raise IntMatrixError(f"bad int header: {lines[0]!r}")
    rows, cols = int(head[1]), int(head[2])
    if len(lines) - 1 != rows:
        raise IntMatrixError(f"expected {rows} rows, got {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        vals = [int(v) for v in ln.split()]
        if len(vals) != cols:
            raise IntMatrixError(f"row has {len(vals)} entries, expected {cols}")
        data.append(vals)
    return IntMatrix(rows, cols, data)


def serialize_intmatrix(m: IntMatrix) -> str:
    lines = [f"int {m.rows} {m.cols}"]
    for r in m.data:
        lines.append(" ".join(str(v) for v in r))
    return "\n".join(lines) + "\n"
