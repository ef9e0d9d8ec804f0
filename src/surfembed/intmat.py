"""Exact integer linear algebra: rational rank and the alternating-form
factorization A = B^T H_g B for skew-symmetric integer matrices.

All arithmetic is arbitrary precision.  The congruence reduction swells its
entries; the factor it yields is then Sp(2g, Z)-reduced by elementary
symplectic row moves while its entry sum |B|_1 strictly drops.  A move S
with S^T H_g S = H_g keeps (SB)^T H_g (SB) = B^T H_g B, so the reduced
factor is exact, and each unit |B|_1 loses is one tube pass fewer to draw.
"""

from __future__ import annotations


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
            # bool is an int, but True is no entry; nothing is coerced: int(1.9) is 1
            if any(not isinstance(v, int) or isinstance(v, bool) for r in data for v in r):
                raise IntMatrixError("entries must be integers")
            self.data = data

    def get(self, i: int, j: int) -> int:
        return self.data[i][j]

    def set(self, i: int, j: int, v: int) -> None:
        if not isinstance(v, int) or isinstance(v, bool):
            raise IntMatrixError("entries must be integers")
        self.data[i][j] = v

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
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    After k pivots every entry below them is a (k+1) x (k+1) minor of the
    row-permuted matrix, so dividing by the previous pivot, a k x k minor,
    is exact and the entries stay integers of bounded size.
    """
    m = [row[:] for row in a.data]
    rank, prev = 0, 1
    for c in range(a.cols):
        piv = next((i for i in range(rank, a.rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank]
        for i in range(rank + 1, a.rows):
            f = m[i][c]
            m[i] = [(p[c] * x - f * y) // prev for x, y in zip(m[i], p)]
        prev = p[c]
        rank += 1
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

    The returned B is Sp(2g, Z)-reduced: no elementary symplectic row move
    (see `_symplectic_moves`) lowers its entry sum |B|_1, the number of tube
    passes of a Z surface drawing built from it.  Such moves keep B^T H_g B
    fixed, so the reduction is exact.
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
    _reduce_symplectic(out.data)
    return out


def _best_multiplier(u, v) -> int:
    """An integer k minimizing |u - k*v|_1.

    The sum of |v_t| * |u_t / v_t - k| is convex in k, least at the weighted
    median of the ratios u_t / v_t (weights |v_t|), so the floor or the
    ceiling of that median is an integer minimizer.  Floor is monotone, so
    the weighted median of the floors u_t // v_t is the floor of the median.
    """
    pts = sorted((a // b, abs(b)) for a, b in zip(u, v) if b)
    if not pts:
        return 0
    total, acc = sum(w for _, w in pts), 0
    for lo, w in pts:
        acc += w
        if 2 * acc >= total:
            break
    return min((lo, lo + 1), key=lambda k: sum(abs(a - k * b) for a, b in zip(u, v)))


def _symplectic_moves(g: int) -> list:
    """Elementary moves of Sp(2g, Z) on the rows x_h = 2h, y_h = 2h + 1.

    A move is a list of (target, source, sign): row target -= k * sign *
    row source, all with one k.  Inside a handle: x -= k*y and y -= k*x.
    Across handles i != j, each pair keeps the sum of the wedges x_h ^ y_h.
    """
    moves = []
    for i in range(g):
        xi, yi = 2 * i, 2 * i + 1
        moves += [[(xi, yi, 1)], [(yi, xi, 1)]]
        for j in range(g):
            xj, yj = 2 * j, 2 * j + 1
            if j != i:
                moves.append([(xi, xj, 1), (yj, yi, -1)])
            if j > i:
                moves += [[(xi, yj, 1), (xj, yi, 1)], [(yi, xj, 1), (yj, xi, 1)]]
    return moves


def _reduce_symplectic(rows) -> None:
    """Apply elementary symplectic moves to rows, each with its best k, as long
    as the entry sum strictly drops.  Ends: the sum is a non-negative integer."""
    moves = _symplectic_moves(len(rows) // 2)
    improved = True
    while improved:
        improved = False
        for move in moves:
            u = [a for t, _, _ in move for a in rows[t]]
            v = [c * b for _, s, c in move for b in rows[s]]
            k = _best_multiplier(u, v)
            if k and sum(abs(a - k * b) for a, b in zip(u, v)) < sum(map(abs, u)):
                for t, s, c in move:
                    rows[t] = [a - k * c * b for a, b in zip(rows[t], rows[s])]
                improved = True


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
