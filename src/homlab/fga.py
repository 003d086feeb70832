"""Exact integer linear algebra and finitely generated abelian groups.

A group is presented as the cokernel of an integer relation matrix; a
homomorphism is an integer matrix on generators.  All arithmetic is over
Python ints, so every answer is exact at every size.  Two eliminations
carry everything else:

- the reduced row Hermite form, the lattice primitive: lattice bases,
  kernels, preimages, inverses of unimodular matrices, membership in a
  relation lattice, coordinates in a basis and the invariants of a group
  all come from it, and each of them is unique, so none depends on the
  order of elimination;
- the Smith normal form with its transforms U and V, for what depends on
  them: `LinearSolver` (and through it `QuotientExpresser`) and the
  element coordinates of `CanonicalForm`.

Format rule: a lattice travels as a `HermiteBasis`: `kernel`,
`preimage_lattice`, `lattice_basis` and `hnf_rows` return one, and lattice
arguments arrive as one, for any generators of it serve, since every
result is canonical.  An `IntMatrix` is a map (`GroupHom` matrices, chain
differentials, the input of `smith`) or an ordered generator list, whose
order reaches reports: the denominators in `ChainComplex.homology_with_reps`,
`SpectralSequence._page_entry` and `end_algebra` become group relations,
and the representatives `reps` group generators.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd
from typing import Iterable, Optional, Sequence


class IntMatrix:
    """Immutable dense matrix of Python ints, row-major.

    The constructor converts every entry with `int` and checks the shape;
    the package's own operations, whose entries are already ints, build
    through `_of` and skip both.

    >>> IntMatrix([[1, 2], [3, 4]]) @ IntMatrix.identity(2)
    IntMatrix([[1, 2], [3, 4]])
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]], rows: int | None = None,
                 cols: int | None = None):
        tup = tuple(tuple(map(int, row)) for row in data)
        if rows is None:
            rows = len(tup)
        if cols is None:
            cols = len(tup[0]) if tup else 0
        if len(tup) != rows:
            raise ValueError(f"expected {rows} rows, got {len(tup)}")
        for row in tup:
            if len(row) != cols:
                raise ValueError("ragged rows in matrix data")
        self.rows = rows
        self.cols = cols
        self.data = tup

    @classmethod
    def _of(cls, data: tuple, rows: int, cols: int) -> "IntMatrix":
        """Matrix on `data`, a tuple of `rows` int tuples of length `cols`,
        taken as it is."""
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self.data = data
        return self

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(tuple(tuple(1 if i == j else 0 for j in range(n))
                             for i in range(n)), n, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(((0,) * cols,) * rows, rows, cols)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], nrows: int) -> "IntMatrix":
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column of wrong length")
        data = tuple(zip(*cols)) if cols else ((),) * nrows
        return cls._of(data, nrows, len(cols))

    @classmethod
    def from_sparse_cols(cls, cols: Sequence[dict], nrows: int) -> "IntMatrix":
        """The matrix with these sparse columns {row: entry}."""
        return cls._of(_dense_rows(cols, nrows), len(cols), nrows).transpose()

    def col(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list:
        """All columns as tuples, in one pass over the rows."""
        if not self.rows:
            return [()] * self.cols
        return list(zip(*self.data))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(tuple(self.columns()), self.cols, self.rows)

    def apply(self, vec: Sequence[int]) -> tuple:
        """Matrix times column vector; only the nonzero entries of `vec`
        are visited, since the others add zero terms to every sum."""
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} against {self.cols} columns")
        support = [(j, v) for j, v in enumerate(vec) if v]
        return tuple(sum(r[j] * v for j, v in support) for r in self.data)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Each row of the product sums the rows of `other` picked out by
        the nonzero entries of the matching row of `self`."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n = other.cols
        support = [[(k, v) for k, v in enumerate(row) if v] for row in other.data]
        out = []
        for row in self.data:
            acc = [0] * n
            for a, terms in zip(row, support):
                if a:
                    for k, v in terms:
                        acc[k] += a * v
            out.append(tuple(acc))
        return IntMatrix._of(tuple(out), self.rows, n)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return IntMatrix._of(tuple(tuple(a + b for a, b in zip(r1, r2))
                                   for r1, r2 in zip(self.data, other.data)),
                             self.rows, self.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return self.scaled(-1)

    def scaled(self, k: int) -> "IntMatrix":
        return IntMatrix._of(tuple(tuple(k * a for a in row) for row in self.data),
                             self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.data for a in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]})"


def hstack(mats: Sequence[IntMatrix]) -> IntMatrix:
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack with differing row counts")
    data = tuple(sum(parts, ()) for parts in zip(*(m.data for m in mats)))
    return IntMatrix._of(data, rows, sum(m.cols for m in mats))


def vstack(mats: Sequence[IntMatrix]) -> IntMatrix:
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack with differing column counts")
    data = tuple(r for m in mats for r in m.data)
    return IntMatrix._of(data, sum(m.rows for m in mats), cols)


def block_diag(mats: Sequence[IntMatrix]) -> IntMatrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = []
    c0 = 0
    for m in mats:
        left, right = (0,) * c0, (0,) * (cols - c0 - m.cols)
        out.extend(left + row + right for row in m.data)
        c0 += m.cols
    return IntMatrix._of(tuple(out), rows, cols)


def _dense_rows(rows: Sequence[dict], n: int) -> tuple:
    """Int tuples of length n from sparse rows {index: entry}."""
    out = []
    for r in rows:
        row = [0] * n
        for j, v in r.items():
            row[j] = v
        out.append(tuple(row))
    return tuple(out)


def _axpy(x: dict, y: dict, q: int) -> None:
    """x -= q * y on sparse vectors {index: nonzero entry}, for q != 0;
    entries that become zero are dropped."""
    for k, b in y.items():
        v = x.get(k, 0) - q * b
        if v:
            x[k] = v
        else:
            del x[k]


class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D a non-negative divisor chain.

    The decomposition is kept in the sparse form `smith` leaves it in:
    the rows of U and the columns of V as dicts {index: nonzero entry},
    and the diagonal of D, whose first `rank` entries are nonzero.
    `LinearSolver` and `CanonicalForm` read that form; the dense matrices
    `U`, `D` and `V` are built when first read and kept.
    """

    __slots__ = ("_shape", "rank", "_urows", "_vcols", "_diag", "_U", "_D", "_V")

    def __init__(self, shape: tuple, urows: list, vcols: list, diag: tuple):
        self._shape = shape
        self.rank = sum(1 for d in diag if d)
        self._urows = urows
        self._vcols = vcols
        self._diag = diag
        self._U = self._D = self._V = None

    @property
    def U(self) -> IntMatrix:
        if self._U is None:
            m = self._shape[0]
            self._U = IntMatrix._of(_dense_rows(self._urows, m), m, m)
        return self._U

    @property
    def D(self) -> IntMatrix:
        if self._D is None:
            m, n = self._shape
            rows = [{i: d} for i, d in enumerate(self._diag)]
            rows += [{}] * (m - len(rows))
            self._D = IntMatrix._of(_dense_rows(rows, n), m, n)
        return self._D

    @property
    def V(self) -> IntMatrix:
        if self._V is None:
            self._V = IntMatrix.from_sparse_cols(self._vcols, self._shape[1])
        return self._V

    def diagonal(self) -> tuple:
        return self._diag


def _xgcd(a: int, b: int) -> tuple:
    """(g, x, y) with g = gcd(a, b) = x * a + y * b, for a > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def _hermite_rows(D: list, U: list, t: int) -> None:
    """Puts rows t.. of the sparse rows D in reduced row Hermite form in
    place, and applies the same row operations to the rows of U.

    Rows are added one at a time, as Kannan and Bachem do (SIAM J.
    Comput. 1979).  A row whose leading column has no pivot row yet
    becomes it, made positive at its pivot.  Otherwise the row is combined
    with that pivot row: by one `_axpy` when the pivot divides its leading
    entry, else by the unimodular 2x2 step of the extended gcd, which makes
    the gcd the new pivot and clears the row's leading entry.  Each time a
    pivot is made or changed, the entries above it are reduced modulo it,
    so no entry outgrows the pivots while rows are added; a last pass from
    the last pivot up reduces each row by the later ones.  The pivot rows
    then fill rows t.. in pivot order, and the rows that became zero
    follow.
    """
    echelon = {}  # pivot column: (row of D, row of U)
    zeros = []

    def reduce_above(c):
        P, PU = echelon[c]
        p = P[c]
        for k, (R, RU) in echelon.items():
            if k < c and c in R:
                q = R[c] // p
                if q:
                    _axpy(R, P, q)
                    _axpy(RU, PU, q)

    for r, u in zip(D[t:], U[t:]):
        while r:
            c = min(r)
            if c not in echelon:
                if r[c] < 0:
                    r = {k: -e for k, e in r.items()}
                    u = {k: -e for k, e in u.items()}
                echelon[c] = (r, u)
                reduce_above(c)
                break
            P, PU = echelon[c]
            p, e = P[c], r[c]
            if e % p == 0:
                _axpy(r, P, e // p)
                _axpy(u, PU, e // p)
                continue
            g, x, y = _xgcd(p, e)
            a, b = e // g, -(p // g)  # determinant x * b - y * a = -1
            echelon[c] = (sparse_sum(((x, P), (y, r))), sparse_sum(((x, PU), (y, u))))
            r, u = sparse_sum(((a, P), (b, r))), sparse_sum(((a, PU), (b, u)))
            reduce_above(c)
        else:  # the row became zero
            zeros.append(u)
    cols = sorted(echelon)
    rows = {c: echelon[c][0] for c in cols}
    for c in reversed(cols):
        RU = echelon[c][1]
        for k, q in _reduce(rows[c], rows, c).items():
            _axpy(RU, echelon[k][1], q)
    D[t:] = list(rows.values()) + [{} for _ in zeros]
    U[t:] = [echelon[c][1] for c in cols] + zeros


def smith(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form over Z.

    Pivots are chosen as a minimal nonzero absolute value, the first such
    in row-major scan order (lowest row, then lowest column), which keeps
    intermediate entries small and the output deterministic.  Two
    shortcuts leave the output unchanged:

    - the pivot scan stops at the first row holding an entry with
      |e| = 1, because no nonzero entry is smaller and a later entry of
      equal size never replaces an earlier one, so the rule would pick
      that entry anyway;
    - when the pivot p divides every entry of rows t.., as p = 1 does,
      the row and column phases leave no remainder and the scan for an
      entry of the remaining block not divisible by p is skipped, since
      it could only come back empty.

    Any other pivot starts a loop of remainders, in which the entries of
    U and V can grow far past any bound on |det A|: dense 28 x 28
    matrices with entries in [-9, 9] reached a million bits.  So when the
    scan finds no entry of absolute value 1 and some entry of rows t.. is
    not a multiple of the smallest, rows t.. of D are first put in
    reduced row Hermite form, with the same row operations on U
    (`_hermite_rows`).  The scan then runs again and step t goes on as
    before, on entries no larger than the Hermite pivots; on a dense
    square input all but the last of them are usually 1.  The Hermite
    step runs at most once per step t.

    Elimination runs on sparse state: the rows of D and U are dicts
    {column: nonzero entry} and the columns of V are dicts {row: nonzero
    entry}, so a row or column operation costs the nonzeros it reads.
    Two invariants at step t keep column operations local:

    - rows above t hold only their diagonal entry, so a column swap
      touches only rows t and below;
    - once the row phase has cleared column t below the pivot, column t
      of D is the pivot alone, so subtracting a multiple of it from a
      later column changes only row t of D (and that column of V).

    Until the Hermite step first runs, every operation is the one dense
    elimination would make, in the same order and on the same pivots; on
    the zero entries it skips, dense elimination would add or move only
    zeros.  So where no pivot other than 1 leaves a remainder, U, D and V
    are entry for entry those of the dense loop, kept as the test
    reference `reference_smith`.  Elsewhere D is the same, since the
    Smith form is unique, and U and V are other unimodular transforms.

    >>> A = IntMatrix([[2, 4], [6, 8]])
    >>> s = smith(A)
    >>> s.diagonal()
    (2, 4)
    >>> s.U @ A @ s.V == s.D
    True
    """
    m, n = A.rows, A.cols
    D = [_sparse(row) for row in A.data]
    U = [{i: 1} for i in range(m)]
    V = [{j: 1} for j in range(n)]  # V[j] is column j of V

    def col_swap(t, j):  # rows above t are zero in both columns
        for i in range(t, m):
            row = D[i]
            if t in row or j in row:
                a = row.pop(t, 0)
                b = row.pop(j, 0)
                if b:
                    row[t] = b
                if a:
                    row[j] = a
        V[t], V[j] = V[j], V[t]

    t = 0
    limit = min(m, n)
    hermite_at = -1  # once per step, or the rescan after it would call it again
    while t < limit:
        best = 0
        pivot = None
        for i in range(t, m):
            row = D[i]
            if row:
                a = min(map(abs, row.values()))
                if not best or a < best:
                    best = a
                    pivot = (i, min(j for j, e in row.items() if abs(e) == a))
                    if a == 1:
                        break
        if pivot is None:
            break
        # a pivot that divides every entry of rows t.. leaves no remainder
        exact = best == 1 or not any(e % best for row in D[t:] for e in row.values())
        if not exact and hermite_at != t:
            _hermite_rows(D, U, t)
            hermite_at = t
            continue
        i, j = pivot
        if i != t:
            D[t], D[i] = D[i], D[t]
            U[t], U[i] = U[i], U[t]
        if j != t:
            col_swap(t, j)
        while True:
            Dt, Ut = D[t], U[t]
            p = Dt[t]
            if p < 0:
                Dt = D[t] = {k: -e for k, e in Dt.items()}
                Ut = U[t] = {k: -e for k, e in Ut.items()}
                p = -p
            dirty = False
            for i in range(t + 1, m):
                Di = D[i]
                e = Di.get(t)
                if e:
                    q = e // p
                    if q:
                        _axpy(Di, Dt, q)
                        _axpy(U[i], Ut, q)
                    if t in Di:  # remainder is a strictly smaller pivot
                        D[t], D[i] = Di, Dt
                        U[t], U[i] = U[i], Ut
                        dirty = True
                        break
            if dirty:
                continue
            # column t of D is now the pivot alone, so col_j -= q * col_t
            # changes row t of D and column j of V only
            for j in sorted(Dt)[1:]:  # the columns after t, in order
                e = Dt[j]
                q = e // p
                if q:
                    _axpy(V[j], V[t], q)
                r = e - q * p
                if r:
                    Dt[j] = r
                    col_swap(t, j)
                    dirty = True
                    break
                del Dt[j]
            if dirty:
                continue
            if exact:
                break
            # pivot row and column are clear; enforce divisibility of the rest
            bad = next((i for i in range(t + 1, m)
                        if any(e % p for e in D[i].values())), None)
            if bad is None:
                break
            _axpy(Dt, D[bad], -1)
            _axpy(Ut, U[bad], -1)
        t += 1
    diag = tuple(D[i][i] for i in range(t)) + (0,) * (limit - t)
    return SmithDecomposition((m, n), U, V, diag)


def solve(A: IntMatrix, b: Sequence[int]) -> Optional[tuple]:
    """One integer solution x of A x = b, or None if there is none."""
    return LinearSolver(A).solve(b)


class LinearSolver:
    """Repeated exact solves against a fixed matrix, one Smith form.

    With U A V = D from `smith`, A x = b has the solutions x = V y where
    D y = U b.  The solver reads the decomposition's sparse form and
    never builds dense U, D or V: it turns the sparse rows of U into
    columns once, as (row, entry) pairs, and keeps the sparse columns of
    V that face a nonzero diagonal entry, since y is zero everywhere
    else.  A solve multiplies and adds only the nonzero entries of b, of
    U b and of y.  `diagonal` is the diagonal of D, padded with zeros to
    one entry per row of A.
    """

    def __init__(self, A: IntMatrix):
        self.A = A
        s = smith(A)
        diag = s.diagonal()
        self.diagonal = diag + (0,) * (A.rows - len(diag))
        ucols = [[] for _ in range(A.rows)]
        for i, row in enumerate(s._urows):
            for j, u in row.items():
                ucols[j].append((i, u))
        self._ucols = ucols
        self._vcols = s._vcols[:s.rank]

    def solve(self, b: Sequence[int]) -> Optional[tuple]:
        if len(b) != self.A.rows:
            raise ValueError("right-hand side of wrong length")
        c = {}  # U b, on its support
        ucols = self._ucols
        for j, bj in enumerate(b):
            if bj:
                for i, u in ucols[j]:
                    c[i] = c.get(i, 0) + u * bj
        x = [0] * self.A.cols
        for i, ci in c.items():
            if not ci:
                continue
            d = self.diagonal[i]
            if not d or ci % d:
                return None
            yi = ci // d
            for r, v in self._vcols[i].items():
                x[r] += v * yi
        return tuple(x)


def _sparse(vec: Sequence[int]) -> dict:
    """The nonzero entries of a vector, as {index: entry}; `compress`
    skips the zeros without a Python-level step for each."""
    return {i: vec[i] for i in compress(range(len(vec)), vec)}


def sparse_sum(terms: Iterable[tuple]) -> dict:
    """Sum of k * v over pairs (int k, sparse v), zero entries dropped."""
    acc = {}
    for k, v in terms:
        for i, e in v.items():
            acc[i] = acc.get(i, 0) + k * e
    return {i: e for i, e in acc.items() if e}


def _hermite(rows: Iterable[dict], lower: int = 0) -> dict:
    """Reduced row Hermite form of the lattice spanned by sparse rows.

    The rows, dicts {column: nonzero entry}, are consumed.  Elimination
    runs column by column in increasing order on buckets of rows keyed by
    their leading column.  In each bucket the row with the smallest
    leading entry, and among those the fewest nonzeros, reduces the
    others (which keeps fill low, as in Dumas, Saunders and Villard, JSC
    2001); a row whose leading entry drops to zero moves to the bucket of
    its new leading column, one with a nonzero remainder stays, until one
    row is left.  That row, made positive at its pivot, is the echelon
    row of the column.  Back-reduction then runs from the last pivot up,
    so each row is reduced by later rows that are already reduced.

    Returns {pivot column: row} in increasing pivot order, for the pivot
    columns at or after `lower`; only those rows are back-reduced.  The
    reduced form is unique for its lattice, so the result depends on the
    lattice alone and not on the rows or the order of elimination.
    """
    buckets = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    heap = list(buckets)
    heapify(heap)
    echelon = {}
    while heap:
        c = heappop(heap)
        bucket = buckets.pop(c)
        while len(bucket) > 1:
            piv = min(bucket, key=lambda r: (abs(r[c]), len(r)))
            p = piv[c]
            left = [piv]
            for r in bucket:
                if r is piv:
                    continue
                _axpy(r, piv, r[c] // p)  # |r[c]| >= |p|, so the quotient is nonzero
                if c in r:
                    left.append(r)
                elif r:
                    k = min(r)
                    if k in buckets:
                        buckets[k].append(r)
                    else:
                        buckets[k] = [r]
                        heappush(heap, k)
            bucket = left
        row = bucket[0]
        if row[c] < 0:
            for k in row:
                row[k] = -row[k]
        if c >= lower:
            echelon[c] = row
    for c, row in reversed(list(echelon.items())):
        _reduce(row, echelon, c)
    return echelon


def _reduce(v: dict, echelon: dict, after: int = -1) -> dict:
    """Reduces the sparse vector v in place by echelon rows {pivot column:
    row}, whose rows are zero before their pivot column.

    The pivot columns after `after` are visited in increasing order; at
    each the multiple of its row is subtracted that leaves the entry in
    [0, pivot), which changes v only at that column and later ones.
    Returns {pivot column: multiple subtracted}.  v ends at zero exactly
    when it lay in the lattice of the rows, and then the multiples are
    its coordinates.
    """
    heap = [k for k in v if k > after and k in echelon]
    heapify(heap)
    coeffs = {}
    while heap:
        k = heappop(heap)
        e = v.get(k)
        if e is None:
            continue
        row = echelon[k]
        q = e // row[k]
        if q:
            for j in row:
                if j not in v and j in echelon:
                    heappush(heap, j)
            _axpy(v, row, q)
            coeffs[k] = q
    return coeffs


class HermiteBasis:
    """A lattice in Z^dim held as its reduced row Hermite form, which is
    unique: sparse rows {column: entry}, keyed by pivot column in
    increasing order.

    Membership and coordinates come by triangular substitution against
    the rows; since they are a basis, coordinates are unique.
    """

    __slots__ = ("rows", "dim", "_position")

    def __init__(self, rows: dict, dim: int):
        self.rows = rows
        self.dim = dim
        self._position = {c: i for i, c in enumerate(rows)}

    @classmethod
    def spanned_by(cls, vectors: Iterable[dict], dim: int) -> "HermiteBasis":
        """The lattice the sparse vectors span; they are left as they are."""
        return cls(_hermite(dict(v) for v in vectors), dim)

    def as_columns(self) -> IntMatrix:
        """The basis vectors, in pivot order, as the columns of a matrix."""
        return IntMatrix.from_sparse_cols(list(self.rows.values()), self.dim)

    def contains(self, vec: dict) -> bool:
        v = dict(vec)
        _reduce(v, self.rows)
        return not v

    def coords(self, vec: dict) -> Optional[tuple]:
        """The x with sum x_i row_i = vec, or None off the lattice."""
        v = dict(vec)
        q = _reduce(v, self.rows)
        if v:
            return None
        x = [0] * len(self.rows)
        for c, e in q.items():
            x[self._position[c]] = e
        return tuple(x)

    def invariants(self) -> list:
        """Nonzero Smith invariants of the matrix of the rows, as a divisor
        chain, with no transforms.

        In a reduced Hermite form a pivot 1 is alone in its column, so
        column operations clear its row without touching any other row:
        it gives an invariant 1 and leaves.  The other rows are put in
        Hermite form again as columns, and so on, until each row holds
        its pivot alone.  The first pivot of the rows left never grows,
        and when it stays its row and column are clear, so this ends.
        Pairwise gcd and lcm then turn the diagonal into the chain.
        """
        echelon = self.rows
        ones = 0
        while True:
            rest = []
            for c, row in echelon.items():
                if row[c] == 1:
                    ones += 1
                else:
                    rest.append(row)
            if all(len(row) == 1 for row in rest):
                break
            cols = {}
            for i, row in enumerate(rest):
                for j, e in row.items():
                    cols.setdefault(j, {})[i] = e
            echelon = _hermite(cols.values())
        diag = [e for row in rest for e in row.values()]
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                g = gcd(diag[i], diag[j])
                diag[i], diag[j] = g, diag[i] * diag[j] // g
        return [1] * ones + diag


def kernel(A, L: Optional[HermiteBasis] = None) -> HermiteBasis:
    """The integer kernel of A, or, given L, the lattice {x : A x lies in
    L}, in reduced Hermite form.  A is an `IntMatrix`, or the list of its
    columns as sparse vectors when L is given, whose `dim` is then A's
    row count.

    One Hermite elimination of the rows [Aᵀ | I] and [L | 0] (Cohen, GTM
    138, §2.4): a row combination of them is (A x + y, x) with y in L, so
    the rows of the form whose pivot lies in the I block are the (0, x)
    with A x in L, and reduced among themselves they are the reduced form
    of that lattice.  L's rows get no identity block.
    """
    if isinstance(A, IntMatrix):
        m, A = A.rows, list(map(_sparse, A.columns()))
    else:
        m = L.dim
    rows = [{**col, m + j: 1} for j, col in enumerate(A)]
    if L is not None:
        if L.dim != m:
            raise ValueError("target lattice in wrong ambient rank")
        rows += map(dict, L.rows.values())
    H = _hermite(rows, m)
    return HermiteBasis({c - m: {k - m: e for k, e in row.items()}
                         for c, row in H.items()}, len(A))


def hnf_rows(A: IntMatrix) -> HermiteBasis:
    """The lattice spanned by the rows of A.

    >>> hnf_rows(IntMatrix([[2, 4], [3, 5], [0, 6]])).rows
    {0: {0: 1, 1: 1}, 1: {1: 2}}
    """
    return HermiteBasis.spanned_by(map(_sparse, A.data), A.cols)


def lattice_basis(G: IntMatrix) -> HermiteBasis:
    """The lattice spanned by the columns of G."""
    return hnf_rows(G.transpose())


def preimage_lattice(M, L: HermiteBasis) -> HermiteBasis:
    """{x : M x lies in L}: the kernel of M relative to L (see `kernel`)."""
    return kernel(M, L)


def unimodular_inverse(M: IntMatrix) -> IntMatrix:
    """M⁻¹ from one Hermite elimination of [Mᵀ | I].

    Its rows span {(M x, x)}, so its reduced form is [I | (M⁻¹)ᵀ] exactly
    when every unit vector is some M x, that is, when M is unimodular.

    >>> unimodular_inverse(IntMatrix([[2, 1], [1, 1]]))
    IntMatrix([[1, -1], [-1, 2]])
    """
    n = M.rows
    if M.cols != n:
        raise ValueError("matrix is not unimodular")
    H = _hermite({**_sparse(c), n + j: 1} for j, c in enumerate(M.columns()))
    if list(H) != list(range(n)) or any(H[c][c] != 1 for c in range(n)):
        raise ValueError("matrix is not unimodular")
    return IntMatrix.from_sparse_cols(
        [{k - n: e for k, e in H[c].items() if k >= n} for c in range(n)], n)


class FgAbGroup:
    """Finitely generated abelian group, presented as Z^ngens / row lattice.

    The rows of `relations` are relators on the chosen generators.  The
    group puts them in reduced Hermite form when first asked; membership
    in the relation lattice is tested against that form, and the
    invariants are read from it.  Equality and hashing are by value.

    >>> FgAbGroup(2, IntMatrix([[2, 0], [0, 3]])).iso_invariants()
    (0, (6,))
    """

    __slots__ = ("ngens", "relations", "_invariants", "_lattice")

    def __init__(self, ngens: int, relations: IntMatrix | None = None):
        if ngens < 0:
            raise ValueError("negative generator count")
        if relations is None:
            relations = IntMatrix.zeros(0, ngens)
        if relations.cols != ngens:
            raise ValueError(f"relations have {relations.cols} columns for {ngens} generators")
        self.ngens = ngens
        self.relations = relations
        self._invariants = None
        self._lattice = None

    @classmethod
    def free(cls, n: int) -> "FgAbGroup":
        return cls(n)

    @classmethod
    def zero(cls) -> "FgAbGroup":
        return cls(0)

    def relation_cols(self) -> IntMatrix:
        return self.relations.transpose()

    def relation_lattice(self) -> HermiteBasis:
        """The lattice the relations span, in reduced Hermite form."""
        if self._lattice is None:
            self._lattice = HermiteBasis.spanned_by(
                map(_sparse, self.relations.data), self.ngens)
        return self._lattice

    def iso_invariants(self) -> tuple:
        """(free rank, torsion chain t_1 | t_2 | ... with each t_i >= 2),
        from the Smith invariants of the relation lattice."""
        if self._invariants is None:
            nonzero = self.relation_lattice().invariants()
            torsion = tuple(d for d in nonzero if d >= 2)
            self._invariants = (self.ngens - len(nonzero), torsion)
        return self._invariants

    def is_trivial(self) -> bool:
        return self.iso_invariants() == (0, ())

    def order(self) -> Optional[int]:
        r, tor = self.iso_invariants()
        if r:
            return None
        n = 1
        for t in tor:
            n *= t
        return n

    def __eq__(self, other) -> bool:
        return (isinstance(other, FgAbGroup) and self.ngens == other.ngens
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.ngens, self.relations))

    def __repr__(self):
        r, tor = self.iso_invariants()
        return f"FgAbGroup(rank={r}, torsion={list(tor)})"


def direct_sum(groups: Sequence[FgAbGroup]) -> FgAbGroup:
    ngens = sum(g.ngens for g in groups)
    return FgAbGroup(ngens, block_diag([g.relations for g in groups]))


def first_nonzero(cols: Iterable[dict], target: FgAbGroup) -> Optional[int]:
    """Index of the first sparse column (zero entries left out) that is not
    zero in `target`, or None: the one test that a map into it is zero."""
    return next((j for j, c in enumerate(cols)
                 if c and not target.relation_lattice().contains(c)), None)


class IllDefinedHomError(ValueError):
    pass


class GroupHom:
    """Matrix on generators; must send each source relation into the
    target relation lattice to define a homomorphism."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix):
        if matrix.rows != target.ngens or matrix.cols != source.ngens:
            raise ValueError(
                f"matrix is {matrix.rows}x{matrix.cols}, expected "
                f"{target.ngens}x{source.ngens}")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, g: FgAbGroup) -> "GroupHom":
        return cls(g, g, IntMatrix.identity(g.ngens))

    @classmethod
    def zero_map(cls, source: FgAbGroup, target: FgAbGroup) -> "GroupHom":
        return cls(source, target, IntMatrix.zeros(target.ngens, source.ngens))

    def well_defined_violation(self) -> Optional[int]:
        """Index of the first source relation not preserved, or None.

        Each relation's image is summed from the nonzero columns it
        picks out, as a sparse vector."""
        if self.source.relations.rows == 0:
            return None
        cols = [_sparse(c) for c in self.matrix.columns()]
        return first_nonzero(
            (sparse_sum((r, cols[j]) for j, r in _sparse(rel).items())
             for rel in self.source.relations.data), self.target)

    def require_well_defined(self) -> None:
        i = self.well_defined_violation()
        if i is not None:
            raise IllDefinedHomError(
                f"relation {i} = {list(self.source.relations.data[i])} is not "
                f"sent into the target relation lattice")

    def __matmul__(self, other: "GroupHom") -> "GroupHom":
        """Composite: (self @ other)(x) = self(other(x))."""
        if other.target != self.source:
            raise ValueError("homomorphisms are not composable")
        return GroupHom(other.source, self.target, self.matrix @ other.matrix)

    def apply(self, vec: Sequence[int]) -> tuple:
        return self.matrix.apply(vec)

    def nonzero_column(self) -> Optional[int]:
        """Index of the first generator whose image is not zero in the
        target (a nonzero column that is not a relation), or None when
        the map is zero."""
        return first_nonzero(map(_sparse, self.matrix.columns()), self.target)

    def equal_to(self, other: "GroupHom") -> bool:
        """Equality as maps of presented groups (columns agree mod relations)."""
        if self.source != other.source or self.target != other.target:
            return False
        pairs = zip(self.matrix.columns(), other.matrix.columns())
        return first_nonzero((_sparse(tuple(map(int.__sub__, a, b))) for a, b in pairs),
                             self.target) is None

    def is_zero(self) -> bool:
        return self.nonzero_column() is None

    def __repr__(self):
        return f"GroupHom({self.source!r} -> {self.target!r})"


def hom_stack(homs: Sequence[GroupHom]) -> GroupHom:
    """(f_1, ..., f_k): common source -> direct sum of targets."""
    src = homs[0].source
    if any(h.source != src for h in homs):
        raise ValueError("stacked homs must share a source")
    return GroupHom(src, direct_sum([h.target for h in homs]),
                    vstack([h.matrix for h in homs]))


def hom_concat(homs: Sequence[GroupHom]) -> GroupHom:
    """[f_1 ... f_k]: direct sum of sources -> common target."""
    tgt = homs[0].target
    if any(h.target != tgt for h in homs):
        raise ValueError("concatenated homs must share a target")
    return GroupHom(direct_sum([h.source for h in homs]), tgt,
                    hstack([h.matrix for h in homs]))


def hom_kernel(f: GroupHom) -> tuple:
    """(kernel group, inclusion hom into the source)."""
    f.require_well_defined()
    P = _kernel_lattice(f)
    # impossible for a well-defined hom
    group = _presented_in(P, f.source.relations.data, RuntimeError(
        "source relation escaped the kernel lattice"))
    return group, GroupHom(group, f.source, P.as_columns())


def hom_cokernel(f: GroupHom) -> tuple:
    """(cokernel group, projection hom from the target)."""
    f.require_well_defined()
    rels = vstack([f.target.relations, f.matrix.transpose()])
    group = FgAbGroup(f.target.ngens, rels)
    return group, GroupHom(f.target, group, IntMatrix.identity(f.target.ngens))


def _image_lattice(f: GroupHom) -> HermiteBasis:
    return hnf_rows(vstack([f.matrix.transpose(), f.target.relations]))


def _kernel_lattice(g: GroupHom) -> HermiteBasis:
    return preimage_lattice(g.matrix, g.target.relation_lattice())


def composite_is_zero(f: GroupHom, g: GroupHom) -> Optional[tuple]:
    """None when g∘f = 0; otherwise a source generator's nonzero image."""
    if f.target != g.source:
        raise ValueError("maps do not compose")
    comp = GroupHom(f.source, g.target, g.matrix @ f.matrix)
    j = comp.nonzero_column()
    return None if j is None else comp.matrix.col(j)


def kernel_in_image(f: GroupHom, g: GroupHom) -> Optional[tuple]:
    """None when ker g is contained in im f; otherwise an unhit kernel generator."""
    if f.target != g.source:
        raise ValueError("maps do not compose")
    img = _image_lattice(f)
    for v in _kernel_lattice(g).rows.values():
        if not img.contains(v):
            return tuple(v.get(i, 0) for i in range(g.source.ngens))
    return None


def is_isomorphism(f: GroupHom) -> bool:
    """Whether f is a well-defined bijection; False when it is ill defined."""
    try:
        return hom_kernel(f)[0].is_trivial() and hom_cokernel(f)[0].is_trivial()
    except IllDefinedHomError:
        return False


def _presented_in(P: HermiteBasis, vectors: Iterable[Sequence[int]],
                  escaped: Exception) -> FgAbGroup:
    """The group on the basis vectors of P, with the coordinates of
    `vectors` as relations; raises `escaped` when one of them is not in
    P.  Coordinates in a basis are unique, so triangular substitution
    finds them."""
    rel_rows = []
    for v in vectors:
        x = P.coords(_sparse(v))
        if x is None:
            raise escaped
        rel_rows.append(x)
    n = len(P.rows)
    return FgAbGroup(n, IntMatrix._of(tuple(rel_rows), len(rel_rows), n))


def present_subquotient(ambient_dim: int, numerator: HermiteBasis,
                        denominator: IntMatrix) -> tuple:
    """Present N/D for lattices D <= N inside Z^ambient_dim, with one
    relation per column of `denominator`, in order.

    Returns (group, basis) where basis columns, N's basis vectors, are
    lattice representatives of the group's generators.
    """
    if numerator.dim != ambient_dim or denominator.rows != ambient_dim:
        raise ValueError("lattice generators in the wrong ambient rank")
    group = _presented_in(numerator, denominator.columns(), ValueError(
        "denominator lattice is not inside the numerator"))
    return group, numerator.as_columns()


class QuotientExpresser:
    """Rewrites ambient vectors as classes of a presented subquotient.

    The solver is built on the first `express`, so an expresser that is
    never asked costs no Smith form."""

    def __init__(self, basis: IntMatrix, denominator: IntMatrix):
        self.basis = basis
        self._denominator = denominator
        self._solver = None

    def express(self, vec: Sequence[int]) -> Optional[tuple]:
        if self._solver is None:
            self._solver = LinearSolver(hstack([self.basis, self._denominator]))
        x = self._solver.solve(vec)
        if x is None:
            return None
        return tuple(x[: self.basis.cols])


class CanonicalForm:
    """Coordinates of group elements in the invariant-factor decomposition.

    Elements are tuples over the torsion factors followed by the free
    coordinates.
    """

    def __init__(self, group: FgAbGroup):
        self.group = group
        B = group.relation_cols()  # ngens x r
        s = smith(B)
        self.U = s.U
        self.Uinv = unimodular_inverse(s.U)
        diag = s.diagonal() + (0,) * (group.ngens - len(s.diagonal()))
        self.positions = tuple((i, d) for i, d in enumerate(diag) if d != 1)
        self.torsion = tuple(d for _, d in self.positions if d >= 2)
        self.free_rank = sum(1 for _, d in self.positions if d == 0)

    def coords(self, vec: Sequence[int]) -> tuple:
        y = self.U.apply(vec)
        return tuple(y[i] % d if d else y[i] for i, d in self.positions)

    def lift(self, coords: Sequence[int]) -> tuple:
        if len(coords) != len(self.positions):
            raise ValueError("coordinate tuple of wrong length")
        y = [0] * self.group.ngens
        for (i, _), c in zip(self.positions, coords):
            y[i] = c
        return self.Uinv.apply(y)

    def size(self) -> Optional[int]:
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n
