"""Exact integer linear algebra and finitely generated abelian groups.

A group is presented as the cokernel of an integer relation matrix; a
homomorphism is an integer matrix on generators.  Smith normal form over
Python ints is the one primitive that everything else (kernels, images,
exactness, canonical element coordinates) is reduced to, so all answers
are exact at every size.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class IntMatrix:
    """Immutable dense matrix of Python ints, row-major.

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
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], nrows: int) -> "IntMatrix":
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column of wrong length")
        return cls([[c[i] for c in cols] for i in range(nrows)], nrows, len(cols))

    def col(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)], self.cols, self.rows)

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
            out.append(acc)
        return IntMatrix(out, self.rows, n)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return IntMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)], self.rows, self.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in row] for row in self.data], self.rows, self.cols)

    def scaled(self, k: int) -> "IntMatrix":
        return IntMatrix([[k * a for a in row] for row in self.data], self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.data for a in row)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

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
    return IntMatrix([sum((list(m.data[i]) for m in mats), []) for i in range(rows)],
                     rows, sum(m.cols for m in mats))


def vstack(mats: Sequence[IntMatrix]) -> IntMatrix:
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack with differing column counts")
    data = []
    for m in mats:
        data.extend(list(r) for r in m.data)
    return IntMatrix(data, sum(m.rows for m in mats), cols)


def block_diag(mats: Sequence[IntMatrix]) -> IntMatrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m.data[i][j]
        r0 += m.rows
        c0 += m.cols
    return IntMatrix(out, rows, cols)


def modulus_columns(m: int, dim: int) -> IntMatrix:
    """Columns generating m*Z^dim; no columns at all for m = 0 (integers)."""
    if m == 0:
        return IntMatrix.zeros(dim, 0)
    return IntMatrix.identity(dim).scaled(m)


class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D a non-negative divisor chain."""

    __slots__ = ("U", "D", "V")

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix):
        self.U = U
        self.D = D
        self.V = V

    def diagonal(self) -> tuple:
        return tuple(self.D.data[i][i] for i in range(min(self.D.rows, self.D.cols)))


def smith(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form over Z.

    Pivots are chosen as a minimal nonzero absolute value (first such in
    row-major scan order), which keeps intermediate entries small and the
    output deterministic.  Two shortcuts leave the output unchanged:

    - the pivot scan stops at the first entry with |e| = 1, because no
      nonzero entry is smaller and a later entry of equal size never
      replaces an earlier one, so the rule would pick that entry anyway;
    - when the pivot is p = 1, the scan for an entry of the remaining
      block not divisible by p is skipped, because every integer is
      divisible by 1 and the scan could only come back empty.

    >>> smith(IntMatrix([[2, 4], [6, 8]])).diagonal()
    (2, 4)
    """
    m, n = A.rows, A.cols
    D = [list(row) for row in A.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i, j, q):  # row_i -= q * row_j
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_sub(i, j, q):  # col_i -= q * col_j; rows with a zero in col_j keep col_i
        for M in (D, V):
            for row in M:
                b = row[j]
                if b:
                    row[i] -= q * b

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def row_neg(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]

    def row_add(i, j):  # row_i += row_j
        Di, Dj = D[i], D[j]
        Ui, Uj = U[i], U[j]
        for k in range(n):
            Di[k] += Dj[k]
        for k in range(m):
            Ui[k] += Uj[k]

    t = 0
    limit = min(m, n)
    while t < limit:
        best = None
        pivot = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                e = row[j]
                if e != 0:
                    a = -e if e < 0 else e
                    if best is None or a < best:
                        best = a
                        pivot = (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        while True:
            if D[t][t] < 0:
                row_neg(t)
            p = D[t][t]
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    row_sub(i, t, D[i][t] // p)
                    if D[i][t]:  # remainder is a strictly smaller pivot
                        row_swap(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    col_sub(j, t, D[t][j] // p)
                    if D[t][j]:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            if p == 1:
                break
            # pivot row and column are clear; enforce divisibility of the rest
            bad = None
            for i in range(t + 1, m):
                row = D[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad)
        t += 1
    return SmithDecomposition(IntMatrix(U, m, m), IntMatrix(D, m, n), IntMatrix(V, n, n))


def rank(A: IntMatrix) -> int:
    return sum(1 for d in smith(A).diagonal() if d != 0)


def solve(A: IntMatrix, b: Sequence[int]) -> Optional[tuple]:
    """One integer solution x of A x = b, or None if there is none."""
    return LinearSolver(A).solve(b)


def _sparse_columns(M: IntMatrix) -> list:
    """Column j of M as a pair (row indices, entries) of its nonzeros."""
    cols = [([], []) for _ in range(M.cols)]
    for i, row in enumerate(M.data):
        for j, v in enumerate(row):
            if v:
                idx, val = cols[j]
                idx.append(i)
                val.append(v)
    return [(tuple(idx), tuple(val)) for idx, val in cols]


class LinearSolver:
    """Repeated exact solves against a fixed matrix, one Smith form.

    With U A V = D from `smith`, A x = b has the solutions x = V y where
    D y = U b.  U and V are stored as sparse columns (the nonzero entries
    of each column) next to the diagonal of D, and the dense
    decomposition is dropped, so a solve multiplies and adds only the
    nonzero entries of b and of y.  Only the columns of V facing a
    nonzero diagonal entry are kept: y is zero everywhere else.
    `diagonal` is the diagonal of D, padded with zeros to one entry per
    row of A.
    """

    def __init__(self, A: IntMatrix):
        self.A = A
        s = smith(A)
        diag = s.diagonal()
        vcols = _sparse_columns(s.V)
        self.diagonal = diag + (0,) * (A.rows - len(diag))
        self._ucols = _sparse_columns(s.U)
        self._vcols = [vcols[i] if d else None for i, d in enumerate(diag)]

    def solve(self, b: Sequence[int]) -> Optional[tuple]:
        if len(b) != self.A.rows:
            raise ValueError("right-hand side of wrong length")
        c = {}  # U b, on its support
        for j, bj in enumerate(b):
            if bj:
                idx, val = self._ucols[j]
                for i, u in zip(idx, val):
                    c[i] = c.get(i, 0) + u * bj
        x = [0] * self.A.cols
        for i, ci in c.items():
            if not ci:
                continue
            d = self.diagonal[i]
            if not d or ci % d:
                return None
            yi = ci // d
            idx, val = self._vcols[i]
            for r, v in zip(idx, val):
                x[r] += v * yi
        return tuple(x)


def kernel(A: IntMatrix) -> IntMatrix:
    """Matrix whose columns are a basis of the integer kernel of A."""
    s = smith(A)
    cols = []
    for j in range(A.cols):
        d = s.D.data[j][j] if j < A.rows else 0
        if d == 0:
            cols.append(s.V.col(j))
    return IntMatrix.from_cols(cols, A.cols)


def hnf_rows(A: IntMatrix) -> IntMatrix:
    """Canonical row Hermite form; returns only the nonzero rows.

    Two row sets span the same lattice iff their forms are equal.
    """
    H = [list(r) for r in A.data]
    m, n = A.rows, A.cols
    r = 0
    for c in range(n):
        if r == m:
            break
        best = None
        piv = None
        for i in range(r, m):
            v = H[i][c]
            if v != 0:
                a = -v if v < 0 else v
                if best is None or a < best:
                    best = a
                    piv = i
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        while True:
            done = True
            for i in range(r + 1, m):
                if H[i][c]:
                    q = H[i][c] // H[r][c]
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    if H[i][c]:
                        H[r], H[i] = H[i], H[r]
                        done = False
            if done:
                break
        if H[r][c] < 0:
            H[r] = [-a for a in H[r]]
        for i in range(r):
            q = H[i][c] // H[r][c]
            if q:
                H[i] = [a - q * b for a, b in zip(H[i], H[r])]
        r += 1
    return IntMatrix(H[:r], r, n)


def lattice_basis(G: IntMatrix) -> IntMatrix:
    """Canonical basis (as columns) of the lattice spanned by the columns of G."""
    return hnf_rows(G.transpose()).transpose()


def same_lattice(A: IntMatrix, B: IntMatrix) -> bool:
    if A.rows != B.rows:
        raise ValueError("lattices in different ambient ranks")
    return hnf_rows(A.transpose()) == hnf_rows(B.transpose())


def preimage_lattice(M: IntMatrix, L: IntMatrix) -> IntMatrix:
    """Basis of {x : M x lies in the column lattice of L}."""
    if M.rows != L.rows:
        raise ValueError("target lattice in wrong ambient rank")
    K = kernel(hstack([M, L]))
    top = IntMatrix(K.data[:M.cols], M.cols, K.cols)
    return lattice_basis(top)


def unimodular_inverse(M: IntMatrix) -> IntMatrix:
    s = smith(M)
    if s.D != IntMatrix.identity(M.rows) or M.rows != M.cols:
        raise ValueError("matrix is not unimodular")
    return s.V @ s.U


class FgAbGroup:
    """Finitely generated abelian group, presented as Z^ngens / row lattice.

    The rows of `relations` are relators on the chosen generators.  The
    group builds one `LinearSolver` on its relation columns when first
    asked, and its invariants read that solver's Smith diagonal.  Equality
    and hashing are by value.

    >>> FgAbGroup(2, IntMatrix([[2, 0], [0, 3]])).iso_invariants()
    (0, (6,))
    """

    __slots__ = ("ngens", "relations", "_invariants", "_solver")

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
        self._solver = None

    @classmethod
    def free(cls, n: int) -> "FgAbGroup":
        return cls(n)

    @classmethod
    def zero(cls) -> "FgAbGroup":
        return cls(0)

    @classmethod
    def cyclic(cls, m: int) -> "FgAbGroup":
        return cls(1, IntMatrix([[m]]))

    def relation_cols(self) -> IntMatrix:
        return self.relations.transpose()

    def relation_solver(self) -> LinearSolver:
        """Solver for relation_cols() x = v: v lies in the relation lattice
        exactly when it has a solution."""
        if self._solver is None:
            self._solver = LinearSolver(self.relation_cols())
        return self._solver

    def iso_invariants(self) -> tuple:
        """(free rank, torsion chain t_1 | t_2 | ... with each t_i >= 2).

        The relation matrix and its transpose have the same Smith
        diagonal, so the relation solver's diagonal serves."""
        if self._invariants is None:
            nonzero = [d for d in self.relation_solver().diagonal if d != 0]
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
        """Index of the first source relation not preserved, or None."""
        if self.source.relations.rows == 0:
            return None
        solver = self.target.relation_solver()
        for i, rel in enumerate(self.source.relations.data):
            if solver.solve(self.matrix.apply(rel)) is None:
                return i
        return None

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

    def equal_to(self, other: "GroupHom") -> bool:
        """Equality as maps of presented groups (columns agree mod relations)."""
        if self.source != other.source or self.target != other.target:
            return False
        diff = self.matrix - other.matrix
        if diff.is_zero():
            return True
        solver = self.target.relation_solver()
        return all(solver.solve(diff.col(j)) is not None for j in range(diff.cols))

    def is_zero(self) -> bool:
        return self.equal_to(GroupHom.zero_map(self.source, self.target))

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
    P = preimage_lattice(f.matrix, f.target.relation_cols())
    solver = LinearSolver(P)
    rel_rows = []
    for rel in f.source.relations.data:
        x = solver.solve(rel)
        if x is None:  # impossible for a well-defined hom
            raise RuntimeError("source relation escaped the kernel lattice")
        rel_rows.append(list(x))
    group = FgAbGroup(P.cols, IntMatrix(rel_rows, len(rel_rows), P.cols))
    return group, GroupHom(group, f.source, P)


def hom_image(f: GroupHom) -> tuple:
    """(image group, inclusion hom into the target)."""
    f.require_well_defined()
    rel_cols = f.target.relation_cols()
    Q = lattice_basis(hstack([f.matrix, rel_cols]))
    solver = LinearSolver(Q)
    rel_rows = []
    for j in range(rel_cols.cols):
        x = solver.solve(rel_cols.col(j))
        if x is None:
            raise RuntimeError("target relation escaped the image lattice")
        rel_rows.append(list(x))
    group = FgAbGroup(Q.cols, IntMatrix(rel_rows, len(rel_rows), Q.cols))
    return group, GroupHom(group, f.target, Q)


def hom_cokernel(f: GroupHom) -> tuple:
    """(cokernel group, projection hom from the target)."""
    f.require_well_defined()
    rels = vstack([f.target.relations, f.matrix.transpose()])
    group = FgAbGroup(f.target.ngens, rels)
    return group, GroupHom(f.target, group, IntMatrix.identity(f.target.ngens))


class ExactnessResult:
    """Outcome of an exactness test, with a discrepancy witness on failure.

    witness is a vector in the middle group's generator coordinates;
    reason says on which side the inclusion failed.
    """

    __slots__ = ("exact", "witness", "reason")

    def __init__(self, exact: bool, witness=None, reason: str = ""):
        self.exact = exact
        self.witness = witness
        self.reason = reason

    def __bool__(self):
        return self.exact

    def __repr__(self):
        if self.exact:
            return "ExactnessResult(exact)"
        return f"ExactnessResult(failed: {self.reason}, witness={self.witness})"


def _image_lattice(f: GroupHom) -> IntMatrix:
    return lattice_basis(hstack([f.matrix, f.target.relation_cols()]))


def _kernel_lattice(g: GroupHom) -> IntMatrix:
    return preimage_lattice(g.matrix, g.target.relation_cols())


def composite_is_zero(f: GroupHom, g: GroupHom) -> Optional[tuple]:
    """None when g∘f = 0; otherwise a source generator's nonzero image."""
    if f.target != g.source:
        raise ValueError("maps do not compose")
    comp = g.matrix @ f.matrix
    solver = g.target.relation_solver()
    for j in range(comp.cols):
        c = comp.col(j)
        if any(c) and solver.solve(c) is None:
            return c
    return None


def kernel_in_image(f: GroupHom, g: GroupHom) -> Optional[tuple]:
    """None when ker g is contained in im f; otherwise an unhit kernel generator."""
    if f.target != g.source:
        raise ValueError("maps do not compose")
    img = _image_lattice(f)
    ker = _kernel_lattice(g)
    solver = LinearSolver(img)
    for j in range(ker.cols):
        c = ker.col(j)
        if solver.solve(c) is None:
            return c
    return None


def is_exact_at(f: GroupHom, g: GroupHom) -> ExactnessResult:
    """Exactness of  f.source -> middle -> g.target  at the middle group."""
    if f.target != g.source:
        raise ValueError("maps do not compose at a common middle group")
    f.require_well_defined()
    g.require_well_defined()
    w = composite_is_zero(f, g)
    if w is not None:
        return ExactnessResult(False, w, "composite is not zero")
    w = kernel_in_image(f, g)
    if w is not None:
        return ExactnessResult(False, w, "kernel class not in the image")
    return ExactnessResult(True)


def is_isomorphism(f: GroupHom) -> bool:
    if f.well_defined_violation() is not None:
        return False
    ker, _ = hom_kernel(f)
    if not ker.is_trivial():
        return False
    coker, _ = hom_cokernel(f)
    return coker.is_trivial()


def present_subquotient(ambient_dim: int, numerator: IntMatrix,
                        denominator: IntMatrix) -> tuple:
    """Present N/D for column lattices D <= N inside Z^ambient_dim.

    Returns (group, basis) where basis columns are lattice representatives
    of the group's generators.
    """
    if numerator.rows != ambient_dim or denominator.rows != ambient_dim:
        raise ValueError("lattice generators in the wrong ambient rank")
    P = lattice_basis(numerator)
    solver = LinearSolver(P)
    rel_rows = []
    for j in range(denominator.cols):
        x = solver.solve(denominator.col(j))
        if x is None:
            raise ValueError("denominator lattice is not inside the numerator")
        rel_rows.append(list(x))
    return FgAbGroup(P.cols, IntMatrix(rel_rows, len(rel_rows), P.cols)), P


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
    coordinates; for finite groups `elements()` enumerates the carrier in
    lexicographic order.
    """

    def __init__(self, group: FgAbGroup):
        self.group = group
        B = group.relation_cols()  # ngens x r
        s = smith(B)
        self.U = s.U
        self.Uinv = unimodular_inverse(s.U)
        diag = []
        for i in range(group.ngens):
            d = s.D.data[i][i] if i < B.cols else 0
            diag.append(d)
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

    def elements(self) -> list:
        if self.free_rank:
            raise ValueError("infinite carrier cannot be enumerated")
        out = [()]
        for t in self.torsion:
            out = [e + (v,) for e in out for v in range(t)]
        return out
