"""Independent oracles used to freeze expected values.

Everything here is deliberately written against different mathematics
than the package (minor gcds instead of elimination, Fraction Gaussian
elimination instead of integer Smith form) so that agreement is evidence,
not tautology.

The dense_* functions and reference_smith are the package's earlier dense
kernels, which visit every entry: the sparse-aware kernels that replaced
them must agree with them exactly, and `smith` wherever no pivot other
than 1 leaves a remainder (see reference_smith).  reference_hnf_rows is
the earlier dense row Hermite form, and reference_kernel and
reference_preimage_lattice the earlier Smith-based kernel and preimage,
put in canonical form by reference_hnf_rows: the sparse Hermite
elimination must give the same canonical bases.  reference_eval_sequent
is the package's earlier sequent evaluator, which walks the formula tree once
per assignment on carrier tuples: the compiled evaluator must agree with
it exactly.  reference_finite_structure is the earlier export, which maps
every carrier element on its own and hashes a coordinate tuple for every
negation and sum: the tables built from generator images and mixed-radix
positions must equal it.
reference_pages is the package's earlier spectral-sequence loop, which
builds every Z lattice, page entry and niveau subquotient anew for each
(r, p, q): the content-keyed SpectralSequence must agree with it exactly.
reference_commutant_lattice is end_algebra's earlier solution lattice,
with one auxiliary unknown per generator of each condition's relation
lattice: the relative kernel that replaced it must give the same
canonical basis.
reference_exactness_axioms and reference_mv_axioms are the earlier
hand-written sequents of the long exact segments of a triple and of a
distinguished square: the sequents generated from the segments' map
matrices must carry the same names and tags and hold in exactly the
same finite structures.
"""

import itertools
from fractions import Fraction
from itertools import combinations
from math import gcd
from types import SimpleNamespace

from homlab.fga import (
    CanonicalForm,
    GroupHom,
    IntMatrix,
    QuotientExpresser,
    hstack,
    kernel,
    lattice_basis,
    preimage_lattice,
    present_subquotient,
)
from homlab.logic import (
    Add,
    AxiomInstance,
    And,
    App,
    EvalResult,
    Eq,
    Exists,
    Neg,
    Sequent,
    Top,
    Var,
    Zero,
    sort_name,
    symbol_hom,
)
from homlab.model import relative_chain_complex
from homlab.simp import SimpPair, SimplicialComplex


def modulus_columns(m, dim):
    """Columns generating m*Z^dim; no columns at all for m = 0 (integers)."""
    if m == 0:
        return IntMatrix.zeros(dim, 0)
    return IntMatrix.identity(dim).scaled(m)


def minor_gcd_invariants(rows):
    """Invariant factors of an integer matrix via gcds of k x k minors.

    d_1 * ... * d_k equals the gcd of all k x k minors; exponential in the
    matrix size, so keep inputs small.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0

    def det(sub):
        k = len(sub)
        if k == 0:
            return 1
        if k == 1:
            return sub[0][0]
        total = 0
        for j in range(k):
            sign = -1 if j % 2 else 1
            minor = [r[:j] + r[j + 1:] for r in sub[1:]]
            total += sign * sub[0][j] * det(minor)
        return total

    prev = 1
    invariants = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for ris in combinations(range(m), k):
            for cis in combinations(range(n), k):
                g = gcd(g, det([[rows[i][j] for j in cis] for i in ris]))
        if g == 0:
            break
        invariants.append(g // prev)
        prev = g
    return invariants


def frac_rank(rows):
    """Rank over the rationals by plain Gaussian elimination."""
    mat = [[Fraction(v) for v in row] for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(m):
            if i != r and mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == m:
            break
    return r


def frac_nullity(rows, ncols):
    if not rows:
        return ncols
    return ncols - frac_rank(rows)


def quotient_invariants(ngens, relation_rows):
    """(rank, torsion) of Z^ngens modulo the rows, via the minor oracle."""
    if not relation_rows:
        return ngens, []
    inv = minor_gcd_invariants(relation_rows)
    return ngens - len(inv), [d for d in inv if d >= 2]


def reference_smith(A):
    """(U, D, V, remainder) of the Smith form by the package's earlier
    dense loop, which runs every row and column operation on whole lists.

    `remainder` says whether some pivot other than 1 ever left a
    remainder, in its column, in its row or in the rest of the block.
    Until that happens `smith` runs the same operations; where it never
    does, `smith` must give the same three matrices, entry for entry.
    Elsewhere `smith` puts the block in Hermite form first, and only D,
    which is unique, must be the same."""
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
    remainder = False
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
                        dirty = remainder = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    col_sub(j, t, D[t][j] // p)
                    if D[t][j]:
                        col_swap(t, j)
                        dirty = remainder = True
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
            remainder = True
        t += 1
    return IntMatrix(U, m, m), IntMatrix(D, m, n), IntMatrix(V, n, n), remainder


def reference_hnf_rows(A):
    """Canonical row Hermite form by the package's earlier dense loop,
    which rebuilds whole rows; only the nonzero rows."""
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


def reference_lattice_basis(G):
    """Canonical column basis of the lattice of G, by reference_hnf_rows."""
    return reference_hnf_rows(G.transpose()).transpose()


def reference_kernel(A):
    """A basis of the integer kernel of A, not canonical: the columns of
    the dense Smith form's V that face a zero diagonal entry."""
    _, D, V, _ = reference_smith(A)
    cols = [V.col(j) for j in range(A.cols)
            if (D.data[j][j] if j < A.rows else 0) == 0]
    return IntMatrix.from_cols(cols, A.cols)


def reference_preimage_lattice(M, L):
    """Canonical basis of {x : M x in the lattice of L}: the first M.cols
    coordinates of the Smith-based kernel of [M | L], by reference_hnf_rows."""
    K = reference_kernel(hstack([M, L]))
    return reference_lattice_basis(IntMatrix(K.data[:M.cols], M.cols, K.cols))


def reference_commutant_lattice(T, F):
    """Canonical basis of the endomorphism tuples of T over F that are
    well defined and commute with F's edges, flattened node by node and
    row by row: the kernel of one system with an auxiliary unknown per
    relation-lattice generator of each condition, projected to the
    matrix entries."""
    nodes = F.nodes
    sizes = tuple(T.groups[d].ngens for d in nodes)
    offsets = []
    total = 0
    for n in sizes:
        offsets.append(total)
        total += n * n
    index = {d: i for i, d in enumerate(nodes)}
    lat = [lattice_basis(T.groups[d].relation_cols()).as_columns()
           for d in nodes]

    def evar(di, k, i):
        return offsets[di] + k * sizes[di] + i

    rows = []
    aux = total
    # e_d maps each relation into the relation lattice: e_d b = B_d y
    for di, d in enumerate(nodes):
        n = sizes[di]
        B = lat[di]
        for c in range(B.cols):
            b = B.col(c)
            cols = [aux + j for j in range(B.cols)]
            aux += B.cols
            for k in range(n):
                row = {evar(di, k, i): b[i] for i in range(n) if b[i]}
                for j, a in enumerate(cols):
                    if B.data[k][j]:
                        row[a] = row.get(a, 0) - B.data[k][j]
                rows.append(row)
    # commutation with every edge, modulo the target's relations
    for name in F.edges:
        s, t, hom = T.homs[name]
        si, ti = index[s], index[t]
        M = hom.matrix
        B = lat[ti]
        for j in range(sizes[si]):
            cols = [aux + l for l in range(B.cols)]
            aux += B.cols
            for k in range(sizes[ti]):
                row = {}
                for i in range(sizes[ti]):
                    if M.data[i][j]:
                        v = evar(ti, k, i)
                        row[v] = row.get(v, 0) + M.data[i][j]
                for i in range(sizes[si]):
                    if M.data[k][i]:
                        v = evar(si, i, j)
                        row[v] = row.get(v, 0) - M.data[k][i]
                for l, a in enumerate(cols):
                    if B.data[k][l]:
                        row[a] = row.get(a, 0) - B.data[k][l]
                rows.append(row)
    A = IntMatrix([[r.get(c, 0) for c in range(aux)] for r in rows],
                  len(rows), aux)
    K = kernel(A).as_columns()
    return lattice_basis(IntMatrix(K.data[:total], total, K.cols)).as_columns()


def dense_apply(A, vec):
    """A times vec, summing over every column."""
    if len(vec) != A.cols:
        raise ValueError(f"vector of length {len(vec)} against {A.cols} columns")
    return tuple(sum(r[j] * vec[j] for j in range(A.cols)) for r in A.data)


def dense_matmul(A, B):
    """A @ B as dot products of the rows of A with the columns of B."""
    if A.cols != B.rows:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} @ {B.rows}x{B.cols}")
    bt = B.transpose().data
    return IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in bt]
                      for row in A.data], A.rows, B.cols)


def dense_solve(A, b):
    """One integer solution of A x = b through the dense Smith form, or None."""
    if len(b) != A.rows:
        raise ValueError("right-hand side of wrong length")
    U, D, V, _ = reference_smith(A)
    c = dense_apply(U, b)
    y = [0] * A.cols
    for i in range(A.rows):
        d = D.data[i][i] if i < A.cols else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    return dense_apply(V, y)


def _eval_term(st, term, env):
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Zero):
        return (0,) * len(st.moduli[term.sort]), term.sort
    if isinstance(term, Add):
        va, sa = _eval_term(st, term.left, env)
        vb, sb = _eval_term(st, term.right, env)
        return tuple((x + y) % m for x, y, m in zip(va, vb, st.moduli[sa])), sa
    if isinstance(term, Neg):
        v, s = _eval_term(st, term.arg, env)
        return tuple((-x) % m for x, m in zip(v, st.moduli[s])), s
    if isinstance(term, App):
        v, _ = _eval_term(st, term.arg, env)
        return st.tables[term.func][v], st.func_sorts[term.func][1]
    raise TypeError(f"not a term: {term!r}")


def _eval_formula(st, formula, env):
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Eq):
        return _eval_term(st, formula.left, env)[0] == \
            _eval_term(st, formula.right, env)[0]
    if isinstance(formula, And):
        return _eval_formula(st, formula.left, env) and \
            _eval_formula(st, formula.right, env)
    if isinstance(formula, Exists):
        for e in st.carriers[formula.sort]:
            inner = dict(env)
            inner[formula.var] = (e, formula.sort)
            if _eval_formula(st, formula.body, inner):
                return True
        return False
    raise TypeError(f"not a formula: {formula!r}")


def reference_eval_sequent(st, seq):
    """Exhaustive check; on failure the first counterexample in carrier
    order, as {variable: element}."""
    names = [v for v, _ in seq.context]
    spaces = [st.carriers[s] for _, s in seq.context]
    for values in itertools.product(*spaces):
        env = {v: (e, s) for (v, s), e in zip(seq.context, values)}
        if not _eval_formula(st, seq.antecedent, env):
            continue
        if not _eval_formula(st, seq.consequent, env):
            return EvalResult(False, dict(zip(names, values)))
    return EvalResult(True)


def reference_finite_structure(model, sig):
    """carriers, tables, negation and sums (every sort's sum table) of the
    exported finite structure, one element at a time: each carrier in
    lexicographic order, each table entry as lift, apply, coords."""
    carriers, forms = {}, {}
    for name, (key, n) in sorted(sig.sorts.items()):
        cf = forms[name] = CanonicalForm(model.group(key, n))
        carrier = [()]
        for t in cf.torsion:
            carrier = [e + (v,) for e in carrier for v in range(t)]
        carriers[name] = carrier
    negation, sums = {}, {}
    for name, carrier in carriers.items():
        moduli = forms[name].torsion
        index = {e: i for i, e in enumerate(carrier)}
        negation[name] = [index[tuple((-x) % m for x, m in zip(e, moduli))]
                          for e in carrier]
        sums[name] = [[index[tuple((x + y) % m for x, y, m in zip(a, b, moduli))]
                       for b in carrier] for a in carrier]
    tables = {}
    for fname, info in sorted(sig.funcs.items()):
        matrix = symbol_hom(model, info).matrix
        src, tgt = forms[info.source], forms[info.target]
        tables[fname] = {e: tgt.coords(matrix.apply(src.lift(e)))
                         for e in carriers[info.source]}
    return SimpleNamespace(carriers=carriers, tables=tables,
                           negation=negation, sums=sums)


def reference_pages(filtration, modulus=0):
    """Pages, differentials and niveau data of a filtered complex.

    Returns (pages, diffs, homology, subgroup, graded): pages[r][(p, q)] is
    (relations, reps) of E^r_{p,q}, diffs[r][(p, q)] the matrix of d^r out
    of (p, q), and the last three are the invariants of NiveauData.
    """
    base = filtration.base
    top = max(base.dim(), 0)
    d_len = filtration.length()
    chains, bases = relative_chain_complex(
        SimpPair(base, SimplicialComplex.empty()), modulus, -1, top + 1)

    def dim(n):
        return len(bases.get(n, []))

    def lattice(p, n):
        step = filtration.step(p).simplices
        cols = []
        for i, s in enumerate(bases.get(n, [])):
            if s in step:
                col = [0] * dim(n)
                col[i] = 1
                cols.append(col)
        return hstack([IntMatrix.from_cols(cols, dim(n)),
                       modulus_columns(modulus, dim(n))])

    def z(r, p, q):
        n = p + q
        if n < -1 or n > top + 1:
            return IntMatrix.zeros(0, 0)
        if r <= 0:
            return lattice(p, n)
        L = lattice(p, n)
        return L @ preimage_lattice(chains.differential(n).matrix @ L,
                                    lattice_basis(lattice(p - r, n - 1))
                                    ).as_columns()

    grid = sorted((p, n - p) for p in range(d_len + 1)
                  for n in range(min(p, top) + 1))
    pages, diffs = {}, {}
    for r in range(1, d_len + 2):
        entries = {}
        for (p, q) in grid:
            n = p + q
            den = hstack([chains.differential(n + 1).matrix
                          @ z(r - 1, p + r - 1, q - r + 2),
                          z(r - 1, p - 1, q + 1)])
            group, reps = present_subquotient(dim(n), lattice_basis(z(r, p, q)),
                                              den)
            entries[(p, q)] = (group, reps, QuotientExpresser(reps, den))
        pages[r] = {pq: (g.relations, reps)
                    for pq, (g, reps, _) in entries.items()}
        diffs[r] = {}
        for (p, q) in grid:
            tgt = (p - r, q + r - 1)
            if tgt not in entries:
                continue
            src_g, src_reps, _ = entries[(p, q)]
            tgt_g, _, tgt_x = entries[tgt]
            d = chains.differential(p + q).matrix
            cols = [list(tgt_x.express(d.apply(src_reps.col(j))))
                    for j in range(src_reps.cols)]
            hom = GroupHom(src_g, tgt_g, IntMatrix.from_cols(cols, tgt_g.ngens))
            hom.require_well_defined()
            diffs[r][(p, q)] = hom.matrix

    homology, subgroup, graded = {}, {}, {}
    for n in range(top + 1):
        den = hstack([chains.differential(n + 1).matrix,
                      chains.group(n).relation_cols()])
        d_n = chains.differential(n)
        cycles = preimage_lattice(d_n.matrix,
                                  lattice_basis(d_n.target.relation_cols()))
        homology[n] = present_subquotient(dim(n), cycles, den)[0].iso_invariants()
        prev = den
        for p in range(d_len + 1):
            zp = hstack([z(p + 1, p, n - p), den])
            subgroup[(p, n)] = present_subquotient(
                dim(n), lattice_basis(zp), den)[0].iso_invariants()
            graded[(p, n)] = present_subquotient(
                dim(n), lattice_basis(zp), prev)[0].iso_invariants()
            prev = zp
    return pages, diffs, homology, subgroup, graded


def reference_exactness_axioms(sig, diagram):
    out = []
    lo, hi = sig.window
    for tname in sorted(diagram.triples):
        t = diagram.triples[tname]
        for n in range(lo, hi + 1):
            syz = sort_name(t.nyz, n)
            sxz = sort_name(t.nxz, n)
            sxy = sort_name(t.nxy, n)
            bt, bp = f"{t.bt}@{n}", f"{t.bp}@{n}"

            def emit(which, ctx, ante, cons):
                out.append(AxiomInstance(
                    f"exact/{tname}/{n}/{which}",
                    ("exactness", tname, n, which),
                    Sequent(ctx, ante, cons)))

            emit("comp_bt_bp", (("x", syz),), Top(),
                 Eq(App(bp, App(bt, Var("x"))), Zero(sxy)))
            emit("onto_bt", (("y", sxz),),
                 Eq(App(bp, Var("y")), Zero(sxy)),
                 Exists("x", syz, Eq(App(bt, Var("x")), Var("y"))))
            if n - 1 < lo:
                continue
            con = f"{tname}@{n}"
            syz1 = sort_name(t.nyz, n - 1)
            sxz1 = sort_name(t.nxz, n - 1)
            bt1 = f"{t.bt}@{n-1}"
            emit("comp_bp_bd", (("x", sxz),), Top(),
                 Eq(App(con, App(bp, Var("x"))), Zero(syz1)))
            emit("comp_bd_bt", (("x", sxy),), Top(),
                 Eq(App(bt1, App(con, Var("x"))), Zero(sxz1)))
            emit("onto_bp", (("y", sxy),),
                 Eq(App(con, Var("y")), Zero(syz1)),
                 Exists("x", sxz, Eq(App(bp, Var("x")), Var("y"))))
            emit("onto_bd", (("y", syz1),),
                 Eq(App(bt1, Var("y")), Zero(sxz1)),
                 Exists("x", sxy, Eq(App(con, Var("x")), Var("y"))))
    return out


def reference_mv_axioms(sig, diagram):
    out = []
    lo, hi = sig.window
    for qname in sorted(diagram.squares):
        q = diagram.squares[qname]
        for n in range(lo, hi + 1):
            sb = sort_name((q.b, "0"), n)
            su = sort_name((q.u, "0"), n)
            sv = sort_name((q.v, "0"), n)
            sd = sort_name((q.d, "0"), n)
            ia, ic = f"{q.ia}@{n}", f"{q.ic}@{n}"
            ja, jc = f"{q.ja}@{n}", f"{q.jc}@{n}"

            def emit(which, ctx, ante, cons):
                out.append(AxiomInstance(
                    f"mv/{qname}/{n}/{which}",
                    ("mv", qname, n, which),
                    Sequent(ctx, ante, cons)))

            # pieces map in by (restrict, minus restrict), out by the sum
            emit("comp_pieces", (("b", sb),), Top(),
                 Eq(Add(App(ja, App(ia, Var("b"))),
                        Neg(App(jc, App(ic, Var("b"))))), Zero(sd)))
            emit("onto_pieces", (("u", su), ("v", sv)),
                 Eq(Add(App(ja, Var("u")), App(jc, Var("v"))), Zero(sd)),
                 Exists("b", sb, And(Eq(App(ia, Var("b")), Var("u")),
                                     Eq(Add(App(ic, Var("b")), Var("v")),
                                        Zero(sv)))))
            if n - 1 < lo:
                continue
            mv = f"{qname}@{n}"
            sb1 = sort_name((q.b, "0"), n - 1)
            su1 = sort_name((q.u, "0"), n - 1)
            sv1 = sort_name((q.v, "0"), n - 1)
            ia1, ic1 = f"{q.ia}@{n-1}", f"{q.ic}@{n-1}"
            emit("comp_union", (("u", su), ("v", sv)), Top(),
                 Eq(App(mv, Add(App(ja, Var("u")), App(jc, Var("v")))),
                    Zero(sb1)))
            emit("comp_inter", (("z", sd),), Top(),
                 And(Eq(App(ia1, App(mv, Var("z"))), Zero(su1)),
                     Eq(App(ic1, App(mv, Var("z"))), Zero(sv1))))
            emit("onto_union", (("z", sd),),
                 Eq(App(mv, Var("z")), Zero(sb1)),
                 Exists("u", su, Exists("v", sv,
                        Eq(Add(App(ja, Var("u")), App(jc, Var("v"))),
                           Var("z")))))
            emit("onto_inter", (("b", sb1),),
                 And(Eq(App(ia1, Var("b")), Zero(su1)),
                     Eq(App(ic1, Var("b")), Zero(sv1))),
                 Exists("z", sd, Eq(App(mv, Var("z")), Var("b"))))
    return out
