import doctest
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import homlab.fga

from homlab.fga import (
    CanonicalForm,
    FgAbGroup,
    GroupHom,
    IllDefinedHomError,
    IntMatrix,
    LinearSolver,
    QuotientExpresser,
    block_diag,
    composite_is_zero,
    direct_sum,
    hnf_rows,
    hom_cokernel,
    hom_image,
    hom_kernel,
    is_exact_at,
    is_isomorphism,
    hstack,
    kernel,
    lattice_basis,
    preimage_lattice,
    present_subquotient,
    same_lattice,
    smith,
    solve,
    unimodular_inverse,
    vstack,
)

from oracles import (
    dense_apply,
    dense_matmul,
    dense_solve,
    frac_nullity,
    minor_gcd_invariants,
    modulus_columns,
    quotient_invariants,
    reference_hnf_rows,
    reference_kernel,
    reference_lattice_basis,
    reference_preimage_lattice,
    reference_smith,
)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
                     rows, cols)


def sparse_vector(rng, length, density, bound=9):
    """Each entry nonzero with probability `density`, then uniform in
    [-bound, bound] without 0."""
    return [rng.choice([v for v in range(-bound, bound + 1) if v])
            if rng.random() < density else 0 for _ in range(length)]


def sparse_matrix(rng, rows, cols, density, bound=9):
    return IntMatrix([sparse_vector(rng, cols, density, bound) for _ in range(rows)],
                     rows, cols)


DENSITIES = (0.05, 0.3, 1.0)
EMPTY_SHAPES = [(0, 0), (0, 4), (4, 0)]


def shapes(rng, count=15, top=9):
    return EMPTY_SHAPES + [(rng.randint(1, top), rng.randint(1, top)) for _ in range(count)]


def check_smith_contract(A, s):
    assert s.U @ A @ s.V == s.D
    assert abs(s.U.det()) == 1
    assert abs(s.V.det()) == 1
    diag = s.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a != 0 and b % a == 0
    for i in range(s.D.rows):
        for j in range(s.D.cols):
            if i != j:
                assert s.D.data[i][j] == 0


def test_smith_documented_example():
    # gcd of entries is 2 and |det| = 8, so the invariant chain is (2, 4)
    A = IntMatrix([[2, 4], [6, 8]])
    s = smith(A)
    check_smith_contract(A, s)
    assert s.diagonal() == (2, 4)


def test_smith_zero_matrix():
    A = IntMatrix.zeros(2, 3)
    s = smith(A)
    assert s.D == IntMatrix.zeros(2, 3)
    assert s.U == IntMatrix.identity(2)
    assert s.V == IntMatrix.identity(3)


def test_smith_identity():
    A = IntMatrix.identity(3)
    s = smith(A)
    assert s.D == IntMatrix.identity(3)
    check_smith_contract(A, s)


def test_smith_empty_shapes():
    for r, c in [(0, 0), (0, 3), (3, 0)]:
        A = IntMatrix.zeros(r, c)
        s = smith(A)
        check_smith_contract(A, s)
        assert s.D == IntMatrix.zeros(r, c)


def test_smith_random_against_minor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -6, 6)
        s = smith(A)
        check_smith_contract(A, s)
        expected = minor_gcd_invariants([list(r) for r in A.data])
        got = [d for d in s.diagonal() if d != 0]
        assert got == expected


def test_smith_random_contract_medium():
    rng = random.Random(11)
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        check_smith_contract(A, smith(A))


def test_kernel_and_solve():
    rng = random.Random(23)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, m, n, -5, 5)
        K = kernel(A).as_columns()
        assert (A @ K).is_zero()
        assert K.cols == frac_nullity([list(r) for r in A.data], n)
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        b = A.apply(x0)
        x = solve(A, b)
        assert x is not None
        assert A.apply(x) == tuple(b)
    assert solve(IntMatrix([[2]]), [1]) is None


def test_apply_and_matmul_match_dense_reference():
    rng = random.Random(61)
    for density in DENSITIES:
        for m, n in shapes(rng):
            A = sparse_matrix(rng, m, n, density)
            for vec in ([0] * n, sparse_vector(rng, n, density)):
                assert A.apply(vec) == dense_apply(A, vec)
            for k in (0, rng.randint(1, 9)):
                B = sparse_matrix(rng, n, k, density)
                assert A @ B == dense_matmul(A, B)
                assert IntMatrix.zeros(k, m) @ A == dense_matmul(IntMatrix.zeros(k, m), A)
    with pytest.raises(ValueError):
        IntMatrix.identity(2).apply([1])
    with pytest.raises(ValueError):
        IntMatrix.identity(2) @ IntMatrix.identity(3)


def test_solvers_are_built_once_and_on_demand(monkeypatch):
    import homlab.fga as fga
    calls, forms = [], []
    real_smith, real_hermite = fga.smith, fga._hermite
    monkeypatch.setattr(fga, "smith", lambda A: calls.append(A) or real_smith(A))
    monkeypatch.setattr(fga, "_hermite", lambda rows, lower=0: forms.append(
        [dict(r) for r in rows]) or real_hermite(forms[-1], lower))
    src = FgAbGroup(1, IntMatrix([[4]]))
    tgt = FgAbGroup(2, IntMatrix([[2, 0], [0, 6]]))
    f = GroupHom(src, tgt, IntMatrix([[1], [3]]))
    assert f.well_defined_violation() is None
    assert not f.is_zero()
    assert tgt.iso_invariants() == (0, (2, 6))
    # one Hermite form of the target's relations serves all three, and no
    # Smith form runs
    assert forms == [[{0: 2}, {1: 6}]]
    assert tgt.relation_lattice() is tgt.relation_lattice()
    assert calls == []
    # an expresser builds its solver on the first express, and only then
    x = QuotientExpresser(IntMatrix.identity(2), tgt.relation_cols())
    assert calls == []
    assert x.express((3, 7)) is not None and x.express((1, 0)) is not None
    assert len(calls) == 1


def test_solve_matches_dense_reference():
    rng = random.Random(67)
    outcomes = set()
    for density in DENSITIES:
        for m, n in shapes(rng):
            A = sparse_matrix(rng, m, n, density, 5)
            solver = LinearSolver(A)
            rhs = [[0] * m, A.apply(sparse_vector(rng, n, density, 4)),
                   sparse_vector(rng, m, density, 4)]
            for b in rhs:
                want = dense_solve(A, b)
                outcomes.add(want is None)
                for x in (solver.solve(b), solve(A, b)):
                    assert (x is None) == (want is None)
                    assert x is None or A.apply(x) == tuple(b)
    assert outcomes == {True, False}
    with pytest.raises(ValueError):
        LinearSolver(IntMatrix.identity(2)).solve([1])


# sha256 of (A, U, D, V) over the matrices of smith_digest(), recorded when
# the Hermite step on the trailing block came in: any change to the pivot
# order, to that step or to the transforms changes it.
SMITH_DIGEST = "b00b2ef6c1e4cc294de7527f8f984fb99e976fcdc9e097fca80a68dbeb151d58"


def smith_digest():
    rng = random.Random(1602)
    h = hashlib.sha256()
    for density in DENSITIES:
        for bound in (1, 9):
            for _ in range(10):
                A = sparse_matrix(rng, rng.randint(0, 12), rng.randint(0, 12), density, bound)
                s = smith(A)
                h.update(repr((A, s.U, s.D, s.V)).encode())
    return h.hexdigest()


def test_smith_output_pinned():
    assert smith_digest() == SMITH_DIGEST


def test_smith_transform_growth_is_bounded():
    """On dense n x n matrices with entries in [-9, 9], drawn as the ladder's
    smith/dense rungs draw them, no entry of U or V is longer than
    4 log2(H) + 64 bits, where H, the product of the row norms, is
    Hadamard's bound on |det A|.  Without the Hermite step, n = 28 reached
    1 027 624 bits against a bound of 604."""
    for n in range(16, 41):
        A = random_matrix(random.Random(n), n, n)
        s = smith(A)
        assert s.U @ A @ s.V == s.D
        log_h = sum(math.log2(sum(e * e for e in row)) for row in A.data) / 2
        bits = max(abs(e).bit_length() for M in (s.U, s.V) for row in M.data for e in row)
        assert bits <= 4 * log_h + 64, n


def test_hnf_canonical_for_lattice():
    rng = random.Random(5)
    for _ in range(25):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        G = random_matrix(rng, n, k, -5, 5)
        B = lattice_basis(G).as_columns()
        assert same_lattice(G, B)
        # shuffling and recombining generators must not move the basis
        cols = G.columns()
        rng.shuffle(cols)
        if len(cols) >= 2:
            cols[0] = tuple(a + 3 * b for a, b in zip(cols[0], cols[1]))
        G2 = IntMatrix.from_cols(cols, n)
        assert lattice_basis(G2).as_columns() == B or not same_lattice(G, G2)


def test_unimodular_inverse():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 4)
        M = IntMatrix.identity(n)
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            q = rng.randint(-3, 3)
            add = [[(1 if a == b else 0) + (q if (a, b) == (i, j) else 0)
                    for b in range(n)] for a in range(n)]
            M = M @ IntMatrix(add)
        Minv = unimodular_inverse(M)
        assert M @ Minv == IntMatrix.identity(n)
        assert Minv @ M == IntMatrix.identity(n)
    assert unimodular_inverse(IntMatrix.zeros(0, 0)) == IntMatrix.identity(0)
    for bad in ([[2]], [[1, 1], [1, 1]], [[0]], [[2, 1], [1, 2]]):
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse(IntMatrix(bad))
    with pytest.raises(ValueError, match="not unimodular"):
        unimodular_inverse(IntMatrix([[1, 0]]))
    with pytest.raises(ValueError, match="not unimodular"):
        unimodular_inverse(IntMatrix([[1], [0]]))


def test_unimodular_inverse_matches_smith_route():
    """The inverse is unique, so it equals V @ U from the Smith form of
    a unimodular matrix, here the U of a Smith form."""
    rng = random.Random(7)
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        A = IntMatrix([[rng.randint(-6, 6) if rng.random() < 0.6 else 0
                        for _ in range(c)] for _ in range(r)])
        U = smith(A).U
        s = smith(U)
        assert unimodular_inverse(U) == s.V @ s.U


def test_iso_invariants_examples():
    assert FgAbGroup(2, IntMatrix([[2, 0], [0, 3]])).iso_invariants() == (0, (6,))
    assert FgAbGroup(2).iso_invariants() == (2, ())
    assert FgAbGroup(0).iso_invariants() == (0, ())
    assert FgAbGroup.cyclic(1).is_trivial()
    assert FgAbGroup.cyclic(4).order() == 4
    assert FgAbGroup.free(1).order() is None


def test_iso_invariants_presentation_invariance():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        r = rng.randint(0, 4)
        R = random_matrix(rng, r, n, -4, 4)
        G = FgAbGroup(n, R)
        base = G.iso_invariants()
        assert base == tuple(quotient_invariants(n, [list(x) for x in R.data])[:1]) + \
            (tuple(quotient_invariants(n, [list(x) for x in R.data])[1]),)
        # redundant relations change nothing
        extra = [list(R.data[rng.randrange(r)]) for _ in range(2)] if r else []
        R2 = IntMatrix([list(x) for x in R.data] + extra, r + len(extra), n)
        assert FgAbGroup(n, R2).iso_invariants() == base
        # unimodular change of generating set changes nothing
        Q = IntMatrix.identity(n)
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            q = rng.randint(-2, 2)
            add = [[(1 if a == b else 0) + (q if (a, b) == (i, j) else 0)
                    for b in range(n)] for a in range(n)]
            Q = Q @ IntMatrix(add)
        assert FgAbGroup(n, R @ Q).iso_invariants() == base


def test_hom_well_definedness():
    z = FgAbGroup.free(1)
    z2 = FgAbGroup.cyclic(2)
    proj = GroupHom(z, z2, IntMatrix([[1]]))
    assert proj.well_defined_violation() is None
    bad = GroupHom(z2, z, IntMatrix([[1]]))
    assert bad.well_defined_violation() == 0
    with pytest.raises(IllDefinedHomError):
        bad.require_well_defined()


def test_hom_kernel_of_projection_onto_z2():
    # the kernel of Z -> Z/2 is 2Z: rank one, included by multiplication by 2
    z = FgAbGroup.free(1)
    z2 = FgAbGroup.cyclic(2)
    proj = GroupHom(z, z2, IntMatrix([[1]]))
    ker, incl = hom_kernel(proj)
    assert ker.iso_invariants() == (1, ())
    assert same_lattice(incl.matrix, IntMatrix([[2]]))
    assert incl.well_defined_violation() is None


def test_hom_cokernel_of_doubling():
    z = FgAbGroup.free(1)
    dbl = GroupHom(z, z, IntMatrix([[2]]))
    cok, proj = hom_cokernel(dbl)
    assert cok.iso_invariants() == (0, (2,))
    assert proj.well_defined_violation() is None
    assert composite_is_zero(dbl, proj) is None


def test_hom_image_of_doubling():
    z = FgAbGroup.free(1)
    dbl = GroupHom(z, z, IntMatrix([[2]]))
    img, incl = hom_image(dbl)
    assert img.iso_invariants() == (1, ())
    assert same_lattice(incl.matrix, IntMatrix([[2]]))


def test_exactness_documented_examples():
    z = FgAbGroup.free(1)
    z2 = FgAbGroup.cyclic(2)
    dbl = GroupHom(z, z, IntMatrix([[2]]))
    proj = GroupHom(z, z2, IntMatrix([[1]]))
    ident = GroupHom.identity(z)
    assert is_exact_at(dbl, proj).exact
    res = is_exact_at(dbl, ident)
    assert not res.exact
    assert res.reason == "composite is not zero"
    assert res.witness == (2,)


def random_diagonal_group(rng, maxgens=3):
    n = rng.randint(1, maxgens)
    diag = [rng.choice([0, 0, 2, 3, 4, 6]) for _ in range(n)]
    rows = [[diag[i] if j == i else 0 for j in range(n)] for i in range(n)
            if diag[i] != 0]
    return FgAbGroup(n, IntMatrix(rows, len(rows), n)), diag


def random_well_defined_hom(rng, src, src_diag, tgt, tgt_diag):
    # entry (j, i) must satisfy a_i * M_ji = 0 modulo b_j
    mat = []
    for j, b in enumerate(tgt_diag):
        row = []
        for i, a in enumerate(src_diag):
            if a == 0:
                row.append(rng.randint(-3, 3))
            elif b == 0:
                row.append(0)
            else:
                step = b // __import__("math").gcd(a, b)
                row.append(step * rng.randint(-2, 2))
        mat.append(row)
    return GroupHom(src, tgt, IntMatrix(mat, len(tgt_diag), len(src_diag)))


def test_kernel_image_cokernel_random_exactness():
    rng = random.Random(41)
    for _ in range(25):
        src, sd = random_diagonal_group(rng)
        tgt, td = random_diagonal_group(rng)
        f = random_well_defined_hom(rng, src, sd, tgt, td)
        assert f.well_defined_violation() is None
        ker, incl = hom_kernel(f)
        img, img_incl = hom_image(f)
        cok, proj = hom_cokernel(f)
        assert incl.well_defined_violation() is None
        assert img_incl.well_defined_violation() is None
        assert is_exact_at(incl, f).exact
        assert is_exact_at(f, proj).exact
        assert is_exact_at(img_incl, proj).exact
        # first isomorphism: source/kernel and image agree
        q, _ = hom_cokernel(incl)
        assert q.iso_invariants() == img.iso_invariants()


def test_direct_sum_invariants():
    g = direct_sum([FgAbGroup.cyclic(2), FgAbGroup.cyclic(3), FgAbGroup.free(1)])
    assert g.iso_invariants() == (1, (6,))


def test_present_subquotient():
    num = IntMatrix.identity(2)
    den = IntMatrix([[2, 0], [0, 3]])
    g, basis = present_subquotient(2, lattice_basis(num), den)
    assert g.iso_invariants() == (0, (6,))
    assert basis.cols == 2
    with pytest.raises(ValueError):
        present_subquotient(2, lattice_basis(IntMatrix([[2, 0], [0, 2]])),
                            IntMatrix([[1], [0]]))


def test_preimage_lattice():
    # {x in Z^2 : M x in 3Z^2} for M = [[1,0],[0,2]]
    M = IntMatrix([[1, 0], [0, 2]])
    L = IntMatrix.identity(2).scaled(3)
    P = preimage_lattice(M, lattice_basis(L)).as_columns()
    assert same_lattice(P, IntMatrix([[3, 0], [0, 3]]))


def test_canonical_form_enumeration():
    # messy presentation of Z/2 + Z/4
    g = FgAbGroup(3, IntMatrix([[2, 0, 4], [0, 4, 4], [2, 4, 8]]))
    assert g.iso_invariants() == (1, (2, 4)) or g.iso_invariants()[1] == (2, 4)
    cf = CanonicalForm(FgAbGroup(2, IntMatrix([[2, 2], [0, 4]])))
    assert cf.size() == 8
    elems = list(itertools.product(*map(range, cf.torsion)))
    assert len(elems) == 8
    assert len(set(elems)) == 8
    for e in elems:
        lifted = cf.lift(e)
        assert cf.coords(lifted) == e
    # group law in coordinates matches the lattice addition
    a, b = elems[3], elems[5]
    sa = cf.coords(tuple(x + y for x, y in zip(cf.lift(a), cf.lift(b))))
    assert sa == tuple((x + y) % t for x, y, t in zip(a, b, cf.torsion))


def test_is_isomorphism():
    z = FgAbGroup.free(1)
    assert is_isomorphism(GroupHom.identity(z))
    assert not is_isomorphism(GroupHom(z, z, IntMatrix([[2]])))
    z6 = FgAbGroup.cyclic(6)
    tw = GroupHom(z6, z6, IntMatrix([[5]]))
    assert is_isomorphism(tw)
    # Z/2 -> Z by [[1]] sends the relation 2 to 2, not a relation of Z
    assert not is_isomorphism(GroupHom(FgAbGroup.cyclic(2), z, IntMatrix([[1]])))


def test_nonzero_column():
    src, z, z2 = FgAbGroup.free(3), FgAbGroup.free(1), FgAbGroup.cyclic(2)
    cases = [
        (GroupHom.zero_map(src, z2), None),
        (GroupHom(src, z2, IntMatrix([[2, 0, -4]])), None),  # relations
        (GroupHom(src, z2, IntMatrix([[0, 1, 1]])), 1),
        (GroupHom(src, z2, IntMatrix([[2, 3, 0]])), 1),
        (GroupHom(src, z, IntMatrix([[0, 0, 2]])), 2),
    ]
    for f, want in cases:
        assert f.nonzero_column() == want
        assert f.is_zero() == (want is None)
        assert f.equal_to(GroupHom.zero_map(src, f.target)) == (want is None)
    f = GroupHom(src, z2, IntMatrix([[1, 0, 1]]))
    assert f.equal_to(GroupHom(src, z2, IntMatrix([[3, 2, -1]])))
    assert not f.equal_to(GroupHom(src, z2, IntMatrix([[1, 1, 1]])))
    assert GroupHom(FgAbGroup.zero(), z, IntMatrix.zeros(1, 0)) \
        .nonzero_column() is None


def test_equal_to_tests_the_column_differences(monkeypatch):
    # equal_to hands the sparse columns of f - g to first_nonzero, with no
    # dense difference built, and finds the column the dense test finds
    rng = random.Random(2101)
    src = FgAbGroup.free(4)
    targets = [FgAbGroup.free(2), FgAbGroup.cyclic(4),
               FgAbGroup(3, IntMatrix([[2, 0, 0], [0, 6, 0], [2, 6, 0]]))]
    first_nonzero = homlab.fga.first_nonzero
    found = []
    pairs = []
    for _ in range(60):
        tgt = rng.choice(targets)
        f = random_matrix(rng, tgt.ngens, src.ngens, -3, 3)
        rels = tgt.relations.data or [(0,) * tgt.ngens]
        # each column of g: that of f, plus a relation or anything
        gcols = [tuple(a + rng.choice((0, 1, -2)) * r
                       for a, r in zip(col, rng.choice(rels)))
                 if rng.random() < 0.7 else
                 tuple(rng.randint(-3, 3) for _ in col)
                 for col in f.columns()]
        g = IntMatrix(list(map(list, zip(*gcols))), tgt.ngens, src.ngens)
        want = GroupHom(src, tgt, f - g).nonzero_column()
        pairs.append((GroupHom(src, tgt, f), GroupHom(src, tgt, g), want))
    monkeypatch.setattr(homlab.fga, "first_nonzero", lambda cols, target: (
        found.append(first_nonzero(cols, target)) or found[-1]))
    monkeypatch.setattr(IntMatrix, "__sub__", None)
    monkeypatch.setattr(IntMatrix, "__add__", None)
    for f, g, want in pairs:
        found.clear()
        assert f.equal_to(g) == (want is None)
        assert found == [want]
    wants = [want for _, _, want in pairs]
    assert None in wants and len(set(wants)) > 2


def test_rank_helper():
    assert smith(IntMatrix([[2, 4], [6, 8]])).rank == 2
    assert smith(IntMatrix.zeros(3, 2)).rank == 0


def test_hnf_rows_shape():
    H = hnf_rows(IntMatrix([[0, 0], [4, 2]])).as_columns().transpose()
    assert H.rows == 1
    got = hstack([H, H])
    assert got.rows == 1


def test_int_matrix_constructor_converts_and_checks():
    M = IntMatrix([[True, 2]])
    assert M.data == ((1, 2),)
    assert all(type(x) is int for row in M.data for x in row)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1]], 2, 1)


def test_internal_constructions_match_public_constructor():
    # operations that skip the int conversion still give int-tuple rows
    # equal to a matrix built through the public constructor
    rng = random.Random(71)
    for m, n in shapes(rng, 8, 5):
        A = sparse_matrix(rng, m, n, 0.5)
        B = sparse_matrix(rng, m, n, 0.5)
        rows = [list(r) for r in A.data]
        assert A.transpose() == IntMatrix([[rows[i][j] for i in range(m)] for j in range(n)], n, m)
        assert A.columns() == [A.col(j) for j in range(n)]
        assert IntMatrix.from_cols(A.columns(), m) == A
        assert A + B == IntMatrix([[a + b for a, b in zip(r, s)] for r, s in zip(A.data, B.data)], m, n)
        assert A - B == IntMatrix([[a - b for a, b in zip(r, s)] for r, s in zip(A.data, B.data)], m, n)
        assert A.scaled(-3) == IntMatrix([[-3 * a for a in r] for r in rows], m, n)
        assert hstack([A, B]) == IntMatrix([r + list(s) for r, s in zip(rows, B.data)], m, 2 * n)
        assert vstack([A, B]) == IntMatrix(rows + [list(r) for r in B.data], 2 * m, n)
        assert block_diag([A, B]) == IntMatrix(
            [r + [0] * n for r in rows] + [[0] * n + list(r) for r in B.data], 2 * m, 2 * n)
    assert IntMatrix.zeros(0, 3).columns() == [(), (), ()]
    assert IntMatrix.zeros(3, 0).columns() == []
    assert IntMatrix.identity(2) == IntMatrix([[1, 0], [0, 1]])
    assert IntMatrix.zeros(2, 3) == IntMatrix([[0, 0, 0], [0, 0, 0]])


def boundary_matrix(nverts, k):
    """Boundary of the k-faces of the full simplex on nverts vertices."""
    faces = list(itertools.combinations(range(nverts), k))
    cells = list(itertools.combinations(range(nverts), k + 1))
    index = {f: i for i, f in enumerate(faces)}
    rows = [[0] * len(cells) for _ in faces]
    for j, c in enumerate(cells):
        for i in range(len(c)):
            rows[index[c[:i] + c[i + 1:]]][j] = -1 if i % 2 else 1
    return IntMatrix(rows, len(faces), len(cells))


SMITH_CASES = [
    IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 4), IntMatrix.zeros(4, 0),
    IntMatrix.zeros(3, 5),
    IntMatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]]),          # rank deficient
    IntMatrix([[2, 4, 6, 8], [3, 6, 9, 12]]),
    boundary_matrix(4, 1), boundary_matrix(5, 2), boundary_matrix(6, 3),
    boundary_matrix(5, 2).transpose(),
    IntMatrix([[-1]]), IntMatrix([[-3, 5], [7, -2]]),      # negative pivots
    IntMatrix([[-2, 0], [0, -4]]), IntMatrix([[0, -6, 4], [-4, 0, 10]]),
    IntMatrix([[2, 0], [0, 3]]),                           # divisibility fix
    IntMatrix([[4, 0, 0], [0, 6, 0], [0, 0, 10]]),
    IntMatrix([[0, 0, 3], [0, 2, 0]]),                     # column swaps
    IntMatrix([[5, 2, 7]]), IntMatrix([[6, 4], [0, 9]]),
    IntMatrix([[0, 2], [2, -2]]), IntMatrix([[3, 3], [3, 3]]),  # ties
]


def assert_matches_reference(A):
    """Checks `smith` against the dense loop and returns whether a pivot
    other than 1 left a remainder there.  If none did, U, D and V are the
    loop's entry for entry; if one did, D is (it is unique) and U and V
    are unimodular transforms."""
    s = smith(A)
    U, D, V, remainder = reference_smith(A)
    if remainder:
        assert s.D == D
        assert abs(s.U.det()) == abs(s.V.det()) == 1
    else:
        assert (s.U, s.D, s.V) == (U, D, V)
    assert s.diagonal() == tuple(D.data[i][i] for i in range(min(A.rows, A.cols)))
    assert s.U @ A @ s.V == s.D
    return remainder


def test_smith_matches_dense_reference():
    seen = {assert_matches_reference(A) for A in SMITH_CASES}
    rng = random.Random(1701)
    for n in range(16, 21):
        seen.add(assert_matches_reference(random_matrix(rng, n, n)))
    for density in DENSITIES:
        for m, n in shapes(rng, 20, 12):
            A = sparse_matrix(rng, m, n, density, rng.choice((1, 3, 9)))
            seen.add(assert_matches_reference(A))
    assert seen == {True, False}


small_matrices = st.integers(0, 6).flatmap(lambda m: st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(st.one_of(st.just(0), st.integers(-6, 6)),
                                min_size=n, max_size=n),
                       min_size=m, max_size=m).map(lambda rows: IntMatrix(rows, m, n))))


@settings(max_examples=300, deadline=None)
@given(small_matrices)
def test_smith_matches_dense_reference_property(A):
    assert_matches_reference(A)


def lattice_cases(rng):
    """Matrices for the Hermite-form checks: the Smith cases, seeded sparse
    ones at every density (rank-deficient among them), and seeded ones
    padded with m times the identity, as lattices over Z/m are."""
    cases = SMITH_CASES + [sparse_matrix(rng, m, n, density)
                           for density in DENSITIES for m, n in shapes(rng, 15, 9)]
    for modulus in (2, 3, 4, 6):
        for m, n in shapes(rng, 5, 8):
            A = sparse_matrix(rng, m, n, rng.choice(DENSITIES), 5)
            cases.append(hstack([A, modulus_columns(modulus, m)]))
            cases.append(hstack([A, modulus_columns(modulus, m)]).transpose())
    rank_one = sparse_matrix(rng, 6, 1, 1.0) @ sparse_matrix(rng, 1, 7, 1.0)
    return cases + [rank_one, rank_one.transpose()]


def test_hnf_rows_matches_reference():
    for A in lattice_cases(random.Random(1723)):
        H = hnf_rows(A).as_columns().transpose()
        assert H == reference_hnf_rows(A)
        assert lattice_basis(A).as_columns() == reference_lattice_basis(A)


def test_kernel_matches_reference():
    # the kernel is now the canonical basis of the reference kernel lattice
    for A in lattice_cases(random.Random(1709)):
        K = kernel(A).as_columns()
        assert K == reference_lattice_basis(reference_kernel(A))
        assert K.rows == A.cols and (A @ K).is_zero()
        assert K.cols == frac_nullity([list(r) for r in A.data], A.cols)


def test_preimage_lattice_matches_reference():
    # kept to 6 x 6: the Smith transform inside the reference kernel grows
    # fast, and at 8 x 20 its canonical form does not end in 20 s
    rng = random.Random(1741)
    for modulus in (0, 2, 3):
        for m, n in shapes(rng, 20, 6):
            M = sparse_matrix(rng, m, n, rng.choice(DENSITIES), 4)
            L = hstack([sparse_matrix(rng, m, rng.randint(0, 4), 0.3, 3),
                        modulus_columns(modulus, m)])
            P = preimage_lattice(M, lattice_basis(L)).as_columns()
            assert P == reference_preimage_lattice(M, L)
            assert P.rows == n
    # L with no columns, L with more columns than its rank (at most 2 of
    # 5), and M with no columns
    mix = IntMatrix([[1, 2, -1], [0, 3, 2]])
    for m, n in shapes(rng, 10, 6):
        B = sparse_matrix(rng, m, 2, 1.0, 3)
        for L in (IntMatrix.zeros(m, 0), hstack([B, B @ mix])):
            for M in (sparse_matrix(rng, m, n, 0.3, 4), IntMatrix.zeros(m, 0)):
                P = preimage_lattice(M, lattice_basis(L)).as_columns()
                assert P == reference_preimage_lattice(M, L)
                assert P.rows == M.cols


def smith_invariants(R):
    """iso_invariants of Z^cols / rows of R, from the dense Smith diagonal."""
    D = reference_smith(R)[1]
    diag = [D.data[i][i] for i in range(min(R.rows, R.cols)) if D.data[i][i]]
    return R.cols - len(diag), tuple(d for d in diag if d >= 2)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_hermite_layer_matches_reference_property(A):
    assert hnf_rows(A).as_columns().transpose() == reference_hnf_rows(A)
    assert kernel(A).as_columns() == reference_lattice_basis(reference_kernel(A))
    half = A.cols // 2
    M = IntMatrix([r[:half] for r in A.data], A.rows, half)
    L = IntMatrix([r[half:] for r in A.data], A.rows, A.cols - half)
    assert preimage_lattice(M, lattice_basis(L)).as_columns() == \
        reference_preimage_lattice(M, L)
    assert FgAbGroup(A.cols, A).iso_invariants() == smith_invariants(A)


def test_iso_invariants_match_oracles():
    rng = random.Random(1753)
    for _ in range(80):  # small enough for the minor-gcd oracle
        n, r = rng.randint(0, 4), rng.randint(0, 4)
        R = sparse_matrix(rng, r, n, rng.choice(DENSITIES), 6)
        free, torsion = quotient_invariants(n, [list(x) for x in R.data])
        assert FgAbGroup(n, R).iso_invariants() == (free, tuple(torsion))
    for R in lattice_cases(rng):
        assert FgAbGroup(R.cols, R).iso_invariants() == smith_invariants(R)
    # Hermite forms that need a column pass, and a diagonal that needs
    # gcd and lcm to become a divisor chain
    for rows in ([[2, 0, 4], [0, 4, 4], [2, 4, 8], [6, 6, 0]],
                 [[4, 6], [0, 10]], [[6, 0, 0], [0, 4, 0], [0, 0, 10]]):
        R = IntMatrix(rows)
        free, torsion = quotient_invariants(R.cols, rows)
        assert FgAbGroup(R.cols, R).iso_invariants() == (free, tuple(torsion))


def test_membership_and_coordinates_match_dense_solve():
    rng = random.Random(1759)
    outcomes = set()
    for G in lattice_cases(rng):
        basis = lattice_basis(G)
        P = basis.as_columns()
        group = FgAbGroup(G.rows, G.transpose())
        for _ in range(4):
            inside = P.apply(sparse_vector(rng, P.cols, 0.5, 4))
            for v in (inside, sparse_vector(rng, P.rows, 0.3, 4), [0] * P.rows):
                want = dense_solve(P, v)
                outcomes.add(want is None)
                assert basis.coords({i: e for i, e in enumerate(v) if e}) == want
                assert group.is_relation(v) == (dense_solve(G, v) is not None)
                assert group.is_relation(v) == (want is not None)
    assert outcomes == {True, False}


def test_expresser_and_hermite_coordinates_differ_by_a_relation():
    # QuotientExpresser solves [P | D] by a Smith form, the numerator's
    # HermiteBasis by triangular substitution; the two may pick different
    # coordinates, but only by a relation of N/D, so the CanonicalForm
    # coordinates that reports read are the same
    rng = random.Random(1777)
    differ = 0
    for modulus in (0, 2, 3, 6):
        for _ in range(60):
            dim = rng.randint(1, 5)
            G = sparse_matrix(rng, dim, rng.randint(1, 5), rng.choice(DENSITIES), 4)
            pad = modulus_columns(modulus, dim)
            N = lattice_basis(hstack([G, pad]))
            P = N.as_columns()
            D = hstack([P @ random_matrix(rng, P.cols, rng.randint(0, 4), -3, 3), pad])
            group, reps = present_subquotient(dim, N, D)
            assert reps == P
            expresser, canon = QuotientExpresser(reps, D), CanonicalForm(group)
            for _ in range(5):
                v = P.apply(sparse_vector(rng, P.cols, 0.7, 5))
                a = expresser.express(v)
                b = N.coords({i: e for i, e in enumerate(v) if e})
                assert group.is_relation([x - y for x, y in zip(a, b)])
                assert canon.coords(a) == canon.coords(b)
                differ += a != b
    assert differ > 0


def test_sparse_readers_build_no_dense_transforms(monkeypatch):
    import homlab.fga as fga
    made = []
    real = fga.smith
    monkeypatch.setattr(fga, "smith", lambda A: made.append(real(A)) or made[-1])
    A = IntMatrix([[2, 4, 4], [-6, 6, 12], [-4, 10, 16]])
    assert LinearSolver(A).solve(A.apply((1, -2, 3))) is not None
    assert (A @ kernel(A).as_columns()).is_zero()
    assert fga.smith(A).rank == 2
    assert len(made) == 2  # the kernel comes from a Hermite form
    assert all(s._U is None and s._D is None and s._V is None for s in made)


def test_module_doctests():
    result = doctest.testmod(homlab.fga)
    assert result.failed == 0
    assert result.attempted > 0
