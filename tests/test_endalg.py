import random
from fractions import Fraction

import pytest

from homlab import endalg
from homlab.cli import _build_diagram
from homlab.dsl import parse
from homlab.endalg import (
    EndAlgebra,
    Representation,
    end_algebra,
    representation_from_model,
    restriction_map,
    verify_module_action,
)
from homlab.fga import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    block_diag,
    hom_image,
    kernel,
)
from homlab.model import HomologyModel
from homlab.simp import DiagramBuilder, SimplicialComplex, skeleton

from oracles import reference_commutant_lattice


# -- independent rational oracle ----------------------------------------------
# The commutant rank over Q is recomputed from scratch by plain Gaussian
# elimination on the raw commutation system, with subspace membership
# rewritten through annihilators.  No Smith forms, no integer kernels.


def _rref(rows, width):
    m = [[Fraction(x) for x in r] for r in rows]
    piv = []
    r = 0
    for c in range(width):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], piv


def _nullspace(rows, width):
    red, piv = _rref(rows, width)
    basis = []
    for fc in range(width):
        if fc in piv:
            continue
        v = [Fraction(0)] * width
        v[fc] = Fraction(1)
        for r, row in enumerate(red):
            v[piv[r]] = -row[fc]
        basis.append(v)
    return basis


def rational_commutant_rank(T, F):
    nodes = F.nodes
    sizes = [T.groups[d].ngens for d in nodes]
    offsets = []
    total = 0
    for n in sizes:
        offsets.append(total)
        total += n * n
    index = {d: i for i, d in enumerate(nodes)}
    ann = []
    triv = 0
    for di, d in enumerate(nodes):
        cols = [list(T.groups[d].relation_cols().col(j))
                for j in range(T.groups[d].relation_cols().cols)]
        ann.append(_nullspace(cols, sizes[di]))
        triv += sizes[di] * len(_rref(cols, sizes[di])[1])
    rows = []
    for di, d in enumerate(nodes):
        n = sizes[di]
        R = T.groups[d].relation_cols()
        for j in range(R.cols):
            b = R.col(j)
            for w in ann[di]:
                row = [Fraction(0)] * total
                for k in range(n):
                    if not w[k]:
                        continue
                    for i in range(n):
                        row[offsets[di] + k * n + i] += w[k] * b[i]
                rows.append(row)
    for name in F.edges:
        s, t, hom = T.homs[name]
        si, ti = index[s], index[t]
        M = hom.matrix
        for j in range(sizes[si]):
            for w in ann[ti]:
                row = [Fraction(0)] * total
                for k in range(sizes[ti]):
                    if not w[k]:
                        continue
                    for i in range(sizes[ti]):
                        row[offsets[ti] + k * sizes[ti] + i] += w[k] * M.data[i][j]
                    for i in range(sizes[si]):
                        row[offsets[si] + i * sizes[si] + j] -= w[k] * M.data[k][i]
                rows.append(row)
    nullity = total - len(_rref(rows, total)[1])
    return nullity - triv


# -- hand-checked small algebras ----------------------------------------------


def test_single_free_node():
    T = Representation({"A": FgAbGroup.free(1)}, {})
    E = end_algebra(T)
    assert E.rank == 1
    assert E.rational_rank == 1
    assert E.basis[0][0] == IntMatrix([[1]])
    assert E.multiply(E.unit, E.unit) == E.unit
    assert verify_module_action(T, E).ok


def test_rank_two_free_node_is_full_matrix_algebra():
    T = Representation({"A": FgAbGroup.free(2)}, {})
    E = end_algebra(T)
    assert E.rank == 4
    assert E.rational_rank == 4
    # the table closes and reproduces actual matrix products
    for i in range(4):
        for j in range(4):
            prod = E.basis[i][0] @ E.basis[j][0]
            assert E.element(E.structure[i][j])[0] == prod
    blob = E.as_json_dict()
    assert blob["rank"] == 4 and len(blob["basis"]) == 4


def test_identity_edge_forces_diagonal_pairs():
    # a.1 = 1.b forces a = b
    z = FgAbGroup.free(1)
    T = Representation(
        {"A": z, "B": z},
        {"f": ("A", "B", GroupHom(z, z, IntMatrix.identity(1)))})
    E = end_algebra(T)
    assert E.rank == 1
    assert E.basis[0][0] == E.basis[0][1] == IntMatrix([[1]])
    assert verify_module_action(T, E).ok


def test_torsion_node_algebra():
    # End(Z/2 + Z/4) by hand: columns of e = images of the generators;
    # order of e(g1) must divide 2, so its Z/4 part is even.  Components
    # Hom(Z/2,Z/2) = Z/2, Hom(Z/2,Z/4) = Z/2, Hom(Z/4,Z/2) = Z/2,
    # Hom(Z/4,Z/4) = Z/4, so the group is Z/2^3 + Z/4 of order 32.
    g = FgAbGroup(2, IntMatrix([[2, 0], [0, 4]]))
    T = Representation({"A": g}, {})
    E = end_algebra(T)
    assert E.group.iso_invariants() == (0, (2, 2, 2, 4))
    assert E.rank == 4
    assert E.rational_rank == 0
    assert E.group.order() == 32
    assert verify_module_action(T, E).ok
    assert rational_commutant_rank(T, T.subdiagram()) == 0


def test_no_edge_rank_formula_random():
    # with no edges the rational rank is the sum of squared free ranks
    rng = random.Random(20240818)
    pool = [
        FgAbGroup.free(1),
        FgAbGroup.free(2),
        FgAbGroup(1, IntMatrix([[3]])),
        FgAbGroup(2, IntMatrix([[2, 0]])),
        FgAbGroup(2, IntMatrix([[2, 0], [0, 6]])),
    ]
    for _ in range(6):
        picks = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        T = Representation({f"n{i}": g for i, g in enumerate(picks)}, {})
        E = end_algebra(T)
        expected = sum(g.iso_invariants()[0] ** 2 for g in picks)
        assert E.rational_rank == expected
        assert rational_commutant_rank(T, T.subdiagram()) == expected
        assert verify_module_action(T, E).ok


def _random_hom(rng, src, tgt):
    while True:
        mat = IntMatrix([[rng.randint(-2, 2) for _ in range(src.ngens)]
                         for _ in range(tgt.ngens)])
        hom = GroupHom(src, tgt, mat)
        if hom.well_defined_violation() is None:
            return hom


def test_random_edge_reps_match_rational_oracle():
    rng = random.Random(20240819)
    pool = [
        FgAbGroup.free(1),
        FgAbGroup.free(2),
        FgAbGroup(1, IntMatrix([[4]])),
        FgAbGroup(2, IntMatrix([[2, 0]])),
    ]
    for _ in range(8):
        a, b = rng.choice(pool), rng.choice(pool)
        homs = {"f": ("A", "B", _random_hom(rng, a, b))}
        if rng.random() < 0.5:
            homs["g"] = ("B", "A", _random_hom(rng, b, a))
        T = Representation({"A": a, "B": b}, homs)
        E = end_algebra(T)
        assert E.rational_rank == rational_commutant_rank(T, T.subdiagram())
        assert verify_module_action(T, E).ok


# -- restrictions ---------------------------------------------------------------


def _doubling_rep():
    z = FgAbGroup.free(1)
    return Representation(
        {"A": z, "B": z},
        {"f": ("A", "B", GroupHom(z, z, IntMatrix([[2]])))})


def test_restriction_identity_and_edge_drop():
    T = _doubling_rep()
    full = end_algebra(T)
    assert full.rank == 1  # 2a = 2b pins a = b
    same = restriction_map(full, full)
    assert same.equal_to(GroupHom.identity(full.group))

    loose = end_algebra(T, T.subdiagram(edges=[]))
    assert loose.rank == 2
    drop = restriction_map(full, loose)
    image, _ = hom_image(drop)
    assert image.iso_invariants()[0] <= loose.rational_rank
    assert image.iso_invariants() == (1, ())


def test_restriction_to_single_node():
    T = _doubling_rep()
    full = end_algebra(T)
    one = end_algebra(T, T.subdiagram(nodes=["A"], edges=[]))
    hom = restriction_map(full, one)
    assert one.rank == 1
    assert abs(hom.matrix.data[0][0]) == 1


def test_restriction_is_functorial():
    T = _doubling_rep()
    full = end_algebra(T)
    mid = end_algebra(T, T.subdiagram(edges=[]))
    small = end_algebra(T, T.subdiagram(nodes=["B"], edges=[]))
    direct = restriction_map(full, small)
    steps = restriction_map(mid, small) @ restriction_map(full, mid)
    assert direct.equal_to(steps)


def test_restriction_rejects_non_subdiagram():
    T = _doubling_rep()
    full = end_algebra(T)
    other = end_algebra(T, T.subdiagram(nodes=["A"], edges=[]))
    with pytest.raises(ValueError):
        restriction_map(other, full)


def _tamper(E, basis=None, structure=None, unit=None):
    """E with some of its basis, structure constants or unit replaced."""
    return EndAlgebra(E.subdiagram, E.nodes, E.sizes, E.group,
                      E.basis if basis is None else basis,
                      E.structure if structure is None else structure,
                      E.unit if unit is None else unit,
                      E._expresser, E._canon)


def _mod_two_circle():
    """The Z/2 circle: nodes h0(S) and h1(S), each Z/2 presented on three
    generators, joined by identity edges."""
    circle = skeleton(SimplicialComplex.from_maximal_simplices(
        [("a", "b", "c")]), 1)
    b = DiagramBuilder()
    b.add_complex("S", circle)
    b.add_pair("S")
    model = HomologyModel(b.build(), modulus=2, window=(0, 1))
    T, _ = representation_from_model(model)
    return T, end_algebra(T)


def test_tampered_torsion_algebra_issues():
    T, E = _mod_two_circle()
    assert E.structure == (((1, 0), (0, 0)), ((0, 0), (0, 1)))
    assert E.unit == (1, 1)

    def issues(**kw):
        return verify_module_action(T, _tamper(E, **kw)).issues

    def with_structure(i, j, coords):
        rows = [list(r) for r in E.structure]
        rows[i][j] = coords
        return tuple(map(tuple, rows))

    assert issues(structure=with_structure(1, 1, (1, 1))) == [
        "structure constants misstate the product of basis elements 1 and 1"]
    assert issues(unit=(1, 0)) == [
        "unit coordinates do not lift to the identity"]
    # coordinates that differ by multiples of 2 name the same element
    assert issues(structure=with_structure(0, 0, (3, 2))) == []
    assert issues(unit=(-1, 3)) == []
    # e1 -> e1, e2 -> 0 on h0(S) breaks the relation e2 = e1, and the
    # unit's lift is then that matrix on h0(S), not the identity
    half = IntMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert issues(basis=((half, E.basis[0][1]), E.basis[1])) == [
        "basis element 0 is not well defined on node h0(S)",
        "unit coordinates do not lift to the identity"]


def test_malformed_algebra_is_reported_not_raised():
    T, E = _mod_two_circle()
    report = verify_module_action(T, _tamper(E, basis=(
        (IntMatrix.identity(2), E.basis[0][1]),
        (E.basis[1][0], IntMatrix.zeros(3, 1)))))
    assert not report.ok
    assert report.issues == [
        "basis element 0 is 2x2 on node h0(S), expected 3x3",
        "basis element 1 is 3x1 on node h1(S), expected 3x3"]
    report = verify_module_action(T, _tamper(E, unit=(1,)))
    assert report.issues == [
        "unit coordinates do not lift to the identity: 1 coordinates, "
        "expected 2"]
    report = verify_module_action(T, _tamper(E, structure=(
        (E.structure[0][0], (1, 0, 0)), E.structure[1])))
    assert report.issues == [
        "structure constants misstate the product of basis elements 0 and "
        "1: 3 coordinates, expected 2"]


def test_tampered_basis_is_reported():
    T = Representation(
        {"A": FgAbGroup.free(1), "B": FgAbGroup.free(1)},
        {"f": ("A", "B",
               GroupHom(FgAbGroup.free(1), FgAbGroup.free(1),
                        IntMatrix.identity(1)))})
    E = end_algebra(T)
    bad_basis = ((IntMatrix([[2]]), E.basis[0][1]),)
    bad = EndAlgebra(E.subdiagram, E.nodes, E.sizes, E.group, bad_basis,
                     E.structure, E.unit, E._expresser, E._canon)
    report = verify_module_action(T, bad)
    assert not report.ok
    assert any("equivariance" in issue for issue in report.issues)


# -- representations induced by homology models ---------------------------------


def test_triple_model_representation():
    seg = SimplicialComplex.from_maximal_simplices([("a", "b")])
    b = DiagramBuilder()
    b.add_complex("X", seg)
    b.add_complex("Y", skeleton(seg, 0))
    b.add_triple("t", "X", "Y")
    diagram = b.build()
    model = HomologyModel(diagram, window=(0, 1))
    T, sig = representation_from_model(model)
    assert set(T.groups) == set(sig.sorts)
    assert "t@1" in T.homs

    E = end_algebra(T)
    assert verify_module_action(T, E).ok
    assert E.rational_rank == rational_commutant_rank(T, T.subdiagram())
    assert E.rank >= 1


def test_mod_two_circle_representation():
    T, E = _mod_two_circle()
    # two isolated Z/2 carriers linked only by identity edges
    assert E.group.iso_invariants() == (0, (2, 2))
    assert E.rational_rank == 0
    assert verify_module_action(T, E).ok


# -- the relative kernel against the auxiliary-column system -------------------

# the 4-cycle abcd with A = {b, d}, P = {b}, U = abc and V = cda; f swaps
# a and c, g turns the cycle by one step
CYCLE4 = """complex C = {ab, bc, cd, ad}
complex A = {b, d}
complex P = {b}
complex U = {ab, bc}
complex V = {cd, ad}
map f = {a:c, b:b, c:a, d:d}
map g = {a:b, b:c, c:d, d:a}
pair C / A
edge e : C / A -> C / A by f
edge h : C -> C by g
triple t : C / A / P
square q : U + V in C
squaremap m : q -> q by f
end-algebra
"""


def _model_rep(text, modulus):
    model = HomologyModel(_build_diagram(parse(text)), modulus)
    return representation_from_model(model)[0]


def _subdiagrams(T):
    yield T.subdiagram()
    yield T.subdiagram(edges=[])
    yield T.subdiagram(nodes=T.node_keys()[:1], edges=[])


def _random_rep(rng):
    pool = [
        FgAbGroup.free(1),
        FgAbGroup.free(2),
        FgAbGroup(1, IntMatrix([[4]])),
        FgAbGroup(2, IntMatrix([[2, 0]])),
        FgAbGroup(2, IntMatrix([[2, 0], [0, 6]])),
        FgAbGroup(2, IntMatrix([[3, 3], [0, 9]])),
    ]
    groups = {n: rng.choice(pool) for n in "ABC"[:rng.randint(1, 3)]}
    names = sorted(groups)
    homs = {}
    for k in range(rng.randint(0, 3)):
        src, tgt = rng.choice(names), rng.choice(names)
        homs[f"f{k}"] = (src, tgt, _random_hom(rng, groups[src], groups[tgt]))
    return Representation(groups, homs)


def _representations():
    for modulus in (0, 2, 3):
        yield _model_rep(CYCLE4, modulus)
    rng = random.Random(20261018)
    for _ in range(40):
        yield _random_rep(rng)


def test_commutant_lattice_matches_reference(monkeypatch):
    found = []

    def spy(A, L=None):
        K = kernel(A, L)
        found.append(K.as_columns())
        return K
    monkeypatch.setattr(endalg, "kernel", spy)
    checked = 0
    for T in _representations():
        for F in _subdiagrams(T):
            found.clear()
            end_algebra(T, F)
            assert found == [reference_commutant_lattice(T, F)]
            checked += 1
    assert checked == 3 * 43


# -- sparse products against dense IntMatrix arithmetic ---------------------------


def _random_matrix(rng, rows, cols):
    """Mostly zero, with negative entries and some all-zero columns."""
    dead = {j for j in range(cols) if rng.random() < 0.3}
    return IntMatrix([[0 if j in dead or rng.random() < 0.6
                       else rng.randint(-4, 4) for j in range(cols)]
                      for _ in range(rows)], rows, cols)


def _dense(a, rows, cols):
    """The sparse matrix a {column: {row: entry}} as a dense matrix."""
    return IntMatrix([[a.get(j, {}).get(i, 0) for j in range(cols)]
                      for i in range(rows)], rows, cols)


def _entries_nonzero(a):
    return all(e for c in a.values() for e in c.values())


def test_sparse_helpers_match_dense_arithmetic():
    rng = random.Random(20261019)
    for _ in range(300):
        n, k, m = (rng.randint(0, 4) for _ in range(3))
        A, B = _random_matrix(rng, n, k), _random_matrix(rng, k, m)
        a, b = endalg._block(A, 0, 0), endalg._block(B, 0, 0)
        assert _dense(a, n, k) == A and _entries_nonzero(a)
        assert _dense(endalg._block(A, 2, 1), n + 2, k + 1) == block_diag(
            [IntMatrix.zeros(2, 1), A])
        prod = endalg._compose(a, b)
        assert _dense(prod, n, m) == A @ B and _entries_nonzero(prod)
        terms = [(rng.randint(-3, 3), _random_matrix(rng, n, m))
                 for _ in range(rng.randint(0, 3))]
        want = IntMatrix.zeros(n, m)
        for c, C in terms:
            want = want + C.scaled(c)
        got = endalg._combine([(c, endalg._block(C, 0, 0)) for c, C in terms])
        assert _dense(got, n, m) == want and _entries_nonzero(got)
        # entries that cancel leave no entry behind
        assert not any(endalg._combine([(2, a), (-2, a)]).values())


def test_block_diagonal_tuples_match_dense():
    # tuples with 0x0 nodes, as the cycle fixtures have, against
    # fga.block_diag and the node-by-node dense products
    rng = random.Random(20261020)
    for _ in range(100):
        sizes = [rng.randint(0, 3) for _ in range(rng.randint(0, 4))]
        x = [_random_matrix(rng, n, n) for n in sizes]
        y = [_random_matrix(rng, n, n) for n in sizes]
        dx, dy = endalg._diagonal(x), endalg._diagonal(y)
        width = sum(sizes)
        assert _dense(dx, width, width) == block_diag(x)
        assert endalg._blocks(dx, sizes) == tuple(x)
        assert endalg._blocks(endalg._compose(dx, dy), sizes) == tuple(
            p @ q for p, q in zip(x, y))


def test_structure_constants_match_dense_products():
    # the zero-product shortcut in end_algebra against dense products
    # expressed through the algebra's own solver
    for modulus in (0, 2, 3):
        T = _model_rep(CYCLE4, modulus)
        E = end_algebra(T)
        assert 0 in E.sizes
        for i, a in enumerate(E.basis):
            for j, b in enumerate(E.basis):
                assert E.structure[i][j] == E.coordinates_of(
                    tuple(x @ y for x, y in zip(a, b)))
