import random

import pytest

from homlab.complexes import ChainComplex, homology_entry, induced_hom
from homlab.fga import FgAbGroup, GroupHom, IntMatrix, kernel, lattice_basis

from checks import check_long_exact, cyclic, shift

Z = FgAbGroup.free(1)


def two_term(matrix):
    """0 -> Z^a --matrix--> Z^b -> 0 in degrees 1, 0."""
    src = FgAbGroup.free(matrix.cols)
    tgt = FgAbGroup.free(matrix.rows)
    return ChainComplex(0, 1, {1: src, 0: tgt},
                        {1: GroupHom(src, tgt, matrix)})


def test_homology_of_doubling():
    c = two_term(IntMatrix([[2]]))
    assert c.homology(0).iso_invariants() == (0, (2,))
    assert c.homology(1).iso_invariants() == (0, ())
    assert c.homology(5).iso_invariants() == (0, ())


def test_homology_of_triangle_boundary():
    # circle as the boundary of a triangle: vertices 0,1,2; edges 01,02,12
    d1 = IntMatrix([
        [-1, -1, 0],   # vertex 0
        [1, 0, -1],    # vertex 1
        [0, 1, 1],     # vertex 2
    ])
    c = two_term(d1)
    assert c.homology(0).iso_invariants() == (1, ())
    assert c.homology(1).iso_invariants() == (1, ())


def test_homology_mod_2_of_triangle_boundary():
    d1 = IntMatrix([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    c1 = FgAbGroup(3, IntMatrix.identity(3).scaled(2))
    c0 = FgAbGroup(3, IntMatrix.identity(3).scaled(2))
    c = ChainComplex(0, 1, {1: c1, 0: c0}, {1: GroupHom(c1, c0, d1)})
    assert c.homology(1).iso_invariants() == (0, (2,))
    assert c.homology(0).iso_invariants() == (0, (2,))


def test_verify_reports_broken_complex():
    g = FgAbGroup.free(1)
    ident = GroupHom.identity(g)
    c = ChainComplex(0, 2, {0: g, 1: g, 2: g}, {1: ident, 2: ident})
    bad = c.verify()
    assert len(bad) == 1
    assert bad[0].degree == 2
    assert bad[0].generator == 0
    assert bad[0].image == (1,)
    with pytest.raises(ValueError):
        c.homology(1)
    # over Z/2, d∘d = 2·e is zero: a column that is a relation is no witness
    z2 = cyclic(2)
    to_z2 = GroupHom(g, z2, IntMatrix([[1]]))
    c = ChainComplex(0, 2, {0: z2, 1: g, 2: g},
                     {1: to_z2, 2: GroupHom(g, g, IntMatrix([[2]]))})
    assert c.verify() == []
    # the witness is the first column that is not a relation
    free2 = FgAbGroup.free(2)
    c = ChainComplex(0, 2, {0: z2, 1: g, 2: free2},
                     {1: to_z2, 2: GroupHom(free2, g, IntMatrix([[2, 3]]))})
    bad = c.verify()
    assert [(v.degree, v.generator, v.image) for v in bad] == [(2, 1, (3,))]


def test_homology_rejects_differential_that_is_not_a_homomorphism():
    z2 = cyclic(2)
    c = ChainComplex(0, 1, {1: z2, 0: Z}, {1: GroupHom(z2, Z, IntMatrix([[1]]))})
    with pytest.raises(ValueError, match="not a homomorphism, at degree 1"):
        c.homology(1)


def random_three_term(rng, maxdim=4):
    """Degrees 2,1,0 with d1 d2 = 0 by construction."""
    a, b = rng.randint(1, maxdim), rng.randint(1, maxdim)
    d1 = IntMatrix([[rng.randint(-3, 3) for _ in range(b)] for _ in range(a)], a, b)
    k = kernel(d1).as_columns()
    cols = k.cols
    if cols:
        width = rng.randint(1, 3)
        mix = IntMatrix([[rng.randint(-2, 2) for _ in range(width)]
                         for _ in range(cols)], cols, width)
        d2 = k @ mix
    else:
        d2 = IntMatrix.zeros(b, 1)
    c2 = FgAbGroup.free(d2.cols)
    c1 = FgAbGroup.free(b)
    c0 = FgAbGroup.free(a)
    return ChainComplex(0, 2, {2: c2, 1: c1, 0: c0},
                        {2: GroupHom(c2, c1, d2), 1: GroupHom(c1, c0, d1)})


def test_shift_preserves_homology():
    rng = random.Random(3)
    for _ in range(15):
        c = random_three_term(rng)
        assert not c.verify()
        k = rng.randint(-3, 3)
        shifted = shift(c, k)
        for n in range(0, 3):
            assert (c.homology(n).iso_invariants()
                    == shifted.homology(n + k).iso_invariants())


def test_check_long_exact_short_sequence():
    z2 = cyclic(2)
    zero = FgAbGroup.zero()
    groups = [zero, Z, Z, z2, zero]
    maps = [GroupHom.zero_map(zero, Z),
            GroupHom(Z, Z, IntMatrix([[2]])),
            GroupHom(Z, z2, IntMatrix([[1]])),
            GroupHom.zero_map(z2, zero)]
    report = check_long_exact(groups, maps)
    assert all(res.exact for _, res in report)


def test_check_long_exact_detects_failure():
    zero = FgAbGroup.zero()
    groups = [Z, Z, zero]
    maps = [GroupHom(Z, Z, IntMatrix([[2]])), GroupHom.zero_map(Z, zero)]
    report = check_long_exact(groups, maps)
    assert len(report) == 1
    pos, res = report[0]
    assert pos == 1 and not res.exact
    assert res.witness == (1,)


def test_check_long_exact_rejects_mismatch():
    with pytest.raises(ValueError):
        check_long_exact([Z, Z], [GroupHom.identity(FgAbGroup.free(2))])


def test_induced_hom_pushes_representatives_or_raises_its_text():
    # Z/6 -> Z/3 as subquotients of Z: 1 + 6Z |-> 2 + 6Z, read in 2Z/6Z
    z6 = homology_entry(1, lattice_basis(IntMatrix([[1]])), IntMatrix([[6]]))
    z3 = homology_entry(1, lattice_basis(IntMatrix([[2]])), IntMatrix([[6]]))
    hom = induced_hom(z6, z3, lambda v: [2 * v[0]], "image leaves 2Z")
    assert hom.matrix == IntMatrix([[1]])
    assert hom.target.iso_invariants() == (0, (3,))
    with pytest.raises(RuntimeError, match="image leaves 2Z"):
        induced_hom(z6, z3, lambda v: [3 * v[0]], "image leaves 2Z")


def test_homology_is_presented_once_per_degree(monkeypatch):
    import homlab.complexes as complexes
    calls = []
    present = complexes.present_subquotient

    def counted(*args):
        calls.append(args)
        return present(*args)

    monkeypatch.setattr(complexes, "present_subquotient", counted)
    c = two_term(IntMatrix([[-1, -1, 0], [1, 0, -1], [0, 1, 1]]))
    for n in (0, 1):
        entry = c.homology_with_reps(n)
        assert c.homology_with_reps(n) is entry
        assert c.homology(n) is entry.group
    assert len(calls) == 2
