import hashlib

import pytest

from homlab.fga import GroupHom, hom_concat, hom_stack, is_isomorphism
from homlab.model import HomologyModel, _restrict
from homlab.simp import (
    EMPTY_NAME,
    DiagramBuilder,
    SimplicialComplex,
    skeleton,
    subcomplex,
)

from checks import check_long_exact, is_exact_at


def triangle():
    return SimplicialComplex.from_maximal_simplices([("a", "b", "c")])


def disk_pair_diagram():
    x = triangle()
    b = DiagramBuilder()
    b.add_complex("X", x)
    b.add_complex("S", skeleton(x, 1))
    b.add_pair("X", "S")
    b.add_pair("S")
    b.add_pair("X")
    return b.build()


def test_disk_mod_boundary():
    model = HomologyModel(disk_pair_diagram(), window=(0, 2))
    assert model.group(("X", "S"), 2).iso_invariants() == (1, ())
    assert model.group(("X", "S"), 1).iso_invariants() == (0, ())
    assert model.group(("X", "S"), 0).iso_invariants() == (0, ())
    # absolute homology comes out of the same model
    assert model.group(("X", EMPTY_NAME), 0).iso_invariants() == (1, ())
    assert model.group(("X", EMPTY_NAME), 1).iso_invariants() == (0, ())
    assert model.group(("S", EMPTY_NAME), 1).iso_invariants() == (1, ())


def test_circle_mod_two():
    model = HomologyModel(disk_pair_diagram(), modulus=2, window=(0, 2))
    assert model.group(("S", EMPTY_NAME), 1).iso_invariants() == (0, (2,))
    assert model.group(("S", EMPTY_NAME), 0).iso_invariants() == (0, (2,))
    assert model.group(("X", "S"), 2).iso_invariants() == (0, (2,))


def test_purity_and_empty():
    x = triangle()
    b = DiagramBuilder()
    b.add_complex("X", x)
    b.add_pair("X", "X")
    b.add_pair(EMPTY_NAME)
    model = HomologyModel(b.build(), window=(0, 2))
    for n in model.degrees():
        assert model.group(("X", "X"), n).is_trivial()
        assert model.group((EMPTY_NAME, EMPTY_NAME), n).is_trivial()


def interval_triple_diagram():
    seg = SimplicialComplex.from_maximal_simplices([("a", "b")])
    ends = skeleton(seg, 0)
    b = DiagramBuilder()
    b.add_complex("X", seg)
    b.add_complex("Y", ends)
    b.add_triple("t", "X", "Y")
    return b.build()


def interval_triple_model(modulus=0):
    return HomologyModel(interval_triple_diagram(), modulus=modulus,
                         window=(0, 1))


def test_interval_pair_sequence_is_exact():
    model = interval_triple_model()
    h1_pair = model.group(("X", "Y"), 1)
    h0_ends = model.group(("Y", EMPTY_NAME), 0)
    h0_seg = model.group(("X", EMPTY_NAME), 0)
    h0_pair = model.group(("X", "Y"), 0)
    assert h1_pair.iso_invariants() == (1, ())
    assert h0_ends.iso_invariants() == (2, ())
    assert h0_seg.iso_invariants() == (1, ())
    assert h0_pair.iso_invariants() == (0, ())

    bnd = model.connecting("t", 1)
    incl = model.induced("t.bt", 0)
    coll = model.induced("t.bp", 0)
    report = check_long_exact(
        [h1_pair, h0_ends, h0_seg, h0_pair],
        [bnd, incl, coll])
    assert all(res.exact for _, res in report)
    # the connecting map is injective here: its matrix hits a basis vector
    # difference, never zero
    assert not bnd.is_zero()


def test_connecting_image_is_kernel_of_inclusion():
    model = interval_triple_model(modulus=3)
    bnd = model.connecting("t", 1)
    incl = model.induced("t.bt", 0)
    assert is_exact_at(bnd, incl)


def test_partial_edge_refuses_induced():
    model = interval_triple_model()
    with pytest.raises(ValueError, match="connecting"):
        model.induced("t.bd", 1)


def test_connecting_needs_both_degrees():
    model = interval_triple_model()
    with pytest.raises(ValueError, match="outside window"):
        model.connecting("t", 0)


def collapse_diagram():
    x = triangle()
    pt = subcomplex(x, [("a",)])
    b = DiagramBuilder()
    b.add_complex("X", x)
    b.add_complex("P", pt)
    b.add_pair("X")
    b.add_pair("P")
    b.add_edge("f", ("X", EMPTY_NAME), ("P", EMPTY_NAME),
               {"a": "a", "b": "a", "c": "a"})
    return b.build()


def reflection_diagram():
    """The circle with the reflection fixing a, which reverses the
    orientation of every edge's image."""
    circle = skeleton(triangle(), 1)
    b = DiagramBuilder()
    b.add_complex("S", circle)
    b.add_pair("S")
    b.add_edge("r", ("S", EMPTY_NAME), ("S", EMPTY_NAME),
               {"a": "a", "b": "c", "c": "b"})
    return b.build()


def test_reflection_negates_the_circle_class():
    model = HomologyModel(reflection_diagram(), window=(0, 1))
    h1 = model.group(("S", EMPTY_NAME), 1)
    minus_r = GroupHom(h1, h1, model.induced("r", 1).matrix.scaled(-1))
    assert minus_r.equal_to(GroupHom.identity(h1))


def test_identity_and_collapse_edges():
    model = HomologyModel(collapse_diagram(), window=(0, 2))
    ident = model.induced("id:X/0", 0)
    assert ident.equal_to(GroupHom.identity(model.group(("X", EMPTY_NAME), 0)))
    assert is_isomorphism(model.induced("f", 0))
    assert model.induced("f", 1).is_zero()


def prism_diagram():
    circle = skeleton(triangle(), 1)
    b = DiagramBuilder()
    b.add_complex("S", circle)
    b.add_prism("S")
    return b.build()


def test_prism_ends_agree_on_circle():
    model = HomologyModel(prism_diagram(), window=(0, 1))
    assert model.group(("SxI", EMPTY_NAME), 1).iso_invariants() == (1, ())
    i0 = model.induced("S/0.i0", 1)
    i1 = model.induced("S/0.i1", 1)
    pr = model.induced("S/0.pr", 1)
    assert i0.equal_to(i1)
    assert (pr @ i0).equal_to(GroupHom.identity(model.group(("S", EMPTY_NAME), 1)))
    assert is_isomorphism(i0)


def mv_diagram():
    x = skeleton(triangle(), 1)
    b = DiagramBuilder()
    b.add_complex("S", x)
    b.add_complex("U", subcomplex(x, [("a", "b"), ("a", "c")]))
    b.add_complex("V", subcomplex(x, [("b", "c")]))
    b.add_square("q", "S", "U", "V")
    return b.build()


def mv_model(modulus=0):
    return HomologyModel(mv_diagram(), modulus=modulus, window=(0, 1))


def test_union_square_sequence_is_exact():
    model = mv_model()
    sq = model.diagram.squares["q"]
    h1_union = model.group((sq.d, EMPTY_NAME), 1)
    h0_inter = model.group((sq.b, EMPTY_NAME), 0)
    assert h1_union.iso_invariants() == (1, ())
    assert h0_inter.iso_invariants() == (2, ())

    bnd = model.mv_connecting("q", 1)
    # (b |-> (b, -b)) then ((u, v) |-> u + v)
    neg_ic = GroupHom(model.group((sq.b, EMPTY_NAME), 0),
                      model.group(("V", EMPTY_NAME), 0),
                      model.induced(sq.ic, 0).matrix.scaled(-1))
    into_pieces = hom_stack([model.induced(sq.ia, 0), neg_ic])
    out_of_pieces = hom_concat([model.induced(sq.ja, 0),
                                model.induced(sq.jc, 0)])
    assert not bnd.is_zero()
    assert is_exact_at(bnd, into_pieces)
    assert is_exact_at(into_pieces, out_of_pieces)


def test_union_square_mod_two():
    model = mv_model(modulus=2)
    bnd = model.mv_connecting("q", 1)
    assert not bnd.is_zero()
    sq = model.diagram.squares["q"]
    neg_ic = GroupHom(model.group((sq.b, EMPTY_NAME), 0),
                      model.group(("V", EMPTY_NAME), 0),
                      model.induced(sq.ic, 0).matrix.scaled(-1))
    into_pieces = hom_stack([model.induced(sq.ia, 0), neg_ic])
    assert is_exact_at(bnd, into_pieces)


def test_restrict_checks_entries_outside_kept_simplices():
    basis = [("a",), ("b",), ("c",)]
    keep = {("a",), ("c",)}
    index = {("a",): 0, ("c",): 1}
    assert _restrict((5, 0, 7), basis, keep, index, 0, "leak") == [5, 7]
    assert _restrict((5, 6, 7), basis, keep, index, 3, "leak") == [5, 7]
    assert _restrict((5, -3, 7), basis, keep, index, 3, "leak") == [5, 7]
    with pytest.raises(RuntimeError, match="leak"):
        _restrict((5, 4, 7), basis, keep, index, 3, "leak")
    with pytest.raises(RuntimeError, match="leak"):
        _restrict((0, 3, 0), basis, keep, index, 0, "leak")


def test_express_roundtrip():
    model = interval_triple_model()
    reps = model.entry(("X", "Y"), 1).reps
    assert reps.cols == 1
    coords = model.express(("X", "Y"), 1, reps.col(0))
    assert coords == (1,)
    with pytest.raises(ValueError, match="not a cycle"):
        model.express(("X", EMPTY_NAME), 1, (1,))


# sha256 of every induced, connecting and union connecting matrix of each
# test diagram, by modulus; see map_digest.
PINNED_MAPS = {
    ("collapse", 0):
        "ff122248a420e6e2190804e2e75e416e83b2e5c7cca781393fc16eb17aa30ecb",
    ("collapse", 3):
        "4032b07700516f4f7f0bccb71b039dd5eaca35ed3ed6463fb4db2d097cc2fb40",
    ("collapse", 4):
        "4032b07700516f4f7f0bccb71b039dd5eaca35ed3ed6463fb4db2d097cc2fb40",
    ("disk", 0):
        "f64ed026d44a3ccc191b6cb1761e7ffdc4e41679205c50cc8773b48d2c1c2e3b",
    ("disk", 3):
        "33f526ab8826e65dc559c0ad5d0d6b03ce782ae8b591674082a97db18e2df425",
    ("disk", 4):
        "33f526ab8826e65dc559c0ad5d0d6b03ce782ae8b591674082a97db18e2df425",
    ("interval", 0):
        "42eeb62e813653ace52ab8a3b8cd7f1fad96223899524a34dd78081630c9f598",
    ("interval", 3):
        "c4b8dfaefda7bdcde2a65b5272a8cf6a4719f05b008cb7c3fcfa12f6b800800a",
    ("interval", 4):
        "7534be37ed4dc176e8a38e110aad7b52ee6945aac5841de2aa8aac811cbc0325",
    ("mv", 0):
        "256d86353842b37d573e13d1c62e162dbda7dddd780df3e3dcdbbf7a86eca18b",
    ("mv", 3):
        "b1345e70822b89d7dbd0776fecd376e7cbe325336e2eb6a41402cdac0d0cb5a2",
    ("mv", 4):
        "0e45aa6688f206287cc597d583c98a5ee87eccc8319acf13e6db1318740700d6",
    ("prism", 0):
        "34acdcecd996327f4b19dc37fde4c3024d787f6dc77a5c31efd1105c14fb7774",
    ("prism", 3):
        "4cbec29dd6bd672f4062cb3baf9192391a3306f0f83ec835ff1fa0c3f7c45433",
    ("prism", 4):
        "9f92db1427b0ff4e1209952710d6c527aecfc6e96dd055edabf05ad48190b6db",
    ("reflection", 0):
        "b3542b4a8db7a9e6e7f688e5a7c431c75470cd15637878fccabefec60c6c1978",
    ("reflection", 3):
        "c3c092b9d94055b32a605993fb6c578b59c5eb41ba947c697d0af69053760c4f",
    ("reflection", 4):
        "87165fa37a662e1018478f809aca6694451f44f67aaf4865ad0d682444876c3c",
}

PIN_DIAGRAMS = {
    "disk": (disk_pair_diagram, (0, 2)),
    "interval": (interval_triple_diagram, (0, 1)),
    "collapse": (collapse_diagram, (0, 2)),
    "prism": (prism_diagram, (0, 1)),
    "reflection": (reflection_diagram, (0, 1)),
    "mv": (mv_diagram, (0, 1)),
}


def map_digest(model) -> str:
    """Digest of the matrices of all maps of the model, in name order."""
    h = hashlib.sha256()
    diagram = model.diagram
    maps = [("induced", name, model.induced)
            for name in diagram.edge_names()
            if diagram.edges[name].kind != "partial"]
    maps += [("connecting", name, model.connecting)
             for name in sorted(diagram.triples)]
    maps += [("mv", name, model.mv_connecting)
             for name in sorted(diagram.squares)]
    for kind, name, fn in maps:
        for n in model.degrees():
            if kind != "induced" and n == model.window[0]:
                continue
            m = fn(name, n).matrix
            h.update(f"{kind} {name} {n} {m.rows}x{m.cols} {m.data};".encode())
    return h.hexdigest()


@pytest.mark.parametrize("modulus", [0, 3, 4])
@pytest.mark.parametrize("name", sorted(PIN_DIAGRAMS))
def test_model_maps_pinned(name, modulus):
    build, window = PIN_DIAGRAMS[name]
    model = HomologyModel(build(), modulus=modulus, window=window)
    assert map_digest(model) == PINNED_MAPS[(name, modulus)]
