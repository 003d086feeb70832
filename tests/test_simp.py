import pytest

from homlab.simp import (
    EMPTY_NAME,
    DiagramBuilder,
    Filtration,
    PairMorphism,
    SimpPair,
    SimplicialComplex,
    intersection,
    map_image,
    merge_vertex_orders,
    prism,
    skeleton,
    subcomplex,
    subcomplex_union,
)


def full_triangle():
    return SimplicialComplex.from_maximal_simplices([("a", "b", "c")])


def test_face_closure_and_dim():
    x = full_triangle()
    assert x.vertices == ("a", "b", "c")
    assert len(x.simplices) == 7
    assert x.dim() == 2
    assert x.simplices_of_dim(1) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert x.simplices_of_dim(0) == [("a",), ("b",), ("c",)]


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError, match="missing face"):
        SimplicialComplex(("a", "b"), [("a", "b")])
    with pytest.raises(ValueError, match="not sorted"):
        SimplicialComplex(("a", "b"), [("a",), ("b",), ("b", "a")])
    with pytest.raises(ValueError, match="unknown vertex"):
        SimplicialComplex(("a",), [("q",)])


def test_vertex_order_is_the_given_one():
    # labels where string sort would disagree with the declared order
    x = SimplicialComplex.from_maximal_simplices([("v10", "v2")],
                                                 vertices=("v2", "v10"))
    assert x.simplices_of_dim(1) == [("v2", "v10")]


def test_skeleton_and_subcomplex():
    x = full_triangle()
    sk1 = skeleton(x, 1)
    assert sk1.dim() == 1
    assert len(sk1.simplices) == 6
    assert sk1.is_subcomplex_of(x)
    edge = subcomplex(x, [("a", "b")])
    assert edge.vertices == ("a", "b")
    assert len(edge.simplices) == 3
    with pytest.raises(ValueError, match="not a simplex"):
        subcomplex(x, [("a", "q")])


def test_prism_of_edge():
    x = SimplicialComplex.from_maximal_simplices([("a", "b")])
    data = prism(x)
    p = data.complex
    assert p.vertices == ("a|0", "a|1", "b|0", "b|1")
    assert len(p.simplices_of_dim(2)) == 2
    assert len(p.simplices_of_dim(1)) == 5
    assert len(p.simplices_of_dim(0)) == 4
    # both ends embed
    for v in x.vertices:
        assert (data.bottom[v],) in p.simplices
        assert (data.top[v],) in p.simplices
    assert p.has_simplex(("a|0", "b|0"))
    assert p.has_simplex(("a|1", "b|1"))
    # collapsing the interval really is a retraction
    for v in x.vertices:
        assert data.projection[data.bottom[v]] == v
        assert data.projection[data.top[v]] == v


def test_prism_of_triangle_has_three_cells():
    data = prism(full_triangle())
    assert len(data.complex.simplices_of_dim(3)) == 3
    assert data.complex.dim() == 3
    image = map_image(data.projection, data.complex, full_triangle())
    assert image == full_triangle()


def test_subcomplex_union_square():
    x = full_triangle()
    u = subcomplex(x, [("a", "b"), ("a", "c")])
    v = subcomplex(x, [("b", "c")])
    ds = subcomplex_union(u, v, ambient=x)
    assert ds.intersection.simplices == frozenset([("b",), ("c",)])
    assert ds.union == skeleton(x, 1)
    assert ds.left == u and ds.right == v


def test_merge_vertex_orders():
    assert merge_vertex_orders(("a", "c"), ("b", "c")) == ("a", "b", "c")
    with pytest.raises(ValueError, match="inconsistent"):
        merge_vertex_orders(("a", "b"), ("b", "a"))


def test_pair_and_morphism_validation():
    x = full_triangle()
    boundary = skeleton(x, 1)
    pair = SimpPair(x, boundary)
    assert pair.sub.dim() == 1
    with pytest.raises(ValueError, match="not a subcomplex"):
        SimpPair(boundary, x)

    ident = {v: v for v in x.vertices}
    PairMorphism("ok", pair, pair, ident, "identity")
    with pytest.raises(ValueError, match="unmapped"):
        PairMorphism("f", pair, pair, {"a": "a", "b": "b"})
    # collapsing an edge of the boundary into the interior breaks the pair
    collapse = {"a": "a", "b": "b", "c": "b"}
    abs_pair = SimpPair(x, SimplicialComplex.empty())
    PairMorphism("g", abs_pair, abs_pair, collapse)  # fine without the sub
    with pytest.raises(ValueError, match="send sub into sub"):
        tgt = SimpPair(x, subcomplex(x, [("a",)]))
        src = SimpPair(x, subcomplex(x, [("a",), ("b",)]))
        PairMorphism("h", src, tgt, ident)

    two_points = SimplicialComplex(("p", "q"), [("p",), ("q",)])
    seg = SimplicialComplex.from_maximal_simplices([("p", "q")])
    with pytest.raises(ValueError, match="not simplicial"):
        PairMorphism("k", SimpPair(seg, SimplicialComplex.empty()),
                     SimpPair(two_points, SimplicialComplex.empty()),
                     {"p": "p", "q": "q"})


def test_filtration_checks():
    x = full_triangle()
    f = Filtration.skeletal(x)
    assert f.length() == 2
    assert f.step(-1) == SimplicialComplex.empty()
    assert f.step(0) == skeleton(x, 0)
    assert f.step(99) == x
    with pytest.raises(ValueError, match="above its index"):
        Filtration(skeleton(x, 1), [skeleton(x, 1), skeleton(x, 1)])
    with pytest.raises(ValueError, match="top step"):
        Filtration(x, [skeleton(x, 0), skeleton(x, 1)])
    with pytest.raises(ValueError, match="not contained"):
        Filtration(x, [skeleton(x, 0),
                       subcomplex(x, [("b",)]),
                       x])


def test_single_pair_diagram():
    b = DiagramBuilder()
    b.add_complex("X", full_triangle())
    b.add_pair("X")
    d = b.build()
    assert d.node_keys() == [("X", EMPTY_NAME)]
    assert d.edge_names() == ["id:X/0"]
    assert d.edges["id:X/0"].kind == "identity"


def test_triple_closure():
    x = full_triangle()
    b = DiagramBuilder()
    b.add_complex("X", x)
    b.add_complex("Y", skeleton(x, 1))
    b.add_complex("Z", subcomplex(x, [("a",)]))
    b.add_triple("t", "X", "Y", "Z")
    d = b.build()
    assert d.node_keys() == [("X", "Y"), ("X", "Z"), ("Y", "Z")]
    assert ("t.bt" in d.edges and "t.bp" in d.edges and "t.bd" in d.edges)
    assert d.edges["t.bt"].kind == "boxtimes"
    assert d.edges["t.bt"].src == ("Y", "Z") and d.edges["t.bt"].tgt == ("X", "Z")
    assert d.edges["t.bp"].kind == "boxplus"
    assert d.edges["t.bp"].src == ("X", "Z") and d.edges["t.bp"].tgt == ("X", "Y")
    assert d.edges["t.bd"].kind == "partial"
    assert d.composites == [("t.bt", "t.bp", "t.bd")]
    assert len(d.edges) == 6  # three structure maps plus three identities


def test_square_closure():
    x = full_triangle()
    b = DiagramBuilder()
    b.add_complex("X", x)
    b.add_complex("U", subcomplex(x, [("a", "b"), ("a", "c")]))
    b.add_complex("V", subcomplex(x, [("b", "c")]))
    b.add_square("s", "X", "U", "V")
    d = b.build()
    sq = d.squares["s"]
    assert d.complexes[sq.b].simplices == frozenset([("b",), ("c",)])
    assert d.complexes[sq.d] == skeleton(x, 1)
    assert len(d.nodes) == 4
    assert d.edges[sq.ia].src == (sq.b, EMPTY_NAME)
    assert d.edges[sq.ja].tgt == (sq.d, EMPTY_NAME)
    assert len(d.edges) == 4 + 4


def test_prism_closure():
    b = DiagramBuilder()
    b.add_complex("X", SimplicialComplex.from_maximal_simplices([("a", "b")]))
    b.add_prism("X")
    d = b.build()
    pe = d.prisms[("X", EMPTY_NAME)]
    assert pe.product_pair == ("XxI", EMPTY_NAME)
    assert d.edges[pe.i0].tgt == pe.product_pair
    assert d.edges[pe.i1].src == ("X", EMPTY_NAME)
    assert d.edges[pe.pr].src == pe.product_pair
    assert len(d.nodes) == 2
    assert len(d.edges) == 3 + 2


def test_cube_closure():
    seg = SimplicialComplex.from_maximal_simplices([("a", "b")])
    ends = skeleton(seg, 0)
    pt = subcomplex(seg, [("a",)])
    b = DiagramBuilder()
    for name, cx in [("X", seg), ("Y", ends), ("Z", pt)]:
        b.add_complex(name, cx)
    b.add_triple("s", "X", "Y", "Z")
    b.add_triple("t", "X", "Y", "Z")
    b.add_cube("c", "s", "t", {"a": "a", "b": "b"})
    d = b.build()
    cube = d.cubes["c"]
    assert d.edges[cube.dia].src == ("Y", "Z") and d.edges[cube.dia].tgt == ("Y", "Z")
    assert d.edges[cube.box].src == ("X", "Y") and d.edges[cube.box].tgt == ("X", "Y")
    assert d.edges[cube.mid].src == ("X", "Z")


def test_diagram_errors():
    b = DiagramBuilder()
    b.add_complex("X", full_triangle())
    b.add_pair("X")
    b.add_edge("f", ("X", EMPTY_NAME), ("X", EMPTY_NAME),
               {v: v for v in "abc"})
    with pytest.raises(ValueError, match="duplicate edge name"):
        b.add_edge("f", ("X", EMPTY_NAME), ("X", EMPTY_NAME),
                   {v: v for v in "abc"})

    b2 = DiagramBuilder()
    b2.add_complex("X", full_triangle())
    b2.add_triple("t", "X", "X", "X")
    with pytest.raises(ValueError, match="duplicate triple"):
        b2.add_triple("t", "X", "X", "X")

    b3 = DiagramBuilder()
    b3.add_complex("X", full_triangle())
    b3.add_complex("Y", skeleton(full_triangle(), 1))
    with pytest.raises(ValueError, match="chain of subcomplexes"):
        b3.add_triple("t", "Y", "X", EMPTY_NAME).build()


def test_unmapped_vertex_in_cube_or_square_map():
    seg = SimplicialComplex.from_maximal_simplices([("a", "b")])
    b = DiagramBuilder()
    b.add_complex("X", seg)
    b.add_complex("Y", skeleton(seg, 0))
    b.add_triple("t", "X", "Y")
    with pytest.raises(ValueError, match="'c.dia' leaves vertex 'b' unmapped"):
        b.add_cube("c", "t", "t", {"a": "a"})

    x = full_triangle()
    b2 = DiagramBuilder()
    b2.add_complex("X", x)
    b2.add_complex("U", subcomplex(x, [("a", "b"), ("a", "c")]))
    b2.add_complex("V", subcomplex(x, [("b", "c")]))
    b2.add_square("s", "X", "U", "V")
    with pytest.raises(ValueError, match="'m.b' leaves vertex 'b' unmapped"):
        b2.add_square_map("m", "s", "s", {"a": "a"})


def test_intersection_helper():
    x = full_triangle()
    u = subcomplex(x, [("a", "b")])
    v = subcomplex(x, [("b", "c")])
    w = intersection(u, v)
    assert w.simplices == frozenset([("b",)])
    assert w.vertices == ("b",)
