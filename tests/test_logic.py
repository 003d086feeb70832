import copy
import itertools
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, seed, settings, strategies

from homlab import logic
from homlab.fga import GroupHom
from homlab.logic import (
    Add,
    And,
    App,
    Eq,
    Exists,
    FLAVORS,
    FiniteStructure,
    Neg,
    Frozen,
    Sequent,
    Top,
    Var,
    Zero,
    check_sequent,
    composition_triangles,
    eval_sequent,
    eval_sequents,
    export_finite_structure,
    generate_axioms,
    generate_signature,
    validate_semantic,
)
from homlab.model import HomologyModel
from homlab.simp import DiagramBuilder, SimplicialComplex, skeleton, subcomplex

from oracles import (
    reference_eval_sequent,
    reference_exactness_axioms,
    reference_finite_structure,
    reference_mv_axioms,
)
from test_acceptance import axiom_suite_diagram


def interval_triple_diagram():
    seg = SimplicialComplex.from_maximal_simplices([("a", "b")])
    b = DiagramBuilder()
    b.add_complex("X", seg)
    b.add_complex("Y", skeleton(seg, 0))
    b.add_triple("t", "X", "Y")
    return b.build()


def union_square_diagram():
    x = skeleton(SimplicialComplex.from_maximal_simplices([("a", "b", "c")]), 1)
    b = DiagramBuilder()
    b.add_complex("S", x)
    b.add_complex("U", subcomplex(x, [("a", "b"), ("a", "c")]))
    b.add_complex("V", subcomplex(x, [("b", "c")]))
    b.add_square("q", "S", "U", "V")
    return b.build()


def cycle_diagram():
    """The 4-cycle a-b-c-d with A = {b, d}, P = {b}, U = a-b-c, V = c-d-a,
    a triple, a union square, maps by the flip of a and c, and a prism."""
    c = SimplicialComplex.from_maximal_simplices(
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    flip = {"a": "c", "b": "b", "c": "a", "d": "d"}
    b = DiagramBuilder()
    b.add_complex("C", c)
    b.add_complex("A", subcomplex(c, [("b",), ("d",)]))
    b.add_complex("P", subcomplex(c, [("b",)]))
    b.add_complex("U", subcomplex(c, [("a", "b"), ("b", "c")]))
    b.add_complex("V", subcomplex(c, [("c", "d"), ("a", "d")]))
    b.add_pair("C", "A")
    b.add_edge("e", ("C", "A"), ("C", "A"), flip)
    b.add_triple("t", "C", "A", "P")
    b.add_square("q", "C", "U", "V")
    b.add_square_map("m", "q", "q", flip)
    b.add_cube("k", "t", "t", flip)
    b.add_prism("A", "P")
    return b.build()


def point_structure(modulus):
    b = DiagramBuilder()
    b.add_complex("P", SimplicialComplex(("p",), [("p",)]))
    b.add_pair("P")
    model = HomologyModel(b.build(), modulus=modulus, window=(0, 0))
    sig = generate_signature(model.diagram, (0, 0))
    return sig, export_finite_structure(model, sig)


def test_signature_shape():
    sig = generate_signature(interval_triple_diagram(), (0, 1))
    assert len(sig.sorts) == 6
    kinds = Counter(info.kind for info in sig.funcs.values())
    assert kinds == {"edge": 10, "connecting": 1}
    info = sig.funcs["t@1"]
    assert info.source == "h1(X,Y)"
    assert info.target == "h0(Y)"
    assert sig.funcs["t.bt@0"].source == "h0(Y)"
    assert sig.funcs["t.bt@0"].target == "h0(X)"


def test_axiom_counts():
    diagram = interval_triple_diagram()
    sig = generate_signature(diagram, (0, 1))
    axioms = generate_axioms(sig, diagram, flavors=("core",))
    families = Counter(a.tag[0] for a in axioms)
    assert families["group"] == 4 * len(sig.sorts)
    assert families["identity"] == 3 * 2
    assert families["additivity"] == len(sig.funcs)
    assert families.get("composition", 0) == 0
    assert families["exactness"] == 2 * 2 + 4 * 1
    names = [a.name for a in axioms]
    assert len(names) == len(set(names))
    for a in axioms:
        check_sequent(sig, a.sequent)


def test_semantic_validation_passes():
    diagram = interval_triple_diagram()
    model = HomologyModel(diagram, window=(0, 1))
    sig = generate_signature(diagram, (0, 1))
    axioms = generate_axioms(sig, diagram, flavors=("core",))
    report = validate_semantic(model, sig, axioms)
    bad = [(a.name, detail) for a, ok, detail in report if not ok]
    assert bad == []


def test_routes_agree_mod_three():
    diagram = interval_triple_diagram()
    model = HomologyModel(diagram, modulus=3, window=(0, 1))
    sig = generate_signature(diagram, (0, 1))
    axioms = generate_axioms(sig, diagram, flavors=("core",))
    st = export_finite_structure(model, sig)
    semantic = validate_semantic(model, sig, axioms)
    for axiom, ok, _ in semantic:
        res = eval_sequent(st, axiom.sequent)
        assert ok and res.valid, axiom.name


def test_point_doubling_counterexample():
    sig, st = point_structure(4)
    s = "h0(P)"
    halves = Sequent((("x", s),), Top(),
                     Exists("y", s, Eq(Add(Var("y"), Var("y")), Var("x"))))
    check_sequent(sig, halves)
    res = eval_sequent(st, halves)
    assert not res.valid
    assert res.counterexample == {"x": (1,)}


def test_first_counterexample_waits_for_the_antecedent():
    # x + x = 0 first fails at x = 1, y = 0, where x = y is false: the
    # first failing assignment in product order is x = y = 1
    sig, st = point_structure(4)
    s = "h0(P)"
    seq = Sequent((("x", s), ("y", s)), Eq(Var("x"), Var("y")),
                  Eq(Add(Var("x"), Var("x")), Zero(s)))
    check_sequent(sig, seq)
    assert eval_sequent(st, seq).counterexample == {"x": (1,), "y": (1,)}


def test_unused_variable_takes_its_first_element():
    sig, st = point_structure(4)
    s = "h0(P)"
    seq = Sequent((("w", s), ("x", s), ("v", s)), Top(),
                  Eq(Add(Var("x"), Var("x")), Zero(s)))
    check_sequent(sig, seq)
    assert eval_sequent(st, seq).counterexample == {
        "w": (0,), "x": (1,), "v": (0,)}


def circle_structure(modulus):
    circle = skeleton(SimplicialComplex.from_maximal_simplices([("a", "b", "c")]), 1)
    b = DiagramBuilder()
    b.add_complex("S", circle)
    b.add_pair("S")
    model = HomologyModel(b.build(), modulus=modulus, window=(0, 1))
    sig = generate_signature(model.diagram, (0, 1))
    return sig, export_finite_structure(model, sig)


def test_sum_tables_are_built_on_demand():
    # two sorts of 997 elements: a sum table each would hold 2 * 997**2
    # positions, and no sequent here adds
    sig, st = circle_structure(997)
    assert sorted(len(c) for c in st.carriers.values()) == [997, 997]
    assert eval_sequent(st, Sequent((), Top(), Top())).valid
    assert st.sums == {}


def test_built_sum_table_is_coordinatewise_addition():
    diagram = cycle_diagram()
    model = HomologyModel(diagram, modulus=4, window=(0, 1))
    sig = generate_signature(diagram, (0, 1))
    st = export_finite_structure(model, sig)
    s = "h1(C,A)"
    seq = Sequent((("x", s), ("y", s)), Top(),
                  Eq(Add(Var("x"), Var("y")), Add(Var("y"), Var("x"))))
    check_sequent(sig, seq)
    assert eval_sequent(st, seq).valid
    assert list(st.sums) == [s]
    for sort, carrier in st.carriers.items():
        moduli = st.moduli[sort]
        table = st.sum_table(sort)
        assert table == [
            [carrier.index(tuple((x + y) % m for x, y, m in zip(a, b, moduli)))
             for b in carrier] for a in carrier]
        assert st.sum_table(sort) is table


# -- tabulation from generator images and mixed-radix positions --------------


RP2_TRIANGLES = ("abc", "acd", "ade", "aef", "abf", "bce", "cdf", "bde", "bdf", "cef")
CIRCLE_EDGES = (("x", "y"), ("y", "z"), ("x", "z"))


def rp2_circle_diagram():
    """RP2 + S1 relative to its circle, with an edge that turns the circle:
    at Z/4, h1(X) = Z/2 + Z/4 has two torsion factors."""
    x = SimplicialComplex.from_maximal_simplices(
        [tuple(t) for t in RP2_TRIANGLES] + list(CIRCLE_EDGES))
    turn = {**{v: v for v in "abcdef"}, "x": "y", "y": "z", "z": "x"}
    b = DiagramBuilder()
    b.add_complex("X", x)
    b.add_complex("A", subcomplex(x, CIRCLE_EDGES))
    b.add_pair("X", "A")
    b.add_edge("e", ("X", "A"), ("X", "A"), turn)
    b.add_triple("t", "X", "A")
    return b.build()


def structure_diagrams():
    """(diagram, window) pairs: the fixtures above and two seeded random
    pair/triple diagrams."""
    rng = random.Random(1703)
    out = [(make(), (0, 1)) for make in
           (interval_triple_diagram, union_square_diagram, cycle_diagram)]
    out.append((rp2_circle_diagram(), (0, 2)))
    out += [(axiom_suite_diagram(rng), (0, 3)) for _ in range(2)]
    return out


@pytest.mark.parametrize("modulus", [2, 3, 4, 6, 9])
def test_export_matches_per_element_reference(modulus):
    factors = set()
    for diagram, window in structure_diagrams():
        model = HomologyModel(diagram, modulus=modulus, window=window)
        sig = generate_signature(diagram, window)
        st = export_finite_structure(model, sig)
        want = reference_finite_structure(model, sig)
        assert st.carriers == want.carriers
        assert {f: list(t.items()) for f, t in st.tables.items()} == \
            {f: list(t.items()) for f, t in want.tables.items()}
        assert st.negation == want.negation
        for sort in st.carriers:
            assert st.sum_table(sort) == want.sums[sort]
        factors.update(st.moduli.values())
    assert (modulus,) in factors
    if modulus in (4, 6):   # h1(X) on RP2 + S1
        assert (2, modulus) in factors


@strategies.composite
def torsion_chains(draw):
    """Up to 3 invariant factors t1 | t2 | t3, each at least 2, with
    t1 * t2 * t3 <= 500."""
    chain, size = (), 1
    for _ in range(draw(strategies.integers(0, 3))):
        last = chain[-1] if chain else 1
        most = 500 // (size * last)
        if most < 2:
            break
        chain += (last * draw(strategies.integers(2, most)),)
        size *= chain[-1]
    return chain


@seed(1717)
@settings(max_examples=30, deadline=None)
@given(torsion_chains())
def test_finite_structure_tables_are_coordinatewise(moduli):
    st = FiniteStructure()
    st.add_sort("s", moduli)
    carrier = list(itertools.product(*map(range, moduli)))
    assert st.carriers["s"] == carrier
    index = {e: i for i, e in enumerate(carrier)}
    assert st.index["s"] == index
    assert st.negation["s"] == [
        index[tuple((-x) % m for x, m in zip(e, moduli))] for e in carrier]
    assert st.sum_table("s") == [
        [index[tuple((x + y) % m for x, y, m in zip(a, b, moduli))]
         for b in carrier] for a in carrier]


def test_export_lifts_each_unit_generator_once(monkeypatch):
    import homlab.fga as fga
    lifts = []
    real_lift = fga.CanonicalForm.lift
    monkeypatch.setattr(fga.CanonicalForm, "lift",
                        lambda cf, coords: lifts.append(coords) or real_lift(cf, coords))
    diagram = cycle_diagram()
    sig = generate_signature(diagram, (0, 1))
    counts = {}
    for modulus in (2, 7):
        model = HomologyModel(diagram, modulus=modulus, window=(0, 1))
        lifts.clear()
        st = export_finite_structure(model, sig)
        sources = [source for source, _ in st.func_sorts.values()]
        # one lift per torsion factor of each symbol's source, each of a
        # unit generator
        assert len(lifts) == sum(len(st.moduli[s]) for s in sources)
        assert all(sorted(c) == [0] * (len(c) - 1) + [1] for c in lifts)
        counts[modulus] = (len(lifts), sum(len(st.carriers[s]) for s in sources))
    # the count follows the torsion factors, not the carrier sizes
    assert counts[2][0] == counts[7][0] > 0
    assert counts[7][1] > counts[2][1]


def test_tampered_table_is_caught():
    diagram = interval_triple_diagram()
    model = HomologyModel(diagram, modulus=2, window=(0, 1))
    sig = generate_signature(diagram, (0, 1))
    axioms = generate_axioms(sig, diagram, flavors=("core",))
    st = export_finite_structure(model, sig)
    assert all(eval_sequent(st, a.sequent).valid for a in axioms)
    table = st.tables["t.bt@0"]
    k = next(k for k in table if any(k))
    table[k] = next(e for e in st.carriers["h0(X)"] if e != table[k])
    broken = [a.name for a in axioms if not eval_sequent(st, a.sequent).valid]
    assert broken


def test_composition_detected_on_prisms():
    circle = skeleton(SimplicialComplex.from_maximal_simplices([("a", "b", "c")]), 1)
    b = DiagramBuilder()
    b.add_complex("S", circle)
    b.add_prism("S")
    diagram = b.build()
    triangles = composition_triangles(diagram)
    assert ("S/0.i0", "S/0.pr", "id:S/0") in triangles
    assert ("S/0.i1", "S/0.pr", "id:S/0") in triangles
    model = HomologyModel(diagram, window=(0, 1))
    sig = generate_signature(diagram, (0, 1))
    axioms = generate_axioms(sig, diagram, flavors=("core", "homotopy"))
    families = Counter(a.tag[0] for a in axioms)
    assert families["composition"] == 2 * 2
    assert families["interval"] == 2
    report = validate_semantic(model, sig, axioms)
    assert all(ok for _, ok, _ in report)


def test_square_axioms_both_routes():
    diagram = union_square_diagram()
    sig = generate_signature(diagram, (0, 1))
    axioms = generate_axioms(sig, diagram, flavors=("cd",))
    families = Counter(a.tag[0] for a in axioms)
    assert families["mv"] == 2 * 2 + 4 * 1
    model = HomologyModel(diagram, modulus=2, window=(0, 1))
    report = validate_semantic(model, sig, axioms)
    assert all(ok for _, ok, _ in report)
    st = export_finite_structure(model, sig)
    for a in axioms:
        assert eval_sequent(st, a.sequent).valid, a.name


# -- what the semantic route says of a tampered model ------------------------

# maps doubled (induced) or zeroed (connecting), as "symbol@degree"
DOUBLED = ("id:C/A@1", "A/P.i0@0", "m.d@1", "k.box@1", "q.ia@0")
ZEROED = ("t@1", "q@1")
_MISMATCHES = {
    "ident/C/A/1": "identity edge acts nontrivially",
    "comp/A/P.i0;A/P.pr;id:A/P/0": "composite disagrees with its factors",
    "comp/A/P.i0;A/P.pr;k.dia/0": "composite disagrees with its factors",
    "comp/e;e;id:C/A/1": "composite disagrees with its factors",
    "comp/k.box;k.box;id:C/A/1": "composite disagrees with its factors",
    "nat/k/1": "connecting square does not commute",
    "interval/A/P/0": "the two end maps differ",
    "mvnat/m/1": "square of connecting maps does not commute",
}
SEMANTIC_FAILURES = {
    (0, DOUBLED): {
        **_MISMATCHES,
        # at Z/3, doubling m.d twice is the identity again
        "comp/m.d;m.d;id:q.d/0/1": "composite disagrees with its factors",
        "mv/q/0/comp_pieces": "witness (1, 0, 0, 0)",
        "mv/q/0/onto_pieces": "witness (1, 0, 0, 0, 0, -1)",
    },
    (3, DOUBLED): {
        **_MISMATCHES,
        "mv/q/0/comp_pieces": "witness (1, 0, 0, 0)",
        "mv/q/0/onto_pieces": "witness (1, 0, 0, 0, 0, 2)",
    },
    (0, ZEROED): {
        "exact/t/1/onto_bp": "witness (1, 0)",
        "exact/t/1/onto_bd": "witness (1,)",
        "mv/q/1/onto_union": "witness (1,)",
        "mv/q/1/onto_inter": "witness (1, -1)",
    },
    (3, ZEROED): {
        "exact/t/1/onto_bp": "witness (1, 0, 0, 0)",
        "exact/t/1/onto_bd": "witness (1,)",
        "mv/q/1/onto_union": "witness (1, 0, 0, 0)",
        "mv/q/1/onto_inter": "witness (1, 2)",
    },
}


def _scaled(fetch, names, k):
    """fetch with the maps named in names multiplied by k."""
    def get(name, n):
        hom = fetch(name, n)
        if f"{name}@{n}" not in names:
            return hom
        return GroupHom(hom.source, hom.target, hom.matrix.scaled(k))
    return get


@pytest.mark.parametrize("modulus, tampered", sorted(SEMANTIC_FAILURES))
def test_semantic_failure_details(modulus, tampered, monkeypatch):
    """Every family but the group laws and additivity names its failure:
    the chain equations by their mismatch text, the exact segments by a
    witness."""
    diagram = cycle_diagram()
    model = HomologyModel(diagram, modulus, window=(0, 1))
    monkeypatch.setattr(model, "induced", _scaled(model.induced, tampered, 2))
    for method in ("connecting", "mv_connecting"):
        monkeypatch.setattr(model, method,
                            _scaled(getattr(model, method), tampered, 0))
    sig = generate_signature(diagram, (0, 1))
    axioms = generate_axioms(sig, diagram, FLAVORS)
    report = validate_semantic(model, sig, axioms)
    assert {a.name: detail for a, ok, detail in report if not ok} == \
        SEMANTIC_FAILURES[modulus, tampered]
    assert all(detail == "holds by construction of the presented groups"
               for a, ok, detail in report if a.tag[0] in ("group", "additivity"))
    assert all(detail == "" for a, ok, detail in report
               if ok and a.tag[0] not in ("group", "additivity"))


def test_check_sequent_errors():
    sig = generate_signature(interval_triple_diagram(), (0, 1))
    s = "h0(Y)"
    with pytest.raises(ValueError, match="unbound variable"):
        check_sequent(sig, Sequent((), Top(), Eq(Var("x"), Var("x"))))
    with pytest.raises(ValueError, match="unknown sort"):
        check_sequent(sig, Sequent((("x", "h9(Q)"),), Top(),
                                   Eq(Var("x"), Var("x"))))
    with pytest.raises(ValueError, match="mixes sorts"):
        check_sequent(sig, Sequent((("x", s), ("y", "h0(X)")), Top(),
                                   Eq(Var("x"), Var("y"))))
    with pytest.raises(ValueError, match="not allowed left"):
        check_sequent(sig, Sequent((("x", s),),
                                   Exists("y", s, Eq(Var("y"), Var("x"))),
                                   Top()))
    with pytest.raises(ValueError, match="unknown symbol"):
        check_sequent(sig, Sequent((("x", s),), Top(),
                                   Eq(App("nosuch@0", Var("x")), Zero(s))))
    with pytest.raises(ValueError, match="shadows"):
        check_sequent(sig, Sequent((("x", s),), Top(),
                                   Exists("x", s, Eq(Var("x"), Var("x")))))
    with pytest.raises(ValueError, match="expects"):
        check_sequent(sig, Sequent((("x", "h0(X)"),), Top(),
                                   Eq(App("t.bt@0", Var("x")), Var("x"))))


def test_records_compare_by_class_and_fields():
    """Syntax nodes are frozen records: equal, with equal hashes, when
    they are of one class with equal fields, and unequal across classes;
    printed as their class and fields; built by position or keyword;
    read-only; copied and pickled whole."""
    x, y = Var("x"), Var("y")
    p, q = Eq(x, y), Eq(y, x)
    assert Add(x, y) == Add(Var("x"), Var("y"))
    assert hash(Add(x, y)) == hash(Add(Var("x"), Var("y")))
    assert Top() == Top() and hash(Top()) == hash(Top())
    assert Var("x") != Zero("x")
    assert Add(x, y) != Eq(x, y)
    assert And(p, q) != Eq(p, q)
    assert len({Var("x"), Zero("x"), Add(x, y), Eq(x, y)}) == 4
    with pytest.raises(AttributeError):
        Var("x").name = "y"
    assert repr(App("f@0", Var("x"))) == "App(func='f@0', arg=Var(name='x'))"
    assert Exists(var="z", sort="h0(X)", body=p) == Exists("z", "h0(X)", p)
    assert Sequent(context=(("x", "h0(X)"),), antecedent=Top(),
                   consequent=p) == Sequent((("x", "h0(X)"),), Top(), p)
    diagram = interval_triple_diagram()
    axiom = next(a for a in generate_axioms(
        generate_signature(diagram, (0, 1)), diagram)
        if isinstance(a.sequent.consequent, Exists))
    for twin in (copy.deepcopy(axiom), pickle.loads(pickle.dumps(axiom))):
        assert twin == axiom and hash(twin) == hash(axiom)
        assert twin is not axiom and twin.sequent is not axiom.sequent


def _rebuild(node, swap):
    """node with each subterm or subformula that swap(sub) replaces (by
    anything but None) replaced, in reading order."""
    new = swap(node)
    if new is not None:
        return new
    if not isinstance(node, Frozen):
        return node
    return type(node)(*(_rebuild(getattr(node, f), swap)
                        for f in node.__slots__))


@pytest.mark.parametrize("make", [
    interval_triple_diagram, union_square_diagram, cycle_diagram,
    lambda: axiom_suite_diagram(random.Random(5)),
], ids=["triple", "square", "cycle", "suite"])
def test_check_sequent_sorts_every_erased_zero(make):
    """Every generated axiom comes back from check_sequent as it was after
    its zeros lose their sorts, as a parsed bare 0 has none; and with its
    first symbol renamed, check_sequent names that symbol."""
    diagram = make()
    sig = generate_signature(diagram, (0, 2))
    renamed = 0
    for axiom in generate_axioms(sig, diagram, FLAVORS):
        erased = _rebuild(axiom.sequent, lambda n: Zero(None)
                          if isinstance(n, Zero) else None)
        assert check_sequent(sig, erased) == axiom.sequent, axiom.name
        first = []

        def rename(n):
            if isinstance(n, App) and not first:
                first.append("no" + n.func)
                return App(first[0], n.arg)
            return None

        broken = _rebuild(erased, rename)
        if first:
            renamed += 1
            with pytest.raises(ValueError, match=re.escape(
                    f"unknown symbol {first[0]!r}")):
                check_sequent(sig, broken)
    assert renamed


def test_export_requires_finite_carriers():
    diagram = interval_triple_diagram()
    model = HomologyModel(diagram, window=(0, 1))
    sig = generate_signature(diagram, (0, 1))
    with pytest.raises(ValueError, match="infinite carrier"):
        export_finite_structure(model, sig)


# -- the compiled evaluator against the tree-walking reference ----------------


def _random_term(rng, st, sort, scope, depth):
    names = [v for v, s in scope if s == sort]
    funcs = sorted(f for f, (_, tgt) in st.func_sorts.items() if tgt == sort)
    kinds = ["zero"] + ["var"] * 3 * bool(names)
    if depth:
        kinds += ["add", "neg"] + ["app"] * 2 * bool(funcs)
    kind = rng.choice(kinds)
    if kind == "var":
        return Var(rng.choice(names))
    if kind == "zero":
        return Zero(sort)
    if kind == "add":
        return Add(_random_term(rng, st, sort, scope, depth - 1),
                   _random_term(rng, st, sort, scope, depth - 1))
    if kind == "neg":
        return Neg(_random_term(rng, st, sort, scope, depth - 1))
    func = rng.choice(funcs)
    return App(func, _random_term(rng, st, st.func_sorts[func][0], scope,
                                  depth - 1))


def _nontrivial(st):
    return sorted(s for s, carrier in st.carriers.items() if len(carrier) > 1)


def _random_formula(rng, st, scope, depth, allow_exists):
    roll = rng.random()
    if depth and roll < 0.2:
        return And(_random_formula(rng, st, scope, depth - 1, allow_exists),
                   _random_formula(rng, st, scope, depth - 1, allow_exists))
    if allow_exists and depth and roll < 0.45:
        var = f"e{len(scope)}"
        sort = rng.choice(_nontrivial(st))
        return Exists(var, sort, _random_formula(
            rng, st, scope + [(var, sort)], depth - 1, allow_exists))
    # mostly equate terms of a sort some bound variable has
    sorts = [s for _, s in scope] or _nontrivial(st)
    sort = rng.choice(sorts if rng.random() < 0.8 else _nontrivial(st))
    return Eq(_random_term(rng, st, sort, scope, 2),
              _random_term(rng, st, sort, scope, 2))


def random_sequent(rng, st):
    """A well-typed sequent over st whose consequent sees only a prefix of
    the context, so the antecedent's variables are often bound later; the
    context may also hold variables neither side mentions."""
    sorts = _nontrivial(st)
    context = [(f"v{i}", rng.choice(sorts)) for i in range(rng.randint(1, 3))]
    cons = _random_formula(rng, st, context[:rng.randint(0, len(context))],
                           2, True)
    roll = rng.random()
    if roll < 0.3:
        ante = Top()
    elif roll < 0.65:
        # pins a late variable to a term, so it holds at one value of it
        var, sort = rng.choice(context[1:] or context)
        ante = Eq(Var(var), _random_term(rng, st, sort, context, 2))
    else:
        ante = _random_formula(rng, st, context[rng.randrange(len(context)):],
                               1, False)
    return Sequent(tuple(context), ante, cons)


def _tamper(st, rng):
    """Send one element of every function table somewhere else."""
    for func in sorted(st.tables):
        table = st.tables[func]
        key = rng.choice(sorted(table))
        others = [e for e in st.carriers[st.func_sorts[func][1]]
                  if e != table[key]]
        if others:
            table[key] = rng.choice(others)


def _assert_matches_reference(st, sig, sequents):
    """Compare (valid, counterexample) exactly: eval_sequents with one
    eval_sequent call per sequent, and that with the tree-walking
    reference where its search is small; return the invalid count."""
    for seq in sequents:
        check_sequent(sig, seq)
    invalid = 0
    for seq, shared in zip(sequents, eval_sequents(st, sequents)):
        got = eval_sequent(st, seq)
        assert (shared.valid, shared.counterexample) == \
            (got.valid, got.counterexample), seq
        if _search_size(st, seq) <= 20000:
            want = reference_eval_sequent(st, seq)
            assert (got.valid, got.counterexample) == \
                (want.valid, want.counterexample), seq
        invalid += not got.valid
    return invalid


def _differential_inputs(modulus, seed):
    """(model, sig, sequents) per diagram: every generated axiom plus
    random sequents."""
    rng = random.Random(seed)
    window = (0, 1)
    for make in (interval_triple_diagram, union_square_diagram, cycle_diagram):
        diagram = make()
        sig = generate_signature(diagram, window)
        model = HomologyModel(diagram, modulus=modulus, window=window)
        sequents = [a.sequent for a in
                    generate_axioms(sig, diagram, ("core", "homotopy", "cd"))]
        st = export_finite_structure(model, sig)
        sequents += [random_sequent(rng, st) for _ in range(40)]
        yield model, sig, sequents


@pytest.mark.parametrize("modulus", [2, 3, 4, 6, 9])
def test_compiled_evaluator_matches_reference(modulus):
    rng = random.Random(2000 + modulus)
    checked = invalid = 0
    for model, sig, sequents in _differential_inputs(modulus, 1000 + modulus):
        for tampered in (False, True):
            st = export_finite_structure(model, sig)
            if tampered:
                _tamper(st, rng)
            invalid += _assert_matches_reference(st, sig, sequents)
            checked += len(sequents)
    assert checked > 600
    assert invalid > 100


@pytest.mark.parametrize("modulus", [2, 3, 4, 6])
def test_segment_sequents_hold_where_the_hand_written_ones_do(modulus):
    """The sequents written from the segments' map matrices carry the
    names and tags of the earlier hand-written ones and get the same
    verdict, with the same counterexample values, on every structure,
    also where tampered tables are no homomorphisms.  A triple's are the
    very same sequents; a square's differ in variable names and in
    writing -ic(x) = y2 where the earlier ones wrote ic(b) + v = 0."""
    rng = random.Random(2800 + modulus)
    invalid = 0
    for make in (interval_triple_diagram, union_square_diagram, cycle_diagram):
        diagram = make()
        sig = generate_signature(diagram, (0, 1))
        model = HomologyModel(diagram, modulus=modulus, window=(0, 1))
        generated = {a.name: a for a in generate_axioms(sig, diagram, FLAVORS)
                     if a.tag[0] in ("exactness", "mv")}
        reference = {a.name: a for a in reference_exactness_axioms(sig, diagram)
                     + reference_mv_axioms(sig, diagram)}
        assert generated.keys() == reference.keys() and reference
        for name, ref in reference.items():
            new = generated[name]
            assert new.tag == ref.tag and check_sequent(sig, new.sequent)
            assert [s for _, s in new.sequent.context] == \
                [s for _, s in ref.sequent.context]
            if ref.tag[0] == "exactness":
                assert new.sequent == ref.sequent
        for tampered in (False, True):
            st = export_finite_structure(model, sig)
            if tampered:
                _tamper(st, rng)
            for name, ref in reference.items():
                got = eval_sequent(st, generated[name].sequent)
                want = eval_sequent(st, ref.sequent)
                assert got.valid == want.valid, name
                if not want.valid:
                    assert list(got.counterexample.values()) == \
                        list(want.counterexample.values()), name
                    invalid += 1
    assert invalid > 5


# -- exporting what the sequents read ------------------------------------------


def test_read_by_keeps_what_the_sequents_read():
    sig = generate_signature(interval_triple_diagram(), (0, 1))
    x, y = Var("x"), Var("y")
    sequents = [
        Sequent((("x", "h1(X,Y)"),), Top(), Eq(App("t@1", x), Zero(None))),
        # read, although ill-typed: the names are what counts
        Sequent((), Top(), Exists("y", "h1(X)", Eq(Neg(y), Zero("h0(X)")))),
        # names the signature lacks are skipped
        Sequent((("x", "h9(Q)"),), Top(), Eq(App("nosuch@0", x), x)),
    ]
    part = sig.read_by(sequents)
    assert part.funcs == {"t@1": sig.funcs["t@1"]}
    read = {"h1(X,Y)", "h0(Y)", "h1(X)", "h0(X)"}
    assert part.sorts == {s: k for s, k in sig.sorts.items() if s in read}
    assert part.window == sig.window
    assert sig.read_by([]).sorts == {} and sig.read_by([]).funcs == {}


def _search_size(st, seq) -> int:
    """The assignments of the context times the witnesses of every
    `exists`: a bound on the work of the tree-walking reference."""
    sorts = [s for _, s in seq.context]
    _rebuild(seq, lambda n: sorts.append(n.sort) if isinstance(n, Exists) else None)
    size = 1
    for s in sorts:
        size *= len(st.carriers[s])
    return size


@pytest.mark.parametrize("modulus", [2, 3, 4, 6, 9])
def test_export_of_what_sequents_read_matches_full_export(modulus):
    """The structure exported from `sig.read_by(sequents)` holds exactly
    the sorts and symbols the sequents read, each carrier and table as in
    the export of the whole signature, and each sequent evaluates on it
    as on the whole export and as the tree-walking reference says."""
    rng = random.Random(2600 + modulus)
    kinds, checked, invalid, smaller = set(), 0, 0, 0
    for diagram, window in structure_diagrams():
        model = HomologyModel(diagram, modulus=modulus, window=window)
        sig = generate_signature(diagram, window)
        full = export_finite_structure(model, sig)
        sequents = []
        while len(sequents) < 10:
            seq = random_sequent(rng, full)
            if _search_size(full, seq) <= 5000:
                sequents.append(seq)
                _rebuild(seq, lambda n: kinds.add(type(n)))
        for batch in (sequents[:1], sequents[1:4], sequents):
            part = sig.read_by(batch)
            smaller += len(part.sorts) < len(sig.sorts)
            st = export_finite_structure(model, part)
            assert list(st.carriers) == sorted(part.sorts)
            assert list(st.tables) == sorted(part.funcs)
            for s in part.sorts:
                assert st.carriers[s] == full.carriers[s]
                assert st.negation[s] == full.negation[s]
            for f in part.funcs:
                assert list(st.tables[f].items()) == list(full.tables[f].items())
            for seq in batch:
                check_sequent(sig, seq)
                got = eval_sequent(st, seq)
                want = reference_eval_sequent(full, seq)
                assert (got.valid, got.counterexample) == \
                    (want.valid, want.counterexample), seq
                assert eval_sequent(full, seq) == got
                checked += 1
                invalid += not got.valid
    assert {Exists, App, Neg} <= kinds
    assert checked == 6 * 14 and invalid > 10 and smaller >= 6


# -- the vector path of the last search level ---------------------------------


def row_path_sequents(s, f):
    """Sequents on x and y of sort s, y the axis, f an endomorphism of s,
    whose vector terms are rows of a table (the axis plus a scalar, the
    image of the axis) or a scalar plus such a row: each row equated with
    a scalar on either side, each composed row with a row, and `Exists`
    over row equations, alone and inside `And`."""
    x, y, w = Var("x"), Var("y"), Var("w")
    rows = [Add(x, y), Add(y, x), App(f, y)]
    scalars = [x, App(f, x), Zero(s)]
    composed = [Add(x, Add(x, y)), Add(App(f, x), Add(y, x))]
    eqs = [Eq(r, c) for r in rows for c in scalars]
    eqs += [Eq(c, r) for r in rows for c in scalars]
    eqs += [Eq(a, b) for a in composed for b in rows + composed]
    eqs += [Eq(b, a) for a in composed for b in rows]
    xy = (("x", s), ("y", s))
    out = [Sequent(xy, Top(), e) for e in eqs]
    out += [Sequent(xy, a, b) for a, b in zip(eqs, eqs[7:] + eqs[:7])]
    exists = [
        Exists("w", s, Eq(Add(w, y), x)),
        Exists("w", s, Eq(App(f, x), Add(y, w))),
        Exists("w", s, Eq(w, App(f, y))),
        Exists("w", s, And(Eq(Add(y, w), x), Eq(App(f, y), App(f, w)))),
        Exists("w", s, And(Eq(App(f, w), x), Eq(Add(w, y), App(f, x)))),
        And(Exists("w", s, Eq(Add(w, y), App(f, x))), Eq(Add(x, y), Zero(s))),
    ]
    for e in exists:
        out += [Sequent(xy, ante, e) for ante in
                (Top(), Eq(App(f, y), y), Eq(App(f, x), x), Eq(Add(x, y), x))]
    return out


def vector_path_sequents(s, f, one, g):
    """Sequents over sort s, f an endomorphism of s, `one` a sort of one
    element and g an endomorphism of it.  The axis is y (or u): the terms
    below take every scalar and vector form of `Add`, `Neg` and `App`, the
    axis variable itself among them, and the formulas every mix of scalar
    and vector parts of `Eq`, `And` and `Exists`, with the axis level
    holding only an antecedent, only a consequent, or both; the row forms
    of `row_path_sequents` are taken on s and on `one`, where a row has
    one position."""
    x, y, u, w, v = Var("x"), Var("y"), Var("u"), Var("w"), Var("v")
    scalars = [x, App(f, x), Neg(x), Add(x, App(f, x)), Zero(s)]
    vectors = [y, App(f, y), Neg(y), App(f, Add(x, y)), Neg(App(f, y)),
               Add(x, y), Add(y, x), Add(y, y), Add(App(f, y), y),
               Add(y, App(f, y)), Add(Neg(y), App(f, x)),
               Add(App(f, x), Neg(y)), Add(App(f, y), Neg(y))]
    xy = (("x", s), ("y", s))
    fixed = Eq(App(f, x), x)                     # scalar, at depth 1
    out = [Sequent(xy, Top(), Eq(a, b))
           for a in vectors for b in vectors + scalars]
    out += [Sequent(xy, Top(), Eq(a, b)) for a in scalars for b in vectors]
    for a, b in zip(vectors, vectors[3:] + scalars):
        out += [Sequent(xy, Eq(a, b), fixed),    # antecedent only
                Sequent(xy, fixed, Eq(a, b)),    # consequent only
                Sequent(xy, Eq(a, b), Eq(b, App(f, a))),
                Sequent(xy + (("z", s),), Eq(a, Zero(s)), Eq(b, Neg(a)))]
    vec, vec2, sca = Eq(App(f, y), y), Eq(Add(y, y), x), fixed
    for ante, cons in ((Top(), And(vec, vec2)), (Top(), And(sca, vec)),
                       (Top(), And(vec, sca)), (And(vec, vec2), sca),
                       (And(sca, vec2), vec), (vec2, And(vec, sca))):
        out.append(Sequent(xy, ante, cons))
    exists = [
        Exists("w", s, Eq(Add(w, y), x)),        # every y has a witness
        Exists("w", s, Eq(App(f, w), y)),        # the image of f
        Exists("w", s, Eq(App(f, w), Add(x, y))),
        Exists("w", s, And(Eq(App(f, w), x), Eq(w, y))),
        Exists("w", s, Exists("v", s, Eq(Add(w, App(f, v)), y))),
        And(Exists("w", s, Eq(App(f, w), x)), Eq(y, App(f, y))),
    ]
    for e in exists:
        out += [Sequent(xy, Top(), e), Sequent(xy, Eq(App(f, y), y), e),
                Sequent(xy, fixed, e)]
    # an axis carrier of one element
    xu = (("x", s), ("u", one))
    for cons in (Eq(Add(u, u), Neg(u)), Eq(u, Zero(one)),
                 Exists("w", one, Eq(Add(w, u), u)),
                 And(fixed, Eq(Add(u, u), u))):
        out += [Sequent(xu, Top(), cons), Sequent(xu, fixed, cons),
                Sequent(xu, Eq(u, Add(u, u)), fixed)]
    return out + row_path_sequents(s, f) + row_path_sequents(one, g)


def test_table_edits_between_calls_are_seen():
    # the row indexes and getters of a call must not outlive it, on the
    # structure or anywhere else: edits to a function table and to a sum
    # table after calls that read them are seen by the next call, which
    # answers as a first call on a copy of the edited structure does
    diagram = cycle_diagram()
    model = HomologyModel(diagram, modulus=3, window=(0, 1))
    sig = generate_signature(diagram, (0, 1))
    st = export_finite_structure(model, sig)
    s, f = "h1(C,A)", "e@1"
    carrier = st.carriers[s]
    x, y, w = Var("x"), Var("y"), Var("w")
    xy = (("x", s), ("y", s))
    sequents = [
        Sequent(xy, Eq(Add(x, y), Zero(s)), Eq(y, Neg(x))),
        Sequent(xy, Eq(App(f, y), x), Eq(App(f, x), y)),
        Sequent(xy, Top(), Eq(Add(x, App(f, y)), App(f, Add(App(f, x), y)))),
        Sequent(xy, Top(), Exists("w", s, Eq(Add(x, Add(w, y)), App(f, y)))),
        Sequent(xy, Top(), Eq(Add(x, Add(x, y)), Add(Add(x, x), y))),
    ]
    for q in sequents:
        check_sequent(sig, q)

    def answers(structure):
        return [eval_sequent(structure, q) for q in sequents]

    first = answers(st)
    assert first == answers(st)
    table = st.tables[f]
    table[carrier[1]], table[carrier[2]] = table[carrier[2]], table[carrier[1]]
    fresh = copy.deepcopy(st)
    second = answers(st)
    assert second == answers(fresh) != first
    assert second == [reference_eval_sequent(st, q) for q in sequents]
    sums = st.sum_table(s)
    sums[0][1] = sums[1][0] = 0     # e1 + 0 = 0, in both orders
    fresh = copy.deepcopy(st)
    third = answers(st)
    assert third == answers(fresh) != second
    assert vars(st) == vars(fresh)


@pytest.mark.parametrize("modulus", [2, 3])
def test_vector_path_matches_reference(modulus):
    diagram = cycle_diagram()
    model = HomologyModel(diagram, modulus=modulus, window=(0, 1))
    sig = generate_signature(diagram, (0, 1))
    sequents = vector_path_sequents("h1(C,A)", "e@1", "h0(C,A)", "e@0")
    rng = random.Random(3000 + modulus)
    invalid = []
    for tampered in (False, True):
        st = export_finite_structure(model, sig)
        assert len(st.carriers["h0(C,A)"]) == 1
        if tampered:
            _tamper(st, rng)
        invalid.append(_assert_matches_reference(st, sig, sequents))
    # both outcomes occur often, and tampering breaks more sequents
    assert invalid[0] > 100 and len(sequents) - invalid[0] > 50
    assert invalid[1] > invalid[0]


def mixed_structure():
    """A = Z/16 x Z/17 (272 elements) and B = Z/17, with the projection
    p : A -> B and the inclusion i : B -> A."""
    st = FiniteStructure()
    st.add_sort("A", (16, 17))
    st.add_sort("B", (17,))
    st.add_function("p", "A", "B", {e: e[1:] for e in st.carriers["A"]})
    st.add_function("i", "B", "A", {e: (0, *e) for e in st.carriers["B"]})
    return st


def cut_off_sequents(s, f):
    """One-variable sequents over sort s and an endomorphism f of it, whose
    vectors are f and negation of the axis and of other vectors, a zero
    plus a vector, and an `exists` over s."""
    x, w, zero = Var("x"), Var("w"), Zero(s)
    ctx = (("x", s),)
    return [Sequent(ctx, Top(), cons) for cons in (
        Eq(App(f, x), x),
        Eq(Neg(App(f, x)), App(f, Neg(x))),
        Eq(Add(zero, App(f, x)), App(f, Add(x, zero))),
        Eq(Add(App(f, App(f, x)), Neg(x)), zero),
        Exists("w", s, Eq(App(f, w), x)),
        Exists("w", s, Eq(Add(App(f, w), Neg(x)), zero)),
    )] + [Sequent(ctx, Eq(App(f, x), x), Exists("w", s, Eq(Neg(w), App(f, x))))]


def mixed_sequents():
    """Sequents whose symbols map byte vectors of B to list vectors of A
    and back."""
    x, y, w = Var("x"), Var("y"), Var("w")
    yx = (("y", "B"), ("x", "A"))
    return [
        Sequent(yx, Top(), Eq(App("p", x), y)),
        Sequent(yx, Top(), Eq(App("p", Add(App("i", y), x)),
                              Add(y, App("p", x)))),
        Sequent((("x", "A"),), Top(), Eq(App("p", Neg(x)), Neg(App("p", x)))),
        Sequent((("x", "A"),), Top(),
                Eq(App("p", App("i", App("p", x))), App("p", x))),
        Sequent((("x", "B"),), Top(),
                Eq(App("p", Add(Zero("A"), App("i", x))), Add(x, Zero("B")))),
        Sequent((("y", "B"),), Top(), Exists("w", "A", Eq(App("p", w), y))),
    ]


def test_byte_vectors_at_the_cut_off():
    # sorts of 256 elements take byte vectors and of 257 lists; A and B
    # mix the two; each against the reference, tampered or not
    rng = random.Random(29)
    cases = []
    for modulus, vector in ((256, bytes), (257, list)):
        sig, st = circle_structure(modulus)
        sequents = cut_off_sequents("h1(S)", "id:S/0@1")
        for seq in sequents:
            check_sequent(sig, seq)
        assert logic._vector_type(len(st.carriers["h1(S)"])) is vector
        cases.append((lambda m=modulus: circle_structure(m)[1], sequents))
    st = mixed_structure()
    assert [logic._vector_type(len(st.carriers[s])) for s in "AB"] == [list, bytes]
    cases.append((mixed_structure, mixed_sequents()))
    outcomes = []
    for make, sequents in cases:
        for tampered in (False, True):
            st = make()
            if tampered:
                _tamper(st, rng)
            for seq in sequents:
                got, want = eval_sequent(st, seq), reference_eval_sequent(st, seq)
                assert (got.valid, got.counterexample) == \
                    (want.valid, want.counterexample), seq
                outcomes.append((tampered, got.valid))
    # both verdicts occur, tampered and not
    assert set(outcomes) == set(itertools.product((False, True), repeat=2))


# -- one enumeration per distinct finite problem ------------------------------


def test_edited_sort_is_not_merged_with_an_equal_one():
    # h0(U) and h0(V) are both Z/3, so their group axioms share shapes
    # until one sort's sum table or negation is edited
    diagram = cycle_diagram()
    model = HomologyModel(diagram, modulus=3, window=(0, 1))
    sig = generate_signature(diagram, (0, 1))
    u, v = "h0(U)", "h0(V)"
    axioms = [a for a in generate_axioms(sig, diagram, ("core",))
              if a.tag[:2] in (("group", u), ("group", v))]
    sequents = [a.sequent for a in axioms]
    assert len(sequents) == 8 and {a.tag[1] for a in axioms} == {u, v}
    untouched = eval_sequents(export_finite_structure(model, sig), sequents)
    assert all(untouched) and len({id(r) for r in untouched}) == 4

    def edit_sums(st):
        st.sum_table(u)[1][2] = 1       # 1 + 2 = 1, not 0

    def edit_negation(st):
        st.negation[u][1] = 1           # -1 = 1, not 2

    for edit in (edit_sums, edit_negation):
        st = export_finite_structure(model, sig)
        assert st.moduli[u] == st.moduli[v] == (3,)
        edit(st)
        got = eval_sequents(st, sequents)
        assert got == [eval_sequent(st, q) for q in sequents]
        failing = {a.tag[1] for a, r in zip(axioms, got) if not r.valid}
        assert failing == {u}, edit


def test_shapes_keep_variable_names_context_order_and_images():
    # the same formula over a permuted or renamed context, and the same
    # sequent over two endomorphisms of one sort with different tables
    diagram = cycle_diagram()
    model = HomologyModel(diagram, modulus=3, window=(0, 1))
    sig = generate_signature(diagram, (0, 1))
    st = export_finite_structure(model, sig)
    s, x, y = "h1(C,A)", Var("x"), Var("y")
    body = Eq(App("e@1", x), Add(y, x))
    sequents = [
        Sequent((("x", s), ("y", s)), Top(), body),
        Sequent((("y", s), ("x", s)), Top(), body),
        Sequent((("a", s), ("b", s)), Top(),
                Eq(App("e@1", Var("a")), Add(Var("b"), Var("a")))),
        Sequent((("x", s),), Top(), Eq(App("e@1", x), x)),
        Sequent((("x", s),), Top(), Eq(App("id:C/A@1", x), x)),
    ]
    for q in sequents:
        check_sequent(sig, q)
    got = eval_sequents(st, sequents)
    assert got == [eval_sequent(st, q) for q in sequents]
    assert len({id(r) for r in got}) == 5
    assert [r.valid for r in got] == [False] * 4 + [True]
    assert got[0].counterexample != got[1].counterexample
    assert set(got[2].counterexample) == {"a", "b"}


def test_eval_sequents_leaves_no_cache_on_the_structure():
    diagram = cycle_diagram()
    model = HomologyModel(diagram, modulus=3, window=(0, 1))
    sig = generate_signature(diagram, (0, 1))
    st = export_finite_structure(model, sig)
    for s in st.moduli:     # eval_sequent keeps the sum tables it builds
        st.sum_table(s)
    before = copy.deepcopy(st)
    sequents = [a.sequent for a in generate_axioms(sig, diagram, FLAVORS)]
    assert eval_sequents(st, sequents) == \
        [eval_sequent(before, q) for q in sequents]
    assert vars(st) == vars(before)
