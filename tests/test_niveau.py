import json
import random

import pytest

from homlab.fga import is_isomorphism, smith
from homlab.model import relative_chain_complex
from homlab.niveau import (
    cellular_complex,
    check_cellularity,
    check_convergence,
    compare_filtrations,
    compare_first_page,
    niveau_filtration,
    page_turn_mismatches,
    recover_homology,
    run_pages,
    spectral_summary,
)
from homlab.simp import (
    Filtration,
    SimpPair,
    SimplicialComplex,
    skeleton,
    subcomplex,
)

from oracles import reference_pages


def circle():
    return skeleton(SimplicialComplex.from_maximal_simplices([("a", "b", "c")]), 1)


def disk():
    return SimplicialComplex.from_maximal_simplices([("a", "b", "c")])


def sphere():
    return skeleton(SimplicialComplex.from_maximal_simplices([("a", "b", "c", "d")]), 2)


def test_circle_skeletal_pages():
    spec = run_pages(Filtration.skeletal(circle()))
    assert spec.group(1, 0, 0).iso_invariants() == (3, ())
    assert spec.group(1, 1, 0).iso_invariants() == (3, ())
    assert spec.group(1, 1, -1).is_trivial()
    assert check_cellularity(spec) == []
    d1 = spec.differential(1, 1, 0)
    assert smith(d1.matrix).rank == 2
    assert spec.stable_index() == 2
    assert spec.group(2, 1, 0).iso_invariants() == (1, ())
    assert spec.group(2, 0, 0).iso_invariants() == (1, ())
    assert page_turn_mismatches(spec) == []
    assert compare_first_page(spec) == []
    niv = niveau_filtration(spec)
    assert niv.homology == {0: (1, ()), 1: (1, ())}
    assert niv.graded[(0, 0)] == (1, ())
    assert niv.graded[(1, 1)] == (1, ())
    assert check_convergence(spec, niv) == []


def point_circle_disk():
    x = disk()
    return Filtration(x, [subcomplex(x, [("a",)]), skeleton(x, 1), x])


def test_collapsing_disk_filtration():
    spec = run_pages(point_circle_disk())
    assert spec.group(1, 0, 0).iso_invariants() == (1, ())
    assert spec.group(1, 1, 0).iso_invariants() == (1, ())
    assert spec.group(1, 2, 0).iso_invariants() == (1, ())
    d_top = spec.differential(1, 2, 0)
    assert is_isomorphism(d_top)
    assert spec.differential(1, 1, 0).is_zero()
    for p, want in [(0, (1, ())), (1, (0, ())), (2, (0, ()))]:
        assert spec.infinity(p, -p).iso_invariants() == want
    assert page_turn_mismatches(spec) == []
    assert compare_first_page(spec) == []
    assert check_convergence(spec) == []


def test_collapsing_disk_mod_two():
    spec = run_pages(point_circle_disk(), modulus=2)
    assert spec.group(1, 2, 0).iso_invariants() == (0, (2,))
    assert is_isomorphism(spec.differential(1, 2, 0))
    assert spec.infinity(0, 0).iso_invariants() == (0, (2,))
    assert spec.infinity(1, -1).is_trivial()
    assert check_convergence(spec) == []
    assert compare_first_page(spec) == []


def test_sphere_cellular_recovery():
    x = sphere()
    spec = run_pages(Filtration.skeletal(x))
    cell = cellular_complex(spec)
    assert cell.is_cellular()
    assert cell.homology_table() == [(0, (1, ())), (1, (0, ())), (2, (1, ()))]
    chains, _ = relative_chain_complex(
        SimpPair(x, SimplicialComplex.empty()), 0, -1, 3)
    assert [chains.homology(n).iso_invariants() for n in range(3)] == \
        [(1, ()), (0, ()), (1, ())]
    for n in range(3):
        hom = recover_homology(spec, cell, n)
        assert is_isomorphism(hom), f"degree {n}"


def test_noncellular_filtration_detected():
    x = circle()
    filt = Filtration(x, [subcomplex(x, [("a",)]),
                          subcomplex(x, [("a", "b"), ("a", "c")]),
                          x])
    spec = run_pages(filt)
    assert check_cellularity(spec) == [(2, -1)]
    assert spec.group(1, 2, -1).iso_invariants() == (1, ())
    cell = cellular_complex(spec)
    with pytest.raises(ValueError, match="not cellular"):
        recover_homology(spec, cell, 1)
    # convergence does not care about cellularity
    assert check_convergence(spec) == []
    assert page_turn_mismatches(spec) == []


def random_two_complex(rng):
    labels = ["a", "b", "c", "d", "e"]
    maximal = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if rng.random() < 0.35:
                maximal.append((labels[i], labels[j]))
            for k in range(j + 1, len(labels)):
                if rng.random() < 0.25:
                    maximal.append((labels[i], labels[j], labels[k]))
    maximal.append((labels[0],))
    return SimplicialComplex.from_maximal_simplices(maximal)


def test_random_filtrations_are_consistent():
    rng = random.Random(20240817)
    for trial in range(4):
        x = random_two_complex(rng)
        modulus = rng.choice([0, 2, 3])
        spec = run_pages(Filtration.skeletal(x), modulus=modulus)
        assert page_turn_mismatches(spec) == [], f"trial {trial}"
        assert compare_first_page(spec) == [], f"trial {trial}"
        assert check_convergence(spec) == [], f"trial {trial}"
        cell = cellular_complex(spec)
        assert cell.is_cellular()
        for n in range(x.dim() + 1):
            assert is_isomorphism(recover_homology(spec, cell, n))


def test_compare_filtrations_same_homology():
    x = circle()
    a = run_pages(Filtration.skeletal(x))
    b = run_pages(Filtration(x, [subcomplex(x, [("a",)]),
                                 subcomplex(x, [("a", "b"), ("a", "c")]),
                                 x]))
    report = compare_filtrations(a, b)
    assert all(entry["same_homology"] for entry in report.values())
    assert report[1]["graded_a"] == [(0, ()), (1, ())]
    assert report[1]["graded_b"] == [(0, ()), (0, ()), (1, ())]


def test_summary_is_json_ready():
    spec = run_pages(point_circle_disk(), modulus=4)
    summary = spectral_summary(spec)
    text = json.dumps(summary, sort_keys=True)
    assert '"converges": true' in text
    assert summary["stable_page"] == 3
    assert summary["pages"]["1"]["2,0"] == [0, [4]]


def random_filtration(rng, x, length):
    """Steps of random simplices of dimension at most p, closed under
    faces, each containing the one before; steps often repeat."""
    steps, chosen = [], []
    for p in range(length):
        chosen += [s for s in sorted(x.simplices)
                   if len(s) <= p + 1 and rng.random() < 0.3]
        steps.append(subcomplex(x, chosen))
    return Filtration(x, steps + [x])


def reference_filtrations():
    x = sphere()
    point = subcomplex(x, [("a",)])
    rng = random.Random(20261018)
    return [
        Filtration.skeletal(circle()),
        Filtration.skeletal(x),
        point_circle_disk(),
        # repeated steps: equal lattices at different p
        Filtration(x, [point, point, skeleton(x, 1), x]),
        Filtration(x, [point, point, skeleton(x, 1), skeleton(x, 1), x, x]),
        # d^2 and d^3 out of H_1(disk, vertices) hit the vertices
        Filtration(disk(), [skeleton(disk(), 0)] * 2 + [disk()]),
        Filtration(disk(), [skeleton(disk(), 0)] * 3 + [disk()]),
        Filtration(circle(), [subcomplex(circle(), [("a",)]),
                              subcomplex(circle(), [("a", "b"), ("a", "c")]),
                              circle()]),
        Filtration.skeletal(random_two_complex(rng)),
        Filtration.skeletal(random_two_complex(rng)),
    ] + [random_filtration(rng, random_two_complex(rng), rng.randint(2, 4))
         for _ in range(6)]


@pytest.mark.parametrize("modulus", [0, 2, 3])
def test_pages_match_reference(modulus):
    for i, filt in enumerate(reference_filtrations()):
        spec = run_pages(filt, modulus)
        pages, diffs, homology, subgroup, graded = reference_pages(filt, modulus)
        assert sorted(pages) == list(range(1, spec.stable_index() + 1)), i
        for r, entries in pages.items():
            got = {pq: (e.group.relations, e.reps)
                   for pq, e in spec.page(r).items()}
            assert got == entries, (i, r)
            got = {}
            for pq in spec.grid:
                d = spec.differential(r, *pq)
                if d is not None:
                    got[pq] = d.matrix
            assert got == diffs[r], (i, r)
        niv = niveau_filtration(spec)
        assert niv.homology == homology, i
        assert niv.subgroup == subgroup, i
        assert niv.graded == graded, i


def test_stable_entries_are_shared():
    spec = run_pages(Filtration.skeletal(sphere()))
    # E^2_{0,0} and E^3_{0,0} are cut out by the same three lattices
    assert spec.entry(2, 0, 0) is spec.entry(3, 0, 0)
    assert spec.entry(1, 0, 0) is not spec.entry(2, 0, 0)


def test_cellular_run_builds_only_the_first_page():
    spec = run_pages(Filtration.skeletal(sphere()))
    cell = cellular_complex(spec)
    for n in range(3):
        recover_homology(spec, cell, n)
    assert sorted(spec.pages) == [1]


def test_page_accessors_off_the_pages_and_the_grid():
    spec = run_pages(Filtration.skeletal(sphere()))
    last = spec.stable_index()
    for r in (0, last + 1):
        for read in (spec.entry, spec.group):
            with pytest.raises(ValueError, match=rf"page {r} not computed "
                                                 rf"\(1\.\.{last}\)"):
                read(r, 0, 0)
        assert spec.differential(r, 1, 0) is None
    with pytest.raises(ValueError, match="outside the support grid"):
        spec.entry(1, 0, 1)
    assert spec.group(1, 0, 1).is_trivial()
    # (0, 0) has no target on the grid, (5, 0) is not on it
    assert spec.differential(1, 0, 0) is None
    assert spec.differential(1, 5, 0) is None
    assert spec.differential(2, 1, 0) is None
