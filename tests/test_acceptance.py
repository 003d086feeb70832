"""Acceptance gate: twelve checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
for passing checks too (pytest only shows captured output on failure).
Every expected value is either derived by an independent oracle (sympy
ranks and Smith forms, Fraction elimination) or is an internal-consistency
property quantified over seeded random inputs.
"""

import itertools
import json
import random
import time

from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from homlab.cli import main
from homlab.dsl import parse, print_spec
from homlab.fga import (
    CanonicalForm,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    hom_concat,
    hom_stack,
    is_isomorphism,
    smith,
)
from homlab.logic import (
    eval_sequent,
    export_finite_structure,
    generate_axioms,
    generate_signature,
    validate_semantic,
)
from homlab.model import HomologyModel
from homlab.niveau import (
    cellular_complex,
    check_cellularity,
    check_convergence,
    run_pages,
)
from homlab.simp import (
    EMPTY_NAME,
    DiagramBuilder,
    Filtration,
    SimplicialComplex,
    map_image,
    skeleton,
    subcomplex,
)

from checks import check_long_exact, is_exact_at
from test_dsl import CORPUS
from test_endalg import rational_commutant_rank

LABELS = "abcdefgh"


def verdict(num, label, ok, extra=""):
    tail = f"  ({extra})" if extra else ""
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {label}{tail}")


# -- random input factories ------------------------------------------------------


def random_complex(rng, n_verts, p_edge=0.3, p_tri=0.15, p_tet=0.0,
                   connected=True):
    labels = LABELS[:n_verts]
    maximal = [(v,) for v in labels]
    if connected:
        maximal += [(a, b) for a, b in zip(labels, labels[1:])]
    for k, p in ((2, p_edge), (3, p_tri), (4, p_tet)):
        if p <= 0:
            continue
        for combo in itertools.combinations(labels, k):
            if rng.random() < p:
                maximal.append(combo)
    return SimplicialComplex.from_maximal_simplices(maximal)


def random_subcomplex(rng, x, p=0.5, nonempty=False):
    seeds = [s for s in sorted(x.simplices) if rng.random() < p]
    if nonempty and not seeds and x.simplices:
        seeds = [rng.choice(sorted(x.simplices))]
    return subcomplex(x, seeds)


def nested_chain(rng, x, count):
    """count nested subcomplexes of x, outermost first."""
    out = []
    current = x
    for _ in range(count):
        current = random_subcomplex(rng, current, 0.55)
        out.append(current)
    return out


# -- independent simplicial homology oracle --------------------------------------


def simplex_counts_and_boundaries(x):
    """Face matrices built straight from the simplex sets, nothing shared
    with the package's chain machinery."""
    by_dim = {}
    for s in x.simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    for k in by_dim:
        by_dim[k].sort()
    mats = {}
    for k in sorted(by_dim):
        if k == 0:
            continue
        row_of = {s: i for i, s in enumerate(by_dim[k - 1])}
        cols = by_dim[k]
        m = [[0] * len(cols) for _ in by_dim[k - 1]]
        for j, s in enumerate(cols):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                m[row_of[face]][j] += (-1) ** i
        mats[k] = m
    return by_dim, mats


def sympy_rank(m):
    if not m or not m[0]:
        return 0
    return Matrix(m).rank()


def sympy_invariant_factors(m):
    if not m or not m[0]:
        return []
    diag = smith_normal_form(Matrix(m))
    out = []
    for i in range(min(diag.rows, diag.cols)):
        d = abs(int(diag[i, i]))
        if d:
            out.append(d)
    return sorted(out)


def minimal_matrix(hom):
    """Matrix of a hom in invariant-factor coordinates on both sides.

    The raw matrix acts on presentation generators, which are usually
    redundant; its Smith form is meaningless.  This one is basis-honest.
    """
    src = CanonicalForm(hom.source)
    tgt = CanonicalForm(hom.target)
    cols = []
    for j in range(len(src.positions)):
        unit = [0] * len(src.positions)
        unit[j] = 1
        cols.append(list(tgt.coords(hom.matrix.apply(src.lift(unit)))))
    return [[col[i] for col in cols] for i in range(len(tgt.positions))]


def oracle_homology(x):
    """n -> (free rank, torsion chain) via sympy ranks and Smith forms."""
    by_dim, mats = simplex_counts_and_boundaries(x)
    top = max(by_dim)
    table = {}
    for n in range(top + 1):
        c_n = len(by_dim.get(n, ()))
        r_n = sympy_rank(mats.get(n, []))
        r_up = sympy_rank(mats.get(n + 1, []))
        torsion = tuple(d for d in sympy_invariant_factors(mats.get(n + 1, []))
                        if d > 1)
        table[n] = (c_n - r_n - r_up, torsion)
    return table


# -- 1: axiom suite over randomized diagrams --------------------------------------


ENUM_BUDGET = 60_000


def _enum_cost(diagram, modulus):
    model = HomologyModel(diagram, modulus, (0, 3))
    return sum(model.group(key, n).order() ** 3
               for key in diagram.node_keys() for n in range(4))


def axiom_suite_diagram(rng):
    """Random pair/triple diagram sized so the finite enumerator stays fast.

    A sort of order N costs N**3 evaluations in the worst axiom
    (associativity quantifies three variables), so candidates whose mod-4
    or mod-6 carriers push past the budget are redrawn.
    """
    for _ in range(200):
        x = random_complex(rng, rng.randint(3, 5), p_edge=0.35, p_tri=0.2)
        y, z = nested_chain(rng, x, 2)
        point = SimplicialComplex.from_maximal_simplices([("a",)])
        b = DiagramBuilder()
        b.add_complex("X", x).add_complex("Y", y).add_complex("Z", z)
        b.add_complex("P", point)
        b.add_pair("X").add_pair("P")
        b.add_triple("t", "X", "Y", "Z")
        b.add_edge("c", ("X", EMPTY_NAME), ("P", EMPTY_NAME),
                   {v: "a" for v in x.vertices})
        diagram = b.build()
        if all(_enum_cost(diagram, m) <= ENUM_BUDGET for m in (4, 6)):
            return diagram
    raise AssertionError("no enumerable diagram in 200 draws")


def test_c01_axiom_suite_random_diagrams():
    rng = random.Random(20260101)
    started = time.perf_counter()
    window = (0, 3)
    checked = 0
    failures = []
    for trial in range(20):
        diagram = axiom_suite_diagram(rng)
        sig = generate_signature(diagram, window)
        axioms = generate_axioms(sig, diagram, ("core",))
        for modulus in (0, 2, 3, 4, 6):
            model = HomologyModel(diagram, modulus, window)
            rows = validate_semantic(model, sig, axioms)
            for ax, ok, detail in rows:
                checked += 1
                if not ok:
                    failures.append((trial, modulus, ax.name, detail))
            if modulus == 0:
                continue
            structure = export_finite_structure(model, sig)
            for ax in axioms:
                if not eval_sequent(structure, ax.sequent).valid:
                    failures.append((trial, modulus, ax.name, "enumeration"))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    verdict(1, "axiom suite valid on random diagrams, enumerator agrees",
            ok, f"{checked} instances, {elapsed:.1f}s")
    assert elapsed < 60.0, f"budget blown: {elapsed:.1f}s"
    assert not failures, failures[:5]


# -- 2: long exact sequence of the triple ------------------------------------------


def test_c02_triple_les_exact_everywhere():
    rng = random.Random(20260202)
    zero = FgAbGroup.zero()
    bad = []
    nodes = 0
    for trial in range(50):
        x = random_complex(rng, rng.randint(2, 6), p_edge=0.4, p_tri=0.25,
                           connected=False)
        y, z = nested_chain(rng, x, 2)
        b = DiagramBuilder()
        b.add_complex("X", x).add_complex("Y", y).add_complex("Z", z)
        b.add_triple("t", "X", "Y", "Z")
        hi = x.dim() + 1
        model = HomologyModel(b.build(), window=(0, hi))
        groups, maps = [], []
        for n in range(hi, -1, -1):
            groups += [model.group(("Y", "Z"), n),
                       model.group(("X", "Z"), n),
                       model.group(("X", "Y"), n)]
            maps += [model.induced("t.bt", n), model.induced("t.bp", n)]
            if n > 0:
                maps.append(model.connecting("t", n))
        groups.append(zero)
        maps.append(GroupHom.zero_map(groups[-2], zero))
        report = check_long_exact(groups, maps)
        nodes += len(report)
        bad += [(trial, pos) for pos, res in report if not res.exact]
    verdict(2, "triple sequence exact at every node", not bad,
            f"50 triples, {nodes} nodes")
    assert not bad, bad[:5]


# -- 3: composable boundary maps square to zero ------------------------------------


def test_c03_boundary_of_boundary_vanishes():
    rng = random.Random(20260303)
    bad = []
    pairs = 0
    for trial in range(12):
        x = random_complex(rng, rng.randint(3, 6), p_edge=0.4, p_tri=0.25,
                           p_tet=0.1, connected=False)
        chain = [x] + nested_chain(rng, x, 3)
        names = ["C0", "C1", "C2", "C3", EMPTY_NAME]
        b = DiagramBuilder()
        for name, cx in zip(names, chain):
            b.add_complex(name, cx)
        for i, j, k in itertools.combinations(range(5), 3):
            b.add_triple(f"t{i}{j}{k}", names[i], names[j], names[k])
        hi = x.dim() + 1
        model = HomologyModel(b.build(), window=(0, hi))
        for i, j, k, l in itertools.combinations(range(5), 4):
            first, then = f"t{i}{j}{k}", f"t{j}{k}{l}"
            for n in range(2, hi + 1):
                comp = model.connecting(then, n - 1) @ model.connecting(first, n)
                pairs += 1
                if not comp.is_zero():
                    bad.append((trial, first, then, n))
    # same statement one page up: every first-page differential composes to zero
    for trial in range(8):
        x = random_complex(rng, rng.randint(3, 6), p_edge=0.4, p_tri=0.3)
        spec = run_pages(Filtration.skeletal(x), modulus=rng.choice([0, 2, 3]))
        for (p, q) in spec.grid:
            into = spec.differential(1, p + 1, q)
            outof = spec.differential(1, p, q)
            if into is None or outof is None:
                continue
            pairs += 1
            if not (outof @ into).is_zero():
                bad.append((trial, "d1", p, q))
    verdict(3, "connecting maps compose to zero", not bad,
            f"{pairs} composable pairs")
    assert not bad, bad[:5]


# -- 4: cellular chain complex against the simplicial oracle -----------------------


def test_c04_cellular_complex_matches_simplicial():
    rng = random.Random(20260404)
    bad = []
    for trial in range(20):
        x = random_complex(rng, rng.randint(3, 6), p_edge=0.4, p_tri=0.25,
                           p_tet=0.12, connected=False)
        spec = run_pages(Filtration.skeletal(x))
        if check_cellularity(spec):
            bad.append((trial, "first page off the q=0 row"))
            continue
        cell = cellular_complex(spec)
        top = x.dim()
        if (cell.total.n_min, cell.total.n_max) != (0, top):
            bad.append((trial, "support", cell.total.n_min, cell.total.n_max))
        by_dim, mats = simplex_counts_and_boundaries(x)
        for n in range(top + 1):
            expect = (len(by_dim.get(n, ())), ())
            if cell.total.group(n).iso_invariants() != expect:
                bad.append((trial, "chain rank", n))
            d_cell = minimal_matrix(cell.total.differential(n))
            if n and sympy_invariant_factors(d_cell) != \
                    sympy_invariant_factors(mats.get(n, [])):
                bad.append((trial, "boundary invariants", n))
        oracle = oracle_homology(x)
        cell_table = dict(cell.homology_table())
        for n in range(top + 1):
            base = spec.base_homology(n)[0].iso_invariants()
            if not (cell_table[n] == base == oracle[n]):
                bad.append((trial, "homology", n, cell_table[n], base, oracle[n]))
    verdict(4, "cellular complex equals the simplicial one", not bad,
            "20 complexes, sympy oracle")
    assert not bad, bad[:5]


# -- 5: convergence of the filtration pages ----------------------------------------


def test_c05_pages_converge_to_graded_homology():
    rng = random.Random(20260505)
    bad = []
    for trial in range(10):
        x = random_complex(rng, rng.randint(3, 6), p_edge=0.4, p_tri=0.25,
                           connected=False)
        spec = run_pages(Filtration.skeletal(x), modulus=rng.choice([0, 2, 5]))
        if check_convergence(spec):
            bad.append(("skeletal", trial))

    # point inside the hollow triangle inside the solid one: nothing is
    # cellular about this filtration, yet the pages still settle
    t = SimplicialComplex.from_maximal_simplices([("a", "b", "c")])
    filt = Filtration(t, [subcomplex(t, [("a",)]), skeleton(t, 1), t])
    spec = run_pages(filt)
    if check_convergence(spec):
        bad.append(("non-skeletal", "convergence"))
    second = [spec.group(2, p, 0).iso_invariants() for p in range(3)]
    if second != [(1, ()), (0, ()), (0, ())]:
        bad.append(("non-skeletal", "second page", second))
    if any(not spec.group(2, p, q).is_trivial()
           for (p, q) in spec.grid if q != 0):
        bad.append(("non-skeletal", "off-row entry"))
    if not is_isomorphism(spec.differential(1, 2, 0)):
        bad.append(("non-skeletal", "d1 not iso"))
    verdict(5, "pages converge, non-skeletal probe collapses", not bad)
    assert not bad, bad


# -- 6: projection off the prism is an isomorphism ---------------------------------


def test_c06_prism_projection_iso():
    rng = random.Random(20260606)
    bad = []
    for trial in range(20):
        x = random_complex(rng, rng.randint(2, 5), p_edge=0.4, p_tri=0.2,
                           connected=False)
        y = random_subcomplex(rng, x, 0.5)
        sub = "Y" if y.simplices else EMPTY_NAME
        b = DiagramBuilder()
        b.add_complex("X", x)
        if sub != EMPTY_NAME:
            b.add_complex("Y", y)
        b.add_prism("X", sub)
        hi = x.dim() + 1
        model = HomologyModel(b.build(), window=(0, hi))
        for n in range(hi + 1):
            if not is_isomorphism(model.induced(f"X/{sub}.pr", n)):
                bad.append((trial, n))
    verdict(6, "prism projection isomorphism on relative homology", not bad,
            "20 pairs")
    assert not bad, bad[:5]


# -- 7: union squares give an exact, natural sequence ------------------------------


def _square_sequence_defects(model, qname, hi):
    sq = model.diagram.squares[qname]
    defects = []

    def stack(n):
        ia = model.induced(sq.ia, n)
        ic = model.induced(sq.ic, n)
        neg = GroupHom(ic.source, ic.target, ic.matrix.scaled(-1))
        return hom_stack([ia, neg])

    def concat(n):
        return hom_concat([model.induced(sq.ja, n), model.induced(sq.jc, n)])

    for n in range(hi + 1):
        if not is_exact_at(stack(n), concat(n)).exact:
            defects.append(("pieces", n))
        if n:
            mv = model.mv_connecting(qname, n)
            if not is_exact_at(concat(n), mv).exact:
                defects.append(("union", n))
            if not is_exact_at(mv, stack(n - 1)).exact:
                defects.append(("intersection", n))
    bottom = concat(0)
    tail = GroupHom.zero_map(bottom.target, FgAbGroup.zero())
    if not is_exact_at(bottom, tail).exact:
        defects.append(("onto union", 0))
    return defects


def test_c07_mayer_vietoris_exact_and_natural():
    rng = random.Random(20260707)
    bad = []
    for trial in range(20):
        w = random_complex(rng, rng.randint(3, 6), p_edge=0.45, p_tri=0.25,
                           connected=False)
        u = random_subcomplex(rng, w, 0.6, nonempty=True)
        v = random_subcomplex(rng, w, 0.6, nonempty=True)
        u2 = subcomplex(w, sorted(set(u.simplices)
                                  | set(random_subcomplex(rng, w, 0.3).simplices)))
        v2 = subcomplex(w, sorted(set(v.simplices)
                                  | set(random_subcomplex(rng, w, 0.3).simplices)))
        b = DiagramBuilder()
        b.add_complex("W", w).add_complex("U", u).add_complex("V", v)
        b.add_complex("U2", u2).add_complex("V2", v2)
        b.add_square("q", "W", "U", "V")
        b.add_square("r", "W", "U2", "V2")
        b.add_square_map("m", "q", "r", {x: x for x in w.vertices})
        hi = w.dim() + 1
        model = HomologyModel(b.build(), modulus=rng.choice([0, 0, 2]),
                              window=(0, hi))
        for which in ("q", "r"):
            defects = _square_sequence_defects(model, which, hi)
            bad += [(trial, which) + d for d in defects]
        for n in range(1, hi + 1):
            lhs = model.mv_connecting("r", n) @ model.induced("m.d", n)
            rhs = model.induced("m.b", n - 1) @ model.mv_connecting("q", n)
            if not lhs.equal_to(rhs):
                bad.append((trial, "naturality", n))
    verdict(7, "union square sequence exact and natural", not bad,
            "20 squares")
    assert not bad, bad[:5]


# -- 8: purity ---------------------------------------------------------------------


def test_c08_purity():
    rng = random.Random(20260808)
    bad = []
    for trial in range(12):
        x = random_complex(rng, rng.randint(2, 6), p_edge=0.4, p_tri=0.25,
                           connected=False)
        b = DiagramBuilder()
        b.add_complex("X", x)
        b.add_pair("X", "X")
        b.add_pair(EMPTY_NAME)
        model = HomologyModel(b.build(), modulus=rng.choice([0, 2, 4]),
                              window=(0, x.dim() + 1))
        for n in model.degrees():
            if not model.group(("X", "X"), n).is_trivial():
                bad.append((trial, "X mod X", n))
            if not model.group((EMPTY_NAME, EMPTY_NAME), n).is_trivial():
                bad.append((trial, "empty", n))
    verdict(8, "identical pairs and the empty complex are invisible", not bad)
    assert not bad, bad[:5]


# -- 9: boundary naturality for maps of triples ------------------------------------


def test_c09_connecting_naturality():
    rng = random.Random(20260909)
    bad = []
    for trial in range(20):
        ambient = random_complex(rng, rng.randint(3, 6), p_edge=0.4,
                                 p_tri=0.25, connected=False)
        x = random_subcomplex(rng, ambient, 0.7, nonempty=True)
        y, z = nested_chain(rng, x, 2)
        b = DiagramBuilder()
        if trial % 2 == 0:
            # inclusion into larger nested targets
            y2 = subcomplex(ambient, sorted(
                set(y.simplices) | set(random_subcomplex(rng, ambient, 0.25).simplices)))
            z2 = subcomplex(ambient, sorted(
                set(z.simplices) | {s for s in y2.simplices if rng.random() < 0.3}))
            vmap = {v: v for v in x.vertices}
            tx, ty, tz = ambient, y2, z2
        else:
            # collapse along a random vertex identification
            verts = list(x.vertices)
            vmap = {v: rng.choice(verts) for v in verts}
            tx = SimplicialComplex.from_maximal_simplices(
                [tuple(sorted(set(vmap[v] for v in s))) for s in x.simplices])
            ty = map_image(vmap, y, tx)
            tz = map_image(vmap, z, tx)
        b.add_complex("X", x).add_complex("Y", y).add_complex("Z", z)
        b.add_complex("TX", tx).add_complex("TY", ty).add_complex("TZ", tz)
        b.add_triple("s", "X", "Y", "Z")
        b.add_triple("t", "TX", "TY", "TZ")
        b.add_cube("c", "s", "t", vmap)
        hi = max(x.dim(), tx.dim()) + 1
        model = HomologyModel(b.build(), window=(0, hi))
        for n in range(1, hi + 1):
            lhs = model.connecting("t", n) @ model.induced("c.box", n)
            rhs = model.induced("c.dia", n - 1) @ model.connecting("s", n)
            if not lhs.equal_to(rhs):
                bad.append((trial, n))
    verdict(9, "boundary naturality for maps of triples", not bad,
            "20 cube maps")
    assert not bad, bad[:5]


# -- 10: commutant algebras --------------------------------------------------------


def test_c10_end_algebras():
    from homlab.endalg import end_algebra, representation_from_model, \
        restriction_map, verify_module_action
    rng = random.Random(20261010)
    bad = []
    for trial in range(10):
        x = random_complex(rng, rng.randint(2, 4), p_edge=0.5, p_tri=0.3)
        y = random_subcomplex(rng, x, 0.5)
        b = DiagramBuilder()
        b.add_complex("X", x).add_complex("Y", y)
        b.add_pair("X")
        b.add_triple("t", "X", "Y")
        model = HomologyModel(b.build(), modulus=rng.choice([0, 0, 2]),
                              window=(0, 1))
        T, _ = representation_from_model(model)
        full = end_algebra(T)
        action = verify_module_action(T, full)
        if not action.ok:
            bad.append((trial, "action", action.issues[:2]))
        if full.rational_rank != rational_commutant_rank(T, T.subdiagram()):
            bad.append((trial, "rank vs brute force"))
        loose = end_algebra(T, T.subdiagram(edges=[]))
        expected = sum(g.iso_invariants()[0] ** 2 for g in T.groups.values())
        if loose.rational_rank != expected:
            bad.append((trial, "no-edge rank formula"))
        node = sorted(T.groups)[0]
        small = end_algebra(T, T.subdiagram(nodes=[node], edges=[]))
        direct = restriction_map(full, small)
        steps = restriction_map(loose, small) @ restriction_map(full, loose)
        if not direct.equal_to(steps):
            bad.append((trial, "restriction functoriality"))
    verdict(10, "commutants close, act unitally, restrict functorially",
            not bad, "10 diagrams")
    assert not bad, bad[:5]


# -- 11: Smith form contract -------------------------------------------------------


def test_c11_smith_contract():
    rng = random.Random(20261111)
    started = time.perf_counter()
    bad = []
    for trial in range(200):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                       for _ in range(rows)])
        s = smith(A)
        if s.U @ A @ s.V != s.D:
            bad.append((trial, "product"))
        if abs(Matrix([list(r) for r in s.U.data]).det()) != 1 or \
                abs(Matrix([list(r) for r in s.V.data]).det()) != 1:
            bad.append((trial, "unimodularity"))
        diag = s.diagonal()
        if any(d < 0 for d in diag):
            bad.append((trial, "negative pivot"))
        for a, c in zip(diag, diag[1:]):
            if c and (a == 0 or c % a):
                bad.append((trial, "divisibility"))
        if any(s.D.data[i][j] for i in range(s.D.rows)
               for j in range(s.D.cols) if i != j):
            bad.append((trial, "off-diagonal"))
        if trial % 8 == 0:
            want = sympy_invariant_factors([list(r) for r in A.data])
            if sorted(d for d in diag if d) != want:
                bad.append((trial, "sympy diagonal"))
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 5.0
    verdict(11, "Smith forms satisfy the full contract", ok,
            f"200 matrices, {elapsed:.2f}s")
    assert elapsed < 5.0, f"budget blown: {elapsed:.2f}s"
    assert not bad, bad[:5]


# -- 12: CLI reports are reproducible ----------------------------------------------


def test_c12_cli_byte_stable_and_round_trips(tmp_path):
    bad = []
    for i, text in enumerate(CORPUS):
        ws = parse(text)
        if parse(print_spec(ws)) != ws:
            bad.append((i, "round trip"))
        src = tmp_path / f"case{i}.hwb"
        src.write_text(text)
        outs = []
        for run in range(2):
            out = tmp_path / f"case{i}.{run}.json"
            rc = main([str(src), "--coeff", "Zmod2", "--out", str(out)])
            if rc not in (0, 1):
                bad.append((i, "exit", rc))
                break
            outs.append(out.read_bytes())
        if len(outs) == 2 and outs[0] != outs[1]:
            bad.append((i, "bytes differ"))
        if outs and json.loads(outs[0].decode())["coefficients"] != "Z/2":
            bad.append((i, "report shape"))
    verdict(12, "reports byte-stable, corpus round-trips", not bad,
            f"{len(CORPUS)} inputs")
    assert not bad, bad
