"""Checks the tests make with the package's own arithmetic.

Nothing in the package calls these, so they live with the tests: the
cyclic group, whether a vector is a relation, a shifted chain complex,
the determinant of an IntMatrix, lattice equality, the image of a map,
exactness at a group and along a sequence, and the spectral sequence's
cross-checks against the relative-homology route (`compare_first_page`),
against its own next page (`page_turn_mismatches`) and between two
filtrations (`compare_filtrations`).  Unlike `oracles`, they reuse the
package's lattice code, so agreement here is a consistency check.
"""

from typing import Optional, Sequence

from homlab.complexes import ChainComplex
from homlab.fga import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    _image_lattice,
    _presented_in,
    _sparse,
    composite_is_zero,
    kernel_in_image,
    lattice_basis,
)
from homlab.model import HomologyModel
from homlab.niveau import SpectralSequence, niveau_filtration
from homlab.simp import EMPTY_NAME, DiagramBuilder, Filtration


def cyclic(m: int) -> FgAbGroup:
    return FgAbGroup(1, IntMatrix([[m]]))


def is_relation(group: FgAbGroup, vec: Sequence[int]) -> bool:
    """Whether vec is zero in the group."""
    return group.relation_lattice().contains(_sparse(vec))


def shift(cx: ChainComplex, k: int) -> ChainComplex:
    return ChainComplex(cx.n_min + k, cx.n_max + k,
                        {n + k: g for n, g in cx.groups.items()},
                        {n + k: d for n, d in cx.diffs.items()})


def det(M: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    m = [list(r) for r in M.data]
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


def same_lattice(A: IntMatrix, B: IntMatrix) -> bool:
    if A.rows != B.rows:
        raise ValueError("lattices in different ambient ranks")
    return lattice_basis(A).rows == lattice_basis(B).rows


def hom_image(f: GroupHom) -> tuple:
    """(image group, inclusion hom into the target)."""
    f.require_well_defined()
    Q = _image_lattice(f)
    group = _presented_in(Q, f.target.relations.data, RuntimeError(
        "target relation escaped the image lattice"))
    return group, GroupHom(group, f.target, Q.as_columns())


# -- exactness -------------------------------------------------------------------


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


def check_long_exact(groups: Sequence[FgAbGroup], maps: Sequence[GroupHom]) -> list:
    """Exactness report for G_0 -> G_1 -> ... at every interior node.

    Returns a list of (position, ExactnessResult); the sequence is exact
    iff every result is.
    """
    if len(maps) != len(groups) - 1:
        raise ValueError("need exactly one map between consecutive groups")
    for i, f in enumerate(maps):
        if f.source != groups[i] or f.target != groups[i + 1]:
            raise ValueError(f"map {i} does not match its endpoints")
    report = []
    for i in range(1, len(groups) - 1):
        report.append((i, is_exact_at(maps[i - 1], maps[i])))
    return report


# -- spectral sequence cross-checks ----------------------------------------------


def filtration_diagram(filtration: Filtration):
    """Diagram with one pair per filtration step and the triples that
    produce the first-page differentials.

    Returns (diagram, pair keys by p, triple names by p).
    """
    b = DiagramBuilder()
    names = []
    for p in range(len(filtration.steps)):
        name = f"F{p}"
        b.add_complex(name, filtration.steps[p])
        names.append(name)
    pair_keys = []
    for p, name in enumerate(names):
        below = names[p - 1] if p else EMPTY_NAME
        b.add_pair(name, below)
        pair_keys.append((name, below))
    triple_names = {}
    for p in range(1, len(names)):
        small = names[p - 2] if p >= 2 else EMPTY_NAME
        tname = f"Ft{p}"
        b.add_triple(tname, names[p], names[p - 1], small)
        triple_names[p] = tname
    return b.build(), pair_keys, triple_names


def compare_first_page(spec: SpectralSequence) -> list:
    """Cross-check E^1 and d^1 against the relative-homology route.

    The first page must match H_{p+q}(F_p, F_{p-1}) and the differential
    the connecting morphism of (F_p, F_{p-1}, F_{p-2}); we compare group
    invariants and the homology of each row complex.  Returns a list of
    discrepancy strings, empty when the two constructions agree.
    """
    diagram, pair_keys, triple_names = filtration_diagram(spec.filtration)
    model = HomologyModel(diagram, spec.modulus, (0, spec.top))
    bad = []
    for (p, q) in spec.grid:
        n = p + q
        mine = spec.group(1, p, q).iso_invariants()
        other = model.group(pair_keys[p], n).iso_invariants()
        if mine != other:
            bad.append(f"E1({p},{q}): {mine} != pair homology {other}")
    # homology of the q = 0 row, both routes
    for p in range(min(spec.d_len, spec.top) + 1):
        into = spec.differential(1, p + 1, 0)
        out = spec.differential(1, p, 0)
        mine = _middle_homology(spec.group(1, p, 0), into, out)
        m_into = (model.connecting(triple_names[p + 1], p + 1)
                  if p + 1 in triple_names and p + 1 <= spec.top else None)
        m_out = (model.connecting(triple_names[p], p)
                 if p in triple_names and p >= 1 else None)
        other = _middle_homology(model.group(pair_keys[p], p), m_into, m_out)
        if mine != other:
            bad.append(f"row homology at p={p}: {mine} != {other}")
    return bad


def _middle_homology(group: FgAbGroup, into: Optional[GroupHom],
                     out: Optional[GroupHom]) -> tuple:
    if into is None:
        into = GroupHom.zero_map(FgAbGroup.zero(), group)
    if out is None:
        out = GroupHom.zero_map(group, FgAbGroup.zero())
    cx = ChainComplex(0, 2, {0: out.target, 1: group, 2: into.source},
                      {1: out, 2: into})
    return cx.homology(1).iso_invariants()


def page_turn_mismatches(spec: SpectralSequence) -> list:
    """E^{r+1} must be the homology of (E^r, d^r) at every spot."""
    bad = []
    for r in range(1, spec.d_len + 1):
        for (p, q) in spec.grid:
            into = spec.differential(r, p + r, q - r + 1)
            out = spec.differential(r, p, q)
            if into is not None and out is not None:
                comp = out @ into
                if not comp.is_zero():
                    bad.append((r, p, q, "d∘d not zero"))
            got = _middle_homology(spec.group(r, p, q), into, out)
            want = spec.group(r + 1, p, q).iso_invariants()
            if got != want:
                bad.append((r, p, q, f"homology {got} next page {want}"))
    return bad


def compare_filtrations(a: SpectralSequence, b: SpectralSequence) -> dict:
    """Degreewise comparison of two filtrations of the same complex."""
    if a.filtration.base != b.filtration.base:
        raise ValueError("filtrations live on different complexes")
    if a.modulus != b.modulus:
        raise ValueError("filtrations use different coefficients")
    niv_a = niveau_filtration(a)
    niv_b = niveau_filtration(b)
    out = {}
    for n in range(max(a.top, b.top) + 1):
        ha = niv_a.homology.get(n, (0, ()))
        hb = niv_b.homology.get(n, (0, ()))
        out[n] = {
            "same_homology": ha == hb,
            "graded_a": [niv_a.graded.get((p, n), (0, ()))
                         for p in range(a.d_len + 1)],
            "graded_b": [niv_b.graded.get((p, n), (0, ()))
                         for p in range(b.d_len + 1)],
        }
    return out
