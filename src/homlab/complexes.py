"""Chain complexes of finitely generated abelian groups, their homology
and the maps it induces.

Degrees live in a closed window; everything outside it is the zero group.
Homology keeps lattice representatives for its generators, and an
expresser that writes a cycle in them, so that maps induced by chain-level
maps can be computed later: `induced_hom` is the one place that does so.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from .fga import (
    FgAbGroup,
    GroupHom,
    HermiteBasis,
    IntMatrix,
    QuotientExpresser,
    hstack,
    kernel,  # noqa: F401  (perfbench/tracer.py rebinds this module's alias)
    preimage_lattice,
    present_subquotient,
)


class HomologyEntry(NamedTuple):
    """A presented subquotient N/D of a chain group: the group, the chain
    representatives of its generators as columns, and the expresser that
    writes an element of N as a class in those generators."""

    group: FgAbGroup
    reps: IntMatrix
    expresser: QuotientExpresser


def homology_entry(dim: int, numerator: HermiteBasis,
                   denominator: IntMatrix) -> HomologyEntry:
    """N/D for lattices D <= N inside Z^dim (see `present_subquotient`);
    the expresser builds its solver on first use."""
    group, reps = present_subquotient(dim, numerator, denominator)
    return HomologyEntry(group, reps, QuotientExpresser(reps, denominator))


def induced_hom(src: HomologyEntry, tgt: HomologyEntry,
                chain_fn: Callable[[tuple], Sequence[int]],
                failure: str) -> GroupHom:
    """src.group -> tgt.group, each generator to the class of chain_fn(its
    representative); raises RuntimeError(failure) when an image is not in
    tgt's numerator, IllDefinedHomError when relations are not respected."""
    cols = []
    for rep in src.reps.columns():
        coords = tgt.expresser.express(chain_fn(rep))
        if coords is None:
            raise RuntimeError(failure)
        cols.append(list(coords))
    hom = GroupHom(src.group, tgt.group,
                   IntMatrix.from_cols(cols, tgt.group.ngens))
    hom.require_well_defined()
    return hom


class ComplexViolation:
    """One failure of d∘d = 0: the degree and a witness generator."""

    __slots__ = ("degree", "generator", "image")

    def __init__(self, degree: int, generator: int, image: tuple):
        self.degree = degree
        self.generator = generator
        self.image = image

    def __repr__(self):
        return (f"ComplexViolation(degree={self.degree}, "
                f"generator={self.generator}, image={list(self.image)})")


class ChainComplex:
    """groups[n] with differentials d[n]: C_n -> C_{n-1} inside [n_min, n_max]."""

    def __init__(self, n_min: int, n_max: int,
                 groups: Dict[int, FgAbGroup],
                 diffs: Dict[int, GroupHom]):
        if n_min > n_max:
            raise ValueError("empty degree window")
        self.n_min = n_min
        self.n_max = n_max
        self.groups = dict(groups)
        self.diffs = dict(diffs)
        self._homology: Dict[int, HomologyEntry] = {}
        for n in range(n_min, n_max + 1):
            if n not in self.groups:
                self.groups[n] = FgAbGroup.zero()
        for n, d in self.diffs.items():
            if not (n_min < n <= n_max):
                raise ValueError(f"differential at degree {n} outside the window")
            if d.source != self.groups[n] or d.target != self.groups[n - 1]:
                raise ValueError(f"differential at degree {n} has wrong endpoints")

    def group(self, n: int) -> FgAbGroup:
        return self.groups.get(n, FgAbGroup.zero())

    def differential(self, n: int) -> GroupHom:
        d = self.diffs.get(n)
        if d is None:
            return GroupHom.zero_map(self.group(n), self.group(n - 1))
        return d

    def verify(self) -> List[ComplexViolation]:
        """Every degree where d_{n-1} ∘ d_n fails to vanish, with witnesses."""
        bad = []
        for n in range(self.n_min + 2, self.n_max + 1):
            comp = self.differential(n - 1) @ self.differential(n)
            j = comp.nonzero_column()
            if j is not None:
                bad.append(ComplexViolation(n, j, comp.matrix.col(j)))
        return bad

    def homology(self, n: int) -> FgAbGroup:
        return self.homology_with_reps(n).group

    def homology_with_reps(self, n: int) -> HomologyEntry:
        """H_n as cycles {x : d x = 0 in the presented C_{n-1}} over
        boundaries and the relations of C_n, presented once per degree;
        the differentials are homomorphisms, so those relations are cycles."""
        entry = self._homology.get(n)
        if entry is None:
            cn = self.group(n)
            d_n = self.differential(n)
            cycles = preimage_lattice(d_n.matrix,
                                      d_n.target.relation_lattice())
            boundaries = hstack([self.differential(n + 1).matrix,
                                 cn.relation_cols()])
            try:
                entry = self._homology[n] = homology_entry(
                    cn.ngens, cycles, boundaries)
            except ValueError as e:
                raise ValueError(f"d∘d does not vanish, or d is not a "
                                 f"homomorphism, at degree {n}: {e}") from e
        return entry

    def homology_table(self) -> List[Tuple[int, tuple]]:
        return [(n, self.homology(n).iso_invariants())
                for n in range(self.n_min, self.n_max + 1)]
