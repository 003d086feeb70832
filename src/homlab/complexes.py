"""Chain complexes and bicomplexes of finitely generated abelian groups.

Degrees live in a closed window; everything outside it is the zero group.
Homology keeps lattice representatives for its generators so induced maps
can be computed later at the chain level.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .fga import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    block_diag,
    hstack,
    is_exact_at,
    kernel,  # noqa: F401  (perfbench/tracer.py rebinds this module's alias)
    preimage_lattice,
    present_subquotient,
)


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
            if not comp.is_zero():
                for j in range(comp.matrix.cols):
                    col = comp.matrix.col(j)
                    single = GroupHom(FgAbGroup.free(1), comp.target,
                                      IntMatrix.from_cols([col], comp.target.ngens))
                    if not single.is_zero():
                        bad.append(ComplexViolation(n, j, col))
                        break
        return bad

    def homology(self, n: int) -> FgAbGroup:
        group, _ = self.homology_with_reps(n)
        return group

    def homology_with_reps(self, n: int) -> Tuple[FgAbGroup, IntMatrix]:
        """(H_n, matrix whose columns represent its generators in C_n)."""
        cn = self.group(n)
        d_n = self.differential(n)
        d_up = self.differential(n + 1)
        cycles = _cycle_lattice(d_n)
        boundaries = hstack([d_up.matrix, cn.relation_cols()])
        try:
            return present_subquotient(cn.ngens, cycles, boundaries)
        except ValueError as e:
            raise ValueError(f"d∘d does not vanish at degree {n}: {e}") from e

    def shift(self, k: int) -> "ChainComplex":
        return ChainComplex(self.n_min + k, self.n_max + k,
                            {n + k: g for n, g in self.groups.items()},
                            {n + k: d for n, d in self.diffs.items()})

    def homology_table(self) -> List[Tuple[int, tuple]]:
        return [(n, self.homology(n).iso_invariants())
                for n in range(self.n_min, self.n_max + 1)]


def _cycle_lattice(d: GroupHom) -> IntMatrix:
    """Generators of {x : d x = 0 in the presented target} inside Z^ngens."""
    cycles = preimage_lattice(d.matrix, d.target.relation_cols())
    # the source relation lattice is contained in the cycle lattice, but the
    # presentation machinery wants it listed explicitly
    return hstack([cycles, d.source.relation_cols()])


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


class Bicomplex:
    """Commuting grid: horizontal maps drop p, vertical maps drop q.

    The total complex introduces the sign (-1)^p on vertical components,
    which is what makes d_tot square to zero.
    """

    def __init__(self, groups: Dict[Tuple[int, int], FgAbGroup],
                 horizontal: Dict[Tuple[int, int], GroupHom],
                 vertical: Dict[Tuple[int, int], GroupHom]):
        self.groups = dict(groups)
        self.horizontal = dict(horizontal)
        self.vertical = dict(vertical)
        for (p, q), h in self.horizontal.items():
            if h.source != self.group(p, q) or h.target != self.group(p - 1, q):
                raise ValueError(f"horizontal map at {(p, q)} has wrong endpoints")
        for (p, q), v in self.vertical.items():
            if v.source != self.group(p, q) or v.target != self.group(p, q - 1):
                raise ValueError(f"vertical map at {(p, q)} has wrong endpoints")

    def group(self, p: int, q: int) -> FgAbGroup:
        return self.groups.get((p, q), FgAbGroup.zero())

    def hmap(self, p: int, q: int) -> GroupHom:
        h = self.horizontal.get((p, q))
        if h is None:
            return GroupHom.zero_map(self.group(p, q), self.group(p - 1, q))
        return h

    def vmap(self, p: int, q: int) -> GroupHom:
        v = self.vertical.get((p, q))
        if v is None:
            return GroupHom.zero_map(self.group(p, q), self.group(p, q - 1))
        return v

    def validate(self) -> list:
        """Rows/columns must be complexes and squares must commute."""
        bad = []
        for (p, q) in self.groups:
            hh = self.hmap(p - 1, q) @ self.hmap(p, q)
            if not hh.is_zero():
                bad.append(((p, q), "row composite not zero"))
            vv = self.vmap(p, q - 1) @ self.vmap(p, q)
            if not vv.is_zero():
                bad.append(((p, q), "column composite not zero"))
            sq1 = self.vmap(p - 1, q) @ self.hmap(p, q)
            sq2 = self.hmap(p, q - 1) @ self.vmap(p, q)
            if not sq1.equal_to(sq2):
                bad.append(((p, q), "square does not commute"))
        return sorted(bad, key=lambda item: item[0])


def total_complex(bi: Bicomplex) -> Tuple[ChainComplex, Dict[int, list]]:
    """Direct-sum totalization with d = horizontal + (-1)^p * vertical.

    Returns the chain complex together with the block layout per degree:
    blocks[n] is the list of (p, q) summands in order.
    """
    issues = bi.validate()
    if issues:
        raise ValueError(f"grid maps are incompatible: {issues[0]}")
    if not bi.groups:
        return ChainComplex(0, 0, {0: FgAbGroup.zero()}, {}), {0: []}
    degrees = sorted({p + q for (p, q) in bi.groups})
    n_min, n_max = degrees[0], degrees[-1]
    blocks: Dict[int, list] = {}
    groups: Dict[int, FgAbGroup] = {}
    offsets: Dict[int, Dict[Tuple[int, int], int]] = {}
    for n in range(n_min, n_max + 1):
        blocks[n] = sorted((p, q) for (p, q) in bi.groups if p + q == n)
        offs = {}
        pos = 0
        for cell in blocks[n]:
            offs[cell] = pos
            pos += bi.groups[cell].ngens
        offsets[n] = offs
        groups[n] = FgAbGroup(pos, block_diag(
            [bi.groups[cell].relations for cell in blocks[n]])) if blocks[n] else FgAbGroup.zero()
    diffs: Dict[int, GroupHom] = {}
    for n in range(n_min + 1, n_max + 1):
        src, tgt = groups[n], groups[n - 1]
        mat = [[0] * src.ngens for _ in range(tgt.ngens)]
        for cell in blocks[n]:
            p, q = cell
            c0 = offsets[n][cell]
            for target_cell, hom, sign in (((p - 1, q), bi.hmap(p, q), 1),
                                           ((p, q - 1), bi.vmap(p, q),
                                            -1 if p % 2 else 1)):
                if target_cell not in offsets.get(n - 1, {}):
                    continue
                r0 = offsets[n - 1][target_cell]
                m = hom.matrix
                for i in range(m.rows):
                    for j in range(m.cols):
                        mat[r0 + i][c0 + j] += sign * m.data[i][j]
        diffs[n] = GroupHom(src, tgt, IntMatrix(mat, tgt.ngens, src.ngens))
    tot = ChainComplex(n_min, n_max, groups, diffs)
    bad = tot.verify()
    if bad:
        raise ValueError(f"total differential does not square to zero: {bad[0]!r}")
    return tot, blocks
