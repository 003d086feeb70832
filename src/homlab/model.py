"""Homology of a diagram of pairs, with explicit chain-level witnesses.

Every node of the diagram gets relative simplicial chains (coefficients in
the integers or in Z/m via relation rows m*I), homology groups presented as
cokernels, and stored generator representatives.  Edges get induced maps,
triples get connecting morphisms, and distinguished squares get the
union-to-intersection connecting morphism, all as GroupHom values between
the presented groups.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .fga import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    # perfbench/tracer.py rebinds these two aliases of this module
    preimage_lattice,  # noqa: F401
    present_subquotient,  # noqa: F401
)
from .complexes import ChainComplex, HomologyEntry, induced_hom
from .simp import PairDiagram, SimpPair

Key = Tuple[str, str]


def _chain_group(n: int, modulus: int) -> FgAbGroup:
    if modulus:
        return FgAbGroup(n, IntMatrix.identity(n).scaled(modulus))
    return FgAbGroup(n)


def relative_chain_bases(pair: SimpPair, lo: int, hi: int) -> Dict[int, list]:
    """Ordered bases of the relative chains: simplices of the total complex
    that are not in the subcomplex, degree by degree."""
    sub = pair.sub.simplices
    return {n: [s for s in pair.total.simplices_of_dim(n) if s not in sub]
            for n in range(lo, hi + 1)}


def relative_chain_complex(pair: SimpPair, modulus: int, lo: int, hi: int
                           ) -> Tuple[ChainComplex, Dict[int, list]]:
    bases = relative_chain_bases(pair, lo, hi)
    index = {n: {s: i for i, s in enumerate(bases[n])} for n in bases}
    groups = {n: _chain_group(len(bases[n]), modulus) for n in bases}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        rows = len(bases[n - 1])
        cols = []
        for s in bases[n]:
            col = [0] * rows
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                j = index[n - 1].get(face)
                if j is not None:
                    col[j] += -1 if i % 2 else 1
            cols.append(col)
        diffs[n] = GroupHom(groups[n], groups[n - 1],
                            IntMatrix.from_cols(cols, rows))
    return ChainComplex(lo, hi, groups, diffs), bases


class _NodeData:
    __slots__ = ("chains", "bases", "index")

    def __init__(self, chains, bases):
        self.chains = chains
        self.bases = bases
        self.index = {n: {s: i for i, s in enumerate(bs)}
                      for n, bs in bases.items()}


def _permutation_sign(positions: List[int]) -> int:
    sign = 1
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if positions[i] > positions[j]:
                sign = -sign
    return sign


def _restrict(chain, basis: list, keep, index: dict, modulus: int,
              leak: str) -> list:
    """The entries of a chain on `basis` at the simplices in `keep`, placed
    by `index`; raises RuntimeError(leak) at an entry elsewhere that is
    nonzero (modulo the modulus)."""
    out = [0] * len(index)
    for c, s in zip(chain, basis):
        if s in keep:
            out[index[s]] = c
        elif c % modulus if modulus else c:
            raise RuntimeError(leak)
    return out


class HomologyModel:
    """All homology data of a pair diagram in a fixed degree window."""

    def __init__(self, diagram: PairDiagram, modulus: int = 0,
                 window: Optional[Tuple[int, int]] = None):
        if modulus < 0:
            raise ValueError("modulus must be 0 (integers) or positive")
        if window is None:
            top = max((cx.dim() for cx in diagram.complexes.values()), default=0)
            window = (0, max(top, 0))
        if window[0] > window[1]:
            raise ValueError("empty degree window")
        self.diagram = diagram
        self.modulus = modulus
        self.window = window
        self._nodes: Dict[Key, _NodeData] = {}
        lo, hi = window[0] - 1, window[1] + 1
        for key in diagram.node_keys():
            self._nodes[key] = _NodeData(*relative_chain_complex(
                diagram.nodes[key], modulus, lo, hi))
        # induced maps, connecting and union connecting morphisms, keyed
        # by (kind, edge/triple/square name, degree)
        self._maps: Dict[Tuple[str, str, int], GroupHom] = {}

    # -- plumbing ----------------------------------------------------------

    def degrees(self):
        return range(self.window[0], self.window[1] + 1)

    def _check_degree(self, n: int):
        if not self.window[0] <= n <= self.window[1]:
            raise ValueError(f"degree {n} outside window {self.window}")

    def node(self, key: Key) -> _NodeData:
        if key not in self._nodes:
            raise ValueError(f"unknown node {key}")
        return self._nodes[key]

    def entry(self, key: Key, n: int) -> HomologyEntry:
        self._check_degree(n)
        return self.node(key).chains.homology_with_reps(n)

    def group(self, key: Key, n: int) -> FgAbGroup:
        return self.entry(key, n).group

    def generator_reps(self, key: Key, n: int) -> IntMatrix:
        """Columns: chain representatives of the homology generators."""
        return self.entry(key, n).reps

    def express(self, key: Key, n: int, chain) -> tuple:
        """Homology class of a cycle, in generator coordinates."""
        coords = self.entry(key, n).expresser.express(chain)
        if coords is None:
            raise ValueError("chain is not a cycle of this node")
        return coords

    def homology_table(self, key: Key) -> list:
        return [(n, self.group(key, n).iso_invariants()) for n in self.degrees()]

    # -- induced maps ------------------------------------------------------

    def chain_map(self, edge_name: str, n: int) -> list:
        """The relative chain map of an edge in degree n, a signed partial
        permutation: per source simplex, (target index, sign), or None
        where the image is degenerate or lies in the target's subcomplex."""
        edge = self.diagram.edges[edge_name]
        vm = edge.morphism.vertex_map
        index = self.node(edge.tgt).index[n]
        tgt_total = self.diagram.nodes[edge.tgt].total
        tgt_sub = self.diagram.nodes[edge.tgt].sub
        out = []
        for s in self.node(edge.src).bases[n]:
            images = [vm[v] for v in s]
            t = None
            if len(set(images)) == len(images):
                t = tgt_total.sort_simplex(images)
            if t is None or tgt_sub.has_simplex(t):
                out.append(None)
            else:
                positions = [tgt_total.position(w) for w in images]
                out.append((index[t], _permutation_sign(positions)))
        return out

    def induced(self, edge_name: str, n: int) -> GroupHom:
        """Map on homology induced by a diagram edge."""
        self._check_degree(n)
        key = ("induced", edge_name, n)
        if key in self._maps:
            return self._maps[key]
        edge = self.diagram.edges[edge_name]
        if edge.kind == "partial":
            raise ValueError(
                f"edge {edge_name!r} is a connecting morphism; "
                "use connecting() on its triple")
        perm = self.chain_map(edge_name, n)
        size = len(self.node(edge.tgt).bases[n])

        def push(chain):
            out = [0] * size
            for c, image in zip(chain, perm):
                if c and image is not None:
                    out[image[0]] += image[1] * c
            return out

        hom = self._maps[key] = induced_hom(
            self.entry(edge.src, n), self.entry(edge.tgt, n), push,
            f"image of a cycle under {edge_name!r} is not a cycle")
        return hom

    # -- connecting morphisms ----------------------------------------------

    def connecting(self, triple_name: str, n: int) -> GroupHom:
        """H_n(total, middle) -> H_{n-1}(middle, small) of a triple."""
        self._check_degree(n)
        self._check_degree(n - 1)
        key = ("connecting", triple_name, n)
        if key in self._maps:
            return self._maps[key]
        t = self.diagram.triples[triple_name]
        src = self.node(t.nxy)
        mid = self.node(t.nxz)
        tgt = self.node(t.nyz)
        middle = self.diagram.complexes[t.y].simplices
        d = mid.chains.differential(n).matrix
        # the (X,Y)-basis sits inside the (X,Z)-basis
        lift = [mid.index[n][s] for s in src.bases[n]]
        leak = f"boundary of a relative cycle leaks outside {t.y!r}"

        def boundary(chain):
            lifted = [0] * len(mid.bases[n])
            for i, c in zip(lift, chain):
                lifted[i] = c
            return _restrict(d.apply(lifted), mid.bases[n - 1], middle,
                             tgt.index[n - 1], self.modulus, leak)

        hom = self._maps[key] = induced_hom(
            src.chains.homology_with_reps(n),
            tgt.chains.homology_with_reps(n - 1), boundary,
            "connecting image is not a cycle")
        return hom

    def mv_connecting(self, square_name: str, n: int) -> GroupHom:
        """H_n(union) -> H_{n-1}(intersection) of a distinguished square.

        Convention: the pieces map in by (restrict to left, minus restrict
        to right) and out by the plain sum, so the value on a cycle z is the
        boundary of the part of z carried by the left piece.
        """
        self._check_degree(n)
        self._check_degree(n - 1)
        key = ("mv", square_name, n)
        if key in self._maps:
            return self._maps[key]
        sq = self.diagram.squares[square_name]
        src = self.node((sq.d, "0"))
        tgt = self.node((sq.b, "0"))
        left = self.diagram.complexes[sq.u].simplices
        inter = self.diagram.complexes[sq.b].simplices
        d = src.chains.differential(n).matrix

        def boundary(chain):
            part = [c if s in left else 0
                    for c, s in zip(chain, src.bases[n])]
            return _restrict(
                d.apply(part), src.bases[n - 1], inter, tgt.index[n - 1],
                self.modulus,
                "boundary of the left part leaks outside the intersection")

        hom = self._maps[key] = induced_hom(
            src.chains.homology_with_reps(n),
            tgt.chains.homology_with_reps(n - 1), boundary,
            "union connecting image is not a cycle")
        return hom
