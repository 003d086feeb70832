"""Endomorphism algebras of diagram representations.

A representation assigns a finitely generated abelian group to each node
of a finite diagram and a homomorphism to each edge.  Its commutant over
a chosen subdiagram is the algebra of endomorphism tuples, one square
integer matrix per node, that are well defined on every group and commute
with every edge map.  The commutant is computed exactly over the integers
as the kernel of one linear system, presented as a finitely generated
abelian group with a multiplication table, and the projection maps
between subdiagrams give the resulting pro-system.
"""

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .fga import (
    CanonicalForm,
    FgAbGroup,
    GroupHom,
    HermiteBasis,
    IntMatrix,
    QuotientExpresser,
    kernel,
    present_subquotient,
)
from .logic import Signature, generate_signature, symbol_hom


@dataclass(frozen=True)
class Subdiagram:
    """A node-and-edge selection; edges must keep both endpoints."""

    nodes: Tuple[str, ...]
    edges: Tuple[str, ...]

    def contains(self, other: "Subdiagram") -> bool:
        return (set(other.nodes) <= set(self.nodes)
                and set(other.edges) <= set(self.edges))

    def label(self) -> str:
        return f"nodes({','.join(self.nodes)});edges({','.join(self.edges)})"


class Representation:
    """Groups on nodes, homomorphisms on edges, everything validated.

    `homs` maps an edge name to (source node, target node, GroupHom); the
    hom's endpoint groups must be the node groups.
    """

    def __init__(self, groups: Mapping[str, FgAbGroup],
                 homs: Mapping[str, Tuple[str, str, GroupHom]]):
        self.groups = dict(groups)
        self.homs = {}
        for name, (src, tgt, hom) in homs.items():
            if src not in self.groups or tgt not in self.groups:
                raise ValueError(f"edge {name!r} touches an unknown node")
            if hom.source != self.groups[src] or hom.target != self.groups[tgt]:
                raise ValueError(
                    f"edge {name!r} does not match its endpoint groups")
            hom.require_well_defined()
            self.homs[name] = (src, tgt, hom)

    def node_keys(self) -> tuple:
        return tuple(sorted(self.groups))

    def edge_names(self) -> tuple:
        return tuple(sorted(self.homs))

    def subdiagram(self, nodes: Optional[Sequence[str]] = None,
                   edges: Optional[Sequence[str]] = None) -> Subdiagram:
        """A validated selection; defaults to the whole diagram."""
        picked = self.node_keys() if nodes is None else tuple(sorted(set(nodes)))
        for d in picked:
            if d not in self.groups:
                raise ValueError(f"unknown node {d!r}")
        if edges is None:
            chosen = tuple(sorted(
                name for name, (s, t, _) in self.homs.items()
                if s in picked and t in picked))
        else:
            chosen = tuple(sorted(set(edges)))
            for name in chosen:
                if name not in self.homs:
                    raise ValueError(f"unknown edge {name!r}")
                s, t, _ = self.homs[name]
                if s not in picked or t not in picked:
                    raise ValueError(
                        f"edge {name!r} leaves the selected nodes")
        return Subdiagram(picked, chosen)


def representation_from_model(model) -> Tuple[Representation, Signature]:
    """The canonical representation of a homology model.

    Nodes are the sorts of the model diagram's signature over the model's
    window, edges are every induced map and every connecting map.  Partial
    edges carry no symbol of their own, so they contribute nothing here
    either.
    """
    sig = generate_signature(model.diagram, model.window)
    groups = {name: model.group(key, n) for name, (key, n) in sig.sorts.items()}
    homs = {fname: (info.source, info.target, symbol_hom(model, info))
            for fname, info in sig.funcs.items()}
    return Representation(groups, homs), sig


def _flatten(mats: Sequence[IntMatrix]) -> list:
    flat: List[int] = []
    for m in mats:
        for row in m.data:
            flat.extend(row)
    return flat


class EndAlgebra:
    """The commutant of a representation over one subdiagram.

    `basis` holds one endomorphism tuple per generator of the underlying
    group (invariant-factor presentation, torsion generators first);
    `structure[i][j]` are the coordinates of basis[i] composed with
    basis[j], and `unit` those of the identity tuple.
    """

    def __init__(self, subdiagram: Subdiagram, nodes: tuple, sizes: tuple,
                 group: FgAbGroup, basis: tuple, structure: tuple,
                 unit: tuple, expresser, canon):
        self.subdiagram = subdiagram
        self.nodes = nodes
        self.sizes = sizes
        self.group = group
        self.basis = basis
        self.structure = structure
        self.unit = unit
        self._expresser = expresser
        self._canon = canon
        # invariant factor of each generator, 0 on the free ones
        self._diag = tuple(d for _, d in canon.positions)

    @property
    def rank(self) -> int:
        return self.group.ngens

    @property
    def rational_rank(self) -> int:
        return self.group.iso_invariants()[0]

    def reduce(self, coords: Sequence[int]) -> tuple:
        if len(coords) != self.group.ngens:
            raise ValueError("coordinate tuple of wrong length")
        return tuple(c % d if d else c for c, d in zip(coords, self._diag))

    def coordinates_of(self, mats: Sequence[IntMatrix]) -> Optional[tuple]:
        """Express an endomorphism tuple in the basis, None if outside."""
        if len(mats) != len(self.nodes):
            raise ValueError("tuple does not match the subdiagram's nodes")
        for m, n in zip(mats, self.sizes):
            if (m.rows, m.cols) != (n, n):
                raise ValueError("matrix of wrong shape in endomorphism tuple")
        raw = self._expresser.express(_flatten(mats))
        if raw is None:
            return None
        return self._canon.coords(raw)

    def element(self, coords: Sequence[int]) -> tuple:
        """The endomorphism tuple with these basis coordinates."""
        if len(coords) != self.group.ngens:
            raise ValueError("coordinate tuple of wrong length")
        mats = []
        for pos, n in enumerate(self.sizes):
            acc = IntMatrix.zeros(n, n)
            for c, tup in zip(coords, self.basis):
                if c:
                    acc = acc + tup[pos].scaled(c)
            mats.append(acc)
        return tuple(mats)

    def multiply(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        """Product in basis coordinates via the structure constants."""
        out = [0] * self.group.ngens
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                for k, c in enumerate(self.structure[i][j]):
                    out[k] += ai * bj * c
        return self.reduce(out)

    def as_json_dict(self) -> dict:
        free, torsion = self.group.iso_invariants()
        return {
            "subdiagram": {"nodes": list(self.nodes),
                           "edges": list(self.subdiagram.edges)},
            "rank": self.rank,
            "rational_rank": free,
            "invariants": [free, list(torsion)],
            "basis": [[[list(row) for row in m.data] for m in tup]
                      for tup in self.basis],
            "structure": [[list(self.structure[i][j])
                           for j in range(self.rank)]
                          for i in range(self.rank)],
            "unit": list(self.unit),
        }


def end_algebra(T: Representation, F: Optional[Subdiagram] = None) -> EndAlgebra:
    """Commutant of T over F with its multiplication table.

    Unknowns are the entries of one square matrix per node.  Each
    condition asks that a block of rows A_i x lie in a node's relation
    lattice L_i, so the solution lattice is the kernel of the stacked A
    relative to the direct sum of the L_i (see `fga.kernel`), and the
    algebra is its quotient by the tuples acting as zero.  A is kept as
    its sparse columns.
    """
    if F is None:
        F = T.subdiagram()
    nodes = F.nodes
    sizes = tuple(T.groups[d].ngens for d in nodes)
    offsets = []
    total = 0
    for n in sizes:
        offsets.append(total)
        total += n * n
    index = {d: i for i, d in enumerate(nodes)}
    lat = [T.groups[d].relation_lattice() for d in nodes]

    def evar(di: int, k: int, i: int) -> int:
        return offsets[di] + k * sizes[di] + i

    cols: List[Dict[int, int]] = [{} for _ in range(total)]  # A's columns
    target: Dict[int, dict] = {}  # the direct sum of the L_i
    nrows = 0

    def condition(rows: list, L: HermiteBasis) -> None:
        """Rows of A, one block, whose values must lie in L."""
        nonlocal nrows
        for c, b in L.rows.items():
            target[nrows + c] = {nrows + k: e for k, e in b.items()}
        for row in rows:
            for v, e in row.items():
                if e:
                    cols[v][nrows] = e
            nrows += 1

    # e_d maps each relation b into the relation lattice: e_d b in L_d
    for di, d in enumerate(nodes):
        n = sizes[di]
        for b in lat[di].rows.values():
            condition([{evar(di, k, i): e for i, e in b.items()}
                       for k in range(n)], lat[di])

    # commutation with every edge, modulo the target's relations
    for name in F.edges:
        s, t, hom = T.homs[name]
        si, ti = index[s], index[t]
        M = hom.matrix
        for j in range(sizes[si]):
            rows = []
            for k in range(sizes[ti]):
                row: Dict[int, int] = {}
                for i in range(sizes[ti]):
                    if M.data[i][j]:
                        v = evar(ti, k, i)
                        row[v] = row.get(v, 0) + M.data[i][j]
                for i in range(sizes[si]):
                    if M.data[k][i]:
                        v = evar(si, i, j)
                        row[v] = row.get(v, 0) - M.data[k][i]
                rows.append(row)
            condition(rows, lat[ti])

    num = kernel(cols, HermiteBasis(target, nrows))

    den_cols = []
    for di in range(len(nodes)):
        for j in range(sizes[di]):
            for b in lat[di].rows.values():
                den_cols.append({evar(di, k, j): e for k, e in b.items()})
    den = IntMatrix.from_sparse_cols(den_cols, total)

    raw, P = present_subquotient(total, num, den)
    expresser = QuotientExpresser(P, den)
    canon = CanonicalForm(raw)

    ngens = len(canon.positions)
    rel_rows = []
    for idx, (_, d) in enumerate(canon.positions):
        if d >= 2:
            row = [0] * ngens
            row[idx] = d
            rel_rows.append(row)
    group = FgAbGroup(ngens, IntMatrix(rel_rows, len(rel_rows), ngens))

    def unflatten(flat: Sequence[int]) -> tuple:
        mats = []
        for di in range(len(nodes)):
            n = sizes[di]
            o = offsets[di]
            mats.append(IntMatrix([flat[o + k * n: o + (k + 1) * n]
                                   for k in range(n)], n, n))
        return tuple(mats)

    basis = []
    for idx in range(ngens):
        e = [0] * ngens
        e[idx] = 1
        basis.append(unflatten(P.apply(canon.lift(e))))
    basis = tuple(basis)

    alg = EndAlgebra(F, nodes, sizes, group, basis, (), (), expresser, canon)

    def express(mats) -> tuple:
        coords = alg.coordinates_of(mats)
        if coords is None:
            raise RuntimeError(
                "commutant is not closed; an expected product escaped it")
        return coords

    alg.unit = express(tuple(IntMatrix.identity(n) for n in sizes))
    alg.structure = tuple(
        tuple(express(tuple(a @ b for a, b in zip(basis[i], basis[j])))
              for j in range(ngens))
        for i in range(ngens))
    return alg


def restriction_map(big: EndAlgebra, small: EndAlgebra) -> GroupHom:
    """Tuple projection End(F') -> End(F) for F inside F'.

    Returned in the chosen bases and checked to be unital and
    multiplicative before it is handed back.
    """
    if not big.subdiagram.contains(small.subdiagram):
        raise ValueError(
            f"{small.subdiagram.label()} is not a subdiagram of "
            f"{big.subdiagram.label()}")
    keep = [big.nodes.index(d) for d in small.nodes]
    cols = []
    for tup in big.basis:
        projected = tuple(tup[i] for i in keep)
        c = small.coordinates_of(projected)
        if c is None:
            raise RuntimeError(
                "projected tuple escaped the smaller commutant")
        cols.append(list(c))
    hom = GroupHom(big.group, small.group,
                   IntMatrix.from_cols(cols, small.group.ngens))
    hom.require_well_defined()
    if small.reduce(hom.apply(big.unit)) != small.unit:
        raise RuntimeError("restriction does not preserve the unit")
    for i in range(big.rank):
        for j in range(big.rank):
            lhs = small.reduce(hom.apply(big.structure[i][j]))
            rhs = small.multiply(hom.matrix.col(i), hom.matrix.col(j))
            if lhs != rhs:
                raise RuntimeError(
                    f"restriction is not multiplicative at basis pair "
                    f"({i}, {j})")
    return hom


@dataclass
class ActionReport:
    ok: bool
    issues: list

    def __bool__(self):
        return self.ok


def verify_module_action(T: Representation, E: EndAlgebra) -> ActionReport:
    """Re-check that E really acts on T over its subdiagram.

    Verifies well-definedness of every basis tuple, equivariance against
    every edge map, agreement of the structure constants with actual
    composition, and that the unit coordinates lift to the identity.
    Problems are reported, not raised, so tampered input can be examined.
    """
    issues = []
    groups = [T.groups[d] for d in E.nodes]
    for idx, tup in enumerate(E.basis):
        for di, d in enumerate(E.nodes):
            g = T.groups[d]
            viol = GroupHom(g, g, tup[di]).well_defined_violation()
            if viol is not None:
                issues.append(
                    f"basis element {idx} is not well defined on node {d}")
                break
    for name in E.subdiagram.edges:
        s, t, hom = T.homs[name]
        si = E.nodes.index(s)
        ti = E.nodes.index(t)
        for idx, tup in enumerate(E.basis):
            gap = tup[ti] @ hom.matrix - hom.matrix @ tup[si]
            if not GroupHom(groups[si], groups[ti], gap).is_zero():
                issues.append(
                    f"basis element {idx} fails equivariance on edge {name}")
    for i in range(E.rank):
        for j in range(E.rank):
            lifted = E.element(E.structure[i][j])
            for di in range(len(E.nodes)):
                gap = E.basis[i][di] @ E.basis[j][di] - lifted[di]
                if not GroupHom(groups[di], groups[di], gap).is_zero():
                    issues.append(
                        f"structure constants misstate the product of "
                        f"basis elements {i} and {j}")
                    break
    lifted = E.element(E.unit)
    for di, n in enumerate(E.sizes):
        gap = lifted[di] - IntMatrix.identity(n)
        if not GroupHom(groups[di], groups[di], gap).is_zero():
            issues.append("unit coordinates do not lift to the identity")
            break
    return ActionReport(not issues, issues)
