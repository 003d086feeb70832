"""Endomorphism algebras of diagram representations.

A representation assigns a finitely generated abelian group to each node
of a finite diagram and a homomorphism to each edge.  Its commutant over
a chosen subdiagram is the algebra of endomorphism tuples, one square
integer matrix per node, that are well defined on every group and commute
with every edge map.  The commutant is computed exactly over the integers
as the kernel of one linear system, presented as a finitely generated
abelian group with a multiplication table, and the projection maps
between subdiagrams give the resulting pro-system.

Basis tuples are mostly zero, so each is taken as one block-diagonal
sparse matrix {column: {row: entry}} on the direct sum of the node groups:
a zero product needs no solve, and each action gap goes to `first_nonzero`.
"""

from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .fga import (
    CanonicalForm,
    FgAbGroup,
    GroupHom,
    HermiteBasis,
    IntMatrix,
    QuotientExpresser,
    direct_sum,
    first_nonzero,
    kernel,
    present_subquotient,
    sparse_sum,
)
from .logic import Frozen, Record, Signature, generate_signature, symbol_hom


class Subdiagram(Frozen):
    """A node-and-edge selection; edges must keep both endpoints."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: Tuple[str, ...], edges: Tuple[str, ...]):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

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


def _diagonal(mats: Sequence[IntMatrix]) -> dict:
    """The block-diagonal sparse matrix with these square blocks."""
    starts = accumulate([m.cols for m in mats], initial=0)
    return {j: c for m, s in zip(mats, starts)
            for j, c in _block(m, s, s).items()}


def _block(m: IntMatrix, row: int, col: int) -> dict:
    """m as a sparse matrix, its top left entry moved to (row, col)."""
    return {col + j: {row + i: e for i, e in enumerate(c) if e}
            for j, c in enumerate(m.columns()) if any(c)}


def _blocks(a: dict, sizes: Sequence[int]) -> tuple:
    """The diagonal blocks, of these sizes, of a sparse matrix, dense."""
    return tuple(IntMatrix.from_sparse_cols(
        [{i - s: e for i, e in a.get(s + j, {}).items()} for j in range(n)], n)
        for s, n in zip(accumulate(sizes, initial=0), sizes))


def _compose(a: dict, b: dict) -> dict:
    """The sparse matrix A @ B."""
    return {j: sparse_sum([(e, a[k]) for k, e in c.items() if k in a])
            for j, c in b.items()}


def _combine(terms: Sequence[tuple]) -> dict:
    """The sparse matrix sum of k * A over the pairs (k, A)."""
    cols = {j for _, A in terms for j in A}
    return {j: sparse_sum([(k, A[j]) for k, A in terms if j in A])
            for j in cols}


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
        raw = self._expresser.express(
            [e for m in mats for row in m.data for e in row])
        if raw is None:
            return None
        return self._canon.coords(raw)

    def element(self, coords: Sequence[int]) -> tuple:
        """The endomorphism tuple with these basis coordinates."""
        if len(coords) != self.group.ngens:
            raise ValueError("coordinate tuple of wrong length")
        return _blocks(_combine([(c, _diagonal(t))
                                 for c, t in zip(coords, self.basis) if c]),
                       self.sizes)

    def multiply(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        """Product in basis coordinates via the structure constants."""
        out = sparse_sum([(ai * bj, dict(enumerate(self.structure[i][j])))
                          for i, ai in enumerate(a) if ai
                          for j, bj in enumerate(b) if bj])
        return self.reduce([out.get(k, 0) for k in range(self.group.ngens)])

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
    rel_rows = [[d if k == idx else 0 for k in range(ngens)]
                for idx, (_, d) in enumerate(canon.positions) if d >= 2]
    group = FgAbGroup(ngens, IntMatrix(rel_rows, len(rel_rows), ngens))

    flats = (P.apply(canon.lift([int(k == i) for k in range(ngens)]))
             for i in range(ngens))
    basis = tuple(tuple(IntMatrix([flat[o + k * n: o + (k + 1) * n]
                                   for k in range(n)], n, n)
                        for o, n in zip(offsets, sizes)) for flat in flats)

    alg = EndAlgebra(F, nodes, sizes, group, basis, (), (), expresser, canon)

    def express(a: dict) -> tuple:
        """Coordinates of a tuple given as a sparse matrix; 0 if it is 0."""
        if not any(a.values()):
            return (0,) * ngens
        coords = alg.coordinates_of(_blocks(a, sizes))
        if coords is None:
            raise RuntimeError(
                "commutant is not closed; an expected product escaped it")
        return coords

    sparse = [_diagonal(tup) for tup in basis]
    alg.unit = express({r: {r: 1} for r in range(sum(sizes))})
    alg.structure = tuple(
        tuple(express(_compose(sparse[i], sparse[j])) for j in range(ngens))
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


class ActionReport(Record):
    __slots__ = ("ok", "issues")

    def __init__(self, ok: bool, issues: list):
        self.ok = ok
        self.issues = issues

    def __bool__(self):
        return self.ok


def verify_module_action(T: Representation, E: EndAlgebra) -> ActionReport:
    """Re-check that E really acts on T over its subdiagram.

    Verifies well-definedness of every basis tuple, equivariance against
    every edge map, agreement of the structure constants with actual
    composition, and that the unit coordinates lift to the identity.
    Each gap (b M - M b, b_i b_j - sum c_k b_k, sum u_k b_k - I) is a
    sparse matrix on the direct sum, built from E.basis itself.  Problems
    are reported, not raised, so tampered input can be examined; basis
    matrices of the wrong shape are reported alone."""
    groups = [T.groups[d] for d in E.nodes]
    issues = [f"basis element {idx} is {m.rows}x{m.cols} on node {d}, "
              f"expected {g.ngens}x{g.ngens}"
              for idx, tup in enumerate(E.basis)
              for m, g, d in zip(tup, groups, E.nodes)
              if (m.rows, m.cols) != (g.ngens, g.ngens)]
    if issues:
        return ActionReport(False, issues)
    total = direct_sum(groups)
    start = dict(zip(E.nodes, accumulate([g.ngens for g in groups],
                                         initial=0)))
    sparse = [_diagonal(tup) for tup in E.basis]

    def nonzero(terms: list) -> bool:
        return first_nonzero(_combine(terms).values(), total) is not None

    for idx, tup in enumerate(E.basis):
        bad = [d for m, g, d in zip(tup, groups, E.nodes)
               if GroupHom(g, g, m).well_defined_violation() is not None]
        if bad:
            issues.append(
                f"basis element {idx} is not well defined on node {bad[0]}")
    for name in E.subdiagram.edges:
        s, t, hom = T.homs[name]
        M = _block(hom.matrix, start[t], start[s])
        for idx, b in enumerate(sparse):
            if nonzero([(1, _compose(b, M)), (-1, _compose(M, b))]):
                issues.append(
                    f"basis element {idx} fails equivariance on edge {name}")
    claims = [(f"structure constants misstate the product of basis "
               f"elements {i} and {j}", E.structure[i][j],
               _compose(sparse[i], sparse[j]))
              for i in range(E.rank) for j in range(E.rank)]
    claims.append(("unit coordinates do not lift to the identity", E.unit,
                   {r: {r: 1} for r in range(total.ngens)}))
    for misstated, coords, want in claims:
        if len(coords) != E.rank:
            issues.append(f"{misstated}: {len(coords)} coordinates, "
                          f"expected {E.rank}")
        elif nonzero([(c, b) for c, b in zip(coords, sparse) if c]
                     + [(-1, want)]):
            issues.append(misstated)
    return ActionReport(not issues, issues)
