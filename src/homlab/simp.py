"""Finite simplicial complexes, pairs, and diagrams of pairs.

Vertices are string labels; each complex carries an explicit total order
on its labels and every simplex is stored sorted by that order, so chain
bases and boundary signs are deterministic.  Diagrams follow the shape of
a category of pairs: nodes are subcomplex inclusions, edges are simplicial
maps of pairs, and triples/squares/prisms record the structure that later
generates connecting maps and axiom instances.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

EMPTY_NAME = "0"


class SimplicialComplex:
    """Finite complex on totally ordered string labels."""

    __slots__ = ("vertices", "simplices", "_pos")

    def __init__(self, vertices: Sequence[str], simplices: Iterable[Tuple[str, ...]]):
        verts = tuple(str(v) for v in vertices)
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertex labels")
        pos = {v: i for i, v in enumerate(verts)}
        simps = set()
        for s in simplices:
            t = tuple(s)
            if not t:
                raise ValueError("empty simplex")
            for v in t:
                if v not in pos:
                    raise ValueError(f"simplex {t} uses unknown vertex {v!r}")
            if len(set(t)) != len(t):
                raise ValueError(f"repeated vertex in simplex {t}")
            if list(t) != sorted(t, key=pos.__getitem__):
                raise ValueError(f"simplex {t} not sorted by vertex order")
            simps.add(t)
        for s in simps:
            if len(s) > 1:
                for i in range(len(s)):
                    face = s[:i] + s[i + 1:]
                    if face not in simps:
                        raise ValueError(f"missing face {face} of {s}")
        self.vertices = verts
        self.simplices = frozenset(simps)
        self._pos = pos

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return cls((), ())

    @classmethod
    def from_maximal_simplices(cls, maximal: Iterable[Iterable[str]],
                               vertices: Optional[Sequence[str]] = None
                               ) -> "SimplicialComplex":
        """Face closure of the given simplices; labels sorted as strings
        unless an explicit vertex order is supplied."""
        maximal = [tuple(str(v) for v in s) for s in maximal]
        if vertices is None:
            labels = sorted({v for s in maximal for v in s})
        else:
            labels = list(vertices)
        pos = {v: i for i, v in enumerate(labels)}
        for s in maximal:
            for v in s:
                if v not in pos:
                    raise ValueError(f"simplex {s} uses unknown vertex {v!r}")
            if len(set(s)) != len(s):
                raise ValueError(f"repeated vertex in simplex {s}")
        return cls(labels, _closure(tuple(sorted(s, key=pos.__getitem__))
                                    for s in maximal))

    def position(self, label: str) -> int:
        return self._pos[label]

    def sort_simplex(self, labels: Iterable[str]) -> Tuple[str, ...]:
        return tuple(sorted(set(labels), key=self._pos.__getitem__))

    def dim(self) -> int:
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    def simplices_of_dim(self, k: int) -> List[Tuple[str, ...]]:
        found = [s for s in self.simplices if len(s) == k + 1]
        found.sort(key=lambda s: tuple(self._pos[v] for v in s))
        return found

    def has_simplex(self, s: Tuple[str, ...]) -> bool:
        return s in self.simplices

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return (self.simplices <= other.simplices
                and _is_subsequence(self.vertices, other.vertices))

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and self.simplices == other.simplices)

    def __hash__(self):
        return hash((self.vertices, self.simplices))

    def __repr__(self):
        return (f"SimplicialComplex({len(self.vertices)} vertices, "
                f"{len(self.simplices)} simplices, dim {self.dim()})")


def _is_subsequence(sub: Sequence[str], full: Sequence[str]) -> bool:
    it = iter(full)
    return all(any(v == w for w in it) for v in sub)


def _closure(simplices: Iterable[Tuple[str, ...]]) -> set:
    """Every nonempty face of the given simplices, each sorted."""
    closed = set()
    stack = list(simplices)
    while stack:
        t = stack.pop()
        if t and t not in closed:
            closed.add(t)
            if len(t) > 1:
                for i in range(len(t)):
                    stack.append(t[:i] + t[i + 1:])
    return closed


def _on(order: Sequence[str],
        simplices: Collection[Tuple[str, ...]]) -> SimplicialComplex:
    """The complex on these simplices, its vertices in the order they
    have in `order`."""
    used = {v for s in simplices for v in s}
    return SimplicialComplex(tuple(v for v in order if v in used), simplices)


def subcomplex(ambient: SimplicialComplex,
               simplices: Iterable[Tuple[str, ...]]) -> SimplicialComplex:
    """Face closure of the given ambient simplices, with inherited order."""
    sorted_simplices = []
    for s in simplices:
        s = tuple(s)
        if any(v not in ambient._pos for v in s):
            raise ValueError(f"{s} is not a simplex of the ambient complex")
        s = ambient.sort_simplex(s)
        if s not in ambient.simplices:
            raise ValueError(f"{s} is not a simplex of the ambient complex")
        sorted_simplices.append(s)
    return _on(ambient.vertices, _closure(sorted_simplices))


def skeleton(x: SimplicialComplex, p: int) -> SimplicialComplex:
    """Subcomplex of simplices of dimension at most p (empty for p < 0)."""
    if p < -1:
        raise ValueError("skeleton dimension below -1")
    return _on(x.vertices, {s for s in x.simplices if len(s) <= p + 1})


def intersection(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    return _on(a.vertices, a.simplices & b.simplices)


def merge_vertex_orders(a: Sequence[str], b: Sequence[str]) -> Tuple[str, ...]:
    """Common refinement of two compatible total orders (ties by label)."""
    labels = set(a) | set(b)
    after: Dict[str, set] = {v: set() for v in labels}
    indeg = {v: 0 for v in labels}
    for seq in (a, b):
        for i, v in enumerate(seq):
            for w in seq[i + 1:]:
                if w not in after[v]:
                    after[v].add(w)
                    indeg[w] += 1
    import heapq
    ready = [v for v in labels if indeg[v] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for w in sorted(after[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(out) != len(labels):
        raise ValueError("vertex orders are inconsistent")
    return tuple(out)


class DistinguishedSquare:
    """The square of inclusions built from two subcomplexes:
    intersection -> each piece -> union."""

    __slots__ = ("intersection", "left", "right", "union")

    def __init__(self, inter, left, right, union):
        self.intersection = inter
        self.left = left
        self.right = right
        self.union = union


def subcomplex_union(u: SimplicialComplex, v: SimplicialComplex,
                     ambient: Optional[SimplicialComplex] = None
                     ) -> DistinguishedSquare:
    """Union of two subcomplexes with its distinguished square data."""
    if ambient is not None:
        if not u.is_subcomplex_of(ambient) or not v.is_subcomplex_of(ambient):
            raise ValueError("pieces are not subcomplexes of the ambient complex")
        order = ambient.vertices
    else:
        order = merge_vertex_orders(u.vertices, v.vertices)
    return DistinguishedSquare(_on(order, u.simplices & v.simplices), u, v,
                               _on(order, u.simplices | v.simplices))


def _level_label(v: str, k: int) -> str:
    return f"{v}|{k}"


class PrismData:
    """Product with an interval: complex, the two end embeddings, and the
    projection back, all as vertex maps."""

    __slots__ = ("complex", "bottom", "top", "projection")

    def __init__(self, complex, bottom, top, projection):
        self.complex = complex
        self.bottom = bottom
        self.top = top
        self.projection = projection


def prism(x: SimplicialComplex) -> PrismData:
    """Staircase triangulation of x times an interval.

    Each k-simplex yields k+1 maximal cells; the bottom and top copies
    embed simplicially, and collapsing the level is again simplicial.
    """
    verts = []
    for v in x.vertices:
        verts.append(_level_label(v, 0))
        verts.append(_level_label(v, 1))
    cells = []
    for s in sorted(x.simplices, key=lambda s: (len(s), tuple(x.position(v) for v in s))):
        k = len(s)
        for j in range(k):
            cell = tuple(_level_label(v, 0) for v in s[: j + 1]) + \
                tuple(_level_label(v, 1) for v in s[j:])
            cells.append(cell)
    product = SimplicialComplex.from_maximal_simplices(cells, vertices=verts) \
        if cells else SimplicialComplex(tuple(verts), ())
    bottom = {v: _level_label(v, 0) for v in x.vertices}
    top = {v: _level_label(v, 1) for v in x.vertices}
    projection = {}
    for v in x.vertices:
        projection[_level_label(v, 0)] = v
        projection[_level_label(v, 1)] = v
    return PrismData(product, bottom, top, projection)


class SimpPair:
    """A subcomplex inclusion sub <= total."""

    __slots__ = ("total", "sub")

    def __init__(self, total: SimplicialComplex, sub: SimplicialComplex):
        if not sub.is_subcomplex_of(total):
            raise ValueError("sub is not a subcomplex of total")
        self.total = total
        self.sub = sub

    def __eq__(self, other):
        return (isinstance(other, SimpPair) and self.total == other.total
                and self.sub == other.sub)

    def __hash__(self):
        return hash((self.total, self.sub))

    def __repr__(self):
        return f"SimpPair(total={self.total!r}, sub={self.sub!r})"


MORPHISM_KINDS = ("square", "identity", "composite", "boxtimes", "boxplus", "partial")


class PairMorphism:
    """Simplicial map of pairs, tagged with its structural kind."""

    __slots__ = ("name", "source", "target", "vertex_map", "kind")

    def __init__(self, name: str, source: SimpPair, target: SimpPair,
                 vertex_map: Dict[str, str], kind: str = "square"):
        if kind not in MORPHISM_KINDS:
            raise ValueError(f"unknown morphism kind {kind!r}")
        self.name = name
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        self.kind = kind
        self._validate()

    def _validate(self):
        src, tgt, vm = self.source, self.target, self.vertex_map
        for v in src.total.vertices:
            if v not in vm:
                raise ValueError(f"map {self.name!r} leaves vertex {v!r} unmapped")
        for v, w in vm.items():
            if v not in src.total._pos:
                raise ValueError(f"map {self.name!r} mentions unknown vertex {v!r}")
            if w not in tgt.total._pos:
                raise ValueError(
                    f"map {self.name!r} sends {v!r} to unknown vertex {w!r}")
        for part, into, fault in ((src.total, tgt.total, "is not simplicial"),
                                  (src.sub, tgt.sub, "does not send sub into sub")):
            off = [s for s in part.simplices
                   if not into.has_simplex(tgt.total.sort_simplex(vm[v] for v in s))]
            if off:     # name the first by dimension, then vertex positions
                s = min(off, key=lambda s: (len(s), [src.total._pos[v] for v in s]))
                raise ValueError(f"map {self.name!r} {fault} on simplex {s}")
        if self.kind == "identity":
            if src != tgt or any(vm[v] != v for v in src.total.vertices):
                raise ValueError(f"edge {self.name!r} is not an identity")
        if self.kind == "partial":
            # (Y,Z) -> (X,Y): the source total must be the target sub and the
            # underlying map the inclusion
            if src.total != tgt.sub or any(vm[v] != v for v in src.total.vertices):
                raise ValueError(f"edge {self.name!r} has no connecting shape")
        if self.kind == "boxtimes":
            if src.sub != tgt.sub or any(vm[v] != v for v in src.total.vertices):
                raise ValueError(f"edge {self.name!r} is not a sub-fixing inclusion")
        if self.kind == "boxplus":
            if src.total != tgt.total or any(vm[v] != v for v in src.total.vertices):
                raise ValueError(f"edge {self.name!r} is not a total-fixing collapse")

    def __repr__(self):
        return f"PairMorphism({self.name!r}, kind={self.kind!r})"


def map_image(vertex_map: Dict[str, str], source: SimplicialComplex,
              target: SimplicialComplex) -> SimplicialComplex:
    """Image subcomplex of a simplicial map."""
    return _on(target.vertices, {target.sort_simplex(vertex_map[v] for v in s)
                                 for s in source.simplices})


class Filtration:
    """Exhaustive increasing chain of subcomplexes with dim X_p <= p."""

    __slots__ = ("base", "steps")

    def __init__(self, base: SimplicialComplex, steps: Sequence[SimplicialComplex]):
        steps = tuple(steps)
        if not steps:
            raise ValueError("a filtration needs at least one step")
        prev = None
        for p, xp in enumerate(steps):
            if not xp.is_subcomplex_of(base):
                raise ValueError(f"step {p} is not a subcomplex of the base")
            if xp.dim() > p:
                raise ValueError(
                    f"step {p} has dimension {xp.dim()}, above its index")
            if prev is not None and not prev.is_subcomplex_of(xp):
                raise ValueError(f"step {p - 1} is not contained in step {p}")
            prev = xp
        if steps[-1] != base:
            raise ValueError("the top step must equal the base complex")
        self.base = base
        self.steps = steps

    @classmethod
    def skeletal(cls, base: SimplicialComplex) -> "Filtration":
        top = max(base.dim(), 0)
        return cls(base, [skeleton(base, p) for p in range(top + 1)])

    def step(self, p: int) -> SimplicialComplex:
        """X_p, with X_{-1} and below empty and the base above the top."""
        if p < 0:
            return SimplicialComplex.empty()
        if p >= len(self.steps):
            return self.base
        return self.steps[p]

    def length(self) -> int:
        return len(self.steps) - 1

    def __repr__(self):
        return f"Filtration({len(self.steps)} steps, base dim {self.base.dim()})"


# ---------------------------------------------------------------------------
# diagrams of pairs


class Edge:
    __slots__ = ("name", "src", "tgt", "morphism")

    def __init__(self, name, src, tgt, morphism: PairMorphism):
        self.name = name
        self.src = src
        self.tgt = tgt
        self.morphism = morphism

    @property
    def kind(self):
        return self.morphism.kind

    def __repr__(self):
        return f"Edge({self.name!r}: {self.src} -> {self.tgt})"


class Triple:
    __slots__ = ("name", "x", "y", "z", "nyz", "nxz", "nxy", "bt", "bp", "bd")

    def __init__(self, name, x, y, z):
        self.name = name
        self.x, self.y, self.z = x, y, z
        self.nyz = (y, z)
        self.nxz = (x, z)
        self.nxy = (x, y)
        self.bt = f"{name}.bt"
        self.bp = f"{name}.bp"
        self.bd = f"{name}.bd"


class Cube:
    __slots__ = ("name", "src", "tgt", "vertex_map", "dia", "box", "mid")

    def __init__(self, name, src, tgt, vertex_map):
        self.name = name
        self.src = src
        self.tgt = tgt
        self.vertex_map = dict(vertex_map)
        self.dia = f"{name}.dia"
        self.box = f"{name}.box"
        self.mid = f"{name}.mid"


class Square:
    __slots__ = ("name", "x", "u", "v", "b", "d", "ia", "ic", "ja", "jc")

    def __init__(self, name, x, u, v, b, d):
        self.name = name
        self.x, self.u, self.v = x, u, v
        self.b = b  # intersection complex name
        self.d = d  # union complex name
        self.ia = f"{name}.ia"
        self.ic = f"{name}.ic"
        self.ja = f"{name}.ja"
        self.jc = f"{name}.jc"


class SquareMap:
    __slots__ = ("name", "src", "tgt", "vertex_map", "eb", "ea", "ec", "ed")

    def __init__(self, name, src, tgt, vertex_map):
        self.name = name
        self.src = src
        self.tgt = tgt
        self.vertex_map = dict(vertex_map)
        self.eb = f"{name}.b"
        self.ea = f"{name}.a"
        self.ec = f"{name}.c"
        self.ed = f"{name}.d"


class PrismEdges:
    __slots__ = ("pair", "product_pair", "i0", "i1", "pr")

    def __init__(self, pair, product_pair):
        self.pair = pair
        self.product_pair = product_pair
        base = f"{pair[0]}/{pair[1]}"
        self.i0 = f"{base}.i0"
        self.i1 = f"{base}.i1"
        self.pr = f"{base}.pr"


class PairDiagram:
    """Built diagram: nodes keyed by (total name, sub name), edges closed
    under identities and the connecting factorization of every triple.
    A DiagramBuilder fills it from empty."""

    def __init__(self, complexes: Dict[str, SimplicialComplex]):
        self.complexes = complexes
        self.nodes: Dict[Tuple[str, str], SimpPair] = {}
        self.edges: Dict[str, Edge] = {}
        self.composites: List[Tuple[str, str, str]] = []
        self.triples: Dict[str, Triple] = {}
        self.cubes: Dict[str, Cube] = {}
        self.squares: Dict[str, Square] = {}
        self.square_maps: Dict[str, SquareMap] = {}
        self.prisms: Dict[Tuple[str, str], PrismEdges] = {}

    def node_keys(self):
        return sorted(self.nodes)

    def edge_names(self):
        return sorted(self.edges)

    @staticmethod
    def identity_name(key):
        return f"id:{key[0]}/{key[1]}"


def _restricted(vmap: Dict[str, str], cx: SimplicialComplex) -> Dict[str, str]:
    """vmap on the vertices of cx it has; PairMorphism names a missing one."""
    return {v: vmap[v] for v in cx.vertices if v in vmap}


def _inclusion(cx: SimplicialComplex) -> Dict[str, str]:
    return {v: v for v in cx.vertices}


class DiagramBuilder:
    """A pair diagram built one declaration at a time.

    Each `add_*` checks its declaration against what came before and
    raises ValueError with the reason.  Otherwise it adds the nodes, edges
    and generated complexes to `assembled`, the diagram so far, and
    records the declaration in its list, in the order made.  `complexes`
    holds the declared complexes and always maps `0` to the empty
    complex; `assembled.complexes` also holds the ones squares and prisms
    generated.  Equality compares `complexes` and the lists.  `build()`,
    called once, adds the identity edges, checks the composites and
    returns the diagram.
    """

    __slots__ = ("complexes", "pairs", "edges", "triples", "squares",
                 "square_maps", "prisms", "cubes", "assembled")

    def __init__(self):
        self.complexes: Dict[str, SimplicialComplex] = \
            {EMPTY_NAME: SimplicialComplex.empty()}
        self.pairs: List[Tuple[str, str]] = []
        self.edges: List[tuple] = []        # (name, src pair, tgt pair, vmap)
        self.triples: List[tuple] = []      # (name, x, y, z)
        self.squares: List[tuple] = []      # (name, x, u, v)
        self.square_maps: List[tuple] = []  # (name, src square, tgt square, vmap)
        self.prisms: List[Tuple[str, str]] = []
        self.cubes: List[tuple] = []        # (name, src triple, tgt triple, vmap)
        self.assembled = PairDiagram(dict(self.complexes))

    def __eq__(self, other):
        if type(other) is not DiagramBuilder:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__[:-1])    # all but `assembled`

    def _get(self, name: str) -> SimplicialComplex:
        if name not in self.assembled.complexes:
            raise ValueError(f"unknown complex {name!r}")
        return self.assembled.complexes[name]

    def _generate(self, base: str, cx: SimplicialComplex) -> str:
        """Store a generated complex under base, or base with `+`s if
        that name is taken."""
        name = base
        while name in self.assembled.complexes:
            name = name + "+"
        self.assembled.complexes[name] = cx
        return name

    def _node(self, total: str, sub: str = EMPTY_NAME) -> Tuple[str, str]:
        key = (total, sub)
        if key not in self.assembled.nodes:
            self.assembled.nodes[key] = SimpPair(self._get(total), self._get(sub))
        return key

    def _add_edge(self, name, src_key, tgt_key, vmap, kind="square"):
        d = self.assembled
        if name in d.edges:
            raise ValueError(f"duplicate edge name {name!r}")
        morphism = PairMorphism(name, d.nodes[src_key], d.nodes[tgt_key],
                                vmap, kind)
        d.edges[name] = Edge(name, src_key, tgt_key, morphism)

    def add_complex(self, name: str, cx: SimplicialComplex):
        if name in self.assembled.complexes and self.complexes.get(name) != cx:
            raise ValueError(f"complex name {name!r} already used")
        self.complexes[name] = self.assembled.complexes[name] = cx
        return self

    def add_pair(self, total: str, sub: str = EMPTY_NAME):
        self._node(total, sub)
        self.pairs.append((total, sub))
        return self

    def add_edge(self, name, src, tgt, vertex_map):
        src, tgt = tuple(src), tuple(tgt)
        self._add_edge(name, self._node(*src), self._node(*tgt), vertex_map)
        self.edges.append((name, src, tgt, dict(vertex_map)))
        return self

    def add_triple(self, name, x, y, z=EMPTY_NAME):
        d = self.assembled
        if name in d.triples:
            raise ValueError(f"duplicate triple name {name!r}")
        zc, yc, xc = self._get(z), self._get(y), self._get(x)
        if not zc.is_subcomplex_of(yc) or not yc.is_subcomplex_of(xc):
            raise ValueError(f"triple {name!r} is not a chain of subcomplexes")
        t = d.triples[name] = Triple(name, x, y, z)
        self._node(y, z)
        self._node(x, z)
        self._node(x, y)
        self._add_edge(t.bt, t.nyz, t.nxz, _inclusion(yc), "boxtimes")
        self._add_edge(t.bp, t.nxz, t.nxy, _inclusion(xc), "boxplus")
        self._add_edge(t.bd, t.nyz, t.nxy, _inclusion(yc), "partial")
        d.composites.append((t.bt, t.bp, t.bd))
        self.triples.append((name, x, y, z))
        return self

    def add_square(self, name, x, u, v):
        d = self.assembled
        if name in d.squares:
            raise ValueError(f"duplicate square name {name!r}")
        xc, uc, vc = self._get(x), self._get(u), self._get(v)
        ds = subcomplex_union(uc, vc, ambient=xc)
        bname = self._generate(f"{name}.b", ds.intersection)
        dname = self._generate(f"{name}.d", ds.union)
        sq = d.squares[name] = Square(name, x, u, v, bname, dname)
        kb, ku, kv, kd = (self._node(c) for c in (bname, u, v, dname))
        self._add_edge(sq.ia, kb, ku, _inclusion(ds.intersection))
        self._add_edge(sq.ic, kb, kv, _inclusion(ds.intersection))
        self._add_edge(sq.ja, ku, kd, _inclusion(uc))
        self._add_edge(sq.jc, kv, kd, _inclusion(vc))
        self.squares.append((name, x, u, v))
        return self

    def add_square_map(self, name, src, tgt, vertex_map):
        d = self.assembled
        if src not in d.squares or tgt not in d.squares:
            raise ValueError(f"square map {name!r} references an unknown square")
        s, t = d.squares[src], d.squares[tgt]
        m = d.square_maps[name] = SquareMap(name, src, tgt, vertex_map)
        for edge, a, b in ((m.eb, s.b, t.b), (m.ea, s.u, t.u),
                           (m.ec, s.v, t.v), (m.ed, s.d, t.d)):
            self._add_edge(edge, (a, EMPTY_NAME), (b, EMPTY_NAME),
                           _restricted(vertex_map, self._get(a)))
        self.square_maps.append((name, src, tgt, dict(vertex_map)))
        return self

    def add_prism(self, total: str, sub: str = EMPTY_NAME):
        d = self.assembled
        key = self._node(total, sub)
        if key not in d.prisms:
            data = prism(self._get(total))
            pt_name = self._generate(f"{total}xI", data.complex)
            if sub == EMPTY_NAME:
                ps_name = EMPTY_NAME
            else:
                ps_name = self._generate(f"{sub}xI", prism(self._get(sub)).complex)
            pe = d.prisms[key] = PrismEdges(key, self._node(pt_name, ps_name))
            self._add_edge(pe.i0, key, pe.product_pair, data.bottom)
            self._add_edge(pe.i1, key, pe.product_pair, data.top)
            self._add_edge(pe.pr, pe.product_pair, key, data.projection)
        self.prisms.append((total, sub))
        return self

    def add_cube(self, name, src_triple, tgt_triple, vertex_map):
        d = self.assembled
        if src_triple not in d.triples or tgt_triple not in d.triples:
            raise ValueError(f"cube {name!r} references an unknown triple")
        s, t = d.triples[src_triple], d.triples[tgt_triple]
        c = d.cubes[name] = Cube(name, src_triple, tgt_triple, vertex_map)
        self._add_edge(c.dia, s.nyz, t.nyz, _restricted(vertex_map, self._get(s.y)))
        self._add_edge(c.mid, s.nxz, t.nxz, _restricted(vertex_map, self._get(s.x)))
        self._add_edge(c.box, s.nxy, t.nxy, _restricted(vertex_map, self._get(s.x)))
        self.cubes.append((name, src_triple, tgt_triple, dict(vertex_map)))
        return self

    def build(self) -> PairDiagram:
        d = self.assembled
        for key in sorted(d.nodes):
            name = PairDiagram.identity_name(key)
            if name in d.edges:
                raise ValueError(f"edge name {name!r} collides with an identity")
            self._add_edge(name, key, key, _inclusion(d.nodes[key].total),
                           "identity")
        for first, then, whole in d.composites:
            f, g, h = d.edges[first], d.edges[then], d.edges[whole]
            if f.tgt != g.src or f.src != h.src or g.tgt != h.tgt:
                raise ValueError(f"composite {whole!r} has inconsistent endpoints")
            fm, gm, hm = (e.morphism.vertex_map for e in (f, g, h))
            for v in d.nodes[f.src].total.vertices:
                if gm[fm[v]] != hm[v]:
                    raise ValueError(f"composite {whole!r} disagrees with its factors")
        return d
