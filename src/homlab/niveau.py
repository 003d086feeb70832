"""Spectral pages of a filtered complex and recovery of the abutment.

A filtration X_0 <= ... <= X_d = X (with dim X_p <= p) induces lattices
L_p in each chain group.  Approximate-cycle lattices

    Z^r_{p,q} = {x in L_p : dx in L_{p-r}}

present every page as a subquotient with chain-level generator
representatives, so differentials and the comparison with the graded
pieces of homology are all computed by lattice arithmetic.  A page, and
each differential d^r, is built the first time it is read.  Coefficients
in Z/m are handled by padding every lattice with m times the ambient
basis; modulus 0 means integer coefficients.

The first page of the skeletal-style filtration is the cellular chain
complex (all entries off the q = 0 row vanish); when that holds, the
zig-zag in recover_homology rebuilds an honest cycle of X from each
cellular class and the induced map is an isomorphism degree by degree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .fga import (
    FgAbGroup,
    GroupHom,
    HermiteBasis,
    IntMatrix,
    direct_sum,
    hom_concat,
    hom_stack,
    hstack,
    lattice_basis,
    preimage_lattice,
    present_subquotient,
    sparse_sum,
)
from .complexes import ChainComplex, HomologyEntry, homology_entry, induced_hom
from .model import relative_chain_complex
from .simp import Filtration, SimpPair, SimplicialComplex


class SpectralSequence:
    """Pages E^1 .. E^{d+1} of the filtration and their differentials,
    each page and each d^r built the first time it is read.

    Lattices are keyed by what they contain, not by where they sit: L_p in
    degree n has the key (n, indices of the n-simplices of F_p), so steps
    with equal n-simplices, and every p below zero, share one key.
    Z^r_{p,q} depends only on the keys of L_p in degree n and L_{p-r} in
    degree n - 1, and a page entry only on the keys of its three defining
    Z lattices.  Sharing invariant: entries at any pages and positions
    whose defining lattices are equal are the same HomologyEntry object.
    Equal keys mean literally equal generator lists, so sharing changes no
    group, representative or differential.  All of it lives and dies with
    this object.
    """

    def __init__(self, filtration: Filtration, modulus: int = 0):
        if modulus < 0:
            raise ValueError("modulus must be 0 (integers) or positive")
        self.filtration = filtration
        self.modulus = modulus
        base = filtration.base
        self.top = max(base.dim(), 0)
        self.d_len = filtration.length()
        pair = SimpPair(base, SimplicialComplex.empty())
        self.chains, self.bases = relative_chain_complex(
            pair, modulus, -1, self.top + 1)
        self._dim = {n: len(b) for n, b in self.bases.items()}
        self._lkeys: Dict[Tuple[int, int], tuple] = {}
        # the columns of each d_n, as sparse vectors
        self._d = {n: [{i: e for i, e in enumerate(col) if e}
                       for col in self.chains.differential(n).matrix.columns()]
                   for n in range(self.top + 2)}
        self._z: Dict[tuple, tuple] = {}

        self.grid: List[Tuple[int, int]] = []
        for p in range(self.d_len + 1):
            for n in range(0, min(p, self.top) + 1):
                self.grid.append((p, n - p))
        self.grid.sort()

        # what has been read so far; _built keys entries by their Z lattices
        self.pages: Dict[int, Dict[Tuple[int, int], HomologyEntry]] = {}
        self.diffs: Dict[int, Dict[Tuple[int, int], GroupHom]] = {}
        self._built: Dict[tuple, HomologyEntry] = {}

    def page(self, r: int) -> Dict[Tuple[int, int], HomologyEntry]:
        """E^r by grid position, built on first read."""
        entries = self.pages.get(r)
        if entries is None:
            if not 1 <= r <= self.stable_index():
                raise ValueError(f"page {r} not computed (1..{self.d_len + 1})")
            entries = self.pages[r] = {}
            for (p, q) in self.grid:
                key = (self.zkey(r, p, q),
                       self.zkey(r - 1, p + r - 1, q - r + 2),
                       self.zkey(r - 1, p - 1, q + 1))
                entry = self._built.get(key)
                if entry is None:
                    entry = self._built[key] = self._page_entry(p + q, *key)
                entries[(p, q)] = entry
        return entries

    def _page_entry(self, n: int, znum, zup, zleft) -> HomologyEntry:
        d = self._d[n + 1]
        den = ([sparse_sum((a, d[t]) for t, a in z.items())
                for z in self.z_lattice(zup)[0]] + self.z_lattice(zleft)[0])
        return homology_entry(self.dim(n), self.z_lattice(znum)[1],
                              IntMatrix.from_sparse_cols(den, self.dim(n)))

    # -- lattices ------------------------------------------------------------

    def dim(self, n: int) -> int:
        return self._dim.get(n, 0)

    def lattice_key(self, p: int, n: int) -> tuple:
        """(n, basis indices of the n-simplices of F_p): equal keys, equal
        lattices."""
        key = self._lkeys.get((p, n))
        if key is None:
            step = self.filtration.step(p).simplices
            key = (n, tuple(i for i, s in enumerate(self.bases.get(n, []))
                            if s in step))
            self._lkeys[(p, n)] = key
        return key

    def zkey(self, r: int, p: int, q: int) -> tuple:
        """Key of Z^r_{p,q}: the pair of lattice keys it depends on, and
        (key of L_p, None) for r <= 0, where Z^r_{p,q} is L_p itself."""
        n = p + q
        if r <= 0:
            return (self.lattice_key(p, n), None)
        return (self.lattice_key(p, n), self.lattice_key(p - r, n - 1))

    def z_lattice(self, zkey) -> tuple:
        """Z^r_{p,q} = {x in L_p : dx in L_{p-r}} from its key, as (sparse
        generators, HermiteBasis).  L_p's generators are the unit vectors
        at its indices, then m times every unit vector; for r > 0 they are
        L_p·pre, with pre the kernel of d·L_p relative to L_{p-r}.  Both
        products only re-index."""
        cached = self._z.get(zkey)
        if cached is None:
            (n, indices), below = zkey
            gens = [{i: 1} for i in indices]
            if self.modulus:
                gens += [{i: self.modulus} for i in range(self.dim(n))]
            if below is not None:
                d = self._d[n]
                pre = preimage_lattice(
                    [sparse_sum((a, d[t]) for t, a in g.items()) for g in gens],
                    self.z_lattice((below, None))[1])
                gens = [sparse_sum((a, gens[t]) for t, a in x.items())
                        for x in pre.rows.values()]
            cached = self._z[zkey] = (
                gens, HermiteBasis.spanned_by(gens, self.dim(n)))
        return cached

    # -- page access ----------------------------------------------------------

    def stable_index(self) -> int:
        """Differentials out of the grid vanish from here on."""
        return self.d_len + 1

    def entry(self, r: int, p: int, q: int) -> HomologyEntry:
        e = self.page(r).get((p, q))
        if e is None:
            raise ValueError(f"({p}, {q}) outside the support grid")
        return e

    def group(self, r: int, p: int, q: int) -> FgAbGroup:
        e = self.page(r).get((p, q))
        return e.group if e is not None else FgAbGroup.zero()

    def differential(self, r: int, p: int, q: int) -> Optional[GroupHom]:
        """d^r out of (p, q), built on first read; None when r is not a
        page or source or target is off the grid."""
        if not 1 <= r <= self.stable_index():
            return None
        diffs = self.diffs.setdefault(r, {})
        d = diffs.get((p, q))
        if d is None:
            entries = self.page(r)
            src, tgt = entries.get((p, q)), entries.get((p - r, q + r - 1))
            if src is not None and tgt is not None:
                d = diffs[(p, q)] = induced_hom(
                    src, tgt, self.chains.differential(p + q).matrix.apply,
                    f"page {r} differential leaves its target at {(p, q)}")
        return d

    def infinity(self, p: int, q: int) -> FgAbGroup:
        return self.group(self.stable_index(), p, q)

    # -- abutment --------------------------------------------------------------

    def base_homology(self, n: int) -> HomologyEntry:
        """H_n of the whole complex."""
        return self.chains.homology_with_reps(n)


def run_pages(filtration: Filtration, modulus: int = 0) -> SpectralSequence:
    return SpectralSequence(filtration, modulus)


# -- abutment filtration -------------------------------------------------------


class NiveauData:
    """Filtration of homology by the coverage level of its cycles.

    graded[(p, n)] are the invariants of (cycles from F_p)/(cycles from
    F_{p-1}), both taken inside H_n; subgroup[(p, n)] the invariants of the
    p-th filtration subgroup itself; homology[n] those of H_n.
    """

    def __init__(self, homology, subgroup, graded):
        self.homology = homology
        self.subgroup = subgroup
        self.graded = graded


def niveau_filtration(spec: SpectralSequence) -> NiveauData:
    """Each subquotient is presented once per distinct pair of Z keys: the
    filtration by p stabilises, and its later steps repeat earlier ones."""
    homology = {}
    subgroup = {}
    graded = {}
    for n in range(spec.top + 1):
        dim = spec.dim(n)
        homology[n] = spec.base_homology(n)[0].iso_invariants()
        den = lattice_basis(hstack([spec.chains.differential(n + 1).matrix,
                                    spec.chains.group(n).relation_cols()]))
        lattices = {None: den}  # None: the boundaries alone
        invariants = {}

        def present(key, below):
            inv = invariants.get((key, below))
            if inv is None:
                inv = present_subquotient(
                    dim, lattices[key],
                    lattices[below].as_columns())[0].iso_invariants()
                invariants[(key, below)] = inv
            return inv

        prev = None
        for p in range(spec.d_len + 1):
            key = spec.zkey(p + 1, p, n - p)
            if key not in lattices:
                lattices[key] = HermiteBasis.spanned_by(
                    [*spec.z_lattice(key)[1].rows.values(), *den.rows.values()],
                    dim)
            subgroup[(p, n)] = present(key, None)
            graded[(p, n)] = present(key, prev)
            prev = key
    return NiveauData(homology, subgroup, graded)


def check_convergence(spec: SpectralSequence,
                      niv: Optional[NiveauData] = None) -> list:
    """Mismatches between stable-page entries and the graded pieces of the
    homology filtration; empty means the sequence converges on the nose."""
    if niv is None:
        niv = niveau_filtration(spec)
    bad = []
    for n in range(spec.top + 1):
        for p in range(spec.d_len + 1):
            got = spec.infinity(p, n - p).iso_invariants()
            want = niv.graded.get((p, n), (0, ()))
            if got != want:
                bad.append((p, n, got, want))
    return bad


# -- cellular complex and recovery ----------------------------------------------


class CellularComplex:
    """The rows of the first page summed into one chain complex, with its
    block layout: blocks[n] lists the entries (p, q) with p + q = n, in
    the order of their summands in degree n."""

    def __init__(self, total: ChainComplex, blocks: Dict[int, list],
                 offenders: list):
        self.total = total
        self.blocks = blocks
        self.offenders = offenders

    def is_cellular(self) -> bool:
        return not self.offenders

    def homology_table(self):
        return self.total.homology_table()


def check_cellularity(spec: SpectralSequence) -> list:
    """Nontrivial first-page entries off the q = 0 row."""
    return [(p, q) for (p, q) in spec.grid
            if q != 0 and not spec.group(1, p, q).is_trivial()]


def cellular_complex(spec: SpectralSequence) -> CellularComplex:
    """Degree n is the direct sum of the E¹ entries (p, q) with p + q = n,
    and the differential is d¹ block by block."""
    blocks: Dict[int, list] = {}
    for cell in spec.grid:  # sorted, so each block is too
        blocks.setdefault(sum(cell), []).append(cell)
    e1 = {cell: spec.group(1, *cell) for cell in spec.grid}

    def block(src, tgt):
        d = spec.differential(1, *src)
        if d is not None and tgt == (src[0] - 1, src[1]):
            return d
        return GroupHom.zero_map(e1[src], e1[tgt])

    groups = {n: direct_sum([e1[c] for c in cells])
              for n, cells in blocks.items()}
    diffs = {n: hom_concat([hom_stack([block(s, t) for t in blocks[n - 1]])
                            for s in blocks[n]])
             for n in blocks if n - 1 in blocks}
    total = ChainComplex(min(blocks), max(blocks), groups, diffs)
    bad = total.verify()
    if bad:
        raise ValueError(
            f"total differential does not square to zero: {bad[0]!r}")
    return CellularComplex(total, blocks, check_cellularity(spec))


def recover_homology(spec: SpectralSequence, cell: CellularComplex,
                     n: int) -> GroupHom:
    """The comparison map H_n(cellular) -> H_n(X) as an explicit hom.

    A degree-n class of the total complex is restricted to its (n, 0)
    block and lifted through that entry's chain representatives.  Because
    every filtration level satisfies dim X_p <= p, the levels below n
    carry no n-chains at all, so the lifted chain is already a cycle: the
    usual staircase of corrections collapses to this single step.  The
    class of the lift is independent of all choices (boundaries out of
    the (n+1, 0) block and first-page relations both die in H_n).
    `induced_hom` re-checks both at runtime: a chain that is not a cycle
    has no class in H_n, and require_well_defined checks the choices.
    """
    if cell.offenders:
        raise ValueError(
            f"filtration is not cellular; offending entries {cell.offenders}")
    # every entry of total degree n has p >= n, so (n, 0) leads its block
    top = spec.page(1).get((n, 0))

    def lift(chain):
        if top is None:
            return [0] * spec.dim(n)
        return top.reps.apply(chain[:top.group.ngens])

    return induced_hom(cell.total.homology_with_reps(n), spec.base_homology(n),
                       lift, "recovered cycle escapes the cycle lattice")


# -- comparisons and reports -----------------------------------------------------


def _invariants_json(inv: tuple) -> list:
    free, torsion = inv
    return [free, list(torsion)]


def spectral_summary(spec: SpectralSequence) -> dict:
    """JSON-ready (stringified keys, no tuples) description of the pages."""
    pages = {}
    for r in range(1, spec.stable_index() + 1):
        pages[str(r)] = {
            f"{p},{q}": _invariants_json(e.group.iso_invariants())
            for (p, q), e in sorted(spec.page(r).items())}
    niv = niveau_filtration(spec)
    return {
        "modulus": spec.modulus,
        "filtration_length": spec.d_len,
        "stable_page": spec.stable_index(),
        "pages": pages,
        "homology": {str(n): _invariants_json(v)
                     for n, v in sorted(niv.homology.items())},
        "graded": {f"{p},{n}": _invariants_json(v)
                   for (p, n), v in sorted(niv.graded.items())
                   if v != (0, ())},
        "converges": not check_convergence(spec, niv),
    }
