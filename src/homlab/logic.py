"""Many-sorted equational sequents over a homology model.

A diagram plus a degree window determines a signature: one sort per
(node, degree) with abelian-group syntax, one function symbol per
degree-preserving edge map, one per triple connecting morphism, one per
distinguished-square connecting morphism.  The axiom generator emits the
group laws, additivity, compositions, identities, naturality, exactness of
every triple, interval invariance, and the six-part exactness of every
distinguished square, each as a tagged sequent instance.

Sequents can be checked two ways: semantically against the model's
presented groups (kernel/image lattice arithmetic) or by brute-force
enumeration over an exported finite structure.  Each family is written
once for both: the semantic route composes the two chains of symbols a
chain equation's sequent applies, and a long exact segment is four maps
given as matrices of signed symbols, which write the sequents of its
parts and, built into maps, their lattice checks.
"""

from __future__ import annotations

import sys
from functools import cache, reduce
from itertools import product, repeat
from math import prod
from operator import eq, itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from .fga import CanonicalForm, GroupHom, composite_is_zero, hom_concat, hom_stack, kernel_in_image

# -- terms and formulas ------------------------------------------------------


class Record:
    """A record whose fields are its class's `__slots__`, set by name in
    its `__init__`.  It equals a record of the same class with equal
    fields, so node kinds with equal fields stay apart, and prints as
    `Class(field=value, ...)`."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A record that refuses assignment, so its `__init__` sets each field
    with `object.__setattr__`.  It hashes as the tuple of its fields, and
    copies and pickles by its class and fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Var(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Zero(Frozen):
    __slots__ = ("sort",)

    def __init__(self, sort: Optional[str]):
        object.__setattr__(self, "sort", sort)


class Add(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Neg(Frozen):
    __slots__ = ("arg",)

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)


class App(Frozen):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)


class Top(Frozen):
    __slots__ = ()


class Eq(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class And(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Exists(Frozen):
    __slots__ = ("var", "sort", "body")

    def __init__(self, var: str, sort: str, body):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "body", body)


class Sequent(Frozen):
    """forall context: antecedent entails consequent."""
    __slots__ = ("context", "antecedent", "consequent")

    def __init__(self, context: Tuple[Tuple[str, str], ...], antecedent,
                 consequent):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "antecedent", antecedent)
        object.__setattr__(self, "consequent", consequent)


# -- signatures --------------------------------------------------------------


def sort_name(key: Tuple[str, str], n: int) -> str:
    total, sub = key
    if sub == "0":
        return f"h{n}({total})"
    return f"h{n}({total},{sub})"


class FuncInfo(Frozen):
    __slots__ = ("name", "kind", "source", "target", "ref", "degree")

    def __init__(self, name: str, kind: str, source: str, target: str,
                 ref: str, degree: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)  # "edge" | "connecting" | "mv"
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "ref", ref)    # edge / triple / square name
        object.__setattr__(self, "degree", degree)


class Signature:
    def __init__(self, sorts: Dict[str, Tuple[Tuple[str, str], int]],
                 funcs: Dict[str, FuncInfo], window: Tuple[int, int]):
        self.sorts = sorts
        self.funcs = funcs
        self.window = window

    def read_by(self, sequents) -> "Signature":
        """The part of the signature that the sequents read: the sorts of
        their context and `exists` variables and of their sorted zeros,
        and every symbol they apply with its source and target sorts.
        `check_sequent` gives every bare zero, Zero(None), one of these
        sorts.  Names the signature lacks are skipped, so an ill-typed
        sequent still fails in `check_sequent`."""
        sorts, funcs = set(), set()
        for seq in sequents:
            _shape(seq, sorts.add, funcs.add)
        read = {f: info for f, info in self.funcs.items() if f in funcs}
        for info in read.values():
            sorts.update((info.source, info.target))
        return Signature({s: k for s, k in self.sorts.items() if s in sorts},
                         read, self.window)


def _shape(seq: Sequent, sort: Callable, func: Callable) -> tuple:
    """seq as nested tuples (node type, fields in slot order...), with
    each sort name s replaced by sort(s) and each symbol name f by
    func(f); variable names and context order are kept."""
    def walk(node):
        kind = type(node)
        if kind is Var:
            return node.name
        if kind is Zero:
            return kind, sort(node.sort)
        if kind is App:
            return kind, func(node.func), walk(node.arg)
        if kind is Exists:
            return kind, node.var, sort(node.sort), walk(node.body)
        return (kind, *[walk(getattr(node, f)) for f in node.__slots__])  # Add Neg Eq And Top
    return (tuple((v, sort(s)) for v, s in seq.context),
            walk(seq.antecedent), walk(seq.consequent))


def generate_signature(diagram, window: Tuple[int, int]) -> Signature:
    lo, hi = window
    sorts = {}
    for key in diagram.node_keys():
        for n in range(lo, hi + 1):
            sorts[sort_name(key, n)] = (key, n)
    funcs: Dict[str, FuncInfo] = {}

    def declare(info: FuncInfo):
        if info.name in funcs:
            raise ValueError(f"symbol name clash at {info.name!r}")
        funcs[info.name] = info

    for name in diagram.edge_names():
        edge = diagram.edges[name]
        if edge.kind == "partial":
            continue  # its content is the connecting symbol of the triple
        for n in range(lo, hi + 1):
            declare(FuncInfo(f"{name}@{n}", "edge",
                             sort_name(edge.src, n), sort_name(edge.tgt, n),
                             name, n))
    for tname in sorted(diagram.triples):
        t = diagram.triples[tname]
        for n in range(lo + 1, hi + 1):
            declare(FuncInfo(f"{tname}@{n}", "connecting",
                             sort_name(t.nxy, n), sort_name(t.nyz, n - 1),
                             tname, n))
    for qname in sorted(diagram.squares):
        q = diagram.squares[qname]
        for n in range(lo + 1, hi + 1):
            declare(FuncInfo(f"{qname}@{n}", "mv",
                             sort_name((q.d, "0"), n), sort_name((q.b, "0"), n - 1),
                             qname, n))
    return Signature(sorts, funcs, window)


# -- axiom generation --------------------------------------------------------


class AxiomInstance(Frozen):
    __slots__ = ("name", "tag", "sequent")

    def __init__(self, name: str, tag: tuple, sequent: Sequent):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "sequent", sequent)


def _group_axioms(sig: Signature) -> List[AxiomInstance]:
    out = []
    for s in sorted(sig.sorts):
        x, y, z = Var("x"), Var("y"), Var("z")
        laws = [
            ("assoc", (("x", s), ("y", s), ("z", s)),
             Eq(Add(Add(x, y), z), Add(x, Add(y, z)))),
            ("unit", (("x", s),), Eq(Add(x, Zero(s)), x)),
            ("inverse", (("x", s),), Eq(Add(x, Neg(x)), Zero(s))),
            ("comm", (("x", s), ("y", s)), Eq(Add(x, y), Add(y, x))),
        ]
        for law, ctx, eq in laws:
            out.append(AxiomInstance(f"group/{s}/{law}", ("group", s, law),
                                     Sequent(ctx, Top(), eq)))
    return out


def _additivity_axioms(sig: Signature) -> List[AxiomInstance]:
    out = []
    for fname in sorted(sig.funcs):
        info = sig.funcs[fname]
        x, y = Var("x"), Var("y")
        seq = Sequent((("x", info.source), ("y", info.source)), Top(),
                      Eq(App(fname, Add(x, y)),
                         Add(App(fname, x), App(fname, y))))
        out.append(AxiomInstance(f"add/{fname}", ("additivity", fname), seq))
    return out


def composition_triangles(diagram) -> List[Tuple[str, str, str]]:
    """Edge triangles h = g after f, detected from the vertex maps.

    The two factors are proper non-identity maps; the composite may be an
    identity edge (that is how retractions show up).
    """
    triangles = []
    names = diagram.edge_names()
    for fn in names:
        f = diagram.edges[fn]
        if f.kind in ("partial", "identity"):
            continue
        for gn in names:
            g = diagram.edges[gn]
            if g.kind in ("partial", "identity") or f.tgt != g.src:
                continue
            composed = {v: g.morphism.vertex_map[w]
                        for v, w in f.morphism.vertex_map.items()}
            for hn in names:
                h = diagram.edges[hn]
                if (h.kind != "partial" and h.src == f.src and h.tgt == g.tgt
                        and h.morphism.vertex_map == composed):
                    triangles.append((fn, gn, hn))
    return triangles


def _chain_axioms(sig: Signature, diagram, family: str) -> List[AxiomInstance]:
    """The instances of a chain-equation family, each forall x. lhs(x) =
    rhs(x), where a side applies its chain of symbols to x, first to last;
    `_check_axiom` reads the two chains back off the sequent."""
    lo, hi = sig.window
    out = []

    def emit(name, tag, sort, *chains):
        lhs, rhs = (reduce(lambda t, f: App(f, t), c, Var("x")) for c in chains)
        out.append(AxiomInstance(name, (family, *tag),
                                 Sequent((("x", sort),), Top(), Eq(lhs, rhs))))

    if family == "identity":
        for key in diagram.node_keys():
            name = diagram.identity_name(key)
            for n in range(lo, hi + 1):
                emit(f"ident/{key[0]}/{key[1]}/{n}", (name, n),
                     sort_name(key, n), [f"{name}@{n}"], [])
    elif family == "composition":
        for fn, gn, hn in composition_triangles(diagram):
            for n in range(lo, hi + 1):
                emit(f"comp/{fn};{gn};{hn}/{n}", (fn, gn, hn, n),
                     sort_name(diagram.edges[fn].src, n),
                     [f"{hn}@{n}"], [f"{fn}@{n}", f"{gn}@{n}"])
    elif family == "naturality":
        for cname in sorted(diagram.cubes):
            cube = diagram.cubes[cname]
            for n in range(lo + 1, hi + 1):
                emit(f"nat/{cname}/{n}", (cname, n),
                     sort_name(diagram.triples[cube.src].nxy, n),
                     [f"{cube.box}@{n}", f"{cube.tgt}@{n}"],
                     [f"{cube.src}@{n}", f"{cube.dia}@{n-1}"])
    elif family == "interval":
        for key in sorted(diagram.prisms):
            pe = diagram.prisms[key]
            for n in range(lo, hi + 1):
                emit(f"interval/{key[0]}/{key[1]}/{n}", (*key, n),
                     sort_name(key, n), [f"{pe.i0}@{n}"], [f"{pe.i1}@{n}"])
    elif family == "mv_naturality":
        for mname in sorted(diagram.square_maps):
            sm = diagram.square_maps[mname]
            for n in range(lo + 1, hi + 1):
                emit(f"mvnat/{mname}/{n}", (mname, n),
                     sort_name((diagram.squares[sm.src].d, "0"), n),
                     [f"{sm.ed}@{n}", f"{sm.tgt}@{n}"],
                     [f"{sm.src}@{n}", f"{sm.eb}@{n-1}"])
    return out


# The parts of a long exact segment (m0, m1, m2, m3), by family: the pair
# (m_i, m_{i+1}) gives part comp, m_{i+1} m_i = 0, and part onto, ker
# m_{i+1} inside im m_i, named at index i.
_SEGMENT_PARTS = {
    "exactness": (("comp_bt_bp", "onto_bt"), ("comp_bp_bd", "onto_bp"),
                  ("comp_bd_bt", "onto_bd")),
    "mv": (("comp_pieces", "onto_pieces"), ("comp_union", "onto_union"),
           ("comp_inter", "onto_inter")),
}


def _segment(diagram, family: str, name: str, n: int) -> tuple:
    """The four maps of the long exact segment of a triple or square at
    degree n, each a matrix of signed symbols (sign, symbol) with a row
    per summand of its target and an entry per summand of its source.

    A triple's segment is (bt_n, bp_n, d_n, bt_{n-1}).  A square's is
    (alpha_n, beta_n, mv_n, alpha_{n-1}): its pieces map in by alpha =
    (ia, -ic) and out by the sum beta = ja + jc."""
    def one(f, k):
        return [[(1, f"{f}@{k}")]]

    if family == "exactness":
        t = diagram.triples[name]
        return one(t.bt, n), one(t.bp, n), one(name, n), one(t.bt, n - 1)
    q = diagram.squares[name]

    def alpha(k):
        return [[(1, f"{q.ia}@{k}")], [(-1, f"{q.ic}@{k}")]]
    return (alpha(n), [[(1, f"{q.ja}@{n}"), (1, f"{q.jc}@{n}")]],
            one(name, n), alpha(n - 1))


def _signed(term) -> object:
    sign, t = term
    return t if sign > 0 else Neg(t)


def _apply(matrix, args) -> list:
    """The rows of a matrix of signed symbols applied to signed terms
    (sign, term), as signed terms.  A row of one entry keeps its sign
    apart, so the next symbol takes the unsigned term: -jc(ic(x)), not
    jc(-ic(x)).  A longer row is the sum of its entries."""
    rows = []
    for row in matrix:
        terms = [(s * sign, App(f, t)) for (s, f), (sign, t) in zip(row, args)]
        rows.append(terms[0] if len(terms) == 1
                    else (1, reduce(Add, map(_signed, terms))))
    return rows


def _ends(sig: Signature, matrix) -> tuple:
    """The sorts of a matrix's source summands and of its target summands."""
    return ([sig.funcs[f].source for _, f in matrix[0]],
            [sig.funcs[row[0][1]].target for row in matrix])


def _segment_axioms(sig: Signature, diagram, family: str) -> List[AxiomInstance]:
    """The two parts of each adjacent pair of maps f, g of every segment of
    the family: comp, forall x. g(f(x)) = 0, and onto, forall y. g(y) = 0
    |- exists x. f(x) = y, where x and y run over the summands of the
    source and of the middle, one equation per row."""
    lo, hi = sig.window
    prefix, names = (("exact", diagram.triples) if family == "exactness"
                     else ("mv", diagram.squares))

    def context(letter, sorts):     # a variable per summand
        if len(sorts) == 1:
            return ((letter, sorts[0]),)
        return tuple((f"{letter}{i}", s) for i, s in enumerate(sorts, 1))

    def vanish(rows, sorts):    # a sign does not change whether a term is zero
        return reduce(And, [Eq(t, Zero(s)) for (_, t), s in zip(rows, sorts)])

    out = []
    for name in sorted(names):
        for n in range(lo, hi + 1):
            maps = _segment(diagram, family, name, n)
            # the pairs after the first reach degree n - 1
            for i, parts in enumerate(_SEGMENT_PARTS[family][:1 if n == lo else 3]):
                f, g = maps[i], maps[i + 1]
                (sources, middles), zeros = _ends(sig, f), _ends(sig, g)[1]
                xs, ys = context("x", sources), context("y", middles)
                image = _apply(f, [(1, Var(x)) for x, _ in xs])
                hit = reduce(And, [Eq(_signed(r), Var(y))
                                   for r, (y, _) in zip(image, ys)])
                for x, sort in reversed(xs):
                    hit = Exists(x, sort, hit)
                ante = vanish(_apply(g, [(1, Var(y)) for y, _ in ys]), zeros)
                sequents = (Sequent(xs, Top(), vanish(_apply(g, image), zeros)),
                            Sequent(ys, ante, hit))
                out += [AxiomInstance(f"{prefix}/{name}/{n}/{part}",
                                      (family, name, n, part), seq)
                        for part, seq in zip(parts, sequents)]
    return out


FLAVORS = ("core", "homotopy", "cd")


def generate_axioms(sig: Signature, diagram,
                    flavors=("core",)) -> List[AxiomInstance]:
    for fl in flavors:
        if fl not in FLAVORS:
            raise ValueError(f"unknown flavor {fl!r}")
    out: List[AxiomInstance] = []
    if "core" in flavors:
        out += _group_axioms(sig)
        out += _chain_axioms(sig, diagram, "identity")
        out += _additivity_axioms(sig)
        out += _chain_axioms(sig, diagram, "composition")
        out += _chain_axioms(sig, diagram, "naturality")
        out += _segment_axioms(sig, diagram, "exactness")
    if "homotopy" in flavors:
        out += _chain_axioms(sig, diagram, "interval")
    if "cd" in flavors:
        out += _segment_axioms(sig, diagram, "mv")
        out += _chain_axioms(sig, diagram, "mv_naturality")
    return out


# -- sequent sort checking ---------------------------------------------------


def _term(sig: Signature, term, env: Dict[str, str], want):
    """(term with its bare zeros sorted, its sort), checked.

    `want` is the sort the place fixes, or None; it only sorts bare zeros,
    and the caller compares sorts.  The sort is None only for a term of
    bare zeros, negations and sums, which `want` did not fix.
    """
    if isinstance(term, Var):
        if term.name not in env:
            raise ValueError(f"unbound variable {term.name!r}")
        return term, env[term.name]
    if isinstance(term, Zero):
        if term.sort is None:
            return (term, None) if want is None else (Zero(want), want)
        if term.sort not in sig.sorts:
            raise ValueError(f"unknown sort {term.sort!r}")
        return term, term.sort
    if isinstance(term, Neg):
        arg, a = _term(sig, term.arg, env, want)
        return Neg(arg), a
    if isinstance(term, Add):
        left, right, a, b = _sides(sig, term, env, want)
        if a != b:
            raise ValueError(f"sum mixes sorts {a} and {b}")
        return Add(left, right), a
    if isinstance(term, App):
        info = sig.funcs.get(term.func)
        if info is None:
            raise ValueError(f"unknown symbol {term.func!r}")
        arg, a = _term(sig, term.arg, env, info.source)
        if a != info.source:
            raise ValueError(f"{term.func!r} expects {info.source}, got {a}")
        return App(term.func, arg), info.target
    raise TypeError(f"not a term: {term!r}")


def _sides(sig: Signature, pair, env: Dict[str, str], want):
    """_term of both sides of a sum or equation, with their sorts; the
    sort of one side sorts the bare zeros of the other."""
    left, a = _term(sig, pair.left, env, want)
    right, b = _term(sig, pair.right, env, want or a)
    if a is None and b is not None:
        left, a = _term(sig, left, env, b)
    return left, right, a, b


def _formula(sig: Signature, formula, env: Dict[str, str],
             allow_exists: bool):
    if isinstance(formula, Top):
        return formula
    if isinstance(formula, Eq):
        left, right, a, b = _sides(sig, formula, env, None)
        if a is None:
            raise ValueError("cannot infer the sort of a zero literal")
        if a != b:
            raise ValueError(f"equation mixes sorts {a} and {b}")
        return Eq(left, right)
    if isinstance(formula, And):
        return And(_formula(sig, formula.left, env, allow_exists),
                   _formula(sig, formula.right, env, allow_exists))
    if isinstance(formula, Exists):
        if not allow_exists:
            raise ValueError("existential not allowed left of the turnstile")
        if formula.var in env:
            raise ValueError(f"variable {formula.var!r} shadows a binding")
        if formula.sort not in sig.sorts:
            raise ValueError(f"unknown sort {formula.sort!r}")
        inner = dict(env)
        inner[formula.var] = formula.sort
        return Exists(formula.var, formula.sort,
                      _formula(sig, formula.body, inner, allow_exists))
    raise TypeError(f"not a formula: {formula!r}")


def check_sequent(sig: Signature, seq: Sequent) -> Sequent:
    """The sequent with every bare zero, Zero(None), given its sort.

    One walk in reading order infers and checks every sort.  A zero takes
    the sort its symbol's argument or its equation's other side fixes,
    else the first sort found in its sum.  Raises ValueError naming the
    first fault: an unknown sort or symbol, an unbound, duplicate or
    shadowing variable, mixed sorts, an existential left of the
    turnstile, or a zero whose equation fixes no sort.
    """
    env: Dict[str, str] = {}
    for v, s in seq.context:
        if v in env:
            raise ValueError(f"duplicate context variable {v!r}")
        if s not in sig.sorts:
            raise ValueError(f"unknown sort {s!r}")
        env[v] = s
    return Sequent(seq.context,
                   _formula(sig, seq.antecedent, env, allow_exists=False),
                   _formula(sig, seq.consequent, env, allow_exists=True))


# -- finite structures and enumeration ---------------------------------------


class FiniteStructure:
    """Carriers and operation tables for brute-force sequent checking.

    A sort with torsion moduli (t1, ..., tk) has as carrier the coordinate
    tuples in lexicographic order, `itertools.product(range(t1), ...,
    range(tk))`, so the position of an element is its mixed-radix number,
    first coordinate leading.  The evaluator works on positions:
    `index[sort]` maps an element to its position, `negation[sort][i]` is
    the position of minus element i, and `sum_table(sort)[i][j]` the
    position of the sum of elements i and j.  Both are composed factor by
    factor from the tables of (a - b) % t and (a + b) % t, with no tuple
    built.  A sum table has len(carrier)**2 entries, as many as the
    assignments of a two-variable sequent over the sort, so it is built
    only when first asked for (the evaluator asks when it compiles an
    `Add` on the sort) and then kept in `sums`.

    `tables` maps each function symbol's source elements to target
    elements.  It is not indexed here: the evaluator reads it at each call,
    so edits made after export are seen.

    Negations and sum tables stay lists of positions, whatever the size of
    the carrier.  On a sort of at most `BYTE_CARRIER` (256) elements the
    evaluator makes `bytes` rows from them in each call and keeps none.
    """

    def __init__(self):
        self.moduli: Dict[str, tuple] = {}
        self.carriers: Dict[str, list] = {}
        self.func_sorts: Dict[str, Tuple[str, str]] = {}
        self.tables: Dict[str, dict] = {}
        self.index: Dict[str, dict] = {}
        self.negation: Dict[str, list] = {}
        self.sums: Dict[str, list] = {}

    def add_sort(self, name: str, moduli: tuple):
        size = prod(moduli)
        if size > sys.maxsize:
            raise ValueError(f"sort {name} has {size} elements, too many "
                             f"to enumerate")
        self.moduli[name] = moduli
        carrier = self.carriers[name] = list(product(*map(range, moduli)))
        self.index[name] = {e: i for i, e in enumerate(carrier)}
        negation = [0]
        for t in moduli:
            negation = [x * t + -a % t for x in negation for a in range(t)]
        self.negation[name] = negation

    def sum_table(self, name: str) -> list:
        table = self.sums.get(name)
        if table is None:
            table = [[0]]
            for t in self.moduli[name]:
                add = [[*range(a, t), *range(a)] for a in range(t)]  # (a + b) % t
                table = [[x * t + c for x in row for c in add[a]]
                         for row in table for a in range(t)]
            self.sums[name] = table
        return table

    def add_function(self, name: str, source: str, target: str, table: dict):
        self.func_sorts[name] = (source, target)
        self.tables[name] = table


def symbol_hom(model, info: FuncInfo) -> GroupHom:
    """The map of the model that a signature symbol names."""
    if info.kind == "edge":
        return model.induced(info.ref, info.degree)
    if info.kind == "connecting":
        return model.connecting(info.ref, info.degree)
    return model.mv_connecting(info.ref, info.degree)


def export_finite_structure(model, sig: Signature) -> FiniteStructure:
    """Tabulate every sort and symbol of the signature over the model.

    Only the groups of the signature's sorts are presented and only the
    maps of its symbols are built, so a caller that checks a few sequents
    passes `sig.read_by(sequents)`.  Each carrier is in `FiniteStructure`
    order, coordinates on the invariant factors of the group's
    `CanonicalForm`, and each carrier and table depends only on its own
    group and map, not on what else the signature holds.  A symbol's table
    is a homomorphism, so only the unit generators of its source are
    mapped through the model (lift, apply, coords); every other image is
    the sum of their multiples, built in carrier order modulo the target
    torsion.  Needs finite carriers: every sort of the signature must have
    a finite group, as at Z/m coefficients; raises ValueError naming the
    first sort whose carrier is infinite.
    """
    st = FiniteStructure()
    forms: Dict[str, CanonicalForm] = {}
    canon = {}  # one form per group; groups are equal by value
    for name, (key, n) in sorted(sig.sorts.items()):
        group = model.group(key, n)
        cf = canon[group] = canon.get(group) or CanonicalForm(group)
        if cf.free_rank:
            raise ValueError(
                f"sort {name} has an infinite carrier; "
                "enumerate with finite coefficients")
        forms[name] = cf
        st.add_sort(name, cf.torsion)
    for fname, info in sorted(sig.funcs.items()):
        matrix = symbol_hom(model, info).matrix
        src_cf, tgt_cf = forms[info.source], forms[info.target]
        units = [[int(i == k) for i in range(len(src_cf.torsion))]
                 for k in range(len(src_cf.torsion))]
        images = [tgt_cf.coords(matrix.apply(src_cf.lift(u))) for u in units]
        columns = []    # image coordinate j of each source element
        for j, m in enumerate(tgt_cf.torsion):
            column = [0]
            for g, t in zip(images, src_cf.torsion):
                column = [(x + a * g[j]) % m for x in column for a in range(t)]
            columns.append(column)
        values = zip(*columns) if columns else repeat(())
        st.add_function(fname, info.source, info.target,
                        dict(zip(st.carriers[info.source], values)))
    return st


class EvalResult(Record):
    __slots__ = ("valid", "counterexample")

    def __init__(self, valid: bool, counterexample: Optional[dict] = None):
        self.valid = valid
        self.counterexample = counterexample

    def __bool__(self):
        return self.valid


# A sort of at most this many elements keeps its vectors as bytes: each
# position fits in a byte, and a 256-byte table maps them all.
BYTE_CARRIER = 256


def _images(st: FiniteStructure, func: str) -> list:
    """The target position of the image of each source position of a
    symbol, read from `st.tables` now."""
    src, tgt = st.func_sorts[func]
    table, index = st.tables[func], st.index[tgt]
    return [index[table[e]] for e in st.carriers[src]]


def _vector_type(size: int) -> type:
    """The type of the vectors of a sort of `size` elements."""
    return bytes if size <= BYTE_CARRIER else list


def _pad(row) -> bytes:
    """A row of positions below 256 as a `bytes.translate` table."""
    return bytes(row).ljust(256)


def _getter(row) -> Callable:
    """r -> (r[row[0]], r[row[1]], ...), a tuple also for a row of one."""
    get = itemgetter(*row)
    return get if len(row) > 1 else lambda r: (get(r),)


def _value_index(row, bits) -> dict:
    """{value: the truth vector of the positions where row holds it}.
    A value held once maps to the shared bits[i] (position i alone), so
    indexing every row of a sum table adds dict slots but no ints."""
    index = dict(zip(row, bits))
    if len(index) < len(row):   # a value repeats: join its positions
        index = {}
        for v, bit in zip(row, bits):
            index[v] = index.get(v, 0) | bit
    return index


class _Compiler:
    """Turns terms and formulas into closures over a list of slot values.

    A slot holds a carrier position.  Context variables take slots 0..k-1
    in context order; each existential takes a fresh slot after those.
    The axis is the last context slot that either formula mentions (None
    if neither mentions one).  A node that mentions the axis compiles to a
    vector closure, which returns a list with the node's value at each
    position of the axis carrier; so the formulas at the last depth are
    evaluated once per binding of the slots above the axis, over all its
    positions.  Every other node compiles to a scalar closure, evaluated
    once per binding of its own variables.  `term` returns (closure,
    sort, is_vector) and `formula` returns (closure, is_vector).

    A vector of a sort with at most `BYTE_CARRIER` (256) elements is
    `bytes`, else a list.  On bytes, a symbol or negation applied to a
    vector, and a scalar plus a vector, map the vector through a table
    with `bytes.translate`: the symbol's images, the negation, or the
    scalar's row of the sum table, padded to 256 bytes.  The byte rows
    and pads are made in the call from the structure's lists.  A vector
    plus a vector maps the sum table over both, and so do symbols between
    a byte sort and a list sort.

    A row closure is a vector closure known to return row sel(env) of a
    fixed table (`rows` maps it to (table, sel), with the table's rows as
    the structure holds them, not yet vectors): the axis, its image under
    a symbol or negation, and a scalar plus the axis.  A row equated with
    a scalar is looked up in an index of the row's values, and on a list
    sort a scalar plus a row composes the row with a row of the sum table
    by an `itemgetter`.  Each row's vector, pad, index and getter is built
    once, when first needed, inside the closures, so nothing outlives the
    call.

    A vector formula closure returns a truth vector, an int with one byte
    per axis position: 1 where the formula holds, 0 where it fails.  It
    takes (env, settled), where settled marks the positions whose value
    no longer matters, and may be true there whatever the formula says.
    An `Exists` starts from settled and stops once every position is
    settled or has a witness, and its body is told which positions have
    one.  So, as on the scalar path, witnesses are searched for only
    where the antecedent holds.
    """

    def __init__(self, st: FiniteStructure, nslots: int, axis: Optional[int],
                 size: int):
        self.st = st
        self.nslots = nslots
        self.axis = axis
        self.rows: Dict[Callable, tuple] = {}
        self.made: Dict[int, list] = {}
        self.axis_var = self._row([range(size)], _vector_type(size))
        self.bits = [1 << (i << 3) for i in range(size)]
        self.every = int.from_bytes(b"\1" * size, "little")

    def _vector(self, sort: str) -> type:
        return _vector_type(len(self.st.carriers[sort]))

    def _row(self, table, vector: type, sel=lambda env: 0) -> Callable:
        """The row closure env -> vector(table[sel(env)]).  A lone row is
        made now; the closures of a longer table share the rows they make,
        each made when first asked for."""
        if len(table) == 1:
            made_0 = vector(table[0])
            row = lambda env: made_0
        else:
            made = self.made.setdefault(id(table), [None] * len(table))

            def row(env):
                k = sel(env)
                made_k = made[k]
                if made_k is None:
                    made_k = made[k] = vector(table[k])
                return made_k
        self.rows[row] = table, sel
        return row

    def _mapped(self, table, a, source: str, target: str) -> Callable:
        """The vector closure of table[arg], given that of arg, a vector of
        the source sort; table holds positions of the target sort."""
        vector = self._vector(target)
        if a is self.axis_var:
            return self._row([table], vector)
        if vector is bytes and self._vector(source) is bytes:
            pad = _pad(table)
            return lambda env: a(env).translate(pad)
        return lambda env: vector(map(table.__getitem__, a(env)))

    def term(self, term, slots) -> Tuple[Callable, str, bool]:
        st = self.st
        if isinstance(term, Var):
            slot, sort = slots[term.name]
            if slot == self.axis:
                return self.axis_var, sort, True
            return itemgetter(slot), sort, False
        if isinstance(term, Zero):
            zero = st.index[term.sort][(0,) * len(st.moduli[term.sort])]
            return (lambda env: zero), term.sort, False
        if isinstance(term, Add):
            a, sort, av = self.term(term.left, slots)
            b, _, bv = self.term(term.right, slots)
            sums = st.sum_table(sort)
            if not (av or bv):
                return (lambda env: sums[a(env)][b(env)]), sort, False
            if not bv or a is self.axis_var:
                # the table is symmetric (coordinatewise addition), so the
                # operands may swap: b is a vector, the axis if either is
                a, av, b = b, bv, a
            vector = self._vector(sort)
            if b is self.axis_var:
                if av:      # sums[a[i]][i] = sums[i][a[i]]
                    add = lambda env: vector(map(list.__getitem__, sums, a(env)))
                else:
                    add = self._row(sums, vector, a)
            elif av:
                add = lambda env: vector(map(list.__getitem__,
                                             map(sums.__getitem__, a(env)), b(env)))
            elif vector is bytes:   # sums[a][b[i]] at each position i
                pads = [None] * len(sums)

                def add(env):
                    k = a(env)
                    pad = pads[k]
                    if pad is None:
                        pad = pads[k] = _pad(sums[k])
                    return b(env).translate(pad)
            elif b in self.rows:    # sums[a][table[k][i]] at each position i
                table, sel = self.rows[b]
                getters = [None] * len(table)

                def add(env):
                    k = sel(env)
                    get = getters[k]
                    if get is None:
                        get = getters[k] = _getter(table[k])
                    return list(get(sums[a(env)]))
            else:
                add = lambda env: list(map(sums[a(env)].__getitem__, b(env)))
            return add, sort, True
        if isinstance(term, Neg):
            a, sort, av = self.term(term.arg, slots)
            negation = st.negation[sort]
            if av:
                return self._mapped(negation, a, sort, sort), sort, True
            return (lambda env: negation[a(env)]), sort, False
        if isinstance(term, App):
            a, _, av = self.term(term.arg, slots)
            src, tgt = st.func_sorts[term.func]
            images = _images(st, term.func)     # so edits after export are seen
            if av:
                return self._mapped(images, a, src, tgt), tgt, True
            return (lambda env: images[a(env)]), tgt, False
        raise TypeError(f"not a term: {term!r}")

    def formula(self, formula, slots) -> Tuple[Callable, bool]:
        if isinstance(formula, Top):
            return (lambda env: True), False
        every = self.every
        if isinstance(formula, Eq):
            a, _, av = self.term(formula.left, slots)
            b, _, bv = self.term(formula.right, slots)
            if not (av or bv):
                return (lambda env: a(env) == b(env)), False
            if av and bv:
                def eq_each(env, settled):
                    x, y = a(env), b(env)
                    if x == y:
                        return every
                    return int.from_bytes(bytes(map(eq, x, y)), "little")
                return eq_each, True
            scalar, vector = (b, a) if av else (a, b)
            if vector in self.rows:
                table, sel = self.rows[vector]
                indexes, bits = [None] * len(table), self.bits

                def eq_row(env, settled):
                    k = sel(env)
                    index = indexes[k]
                    if index is None:
                        index = indexes[k] = _value_index(table[k], bits)
                    return index.get(scalar(env), 0)
                return eq_row, True
            return (lambda env, settled: int.from_bytes(
                bytes(map(scalar(env).__eq__, vector(env))), "little")), True
        if isinstance(formula, And):
            a, av = self.formula(formula.left, slots)
            b, bv = self.formula(formula.right, slots)
            if not (av or bv):
                return (lambda env: a(env) and b(env)), False
            if av and bv:
                def both(env, settled):
                    x = a(env, settled)
                    return x and x & b(env, settled)
                return both, True
            scalar, vector = (b, a) if av else (a, b)
            return (lambda env, settled: vector(env, settled) if scalar(env)
                    else 0), True
        if isinstance(formula, Exists):
            slot = self.nslots
            self.nslots += 1
            body, bv = self.formula(formula.body,
                                    {**slots, formula.var: (slot, formula.sort)})
            positions = range(len(self.st.carriers[formula.sort]))
            if bv:
                def exists_each(env, settled):
                    hit = settled
                    for i in positions:
                        if hit == every:
                            break
                        env[slot] = i
                        hit |= body(env, hit)
                    return hit
                return exists_each, True

            def exists(env):
                for i in positions:
                    env[slot] = i
                    if body(env):
                        return True
                return False
            return exists, False
        raise TypeError(f"not a formula: {formula!r}")


def _depth(node, slots) -> int:
    """One more than the last context slot that node mentions, 0 if none."""
    if isinstance(node, Var):
        return slots[node.name][0] + 1
    if isinstance(node, Exists):
        return _depth(node.body, {**slots, node.var: (-1, node.sort)})
    if isinstance(node, (Add, Eq, And)):
        return max(_depth(node.left, slots), _depth(node.right, slots))
    if isinstance(node, (Neg, App)):
        return _depth(node.arg, slots)
    return 0


def _level(slot, positions, ante, cons, inner) -> Callable:
    """env -> whether the assignments extending the bound slots hold a
    counterexample, leaving the first one in env.

    `ante` and `cons` are the formulas whose variables are all bound at
    this depth and are tested here (None if not); `inner` searches the
    next slot.
    """
    def search(env):
        if ante is not None and not ante(env):
            return False
        if cons is not None and cons(env):
            return False
        for i in positions:
            env[slot] = i
            if inner(env):
                return True
        return False
    return search


def _last_level(slot, ante, cons, vante, vcons, every) -> Callable:
    """The search of the axis slot.  Like `_level`, it first tests the
    scalar formulas `ante` and `cons` of its depth; `vante` and `vcons`
    are the vector closures of the formulas that mention the axis (one at
    least is not None), and the first counterexample is the first
    position where the antecedent holds and the consequent fails.  The
    consequent is told that the positions where the antecedent fails are
    settled; `every` is the truth vector of every position.
    """
    if vante is None:
        def failing(env):
            return every ^ vcons(env, 0)
    elif vcons is None:
        def failing(env):
            return vante(env, 0)
    else:
        def failing(env):
            v = vante(env, 0)
            return v and v & ~vcons(env, every ^ v)

    def search(env):
        if ante is not None and not ante(env):
            return False
        if cons is not None and cons(env):
            return False
        v = failing(env)
        if not v:
            return False
        env[slot] = (v & -v).bit_length() >> 3     # the lowest byte set
        return True
    return search


def eval_sequent(st: FiniteStructure, seq: Sequent) -> EvalResult:
    """Exhaustive check over every assignment of the context; on failure
    the first counterexample in carrier product order, as {variable:
    element} over every context variable.

    The sequent is compiled once per call into closures on carrier
    positions; function symbols are read from `st.tables` at each call.
    The context is searched as nested loops in its declared order down to
    the axis, the last context variable that either formula mentions.
    The formulas at that last depth are evaluated once per binding of the
    slots above the axis, over all the axis positions at once, as vectors
    of positions: `bytes` on a sort of at most `BYTE_CARRIER` (256)
    elements, mapped through tables by `bytes.translate`, and lists on a
    larger one (see `_Compiler`).  The byte rows are made in the call from
    the structure's lists and kept nowhere.  Each other
    formula is still evaluated once per binding of its own variables,
    at the depth of the last one it mentions.  A subtree is skipped where
    the antecedent is false or the consequent true; where the consequent
    is false, the search goes on to the first extension whose antecedent
    holds, and variables bound below both formulas take their carrier's
    first element.  So every assignment is accounted for.
    """
    if any(not st.carriers[s] for _, s in seq.context):
        return EvalResult(True)     # no assignment at all
    slots = {v: (i, s) for i, (v, s) in enumerate(seq.context)}
    ante_depth = _depth(seq.antecedent, slots)
    cons_depth = _depth(seq.consequent, slots)
    top = max(ante_depth, cons_depth)
    axis = top - 1 if top else None
    compiler = _Compiler(st, len(slots), axis,
                         len(st.carriers[seq.context[axis][1]]) if top else 0)
    ante, _ = compiler.formula(seq.antecedent, slots)
    cons, _ = compiler.formula(seq.consequent, slots)
    if top:
        search = _last_level(axis, ante if ante_depth == axis else None,
                             cons if cons_depth == axis else None,
                             ante if ante_depth == top else None,
                             cons if cons_depth == top else None, compiler.every)
        for d in range(axis - 1, -1, -1):
            search = _level(d, range(len(st.carriers[seq.context[d][1]])),
                            ante if ante_depth == d else None,
                            cons if cons_depth == d else None, search)
    else:
        def search(env):
            return ante(env) and not cons(env)
    env = [0] * compiler.nslots
    if not search(env):
        return EvalResult(True)
    return EvalResult(False, {v: st.carriers[s][env[i]]
                              for i, (v, s) in enumerate(seq.context)})


def eval_sequents(st: FiniteStructure, sequents) -> List[EvalResult]:
    """`[eval_sequent(st, s) for s in sequents]`, calling `eval_sequent`
    once per distinct shape and sharing its result.  A shape is the
    sequent with each sort replaced by a key for what `eval_sequent` reads
    of it: its moduli, which fix its carrier and index, its `negation`,
    and its sum table if built (else `sum_table` builds it from the
    moduli).  Each symbol is replaced by its end sorts' keys and its image
    positions, read from `st.tables` now.  So equal shapes read equal
    data: their `valid` is equal, and so are their counterexamples, as
    equal moduli give equal carriers.  Keys are read first, kept nowhere."""
    ids, results = {}, {}

    @cache
    def sort(s):
        sums = tuple(map(tuple, st.sums.get(s, ())))
        key = st.moduli[s], tuple(st.negation[s]), sums
        return ids.setdefault(key, len(ids))

    @cache
    def func(f):
        src, tgt = st.func_sorts[f]
        images = tuple(_images(st, f))
        return ids.setdefault((sort(src), sort(tgt), images), len(ids))

    shapes = [_shape(seq, sort, func) for seq in sequents]
    for shape, seq in zip(shapes, sequents):
        if shape not in results:
            results[shape] = eval_sequent(st, seq)
    return [results[shape] for shape in shapes]


# -- semantic validation (group arithmetic, no enumeration) ------------------


# the mismatch text of each chain-equation family
_MISMATCH = {
    "identity": "identity edge acts nontrivially",
    "composition": "composite disagrees with its factors",
    "naturality": "connecting square does not commute",
    "interval": "the two end maps differ",
    "mv_naturality": "square of connecting maps does not commute",
}

# (check, i) of each segment part, a check of the pair (m_i, m_{i+1})
_PART_CHECKS = {(family, part): (check, i)
                for family, pairs in _SEGMENT_PARTS.items()
                for i, pair in enumerate(pairs)
                for check, part in zip((composite_is_zero, kernel_in_image), pair)}


def _chain_hom(model, sig: Signature, term, sort: str) -> GroupHom:
    """The composite of the symbols a chain term applies, or the identity
    of the sort's group when it applies none."""
    homs = []
    while isinstance(term, App):
        homs.append(symbol_hom(model, sig.funcs[term.func]))
        term = term.arg
    if not homs:
        return GroupHom.identity(model.group(*sig.sorts[sort]))
    return reduce(GroupHom.__matmul__, homs)    # outermost symbol leftmost


def _matrix_hom(model, sig: Signature, matrix) -> GroupHom:
    """The map a matrix of signed symbols names: each row's entries side
    by side (`hom_concat`), its rows stacked (`hom_stack`); a lone entry
    or row is the map itself."""
    rows = []
    for row in matrix:
        homs = []
        for sign, f in row:
            hom = symbol_hom(model, sig.funcs[f])
            homs.append(hom if sign > 0 else
                        GroupHom(hom.source, hom.target, hom.matrix.scaled(-1)))
        rows.append(homs[0] if len(homs) == 1 else hom_concat(homs))
    return rows[0] if len(rows) == 1 else hom_stack(rows)


def _check_axiom(model, sig: Signature, axiom: AxiomInstance):
    family = axiom.tag[0]
    if family in ("group", "additivity"):
        return True, "holds by construction of the presented groups"
    if family in _MISMATCH:
        seq = axiom.sequent
        (_, sort), = seq.context
        lhs, rhs = (_chain_hom(model, sig, side, sort)
                    for side in (seq.consequent.left, seq.consequent.right))
        ok = lhs.equal_to(rhs)
        return ok, "" if ok else _MISMATCH[family]
    if family in _SEGMENT_PARTS:
        _, name, n, which = axiom.tag
        if (family, which) not in _PART_CHECKS:
            raise ValueError(f"unknown {family} part {which!r}")
        check, i = _PART_CHECKS[family, which]
        maps = _segment(model.diagram, family, name, n)
        w = check(_matrix_hom(model, sig, maps[i]),
                  _matrix_hom(model, sig, maps[i + 1]))
        return w is None, "" if w is None else f"witness {w}"
    raise ValueError(f"unknown axiom family {family!r}")


def validate_semantic(model, sig: Signature, axioms) -> list:
    """[(axiom, ok, detail)] via lattice arithmetic on the presented groups:
    a chain equation compares the composites of its two chains, and a
    segment part checks the pair of maps its segment's matrices name, each
    symbol of `sig` taken as its `symbol_hom`."""
    return [(axiom, *_check_axiom(model, sig, axiom)) for axiom in axioms]
