"""Seeded inputs for the benchmark: complexes, workbench files and dense
integer matrices.

A complex is a vertex count plus maximal simplices over vertex indices.
`Labels` turns indices into the single-character labels the workbench
language wants.  The seed picks the label set, but always as an
order-preserving map from the sorted label alphabet, so every seed gives
different input text yet the same vertex order, hence the same boundary
matrices and the same work.  Reports carry no vertex labels, so a job's
report differs between seeds only in the echoed `seed` and `input_digest`.
"""

import itertools
import random
from dataclasses import dataclass

# every character a workbench vertex label may use, in sort order
ALPHABET = "".join(sorted(
    "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz"))

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Complex:
    nverts: int
    maximal: tuple          # tuples of vertex indices, each sorted


def boundary_simplex(n: int) -> Complex:
    """The boundary of the n-simplex, a triangulated (n-1)-sphere."""
    verts = range(n + 1)
    return Complex(n + 1, tuple(itertools.combinations(verts, n)))


def rp2() -> Complex:
    """The 6-vertex real projective plane: H1 = Z/2, H2 = 0."""
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
            (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5)]
    return Complex(6, tuple(tuple(sorted(t)) for t in tris))


def torus_vertex(n: int, i: int, j: int) -> int:
    return (i % n) * n + (j % n)


def torus(n: int) -> Complex:
    """The n x n grid torus, two triangles per square (n >= 3)."""
    tris = []
    for i in range(n):
        for j in range(n):
            a = torus_vertex(n, i, j)
            b = torus_vertex(n, i + 1, j)
            c = torus_vertex(n, i + 1, j + 1)
            d = torus_vertex(n, i, j + 1)
            tris.append(tuple(sorted((a, b, c))))
            tris.append(tuple(sorted((a, d, c))))
    return Complex(n * n, tuple(tris))


def torus_circle(n: int) -> Complex:
    """The circle i = 0 inside the n x n torus."""
    edges = [tuple(sorted((torus_vertex(n, 0, j), torus_vertex(n, 0, j + 1))))
             for j in range(n)]
    return Complex(n * n, tuple(edges))


def cycle(n: int) -> Complex:
    return Complex(n, tuple(tuple(sorted((k, (k + 1) % n))) for k in range(n)))


class Labels:
    """Seeded order-preserving vertex labelling."""

    def __init__(self, nverts: int, seed: int):
        if nverts > len(ALPHABET):
            raise ValueError(f"{nverts} vertices exceed the label alphabet")
        self.chars = sorted(random.Random(seed).sample(ALPHABET, nverts))

    def complex(self, name: str, cx: Complex) -> str:
        simplices = ", ".join("".join(self.chars[v] for v in s)
                              for s in cx.maximal)
        return f"complex {name} = {{{simplices}}}"

    def vertex_map(self, name: str, image: dict) -> str:
        pairs = ", ".join(f"{self.chars[v]}:{self.chars[w]}"
                          for v, w in sorted(image.items()))
        return f"map {name} = {{{pairs}}}"


def _text(lines) -> str:
    return "\n".join(lines) + "\n"


def filtration_file(cx: Complex, command: str, seed: int) -> str:
    """`spectral F` or `cellular F` on the skeletal filtration of cx."""
    lab = Labels(cx.nverts, seed)
    return _text([lab.complex("X", cx),
                  "filtration F on X = skeletal",
                  f"{command} F"])


def torus_diagram_file(n: int, seed: int) -> str:
    """`validate` on the n x n torus T with the circle A and a point P:
    pairs, a triple, a cube, a prism and a shift-map edge."""
    lab = Labels(n * n, seed)
    idx = [(i, j) for i in range(n) for j in range(n)]
    shift = {torus_vertex(n, i, j): torus_vertex(n, i, j + 1) for i, j in idx}
    turn = {torus_vertex(n, i, j): torus_vertex(n, -i, -j) for i, j in idx}
    return _text([
        lab.complex("T", torus(n)),
        lab.complex("A", torus_circle(n)),
        lab.complex("P", Complex(n * n, ((0,),))),
        lab.vertex_map("s", shift),
        lab.vertex_map("r", turn),
        "pair T / A",
        "pair A / P",
        "edge e : T / A -> T / A by s",
        "edge f : T / P -> T / P by r",
        "triple t : T / A / P",
        "cube c : t -> t by r",
        "prism A / P",
        "validate",
    ])


# the 4-cycle a-b-c-d with A = {b, d}, P = {b}, U = a-b-c and V = c-d-a;
# `flip` swaps a and c and keeps A, P, U and V in place, `turn` rotates
# the cycle by one step
_CYCLE_U = Complex(4, ((0, 1), (1, 2)))
_CYCLE_V = Complex(4, ((2, 3), (0, 3)))
_CYCLE_A = Complex(4, ((1,), (3,)))
_CYCLE_P = Complex(4, ((1,),))
_FLIP = {0: 2, 1: 1, 2: 0, 3: 3}
_TURN = {0: 1, 1: 2, 2: 3, 3: 0}


def cycle_diagram_file(command: str, large: bool, seed: int,
                       sequents: tuple = ()) -> str:
    """The 4-cycle C with a pair, two edges and a triple; `large` adds a
    union square, a square map, a cube and a prism.  The prism is taken
    on A / P: on C / A, end-algebra takes 12 s instead of 1.5 s (2-core
    x86-64 VM, CPython 3.11)."""
    lab = Labels(4, seed)
    lines = [
        lab.complex("C", cycle(4)),
        lab.complex("A", _CYCLE_A),
        lab.complex("P", _CYCLE_P),
        lab.vertex_map("f", _FLIP),
        lab.vertex_map("g", _TURN),
        "pair C / A",
        "edge e : C / A -> C / A by f",
        "edge h : C -> C by g",
        "triple t : C / A / P",
    ]
    if large:
        lines += [
            lab.complex("U", _CYCLE_U),
            lab.complex("V", _CYCLE_V),
            "square q : U + V in C",
            "squaremap m : q -> q by f",
            "cube c : t -> t by f",
            "prism A / P",
        ]
    lines += [f"sequent {name} = {body}" for name, body in sequents]
    lines.append(command)
    return _text(lines)


# Sequents over the small 4-cycle diagram.  With Z/m coefficients the
# carriers of h0(C) and h1(C) have m elements and those of h0(A) and
# h1(C,A) have m^2, so at m = 7 one `sequent` job enumerates 1 061 585
# assignments; two sequents search for an `exists` witness on top.
CYCLE_SEQUENTS = (
    ("comm", "[x:h1(C,A), y:h1(C,A), z:h0(A), w:h1(C)] x = y |- y = x"),
    ("hom", "[x:h1(C), y:h1(C), u:h1(C,A), v:h0(A)] u = 0 |- "
            "h@1(x + y) = h@1(x) + h@1(y) & e@1(u) = u"),
    ("inverse", "[x:h1(C,A), y:h1(C,A), z:h0(A)] x + y = 0 |- y = -x"),
    ("orbit", "[x:h1(C), y:h1(C,A)] top |- exists w:h1(C). h@1(w) = x"),
    ("half", "[x:h0(A), y:h0(A)] top |- exists w:h0(A). w + y = x"),
)


def dense_matrix(n: int, rng: random.Random) -> list:
    """An n x n matrix with entries uniform in [-9, 9]."""
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
