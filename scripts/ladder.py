"""Large-rung timings past the sizes perfbench runs.

    python3 scripts/ladder.py [RUNG ...]

Runs from the root of a checkout and imports the package from `src/`.
Times are raw seconds of one run; name rungs (for example `torus14/Z2`)
to run only those.  Each rung's digest is compared with the one recorded
in `scripts/ladder_digests.json`: a digest that moved, or a rung with
none recorded, is named on stderr and the script exits 1.  Times are
printed, not checked.

Spectral rungs build one complex, take its skeletal filtration, and time
`run_pages` and then `spectral_summary` on the result; pages are built
on first read, so `summary_s` holds the page work.  They are the
boundary of the 8-simplex and the 10 x 10 and 14 x 14 grid tori, each
over Z and Z/2; each line ends with the first 16 hex digits of the
sha256 of the summary as sorted JSON.

Enumeration rungs time `validate --flavor core,homotopy,cd` through
`homlab.cli.main`, whose cost is the brute-force sequent enumeration:
the 4-cycle diagram at Z/11 and Z/13 and the 3-edge circle at Z/97,
Z/193 and Z/389.
The sequent rung times `sequent` through `homlab.cli.main` on the same
4-cycle diagram at Z/11, with the five sequents of perfbench's
`enumerate` workload written into its text.
The end-algebra rungs time `end-algebra` through `homlab.cli.main` on
the 3 x 3 torus diagram at Z and Z/2, whose cost is one relative kernel
and the Smith forms of its presentation.  The cellular rungs time
`cellular F` through `homlab.cli.main` on the skeletal filtration of the
boundary of the 8-simplex at Z and Z/2: the first page, d^1, the total
complex and the comparison with the homology of the complex.  Each of
these lines ends with the first 16 hex digits of the sha256 of the
report.

Dense Smith rungs (`smith/dense28` to `smith/dense40`) time
`homlab.fga.smith` on one n x n matrix drawn row by row from
`random.Random(n)` with entries in [-9, 9], at n = 28, 30, 32, 34, 36
and 40, past the sizes perfbench's `smith_dense` reaches.  Each line
gives the largest bit length of an entry of U and V and the first 16
hex digits of the sha256 of the diagonal of D as JSON.

So two checkouts can be compared for identical results as well as for
time.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from homlab.cli import main as cli_main  # noqa: E402
from homlab.fga import IntMatrix, smith  # noqa: E402
from homlab.niveau import run_pages, spectral_summary  # noqa: E402
from homlab.simp import Filtration, SimplicialComplex  # noqa: E402


def boundary_simplex(n: int) -> list:
    return list(itertools.combinations(range(n + 1), n))


def torus(n: int) -> list:
    """The n x n grid torus, two triangles per square."""
    def v(i, j):
        return (i % n) * n + (j % n)
    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)
            tris += [tuple(sorted((a, b, c))), tuple(sorted((a, d, c)))]
    return tris


COMPLEXES = {
    "bd8": lambda: boundary_simplex(8),
    "torus10": lambda: torus(10),
    "torus14": lambda: torus(14),
}
MODULI = {"Z": 0, "Z2": 2}

VALIDATE_FLAGS = ["--flavor", "core,homotopy,cd"]

# the 4-cycle abcd with A = {b, d} and P = {b}; f swaps a and c, g turns
# the cycle by one step
CYCLE4_DIAGRAM = """complex C = {ab, bc, cd, ad}
complex A = {b, d}
complex P = {b}
map f = {a:c, b:b, c:a, d:d}
map g = {a:b, b:c, c:d, d:a}
pair C / A
edge e : C / A -> C / A by f
edge h : C -> C by g
triple t : C / A / P
"""
CYCLE4 = CYCLE4_DIAGRAM + "validate\n"
# five sequents over it; at Z/11 the carriers of h1(C,A) and h0(A) have
# 121 elements and those of h1(C) 11
CYCLE4_SEQUENTS = CYCLE4_DIAGRAM + """sequent comm = [x:h1(C,A), y:h1(C,A), z:h0(A), w:h1(C)] x = y |- y = x
sequent hom = [x:h1(C), y:h1(C), u:h1(C,A), v:h0(A)] u = 0 |- h@1(x + y) = h@1(x) + h@1(y) & e@1(u) = u
sequent inverse = [x:h1(C,A), y:h1(C,A), z:h0(A)] x + y = 0 |- y = -x
sequent orbit = [x:h1(C), y:h1(C,A)] top |- exists w:h1(C). h@1(w) = x
sequent half = [x:h0(A), y:h0(A)] top |- exists w:h0(A). w + y = x
sequent
"""
CIRCLE3 = """complex S = {ab, bc, ac}
pair S
validate
"""
# the 3 x 3 torus T (vertex i * 3 + j at (i, j)) with the circle A at
# i = 0 and the point P; s shifts j by one, r sends (i, j) to (-i, -j)
TORUS3 = """complex T = {034, 014, 145, 125, 235, 023, 367, 347, 478, 458, 568, 356, 016, 167, 127, 278, 028, 068}
complex A = {01, 12, 02}
complex P = {0}
map s = {0:1, 1:2, 2:0, 3:4, 4:5, 5:3, 6:7, 7:8, 8:6}
map r = {0:0, 1:2, 2:1, 3:6, 4:8, 5:7, 6:3, 7:5, 8:4}
pair T / A
pair A / P
edge e : T / A -> T / A by s
edge f : T / P -> T / P by r
triple t : T / A / P
cube c : t -> t by r
prism A / P
end-algebra
"""


def cellular_text(facets: list) -> str:
    """`cellular F` on the skeletal filtration of the complex with these
    facets, vertices named by their digits."""
    cells = ", ".join("".join(map(str, f)) for f in facets)
    return (f"complex X = {{{cells}}}\n"
            "filtration F on X = skeletal\n"
            "cellular F\n")


# rung name -> (text, extra CLI flags)
CLI_RUNGS = {
    "cycle4/Zmod11": (CYCLE4, ["--coeff", "Zmod11", *VALIDATE_FLAGS]),
    "cycle4/Zmod13": (CYCLE4, ["--coeff", "Zmod13", *VALIDATE_FLAGS]),
    "circle3/Zmod97": (CIRCLE3, ["--coeff", "Zmod97", *VALIDATE_FLAGS]),
    "circle3/Zmod193": (CIRCLE3, ["--coeff", "Zmod193", *VALIDATE_FLAGS]),
    "circle3/Zmod389": (CIRCLE3, ["--coeff", "Zmod389", *VALIDATE_FLAGS]),
    "sequent/cycle4/Zmod11": (CYCLE4_SEQUENTS, ["--coeff", "Zmod11"]),
    "end-algebra/torus3/Z": (TORUS3, []),
    "end-algebra/torus3/Z2": (TORUS3, ["--coeff", "Zmod2"]),
    "cellular/bd8/Z": (cellular_text(boundary_simplex(8)), []),
    "cellular/bd8/Z2": (cellular_text(boundary_simplex(8)),
                        ["--coeff", "Zmod2"]),
}

SMITH_SIZES = (28, 30, 32, 34, 36, 40)

DIGESTS = Path(__file__).resolve().parent / "ladder_digests.json"


def run_rung(name: str, modulus: int, facets: list) -> dict:
    nverts = 1 + max(v for f in facets for v in f)
    base = SimplicialComplex.from_maximal_simplices(
        facets, vertices=[str(i) for i in range(nverts)])
    filtration = Filtration.skeletal(base)
    t0 = time.perf_counter()
    spec = run_pages(filtration, modulus)
    t1 = time.perf_counter()
    summary = spectral_summary(spec)
    t2 = time.perf_counter()
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
    return {"rung": name, "simplices": len(base.simplices),
            "run_pages_s": round(t1 - t0, 3), "summary_s": round(t2 - t1, 3),
            "digest": digest.hexdigest()[:16]}


def run_cli(name: str, text: str, flags: list) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.hwb", Path(tmp) / "out.json"
        src.write_text(text)
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):   # the elapsed line
            rc = cli_main([str(src), "--out", str(out), *flags])
        t1 = time.perf_counter()
        digest = hashlib.sha256(out.read_bytes())
    return {"rung": name, "exit": rc, "cli_s": round(t1 - t0, 3),
            "digest": digest.hexdigest()[:16]}


def run_smith(name: str, n: int) -> dict:
    rng = random.Random(n)
    A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    t0 = time.perf_counter()
    dec = smith(A)
    t1 = time.perf_counter()
    bits = max(abs(e).bit_length()
               for M in (dec.U, dec.V) for row in M.data for e in row)
    digest = hashlib.sha256(json.dumps(list(dec.diagonal())).encode())
    return {"rung": name, "smith_s": round(t1 - t0, 3), "max_bits": bits,
            "digest": digest.hexdigest()[:16]}


def all_rungs() -> dict:
    """{rung name: a function that runs it and returns its line}."""
    rungs = {f"{c}/{m}": lambda c=c, m=m: run_rung(f"{c}/{m}", MODULI[m], COMPLEXES[c]())
             for c in COMPLEXES for m in MODULI}
    rungs.update({name: lambda name=name: run_cli(name, *CLI_RUNGS[name])
                  for name in CLI_RUNGS})
    rungs.update({f"smith/dense{n}": lambda n=n: run_smith(f"smith/dense{n}", n)
                  for n in SMITH_SIZES})
    return rungs


def main(argv: list) -> int:
    rungs = all_rungs()
    unknown = set(argv) - set(rungs)
    if unknown:
        print(f"unknown rungs: {sorted(unknown)}", file=sys.stderr)
        return 2
    recorded = json.loads(DIGESTS.read_text())
    moved = False
    for name, run in rungs.items():
        if argv and name not in argv:
            continue
        row = run()
        print(json.dumps(row), flush=True)
        if row["digest"] != recorded.get(name):
            print(f"digest moved: {name} {recorded.get(name)} -> "
                  f"{row['digest']}", file=sys.stderr)
            moved = True
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
