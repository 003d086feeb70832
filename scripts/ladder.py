"""Large-rung timings of the spectral sequence, past the sizes perfbench runs.

    python3 scripts/ladder.py [RUNG ...]

Runs from the root of a checkout and imports the package from `src/`.
Each rung builds one complex, takes its skeletal filtration, and times
`run_pages` and then `spectral_summary` on the result, in raw seconds of
one run.  Rungs are the boundary of the 8-simplex and the 10 x 10 and
14 x 14 grid tori, each over Z and Z/2; name rungs (for example
`torus14/Z2`) to run only those.  Each line ends with the first 16 hex
digits of the sha256 of the summary as sorted JSON, so two checkouts can
be compared for identical results as well as for time.
"""

import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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


def main(argv: list) -> int:
    rungs = [(f"{c}/{m}", c, m) for c in COMPLEXES for m in MODULI]
    unknown = set(argv) - {name for name, _, _ in rungs}
    if unknown:
        print(f"unknown rungs: {sorted(unknown)}", file=sys.stderr)
        return 2
    for name, c, m in rungs:
        if argv and name not in argv:
            continue
        print(json.dumps(run_rung(name, MODULI[m], COMPLEXES[c]())), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
