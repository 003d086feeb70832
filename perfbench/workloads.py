"""The benchmark's workloads: job ladders, how a job runs, how its output
is checked.

A CLI job runs `homlab.cli.main(argv)` in-process on a generated
workbench file and captures the report from stdout.  A Smith job calls
`homlab.fga.smith` on a dense integer matrix.  Every job sits on a rung
of its workload's size ladder: "small", "mid" or "large".
"""

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field

import fixtures as fx

WORKLOADS = ("pages", "diagrams", "enumerate", "smith_dense")
RUNGS = ("small", "mid", "large")


@dataclass
class CliJob:
    name: str
    rung: str
    make_text: object           # seed -> workbench text
    flags: tuple = ()
    text: str = ""
    default_text: str = ""
    path: object = None
    argv: list = field(default_factory=list)

    def prepare(self, seed: int, workdir, homlab) -> None:
        self.text = self.make_text(seed)
        self.default_text = self.make_text(fx.DEFAULT_SEED)
        self.path = workdir / (self.name.replace("/", "_") + ".hwb")
        self.path.write_text(self.text, encoding="utf-8")
        self.argv = [str(self.path), *self.flags, "--seed", str(seed)]

    def run(self, homlab):
        """(seconds, exit code, report bytes)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            rc = homlab.cli.main(self.argv)
            dt = time.perf_counter() - t0
        return dt, rc, out.getvalue().encode("utf-8")


@dataclass
class SmithJob:
    name: str
    rung: str
    rows: list
    path: object = None
    matrix: object = None

    def prepare(self, seed: int, workdir, homlab) -> None:
        self.path = workdir / (self.name.replace("/", "_") + ".json")
        self.path.write_text(json.dumps(self.rows), encoding="utf-8")
        self.matrix = homlab.fga.IntMatrix(self.rows)

    def run(self, homlab):
        """(seconds, None, decomposition)."""
        t0 = time.perf_counter()
        dec = homlab.fga.smith(self.matrix)
        return time.perf_counter() - t0, None, dec


def _filtration(cx, command, coeff, rung, label):
    return CliJob(f"{command}/{label}/{coeff}", rung,
                  lambda s: fx.filtration_file(cx, command, s),
                  ("--coeff", coeff))


def pages_jobs():
    bd4, bd5 = fx.boundary_simplex(4), fx.boundary_simplex(5)
    rp2, t4 = fx.rp2(), fx.torus(4)
    return [
        _filtration(bd4, "spectral", "Z", "small", "bd4"),
        _filtration(rp2, "spectral", "Zmod2", "small", "rp2"),
        _filtration(rp2, "cellular", "Z", "small", "rp2"),
        _filtration(bd4, "cellular", "Zmod2", "small", "bd4"),
        _filtration(t4, "spectral", "Z", "large", "t4"),
        _filtration(bd5, "spectral", "Zmod2", "large", "bd5"),
        _filtration(bd5, "cellular", "Z", "large", "bd5"),
    ]


FLAVORS = ("--flavor", "core,homotopy,cd")


def diagrams_jobs():
    jobs = []
    for n, rung in ((3, "small"), (4, "mid"), (5, "large")):
        jobs.append(CliJob(f"validate/torus{n}/Z", rung,
                           lambda s, n=n: fx.torus_diagram_file(n, s),
                           FLAVORS))
    for large, rung in ((False, "small"), (True, "large")):
        label = "cycle_full" if large else "cycle"
        jobs.append(CliJob(
            f"end-algebra/{label}/Z", rung,
            lambda s, large=large: fx.cycle_diagram_file(
                "end-algebra", large, s)))
    return jobs


def enumerate_jobs():
    jobs = []
    for m, rung in ((2, "small"), (3, "small"), (5, "mid"), (7, "large")):
        coeff = ("--coeff", f"Zmod{m}")
        jobs.append(CliJob(
            f"validate/cycle/Zmod{m}", rung,
            lambda s: fx.cycle_diagram_file("validate", False, s),
            coeff + FLAVORS))
        jobs.append(CliJob(
            f"sequent/cycle/Zmod{m}", rung,
            lambda s: fx.cycle_diagram_file("sequent", False, s,
                                            fx.CYCLE_SEQUENTS),
            coeff))
    return jobs


# Dense Smith ladder: MATRICES_PER_SIZE matrices of each size, on a rung
# by size.  The matrices are a fixed set; the seed only orders them.
# Dense Smith time on random matrices is heavy tailed (at n = 28 the
# median of forty draws took 0.07 s and the slowest 17 s on a 2-core
# x86-64 VM with CPython 3.11), so seeded draws would let each run's
# inputs, not the program, decide the timings.  The set still reaches
# transform entries of more than 10^5 bits.
SMITH_SIZES = ((16, "small"), (18, "small"), (20, "small"), (22, "mid"),
               (24, "mid"), (26, "mid"), (28, "large"), (30, "large"))
MATRICES_PER_SIZE = 4


def smith_jobs():
    jobs = []
    for n, rung in SMITH_SIZES:
        for k in range(MATRICES_PER_SIZE):
            rows = fx.dense_matrix(n, random.Random(f"smith-{n}-{k}"))
            jobs.append(SmithJob(f"smith/n{n}/{k}", rung, rows))
    return jobs


BUILDERS = {
    "pages": pages_jobs,
    "diagrams": diagrams_jobs,
    "enumerate": enumerate_jobs,
    "smith_dense": smith_jobs,
}


# Runs per pass of each small-rung job.  Those jobs take milliseconds, so
# with one run each, timer and collector noise would decide `small_s`;
# repeated, the small rung adds up to a few tenths of a second per pass.
SMALL_REPEATS = {"pages": 1, "diagrams": 2, "enumerate": 5,
                 "smith_dense": 8}


def build(workload: str, seed: int, workdir, homlab):
    """The workload's jobs at this seed, in pass order, with their input
    files written to workdir."""
    jobs = BUILDERS[workload]()
    for job in jobs:
        job.prepare(seed, workdir, homlab)
    jobs = [job for job in jobs for _ in
            range(SMALL_REPEATS[workload] if job.rung == "small" else 1)]
    if workload == "smith_dense":
        random.Random(seed).shuffle(jobs)
    return jobs


# -- checks -----------------------------------------------------------------


def canonical(report: dict) -> bytes:
    """The CLI's own report encoding."""
    return (json.dumps(report, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def check_cli(job: CliJob, rc, out: bytes, expected: dict, seed: int):
    """None when the job's output is right, else the reason it is not.

    The report is compared with the one pinned at the default seed after
    putting back the two fields the seed changes: the echoed seed and the
    digest of the input text.
    """
    want = expected.get(job.name)
    if want is None:
        return "no pinned report"
    if rc != want["exit"]:
        return f"exit code {rc}, expected {want['exit']}"
    try:
        report = json.loads(out)
    except ValueError:
        return "report is not JSON"
    if report.get("ok") is not True:
        return "report says ok: false"
    if report.get("seed") != seed or report.get("input_digest") != \
            hashlib.sha256(job.text.encode("utf-8")).hexdigest():
        return "report does not echo its seed and input digest"
    if canonical(report) != out:
        return "report is not canonical JSON"
    report["seed"] = fx.DEFAULT_SEED
    report["input_digest"] = hashlib.sha256(
        job.default_text.encode("utf-8")).hexdigest()
    if hashlib.sha256(canonical(report)).hexdigest() != want["sha256"]:
        return "report digest differs from the pinned one"
    return None


# The contract check does its own products and determinants, so that it
# never trusts the homlab code it checks.
def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def _det(rows) -> int:
    """Determinant by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def check_smith(job: SmithJob, dec):
    """None when U A V = D, D is a non-negative divisor chain on the
    diagonal and det U = det V = +-1, else the reason it is not."""
    a = job.rows
    n = len(a)
    U, D, V = dec.U.data, dec.D.data, dec.V.data
    if len(U) != n or len(V) != n or len(D) != n:
        return "wrong shapes"
    diag = [D[i][i] for i in range(n)]
    if any(D[i][j] for i in range(n) for j in range(n) if i != j):
        return "D is not diagonal"
    if any(d < 0 for d in diag):
        return "negative diagonal entry"
    for i in range(n - 1):
        if (diag[i] == 0 and diag[i + 1] != 0) or \
                (diag[i] and diag[i + 1] % diag[i]):
            return "diagonal is not a divisor chain"
    if _matmul(_matmul(U, a), V) != [list(r) for r in D]:
        return "U A V differs from D"
    # With U A V = D exact, det U * det A * det V = prod(diag).  For a
    # nonsingular A, |det U * det V| = 1 follows from |prod(diag)| =
    # |det A|, with no determinant of the large transforms.
    det_a = _det(a)
    if det_a:
        prod_diag = 1
        for d in diag:
            prod_diag *= d
        if prod_diag != abs(det_a):
            return "det U * det V is not +-1"
    elif abs(_det(U)) != 1 or abs(_det(V)) != 1:
        return "U or V is not unimodular"
    return None
