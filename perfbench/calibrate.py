"""Machine-speed calibration for the end-to-end timings.

On a shared host the speed of a core drifts with its neighbours' load:
on a 2-vCPU x86-64 VM (CPython 3.11) the same `pages` pass took from
4.5 s to 9.8 s within an hour, and a fixed loop changed speed by a
quarter from one second to the next.  Raw seconds from two runs minutes
apart then differ more than any regression worth catching.  So the
end-to-end timings are given in calibrated seconds: measured seconds
times NOMINAL_S over the mean time the calibration kernel took on the
same core at the same moments.  A calibrated second is a second on a
machine where `kernel()` takes NOMINAL_S.  The kernel is pure Python
that never calls homlab and is fixed with the benchmark, so a faster
homlab reads faster and a faster machine does not.

While a job runs, a `Sampler` runs the kernel from a SIGALRM handler
every PERIOD_S, between two bytecodes of the job, and keeps the time the
kernel took; that time is taken back out of the job's time.  run.py
keeps one sampler per rung of the size ladder, so each rung is scaled by
the samples taken during its own jobs.  Set-up runs in a child process,
which samples the same way while it imports and reports its samples (see
setup_probe.py).
"""

import gc
import itertools
import random
import signal
import time

NOMINAL_S = 0.00075     # kernel time that defines a calibrated second
PERIOD_S = 0.05         # one kernel run per 50 ms of job time, ~1 % extra

# A fixed 10x10 matrix with entries in [-9, 9]; its leading minors are
# nonzero, so the elimination below never divides by zero.
_RNG = random.Random(0)
_MATRIX = [[_RNG.randint(-9, 9) for _ in range(10)] for _ in range(10)]


# x + y == y + x over Z/11, as a nested-tuple formula.
_FORMULA = ("eq", ("add", ("var", "x"), ("var", "y")),
            ("add", ("var", "y"), ("var", "x")))


def _evaluate(node, env):
    op = node[0]
    if op == "var":
        return env[node[1]][0]
    if op == "add":
        return (_evaluate(node[1], env) + _evaluate(node[2], env)) % 11
    return _evaluate(node[1], env) == _evaluate(node[2], env)


def kernel() -> int:
    """About half a millisecond of the kinds of work the workloads do:
    small-int and growing-int arithmetic on lists of rows, tuples as
    dictionary keys, sorting, recursive evaluation of a formula over every
    assignment, and a plain integer loop."""
    m = [list(r) for r in _MATRIX]
    prev = 1
    for k in range(9):
        for i in range(k + 1, 10):
            for j in range(k + 1, 10):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    faces = {}
    for a in range(9):
        for b in range(a + 1, 9):
            faces[(a, b)] = [(a,), (b,)]
    top = sorted(faces, reverse=True)[0]
    holds = 0
    for values in itertools.product(range(11), repeat=2):
        env = {v: (e, "G") for v, e in zip(("x", "y"), values)}
        holds += _evaluate(_FORMULA, env)
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    return prev + acc + top[0] + holds


class Sampler:
    """Samples the kernel's speed while the code inside `with` runs.

    `samples` holds the kernel's times over every use of the sampler;
    `spent` is the kernel time inside the last `with` block.  The timer
    pauses between blocks, so blocks shorter than the period still get
    their share of samples.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples = []
        self.spent = 0.0
        self._left = period
        self._previous = None

    def sample(self) -> None:
        # With the collector off, a collection of the job's heap that the
        # kernel's allocations would set off is left to the job.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._left, self.period)
        return self

    def __exit__(self, *exc):
        left, _ = signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._left = left or self.period
        signal.signal(signal.SIGALRM, self._previous)
        return False


def factor(samples) -> float:
    """Calibrated seconds per measured second, from kernel times.  The
    mean, not the median: a slow spell slows the job too."""
    if not samples:
        raise RuntimeError("no calibration sample was taken")
    return NOMINAL_S * len(samples) / sum(samples)
