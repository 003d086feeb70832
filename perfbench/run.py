"""homlab benchmark: end-to-end and per-layer metrics on four workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
One process, one job at a time (a closed loop with one client).  Each
pass runs every job of the workload once and checks every output.

--trace 0 times passes with no tracing and prints the end-to-end
metrics: medians over passes of the pass time (`wall_s`) and of the
summed times of the jobs on the large and small rungs of the size ladder
(`large_s`, `small_s`), the median time for a fresh interpreter to
import homlab.cli and read the inputs (`setup_s`), and the process's peak
resident memory (`peak_rss_mb`).  The four timings are in calibrated
seconds, scaled by the speed of a fixed kernel sampled at the same
moments, so that the host's changing speed cancels (see calibrate.py);
the line before the result also gives the raw seconds.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics from the traced ones (see tracer.py), the tracing overhead and
the share of failed jobs.  It also checks that traced and untraced
passes give the same report bytes, that the count metrics repeat exactly
between traced passes, that every alias of a wrapped function was
rebound and that every wrapped function is called on its workload.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where `attempted` and `failed` count job runs.  The line before it
records the machine, the Python version and the run's details.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3          # untraced passes per run, at least
MIN_PAIRS = 2           # untraced + traced pass pairs per traced run
SETUP_REPEATS = 9
MAX_MEASURE_S = 120     # the run must end within 180 s, whatever --seconds

END_TO_END = (("wall_s", "s"), ("large_s", "s"), ("small_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))

PER_LAYER = tuple(
    [(f"fga.{k}.{m}", "count" if m == "calls" else "s")
     for k in ("smith", "hnf", "kernel", "preimage", "subquotient",
               "solve", "matmul", "apply") for m in ("calls", "s")]
    + [("fga.smith.entries", "count"), ("fga.smith.max_bits", "count"),
       ("fga.matmul.zero_share", "share"),
       ("simp.build.s", "s"),
       ("model.build.s", "s"), ("model.induced.calls", "count"),
       ("model.induced.s", "s"), ("model.connecting.s", "s"),
       ("complexes.homology.s", "s"),
       ("logic.generate.s", "s"), ("logic.semantic.s", "s"),
       ("logic.export.s", "s"), ("logic.enum.calls", "count"),
       ("logic.enum.s", "s"), ("logic.enum.assignments", "count"),
       ("niveau.pages.s", "s"), ("niveau.cellular.s", "s"),
       ("niveau.recover.s", "s"), ("niveau.summary.s", "s"),
       ("endalg.rep.s", "s"), ("endalg.end.s", "s"),
       ("endalg.action.s", "s"),
       ("dsl.parse.s", "s"), ("cli.self.s", "s"),
       ("trace.overhead_s", "s"), ("fail_share", "share")])

_CLI = ("pages", "diagrams", "enumerate")
_MODEL = ("diagrams", "enumerate")
# The workloads on which each wrapped symbol must record calls.  The
# module-level `solve` has no caller in the package; it is wrapped so that
# a future caller is counted.
EXPECTED_CALLS = {
    "homlab.fga:smith": _CLI + ("smith_dense",),
    "homlab.fga:hnf_rows": _CLI,
    "homlab.fga:kernel": _CLI,
    "homlab.fga:preimage_lattice": _CLI,
    "homlab.fga:present_subquotient": _CLI,
    "homlab.fga:LinearSolver.solve": _CLI,
    "homlab.fga:solve": (),
    "homlab.fga:IntMatrix.__matmul__": _CLI,
    "homlab.fga:IntMatrix.apply": _CLI,
    "homlab.simp:DiagramBuilder.build": _MODEL,
    "homlab.simp:Filtration.skeletal": ("pages",),
    "homlab.model:HomologyModel.__init__": _MODEL,
    "homlab.model:HomologyModel.induced": _MODEL,
    "homlab.model:HomologyModel.connecting": _MODEL,
    "homlab.model:HomologyModel.mv_connecting": ("diagrams",),
    "homlab.complexes:ChainComplex.homology": ("pages",),
    "homlab.complexes:ChainComplex.homology_with_reps": ("pages",),
    "homlab.logic:generate_signature": _MODEL,
    "homlab.logic:generate_axioms": _MODEL,
    "homlab.logic:validate_semantic": _MODEL,
    "homlab.logic:export_finite_structure": ("enumerate",),
    "homlab.logic:eval_sequent": ("enumerate",),
    "homlab.niveau:SpectralSequence.__init__": ("pages",),
    "homlab.niveau:cellular_complex": ("pages",),
    "homlab.niveau:recover_homology": ("pages",),
    "homlab.niveau:spectral_summary": ("pages",),
    "homlab.endalg:representation_from_model": ("diagrams",),
    "homlab.endalg:end_algebra": ("diagrams",),
    "homlab.endalg:verify_module_action": ("diagrams",),
    "homlab.dsl:parse": _CLI,
    "homlab.dsl:resolve_zeros": ("enumerate",),
    "homlab.cli:main": _CLI,
}


def _fingerprint(dec) -> str:
    """Digest of a Smith decomposition, without printing its integers."""
    h = hashlib.sha256()
    for m in (dec.U, dec.D, dec.V):
        h.update(f"{m.rows}x{m.cols};".encode())
        for row in m.data:
            for x in row:
                h.update(x.to_bytes(x.bit_length() // 8 + 1, "little",
                                    signed=True))
                h.update(b",")
    return h.hexdigest()


class Bench:
    """Runs passes over a workload's jobs and keeps the tallies."""

    def __init__(self, jobs, homlab, expected, seed):
        self.jobs = jobs
        self.homlab = homlab
        self.expected = expected
        self.seed = seed
        self.attempted = 0
        self.failures = []

    def run_pass(self, reference=None, samplers=None):
        """One pass: (times by rung plus "wall", outputs by job).

        With `reference` (outputs of another pass), each output must also
        equal the reference's.  With `samplers` (a calibrate.Sampler per
        rung), the rung's sampler runs during each of its jobs and its
        kernel time is left out of the job's.
        """
        sums = {"wall": 0.0, **dict.fromkeys(workloads.RUNGS, 0.0)}
        outputs = {}
        gc.collect()        # every pass starts from a collected heap
        for job in self.jobs:
            self.attempted += 1
            sampler = samplers[job.rung] if samplers else None
            try:
                with sampler or contextlib.nullcontext():
                    dt, rc, out = job.run(self.homlab)
            except Exception as exc:  # a crashing job is a failed job
                self.failures.append(f"{job.name}: {type(exc).__name__}: "
                                     f"{exc}")
                continue
            if isinstance(job, workloads.SmithJob):
                reason = workloads.check_smith(job, out)
                out = _fingerprint(out)
            else:
                reason = workloads.check_cli(job, rc, out, self.expected,
                                             self.seed)
            if reason is None and reference is not None \
                    and reference.get(job.name) != out:
                reason = "output differs between traced and untraced passes"
            if reason is not None:
                self.failures.append(f"{job.name}: {reason}")
            outputs[job.name] = out
            if sampler is not None:
                dt -= sampler.spent
            sums["wall"] += dt
            sums[job.rung] += dt
        return sums, outputs


def _loop(seconds, step, minimum):
    """Call step() until `minimum` calls are done and another would end
    past the deadline; stop anyway before passing MAX_MEASURE_S."""
    start = time.perf_counter()
    deadline = start + seconds
    count = 0
    while True:
        t0 = time.perf_counter()
        step()
        count += 1
        now = time.perf_counter()
        last = now - t0
        if count >= minimum and now + last > deadline:
            return
        if now + last > start + MAX_MEASURE_S:
            return


def measure_setup(jobs):
    """(seconds, calibration factors) of SETUP_REPEATS fresh-interpreter
    set-ups.  The seconds leave out the kernel time the probe spent
    sampling; the factor comes from those samples."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           *dict.fromkeys(str(job.path) for job in jobs)]
    times, factors = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples = json.loads(proc.stdout)["samples"]
        times.append(dt - sum(samples))
        factors.append(calibrate.factor(samples))
    return times, factors


def untraced_run(bench, seconds):
    """End-to-end timings in calibrated seconds (see calibrate.py): in
    each pass, the time of each rung is scaled by the kernel speed sampled
    during that rung's jobs."""
    raw, calibrated = [], []

    def one_pass():
        samplers = {rung: calibrate.Sampler() for rung in workloads.RUNGS}
        sums = bench.run_pass(samplers=samplers)[0]
        pooled = calibrate.factor([t for s in samplers.values()
                                   for t in s.samples])
        cal = {rung: sums[rung] * (calibrate.factor(s.samples) if s.samples
                                   else pooled)
               for rung, s in samplers.items()}
        cal["wall"] = sum(cal.values())
        raw.append(sums)
        calibrated.append(cal)

    _loop(seconds, one_pass, MIN_PASSES)
    metrics = {f"{key}_s": statistics.median(c[key] for c in calibrated)
               for key in ("wall", "large", "small")}
    detail = {"pass_wall_s": [p["wall"] for p in raw],
              "pass_calibrated_wall_s": [c["wall"] for c in calibrated]}
    return metrics, detail, []


def traced_run(bench, seconds, workload):
    plain, traced, problems = [], [], []

    def pair():
        sums, outputs = bench.run_pass()
        plain.append(sums["wall"])
        with tracer.Tracer() as tr:
            left = tr.unwrapped_aliases()
            if left:
                problems.append(f"aliases not wrapped: {left}")
            sums, _ = bench.run_pass(reference=outputs)
        traced.append((sums["wall"], tr))

    _loop(seconds, pair, MIN_PAIRS)

    first = traced[0][1]
    for _, tr in traced[1:]:
        if tr.calls != first.calls or tr.counts != first.counts:
            problems.append("call counts or count metrics differ between "
                            "two traced passes")
    for symbol, where in EXPECTED_CALLS.items():
        if workload in where and first.calls.get(symbol, 0) == 0:
            problems.append(f"{symbol} recorded no call on {workload}")
    layer = [tr.metrics() for _, tr in traced]
    metrics = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".s"):
            metrics[name] = statistics.median(m[name] for m in layer)
        elif name in layer[0]:
            metrics[name] = layer[0][name]
    metrics["trace.overhead_s"] = \
        statistics.median(w for w, _ in traced) - statistics.median(plain)
    metrics["fail_share"] = len(bench.failures) / bench.attempted
    detail = {"pairs": len(traced), "untraced_pass_wall_s": plain,
              "traced_pass_wall_s": [w for w, _ in traced],
              "calls": first.calls}
    return metrics, detail, problems


def environment() -> dict:
    return {"machine": platform.machine(), "system": platform.system(),
            "release": platform.release(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "homlab" / "cli.py").is_file():
        print(f"error: no homlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import homlab.cli
    import homlab.fga

    if Path(homlab.__file__).resolve().parent != SRC / "homlab":
        print(f"error: homlab imported from {homlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        jobs = workloads.build(args.workload, args.seed, workdir, homlab)
        expected = json.loads((HERE / "expected.json").read_text())
        bench = Bench(jobs, homlab, expected, args.seed)
        if args.trace:
            metrics, detail, problems = traced_run(bench, args.seconds,
                                                   args.workload)
            wanted = PER_LAYER
        else:
            setup, setup_factors = measure_setup(jobs)
            metrics, detail, problems = untraced_run(bench, args.seconds)
            detail.update(setup_samples_s=setup, setup_factors=setup_factors)
            metrics["setup_s"] = statistics.median(
                t * f for t, f in zip(setup, setup_factors))
            metrics["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in bench.failures[:20] + problems:
        print(f"FAIL {line}", file=sys.stderr)
    detail.update(workload=args.workload, seed=args.seed, jobs=len(jobs),
                  env=environment(),
                  failures=bench.failures[:20], problems=problems)
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not bench.failures and not problems,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
