"""Names that perfbench's tracer wraps or rebinds must stay where it looks
for them, so dropping or moving one fails here and not only in a traced
run; the checks a benchmark run makes hold on each CLI workload; and the
set-up it measures loads no module the package does not need."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


_TRACER = load_tracer()


@pytest.mark.parametrize("module, name", _TRACER.REQUIRED_ALIASES)
def test_required_alias_is_bound(module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name), f"{module} no longer imports {name}"
    obj = getattr(mod, name)
    defining = importlib.import_module(obj.__module__)
    assert defining.__name__ != module, f"{module}.{name} is not an alias"
    assert getattr(defining, name) is obj


@pytest.mark.parametrize("layer, module, attr", _TRACER.HOOKS)
def test_hook_resolves(layer, module, attr):
    """A hook names a module function, or a method defined in the class's
    own body (the tracer reads `cls.__dict__`, so an inherited method is
    not found)."""
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        assert isinstance(cls, type), f"{module} has no class {cls_name}"
        assert meth in cls.__dict__, \
            f"{module}.{cls_name} does not define {meth} itself"
    else:
        assert callable(getattr(mod, attr, None)), \
            f"{module} has no function {attr}"


@pytest.fixture(scope="module")
def bench_run():
    """perfbench/run.py as a module (it puts perfbench/ on sys.path to
    import its siblings), loaded without writing bytecode there."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.dont_write_bytecode = dont_write
    return run


@pytest.mark.parametrize("workload", ["pages", "diagrams", "enumerate"])
def test_benchmark_checks_hold(workload, bench_run, tmp_path):
    """What `run.py` does on a CLI workload, each distinct job once at the
    default seed: build the jobs, run the fresh-interpreter set-up probe,
    enter the tracer, check every report against `expected.json`, and
    find a call to every symbol the workload must reach.  Any of these
    raising or failing would make a benchmark run exit 1 or report
    `correct: false`."""
    run = bench_run
    import homlab.cli  # noqa: F401  (the jobs call homlab.cli.main)
    homlab = sys.modules["homlab"]
    seed = run.workloads.fx.DEFAULT_SEED
    jobs = list({job.name: job for job in
                 run.workloads.build(workload, seed, tmp_path, homlab)}
                .values())
    probe = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), str(run.SRC),
         *(str(job.path) for job in jobs)],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert probe.returncode == 0, probe.stderr
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    with run.tracer.Tracer() as tr:
        assert tr.unwrapped_aliases() == []
        for job in jobs:
            _, rc, out = job.run(homlab)
            assert run.workloads.check_cli(job, rc, out, expected, seed) \
                is None, job.name
    assert [symbol for symbol, where in run.EXPECTED_CALLS.items()
            if workload in where and tr.calls[symbol] == 0] == []


def test_start_up_loads_neither_dataclasses_nor_inspect(bench_run):
    """A fresh interpreter that imports homlab.cli and parses the
    `enumerate` workload's sequent file, as the set-up probe does, loads
    neither `dataclasses` nor `inspect`, which `dataclasses` imports: with
    bytecode writes off, the two and the modules they pull in cost every
    run several milliseconds."""
    fx = bench_run.workloads.fx
    text = fx.cycle_diagram_file("sequent", False, fx.DEFAULT_SEED,
                                 fx.CYCLE_SEQUENTS)
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import homlab.cli\n"
            "from homlab.dsl import parse\n"
            "parse(sys.stdin.read())\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    probe = subprocess.run(
        [sys.executable, "-S", "-c", code, str(bench_run.SRC)], input=text,
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "[]\n"
