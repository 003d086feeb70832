"""Pin the exit code and report sha256 of every CLI job at the default
seed into expected.json.

    python3 perfbench/pin.py

Run it from the root of a checkout after a change that is meant to alter
reports, and say in the change why the pinned reports moved.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import fixtures as fx  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    import homlab.cli
    import homlab.fga  # noqa: F401

    pinned = {}
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="pin-", dir=HERE / ".work") as tmp:
        for name in workloads.WORKLOADS:
            for job in workloads.build(name, fx.DEFAULT_SEED, Path(tmp),
                                       homlab):
                if not isinstance(job, workloads.CliJob):
                    continue
                _dt, rc, out = job.run(homlab)
                if json.loads(out).get("ok") is not True:
                    print(f"{job.name}: report says ok: false",
                          file=sys.stderr)
                    return 1
                pinned[job.name] = {
                    "exit": rc, "sha256": hashlib.sha256(out).hexdigest()}
                print(f"{job.name}: exit {rc}", file=sys.stderr)
    (HERE / "expected.json").write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
