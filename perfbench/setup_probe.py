"""Set-up as every user pays it: a fresh interpreter imports `homlab.cli`
and reads the workload's inputs.

    python3 perfbench/setup_probe.py SRC_DIR INPUT...

Workbench files (.hwb) are parsed; matrix files (.json) are loaded into
`IntMatrix`.  While it does so, a calibrate.Sampler samples the
machine's speed; the probe prints the kernel's times as JSON,
{"samples": [seconds, ...]}, for run.py to take them out of the set-up
time and to scale it.
"""

import json
import sys

import calibrate

PERIOD_S = 0.01         # set-up takes tenths of a second
MIN_SAMPLES = 10


def main(src: str, paths) -> None:
    sampler = calibrate.Sampler(PERIOD_S)
    with sampler:
        sys.path.insert(0, src)
        import homlab.cli  # noqa: F401  (the import is what is measured)
        from homlab.dsl import parse
        from homlab.fga import IntMatrix

        for path in paths:
            with open(path, encoding="utf-8") as fh:
                if path.endswith(".json"):
                    IntMatrix(json.load(fh))
                else:
                    parse(fh.read())
    while len(sampler.samples) < MIN_SAMPLES:  # a set-up too quick to sample
        sampler.sample()
    print(json.dumps({"samples": sampler.samples}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
