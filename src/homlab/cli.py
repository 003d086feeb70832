"""Command line front end: parse a workbench file, run its command, emit
one JSON report.

The report is canonical (sorted keys, no whitespace, no floats) so equal
inputs produce byte-identical output.  Timing goes to stderr.  Exit codes:
0 all checks passed, 1 a check failed, 2 the input could not be used.
"""

import argparse
import hashlib
import json
import re
import sys
import time

from .dsl import DslError, parse, resolve_zeros
from .endalg import (
    end_algebra,
    representation_from_model,
    verify_module_action,
)
from .fga import is_isomorphism
from .logic import (
    FLAVORS,
    eval_sequent,
    eval_sequents,
    export_finite_structure,
    generate_axioms,
    generate_signature,
    validate_semantic,
)
from .model import HomologyModel
from .niveau import (
    SpectralSequence,
    _invariants_json,
    cellular_complex,
    recover_homology,
    spectral_summary,
)
from .simp import EMPTY_NAME, Filtration

_WINDOW_RE = re.compile(r"(-?\d+)\.\.(-?\d+)")
_COEFF_RE = re.compile(r"Zmod(\d+)")


def _parse_coeff(text: str) -> int:
    if text == "Z":
        return 0
    m = _COEFF_RE.fullmatch(text)
    if m and int(m.group(1)) >= 2:
        return int(m.group(1))
    raise ValueError(
        f"bad coefficients {text!r}; use Z or Zmod<m> with m >= 2")


def _parse_window(text: str) -> tuple:
    m = _WINDOW_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"bad window {text!r}; use a..b")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValueError(f"empty window {text!r}")
    return lo, hi


def _parse_flavors(text: str) -> tuple:
    wanted = {s for s in text.split(",") if s}
    for s in wanted:
        if s not in FLAVORS:
            raise ValueError(
                f"unknown flavor {s!r}; choose from {', '.join(FLAVORS)}")
    if not wanted:
        raise ValueError("no flavors given")
    return tuple(f for f in FLAVORS if f in wanted)


def _build_diagram(ws):
    """The declared diagram, with every declared complex as an absolute
    node too."""
    d = ws.diagram
    for name in sorted(d.complexes.keys() - {EMPTY_NAME}):
        d.add_pair(name)
    return d.build()


def _filtration(ws, fname: str) -> Filtration:
    base_name, steps = ws.filtrations[fname]
    cx = ws.diagram.complexes
    if steps == "skeletal":
        return Filtration.skeletal(cx[base_name])
    return Filtration(cx[base_name], [cx[s] for s in steps])


# -- command handlers ----------------------------------------------------------


def _cmd_validate(ws, modulus, window, flavors):
    diagram = _build_diagram(ws)
    model = HomologyModel(diagram, modulus, window)
    sig = generate_signature(diagram, model.window)
    axioms = generate_axioms(sig, diagram, flavors)
    semantic = sorted(validate_semantic(model, sig, axioms), key=lambda r: r[0].name)
    enumerated = modulus and eval_sequents(
        export_finite_structure(model, sig), [r[0].sequent for r in semantic])
    results = []
    ok = True
    for i, (axiom, valid, detail) in enumerate(semantic):
        row = {"axiom": axiom.name, "valid": valid, "detail": detail}
        if modulus:
            row["enumerated"] = enumerated[i].valid
            row["agree"] = enumerated[i].valid == valid
            ok = ok and row["agree"]
        ok = ok and valid
        results.append(row)
    return model.window, results, ok


def _cmd_cellular(ws, fname, modulus):
    spec = SpectralSequence(_filtration(ws, fname), modulus)
    cell = cellular_complex(spec)
    degrees = range(spec.top + 1)
    base_table = [[n, _invariants_json(spec.base_homology(n)[0].iso_invariants())]
                  for n in degrees]
    comparison = None
    ok = cell.is_cellular()
    if ok:
        comparison = []
        for n in degrees:
            iso = is_isomorphism(recover_homology(spec, cell, n))
            comparison.append([n, iso])
            ok = ok and iso
    results = [{
        "cellular": cell.is_cellular(),
        "offenders": [list(c) for c in cell.offenders],
        "cellular_homology": [[n, _invariants_json(inv)] for n, inv in
                              cell.homology_table()],
        "homology": base_table,
        "comparison_iso": comparison,
    }]
    return results, ok


def _cmd_spectral(ws, fname, modulus):
    summary = spectral_summary(SpectralSequence(_filtration(ws, fname),
                                                modulus))
    return [summary], bool(summary["converges"])


def _cmd_sequent(ws, modulus, window):
    diagram = _build_diagram(ws)
    model = HomologyModel(diagram, modulus, window)
    sig = generate_signature(diagram, model.window)
    structure = export_finite_structure(
        model, sig.read_by(ws.sequents.values()))
    results = []
    ok = True
    for name in sorted(ws.sequents):
        try:
            seq = resolve_zeros(ws.sequents[name], sig)
        except ValueError as exc:
            raise ValueError(f"sequent {name!r}: {exc}") from exc
        outcome = eval_sequent(structure, seq)
        row = {"sequent": name, "valid": outcome.valid, "counterexample": None}
        if not outcome.valid:
            row["counterexample"] = [
                {"var": var, "sort": sort,
                 "value": list(outcome.counterexample[var])}
                for var, sort in seq.context if var in outcome.counterexample]
            ok = False
        results.append(row)
    return model.window, results, ok


def _cmd_end_algebra(ws, modulus, window):
    diagram = _build_diagram(ws)
    model = HomologyModel(diagram, modulus, window)
    rep, _sig = representation_from_model(model)
    alg = end_algebra(rep)
    action = verify_module_action(rep, alg)
    data = alg.as_json_dict()
    data["action_ok"] = action.ok
    data["issues"] = list(action.issues)
    return model.window, [data], action.ok


# -- report plumbing -----------------------------------------------------------


def emit_report(report: dict, out_path=None) -> None:
    payload = json.dumps(report, sort_keys=True,
                         separators=(",", ":")) + "\n"
    if out_path is None:
        sys.stdout.write(payload)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="homlab",
        description="run the command of a workbench file and print a "
                    "canonical JSON report")
    ap.add_argument("file", help="workbench description file")
    ap.add_argument("--coeff", default="Z", metavar="Z|Zmod<m>",
                    help="coefficients (default Z)")
    ap.add_argument("--window", metavar="a..b",
                    help="degree window (default 0..max dimension)")
    ap.add_argument("--flavor", default="core", metavar="LIST",
                    help="comma separated axiom flavors "
                         "(core, homotopy, cd)")
    ap.add_argument("--out", metavar="PATH",
                    help="write the report here instead of stdout")
    ap.add_argument("--seed", type=int, default=0,
                    help="echoed into the report")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.perf_counter()

    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        modulus = _parse_coeff(args.coeff)
        window = _parse_window(args.window) if args.window else None
        flavors = _parse_flavors(args.flavor)
        ws = parse(text)
        command = ws.command
        if command[0] == "validate":
            window, results, ok = _cmd_validate(ws, modulus, window, flavors)
        elif command[0] == "cellular":
            results, ok = _cmd_cellular(ws, command[1], modulus)
        elif command[0] == "spectral":
            results, ok = _cmd_spectral(ws, command[1], modulus)
        elif command[0] == "sequent":
            window, results, ok = _cmd_sequent(ws, modulus, window)
        else:
            window, results, ok = _cmd_end_algebra(ws, modulus, window)
    except (DslError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {
        "command": " ".join(command),
        "coefficients": "Z" if modulus == 0 else f"Z/{modulus}",
        "window": list(window) if window is not None else None,
        "flavors": list(flavors),
        "seed": args.seed,
        "input_digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "ok": ok,
        "results": results,
    }
    try:
        emit_report(report, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
