"""Outside-in tracer for homlab.

Wraps public functions and methods of the package's modules from the
outside, without touching the package's source.  Each wrapped call is a
span; a layer's self time is the time its spans cover minus the time
covered by wrapped calls they make.  Functions that other modules import
by name (`from .fga import kernel`) are rebound in every module that
holds them, so no alias keeps calling the unwrapped original.

Count metrics are computed from each call's arguments and result, after
the call returns; the time spent computing them is charged to no layer.
"""

import functools
import importlib
import sys
import time

# (layer, module, attribute).  The layer is named after the module that
# defines the symbol; a dotted attribute is a method of a class.
HOOKS = (
    ("fga.smith", "homlab.fga", "smith"),
    ("fga.hnf", "homlab.fga", "hnf_rows"),
    ("fga.kernel", "homlab.fga", "kernel"),
    ("fga.preimage", "homlab.fga", "preimage_lattice"),
    ("fga.subquotient", "homlab.fga", "present_subquotient"),
    ("fga.solve", "homlab.fga", "LinearSolver.solve"),
    ("fga.solve", "homlab.fga", "solve"),
    ("fga.matmul", "homlab.fga", "IntMatrix.__matmul__"),
    ("fga.apply", "homlab.fga", "IntMatrix.apply"),
    ("simp.build", "homlab.simp", "DiagramBuilder.build"),
    ("simp.build", "homlab.simp", "Filtration.skeletal"),
    ("model.build", "homlab.model", "HomologyModel.__init__"),
    ("model.induced", "homlab.model", "HomologyModel.induced"),
    ("model.connecting", "homlab.model", "HomologyModel.connecting"),
    ("model.connecting", "homlab.model", "HomologyModel.mv_connecting"),
    ("complexes.homology", "homlab.complexes", "ChainComplex.homology"),
    ("complexes.homology", "homlab.complexes",
     "ChainComplex.homology_with_reps"),
    ("logic.generate", "homlab.logic", "generate_signature"),
    ("logic.generate", "homlab.logic", "generate_axioms"),
    ("logic.semantic", "homlab.logic", "validate_semantic"),
    ("logic.export", "homlab.logic", "export_finite_structure"),
    ("logic.enum", "homlab.logic", "eval_sequent"),
    ("niveau.pages", "homlab.niveau", "SpectralSequence.__init__"),
    ("niveau.cellular", "homlab.niveau", "cellular_complex"),
    ("niveau.recover", "homlab.niveau", "recover_homology"),
    ("niveau.summary", "homlab.niveau", "spectral_summary"),
    ("endalg.rep", "homlab.endalg", "representation_from_model"),
    ("endalg.end", "homlab.endalg", "end_algebra"),
    ("endalg.action", "homlab.endalg", "verify_module_action"),
    ("dsl.parse", "homlab.dsl", "parse"),
    ("dsl.parse", "homlab.dsl", "resolve_zeros"),
    ("cli.self", "homlab.cli", "main"),
)

# Aliases that must end up wrapped: names other modules import from the
# module that defines them.
REQUIRED_ALIASES = (
    ("homlab.model", "preimage_lattice"),
    ("homlab.model", "present_subquotient"),
    ("homlab.niveau", "preimage_lattice"),
    ("homlab.niveau", "present_subquotient"),
    ("homlab.complexes", "kernel"),
    ("homlab.endalg", "kernel"),
    ("homlab.endalg", "present_subquotient"),
    ("homlab.cli", "eval_sequent"),
    ("homlab.cli", "export_finite_structure"),
    ("homlab.cli", "generate_axioms"),
    ("homlab.cli", "generate_signature"),
    ("homlab.cli", "validate_semantic"),
    ("homlab.cli", "cellular_complex"),
    ("homlab.cli", "recover_homology"),
    ("homlab.cli", "spectral_summary"),
    ("homlab.cli", "end_algebra"),
    ("homlab.cli", "representation_from_model"),
    ("homlab.cli", "verify_module_action"),
    ("homlab.cli", "parse"),
    ("homlab.cli", "resolve_zeros"),
    ("homlab.endalg", "generate_signature"),
)

def _max_bits(matrices) -> int:
    top = 0
    for m in matrices:
        for row in m.data:
            for x in row:
                b = x.bit_length()
                if b > top:
                    top = b
    return top


class Tracer:
    """Context manager: wraps every hook on entry, restores on exit.

    `calls` counts calls per symbol ("module:attribute"), `layer_calls`
    and `layer_self_s` aggregate per layer, `counts` holds the raw sums
    behind the count metrics.
    """

    def __init__(self):
        self.calls = {}
        self.layer_calls = {}
        self.layer_self_s = {}
        self.counts = {"smith_entries": 0, "smith_max_bits": 0,
                       "matmul_zeros": 0, "matmul_entries": 0,
                       "enum_assignments": 0}
        self.rebound = set()        # (module, name) aliases now wrapped
        self._stack = []
        self._undo = []
        self._originals = set()     # ids of the wrapped originals
        self._counters = {
            "homlab.fga:smith": self._count_smith,
            "homlab.fga:IntMatrix.__matmul__": self._count_matmul,
            "homlab.logic:eval_sequent": self._count_enum,
        }

    # -- counters ------------------------------------------------------------

    def _count_smith(self, args, result):
        a = args[0]
        self.counts["smith_entries"] += a.rows * a.cols
        bits = _max_bits((result.U, result.D, result.V))
        if bits > self.counts["smith_max_bits"]:
            self.counts["smith_max_bits"] = bits

    def _count_matmul(self, args, result):
        left = args[0]
        self.counts["matmul_zeros"] += sum(row.count(0) for row in left.data)
        self.counts["matmul_entries"] += left.rows * left.cols

    def _count_enum(self, args, result):
        st, seq = args
        n = 1
        for _, sort in seq.context:
            n *= len(st.carriers[sort])
        self.counts["enum_assignments"] += n

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer, symbol, fn):
        stack = self._stack
        counter = self._counters.get(symbol)
        calls, layer_calls, layer_self = \
            self.calls, self.layer_calls, self.layer_self_s
        clock = time.perf_counter

        def close(frame, t0, t1, t2):
            dur = t1 - t0
            stack.pop()
            calls[symbol] += 1
            layer_calls[layer] += 1
            layer_self[layer] += dur - frame[0]
            if stack:
                # the caller's children cover the call and its counting
                stack[-1][0] += dur + (t2 - t1)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                close(frame, t0, t1, t1)
                raise
            t1 = clock()
            if counter is not None:
                counter(args, result)
            close(frame, t0, t1, clock())
            return result

        return wrapper

    def __enter__(self):
        modules = [importlib.import_module(m) for m in
                   sorted({m for _, m, _ in HOOKS})]
        for layer, modname, attr in HOOKS:
            symbol = f"{modname}:{attr}"
            self.calls[symbol] = 0
            self.layer_calls.setdefault(layer, 0)
            self.layer_self_s.setdefault(layer, 0.0)
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, symbol, raw.__func__))
                else:
                    new = self._wrap(layer, symbol, raw)
                self._originals.add(id(raw))
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(mod, attr)
            self._originals.add(id(orig))
            new = self._wrap(layer, symbol, orig)
            for m in modules + [sys.modules["homlab"]]:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, new)
                        self._undo.append((m, name, orig))
                        self.rebound.add((m.__name__, name))
        return self

    def __exit__(self, *exc):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()
        return False

    # -- checks and results --------------------------------------------------

    def unwrapped_aliases(self) -> list:
        """Names in any homlab module still bound to an unwrapped
        original, plus required aliases that were not rebound."""
        left = []
        for modname, mod in sorted(sys.modules.items()):
            if modname != "homlab" and not modname.startswith("homlab."):
                continue
            for name, value in vars(mod).items():
                if id(value) in self._originals:
                    left.append(f"{modname}.{name}")
        left += [f"{m}.{n}" for m, n in REQUIRED_ALIASES
                 if (m, n) not in self.rebound]
        return left

    def metrics(self) -> dict:
        out = {}
        for layer in self.layer_calls:
            out[f"{layer}.calls"] = self.layer_calls[layer]
            out[f"{layer}.s"] = self.layer_self_s[layer]
        c = self.counts
        out["fga.smith.entries"] = c["smith_entries"]
        out["fga.smith.max_bits"] = c["smith_max_bits"]
        out["fga.matmul.zero_share"] = (
            c["matmul_zeros"] / c["matmul_entries"]
            if c["matmul_entries"] else 0.0)
        out["logic.enum.assignments"] = c["enum_assignments"]
        return out
