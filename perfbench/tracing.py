"""Per-layer spans and counts for a traced run, taken from outside tauberlab.

`Tracer.install()` replaces the public entry points of the smoothing,
oscillatory, contour, suite and cli modules (and the module-level kernels
other modules call directly) by timing wrappers. A function imported into
another module is replaced there too, since the caller looks the name up in
its own module. A name that a later version of the program no longer has is
skipped and listed under `missing`; its metrics then read 0.

Spans nest per thread. A layer's self time is its spans' time minus the
time of the spans they contain; `cli.self_s` is the command's wall time not
covered by any other span on any thread, which leaves the pool, formatting
and file writes.
"""

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, layer); "Class.method" patches the class attribute
_TARGETS = (
    ("tauberlab.smoothing", "SmoothedGrowth.derivative", "smoothing"),
    ("tauberlab.smoothing", "SmoothedGrowth.kernel_complex", "smoothing"),
    ("tauberlab.oscillatory", "_phase_roots", "oscillatory"),
    ("tauberlab.oscillatory", "eval_T_scaled", "oscillatory"),
    ("tauberlab.oscillatory", "eval_tau", "oscillatory"),
    ("tauberlab.oscillatory", "_TauTable.__init__", "oscillatory"),
    ("tauberlab.oscillatory", "direct_F", "oscillatory"),
    ("tauberlab.contour", "contour_F", "contour"),
    ("tauberlab.contour", "cauchy_circle", "contour"),
    ("tauberlab.suite", "run_suite", "suite"),
    ("tauberlab.suite", "omega_pm_witnesses", "suite"),
    ("tauberlab.suite", "tau_witnesses", "suite"),
    ("tauberlab.cli", "main", "cli"),
)

LAYERS = ("smoothing", "oscillatory", "contour", "suite", "cli")

# every record the suite can run, so each workload prints the same names
SUITE_RECORDS = (
    "growth_slope_sign", "growth_scaling_lower_bound", "derivative_envelope",
    "growth_envelope_bracket", "main_term_remainder", "quadrature_cross_check",
    "continuation_overlap", "path_independence", "transform_holomorphy",
    "pole_residue", "cumulative_oscillation", "tail_oscillation",
)

COUNTS = (
    "smoothing.real_calls", "smoothing.real_points", "smoothing.complex_points",
    "smoothing.cache_lookups", "smoothing.cache_builds", "contour.ray_builds",
    "contour.F_calls", "oscillatory.phase_roots", "oscillatory.T_scaled_calls",
    "oscillatory.tau_calls",
)


def _size(x) -> int:
    return int(getattr(x, "size", 1))


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.values = defaultdict(float)
        self.self_s = defaultdict(float)
        self.warm_F = []
        self.covered = []
        self.cli_span = None
        self.calls = 0
        self.missing = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _builds_here(self) -> int:
        return getattr(self._local, "builds", 0)

    def _wrap(self, layer: str, name: str, fn):
        account = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = {"layer": layer, "child_s": 0.0, "builds": self._builds_here()}
            parent = stack[-1] if stack else None
            stack.append(frame)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                with self._lock:
                    self.calls += 1
                    self.self_s[layer] += dur - frame["child_s"]
                    if parent is not None:
                        parent["child_s"] += dur
                    if layer == "cli":
                        self.cli_span = (t0, t1)
                    elif parent is None or parent["layer"] == "cli":
                        self.covered.append((t0, t1))
                    if account is not None:
                        account(args, result, dur, frame)

        return wrapper

    def install(self) -> None:
        import importlib

        for module_name, attr, layer in _TARGETS:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(layer, attr, original)
            if owner:
                setattr(holder, leaf, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("tauberlab") and getattr(mod, leaf, None) is original:
                    setattr(mod, leaf, wrapped)
        self._wrap_memo()

    # -- per-function accounting (called under the lock) ---------------

    def _on_SmoothedGrowth_derivative(self, args, result, dur, frame):
        self.values["smoothing.real_calls"] += 1
        self.values["smoothing.real_points"] += _size(result)
        self.values["smoothing.real_s"] += dur

    def _on_SmoothedGrowth_kernel_complex(self, args, result, dur, frame):
        self.values["smoothing.complex_points"] += _size(result)
        self.values["smoothing.complex_s"] += dur

    def _on__phase_roots(self, args, result, dur, frame):
        self.values["oscillatory.phase_roots"] += _size(result)
        self.values["oscillatory.phase_root_s"] += dur

    def _on_eval_T_scaled(self, args, result, dur, frame):
        self.values["oscillatory.T_scaled_calls"] += 1
        self.values["oscillatory.T_scaled_s"] += dur

    def _on_eval_tau(self, args, result, dur, frame):
        self.values["oscillatory.tau_calls"] += 1
        self.values["oscillatory.tau_s"] += dur

    def _on__TauTable___init__(self, args, result, dur, frame):
        self.values["oscillatory.tau_table_s"] += dur

    def _on_direct_F(self, args, result, dur, frame):
        self.values["oscillatory.direct_F_s"] += dur

    def _on_contour_F(self, args, result, dur, frame):
        self.values["contour.F_calls"] += 1
        self.values["contour.F_s"] += dur
        if self._builds_here() == frame["builds"]:
            self.warm_F.append(dur)

    def _on_cauchy_circle(self, args, result, dur, frame):
        self.values["contour.circle_s"] += dur

    def _on_run_suite(self, args, result, dur, frame):
        for rec in getattr(result, "records", ()):
            self.values[f"suite.{rec.name}_s"] += rec.seconds

    def _on_omega_pm_witnesses(self, args, result, dur, frame):
        self.values["suite.witnesses_s"] += dur

    _on_tau_witnesses = _on_omega_pm_witnesses

    def _wrap_memo(self) -> None:
        # memo is counted, not spanned: a build's own code belongs to the
        # caller's layer, and the build is timed where memo runs it
        from tauberlab.smoothing import SmoothedGrowth

        original = getattr(SmoothedGrowth, "memo", None)
        if original is None:
            self.missing.append("tauberlab.smoothing.SmoothedGrowth.memo")
            return
        tracer = self

        @functools.wraps(original)
        def memo(sg, key, build):
            with tracer._lock:
                tracer.values["smoothing.cache_lookups"] += 1

            def timed_build():
                t0 = time.perf_counter()
                try:
                    return build()
                finally:
                    dur = time.perf_counter() - t0
                    tracer._local.builds = tracer._builds_here() + 1
                    with tracer._lock:
                        tracer.values["smoothing.cache_builds"] += 1
                        tracer.values["smoothing.cache_build_s"] += dur
                        if isinstance(key, tuple) and key and key[0] == "contour_ray":
                            tracer.values["contour.ray_builds"] += 1
                            tracer.values["contour.ray_build_s"] += dur

            return original(sg, key, timed_build)

        SmoothedGrowth.memo = memo

    # -- results -------------------------------------------------------

    def metrics(self) -> dict:
        out = {name: float(self.values.get(name, 0.0)) for name in COUNTS}
        for name in ("smoothing.real_s", "smoothing.complex_s",
                     "smoothing.cache_build_s", "contour.ray_build_s",
                     "contour.F_s", "contour.circle_s",
                     "oscillatory.phase_root_s", "oscillatory.T_scaled_s",
                     "oscillatory.tau_s", "oscillatory.tau_table_s",
                     "oscillatory.direct_F_s", "suite.witnesses_s"):
            out[name] = float(self.values.get(name, 0.0))
        out["contour.F_warm_ms"] = (
            1e3 * statistics.median(self.warm_F) if self.warm_F else 0.0)
        for rec in SUITE_RECORDS:
            out[f"suite.{rec}_s"] = float(self.values.get(f"suite.{rec}_s", 0.0))
        for layer in LAYERS[:-1]:
            out[f"{layer}.self_s"] = float(self.self_s.get(layer, 0.0))
        out["cli.self_s"] = self._cli_self()
        return out

    def _cli_self(self) -> float:
        if self.cli_span is None:
            return 0.0
        lo, hi = self.cli_span
        covered, end = 0.0, lo
        for a, b in sorted(self.covered):
            a, b = max(a, end), min(b, hi)
            if b > a:
                covered += b - a
                end = b
        return (hi - lo) - covered


def wrapper_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call, against the same call untraced."""
    tracer = Tracer()

    def noop(*args, **kwargs):
        return None

    traced = tracer._wrap("smoothing", "noop", noop)
    t0 = time.perf_counter()
    for _ in range(samples):
        noop(0)
    t1 = time.perf_counter()
    for _ in range(samples):
        traced(0)
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / samples)
