"""Per-layer tracing, installed from outside the library.

Each public function of an sse module is wrapped where its caller looks it
up: ``sse.estimator.t_check`` (the main check) and ``sse.theory.t_check``
(checks made while building certificates) get different spans, and so do
``check_sparse_observability`` called from ``estimate`` (the agree gate) and
called during set-up (model analysis).  A span's self time is its duration
minus the spans it encloses; spans are aggregated by name as they close,
not stored.  Counts come from return values and from ``SatInstance.stats``.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (module, attribute, span).  The attribute may be a "Class.method" path.
WRAPS = (
    ("sse", "estimate", "estimator.estimate"),
    ("sse.attacksim", "estimate", "estimator.estimate"),
    ("sse.estimator", "check_sparse_observability", "estimator.agree_gate"),
    ("sse.estimator", "delta_bound", "attacksim.other"),  # from ugv_guarantees
    ("sse", "delta_bound", "attacksim.other"),
    ("sse.estimator", "t_check", "theory.main_check"),
    ("sse.estimator", "certificates", "theory.cert"),
    ("sse.theory", "certificate_conflict", "theory.cert"),
    ("sse.theory", "certificate_agree", "theory.cert"),
    ("sse.theory", "t_check", "theory.cert_check"),
    ("sse.satcore", "new_instance", "satcore.other"),
    ("sse.satcore", "SatInstance.bump", "satcore.other"),
    ("sse.satcore", "SatInstance.solve", "satcore.solve"),
    ("sse.satcore", "SatInstance.add_constraint", "satcore.add_constraint"),
    ("sse", "stack_window", "linmodel.stack_window"),
    ("sse.attacksim", "stack_window", "linmodel.stack_window"),
    ("sse", "build_observability", "linmodel.build_observability"),
    ("sse.attacksim", "build_observability", "linmodel.build_observability"),
    ("sse.attacksim", "roll_forward", "linmodel.roll_forward"),
    ("sse", "check_sparse_observability", "linmodel.analysis"),
    ("sse.attacksim", "check_sparse_observability", "linmodel.analysis"),
    ("sse", "compute_o_bar", "linmodel.analysis"),
    ("sse.attacksim", "compute_o_bar", "linmodel.analysis"),
    ("sse", "compute_delta_s", "linmodel.analysis"),
    ("sse.attacksim", "compute_delta_s", "linmodel.analysis"),
    ("sse.attacksim", "numerical_rank", "linmodel.analysis"),
    ("sse.attacksim", "generate_instance", "attacksim.generate"),
    ("sse.attacksim", "run_closed_loop", "attacksim.loop"),
    ("sse.attacksim", "discretize_ugv", "attacksim.other"),
    ("sse.attacksim", "ugv_guarantees", "attacksim.other"),
    ("sse.attacksim", "alternating_encoder_scenario", "attacksim.other"),
)

# Per-layer metrics: name -> unit.  Times are self times in ms, every count a
# total over the traced pass (set-up included).
LAYER_METRICS = {
    "satcore.solve_calls": "count",
    "satcore.solve_ms": "ms",
    "satcore.add_constraint_ms": "ms",
    "satcore.other_ms": "ms",
    "satcore.decisions": "count",
    "satcore.conflicts": "count",
    "theory.main_checks": "count",
    "theory.main_check_ms": "ms",
    "theory.cert_checks": "count",
    "theory.cert_check_ms": "ms",
    "theory.cert_self_ms": "ms",
    "theory.cert_checks_per_cert": "checks/cert",
    "theory.conflict_cert_size_mean": "sensors",
    "theory.agree_certs": "count",
    "estimator.iterations": "count",
    "estimator.capped_solves": "count",
    "estimator.agree_gate_calls": "count",
    "estimator.agree_gate_ms": "ms",
    "estimator.self_ms": "ms",
    "linmodel.stack_window_ms": "ms",
    "linmodel.build_observability_ms": "ms",
    "linmodel.analysis_ms": "ms",
    "linmodel.roll_forward_ms": "ms",
    "attacksim.generate_ms": "ms",
    "attacksim.loop_self_ms": "ms",
    "attacksim.other_ms": "ms",
    "bench.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span timers and counters around the library's public functions."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._frames = [[0.0]]  # child time of each open span; root first
        self._installed = []
        self._open_instances = []
        self._hooks = {
            "estimator.estimate": (self._on_estimate, self._on_estimate_error),
            "theory.cert": (self._on_certificate, None),
            "satcore.other": (self._on_new_instance, None),
        }

    def install(self) -> None:
        wrappers = {}
        for module, attr, span in WRAPS:
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            if getattr(original, "__module__", "").split(".")[0] != "sse":
                raise RuntimeError(f"{module}.{attr} is not an sse function")
            key = (id(original), span)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, span)
            self._installed.append((owner, name, original))
            setattr(owner, name, wrappers[key])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed = []

    def _wrap(self, fn, span):
        frames = self._frames
        calls, self_s = self.calls, self.self_s
        on_return, on_error = self._hooks.get(span, (None, None))
        clock = time.perf_counter

        def close(frame, started):
            elapsed = clock() - started
            frames.pop()
            frames[-1][0] += elapsed
            calls[span] += 1
            self_s[span] += elapsed - frame[0]

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                close(frame, started)
                if on_error is not None:
                    on_error(exc)
                raise
            close(frame, started)
            if on_return is not None:
                on_return(fn, result)
            return result

        return wrapper

    # -- counters -------------------------------------------------------------

    def _sat_totals(self) -> None:
        for inst in self._open_instances:
            self.counts["satcore.decisions"] += inst.stats.decisions
            self.counts["satcore.conflicts"] += inst.stats.conflicts
        self._open_instances.clear()

    def _on_new_instance(self, fn, result) -> None:
        if fn.__name__ == "new_instance":
            self._open_instances.append(result)

    def _on_estimate(self, fn, result) -> None:
        self._sat_totals()
        self.counts["windows"] += 1
        self.counts["estimator.iterations"] += result.iterations

    def _on_estimate_error(self, exc) -> None:
        self._sat_totals()
        iterations = getattr(exc, "iterations", None)
        if iterations is not None:  # IterationLimitError: a capped solve
            self.counts["windows"] += 1
            self.counts["estimator.iterations"] += iterations
            self.counts["estimator.capped_solves"] += 1

    def _on_certificate(self, fn, result) -> None:
        if fn.__name__ == "certificates":
            self.counts["certificates"] += len(result[0])
        elif fn.__name__ == "certificate_conflict":
            self.counts["conflict_certs"] += 1
            self.counts["conflict_cert_sensors"] += len(result.sensors)
        elif result is not None:  # certificate_agree
            self.counts["theory.agree_certs"] += 1

    # -- report ---------------------------------------------------------------

    def metrics(self, work_s: float, scale: float, overhead_pct: float) -> dict:
        """Per-layer metrics.

        ``work_s`` is the raw time of the traced set-up and timed work, so the
        part of it that no span covers is the benchmark's own time; ``scale``
        converts raw seconds to seconds at the nominal machine speed.
        """
        def ms(span):
            return 1000.0 * scale * self.self_s[span]

        c = self.counts
        values = {
            "satcore.solve_calls": self.calls["satcore.solve"],
            "satcore.solve_ms": ms("satcore.solve"),
            "satcore.add_constraint_ms": ms("satcore.add_constraint"),
            "satcore.other_ms": ms("satcore.other"),
            "satcore.decisions": c["satcore.decisions"],
            "satcore.conflicts": c["satcore.conflicts"],
            "theory.main_checks": self.calls["theory.main_check"],
            "theory.main_check_ms": ms("theory.main_check"),
            "theory.cert_checks": self.calls["theory.cert_check"],
            "theory.cert_check_ms": ms("theory.cert_check"),
            "theory.cert_self_ms": ms("theory.cert"),
            "theory.cert_checks_per_cert":
                self.calls["theory.cert_check"] / c["certificates"] if c["certificates"] else 0.0,
            "theory.conflict_cert_size_mean":
                c["conflict_cert_sensors"] / c["conflict_certs"] if c["conflict_certs"] else 0.0,
            "theory.agree_certs": c["theory.agree_certs"],
            "estimator.iterations": c["estimator.iterations"],
            "estimator.capped_solves": c["estimator.capped_solves"],
            "estimator.agree_gate_calls": self.calls["estimator.agree_gate"],
            "estimator.agree_gate_ms": ms("estimator.agree_gate"),
            "estimator.self_ms": ms("estimator.estimate"),
            "linmodel.stack_window_ms": ms("linmodel.stack_window"),
            "linmodel.build_observability_ms": ms("linmodel.build_observability"),
            "linmodel.analysis_ms": ms("linmodel.analysis"),
            "linmodel.roll_forward_ms": ms("linmodel.roll_forward"),
            "attacksim.generate_ms": ms("attacksim.generate"),
            "attacksim.loop_self_ms": ms("attacksim.loop"),
            "attacksim.other_ms": ms("attacksim.other"),
            "bench.self_ms": 1000.0 * scale * (work_s - self._frames[0][0]),
            "trace.overhead_pct": overhead_pct,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
