"""Spans and call counts around the public functions of each risjrc module.

Each target is wrapped in every ``risjrc`` namespace that holds it, which is
where its callers look the name up (``risjrc.harness.hierarchical_localize``,
``risjrc.localization.complex_normal``, ...).  A target that no longer
exists is recorded as absent, and every metric built on it reads ``absent``
rather than 0, so a rename cannot pass for a saving.

Timed targets record a span (name, parent span, start, end, attributes);
counted targets only bump a counter, because they run tens of thousands of
times per run.  Spans stay in memory until ``report``.
"""

from __future__ import annotations

import csv
import os
import sys
import time

PACKAGE = "risjrc"

# (module, attribute path, timed).  The attribute path may name a method.
TARGETS = (
    ("geometry", "ris_axis_steering", False),
    ("geometry", "ula_steering", False),
    ("geometry", "ris_full_steering", False),
    ("channels", "complex_normal", False),
    ("channels", "draw_fading", False),
    ("codebook", "build_codebook", True),
    ("codebook", "design_sensing_phases", True),
    ("codebook", "unit_modulus_projection", False),
    ("codebook", "save_codebook", True),
    ("codebook", "load_codebook", True),
    ("localization", "make_scene", True),
    ("localization", "hierarchical_localize", True),
    ("localization", "qpsk_product_mean", False),
    ("localization", "calibrate_snapshots", True),
    ("localization", "StageEnsemble.error_rate", False),
    ("comms", "average_se", True),
    ("comms", "spectral_efficiency", False),
    ("harness", "load_config", True),
    ("harness", "trial_rng", False),
    ("harness", "run_experiment", True),
    ("harness", "resolve_schedule", True),
    ("harness", "run_localization_trials", True),
    ("harness", "emit_csv", True),
)


def _stage_of(args, kwargs, result):
    return {"stage": args[0] if args else kwargs["s"]}


def _feasibility(args, kwargs, result):
    return {"feasible": bool(result.feasible)}


def _se_trials(args, kwargs, result):
    return {"trials": args[2] if len(args) > 2 else kwargs["trials"]}


# Span attributes that metrics need, taken from a call's arguments or result.
ATTRIBUTES = {
    "codebook.design_sensing_phases": _stage_of,
    "localization.calibrate_snapshots": _feasibility,
    "comms.average_se": _se_trials,
}

# Metric name -> (unit, targets it is built on).  A metric reads absent when
# any of its targets is absent.  BENCHMARK.json lists the same names.
_DESIGN = ("codebook.design_sensing_phases",)
_STEERING = ("geometry.ris_axis_steering", "geometry.ula_steering", "geometry.ris_full_steering")
LAYER_METRICS = {
    "codebook.build_s": ("s", ("codebook.build_codebook",)),
    "codebook.solve_s": ("s", _DESIGN),
    **{f"codebook.solve_s.s{s}": ("s", _DESIGN) for s in range(1, 6)},
    "codebook.solve_calls": ("count", _DESIGN),
    "codebook.solver_iters": ("count", ("codebook.unit_modulus_projection",)),
    "codebook.load_s": ("s", ("codebook.load_codebook",)),
    "codebook.save_s": ("s", ("codebook.save_codebook",)),
    "codebook.file_bytes": ("B", ()),
    "harness.config_load_s": ("s", ("harness.load_config",)),
    "localization.localize_s": ("s", ("localization.hierarchical_localize",)),
    "localization.localize_calls": ("count", ("localization.hierarchical_localize",)),
    "localization.trials_per_s": ("1/s", ("localization.hierarchical_localize",)),
    "localization.qpsk_calls": ("count", ("localization.qpsk_product_mean",)),
    "channels.complex_normal_calls": ("count", ("channels.complex_normal",)),
    "channels.draw_fading_calls": ("count", ("channels.draw_fading",)),
    "harness.trial_rng_calls": ("count", ("harness.trial_rng",)),
    "localization.calibrate_s": ("s", ("localization.calibrate_snapshots",)),
    "localization.calibrate_calls": ("count", ("localization.calibrate_snapshots",)),
    "localization.error_rate_evals": ("count", ("localization.StageEnsemble.error_rate",)),
    "localization.calib_feasible_frac": ("frac", ("localization.calibrate_snapshots",)),
    "localization.scene_s": ("s", ("localization.make_scene",)),
    "geometry.steering_calls": ("count", _STEERING),
    "comms.average_se_s": ("s", ("comms.average_se",)),
    "comms.average_se_calls": ("count", ("comms.average_se",)),
    "comms.se_trials_per_s": ("1/s", ("comms.average_se",)),
    "comms.spectral_efficiency_calls": ("count", ("comms.spectral_efficiency",)),
    "harness.run_experiment_s": ("s", ("harness.run_experiment",)),
    "harness.run_experiment_self_s": ("s", ("harness.run_experiment",)),
    "harness.resolve_schedule_s": ("s", ("harness.resolve_schedule",)),
    "harness.run_trials_s": ("s", ("harness.run_localization_trials",)),
    "harness.emit_csv_s": ("s", ("harness.emit_csv",)),
    "harness.csv_bytes": ("B", ()),
    "harness.csv_rows": ("count", ()),
}


class Tracer:
    """Owns the spans, counters and installed wrappers of one traced run."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        # span: [name, parent index or -1, start, end, attributes]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self):
        namespaces = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module, path, timed in TARGETS:
            name = f"{module}.{path}"
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            self.counts[name] = 0
            wrapper = self._timed(name, original) if timed else self._counted(name, original)
            holders = [owner] if outer else namespaces
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        counts, spans, stack = self.counts, self.spans, self._stack
        attributes = ATTRIBUTES.get(name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            span = [name, stack[-1] if stack else -1, time.perf_counter(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if attributes is not None:
                span[4] = attributes(args, kwargs, result)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def _total(self, name, **match) -> float:
        return sum(
            (s[3] - s[2] for s in self.spans if s[0] == name and all((s[4] or {}).get(k) == v for k, v in match.items())),
            0.0,
        )

    def _self_time(self, name) -> float:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] >= 0:
                child_time[s[1]] += s[3] - s[2]
        return sum((s[3] - s[2] - child_time[i] for i, s in enumerate(self.spans) if s[0] == name), 0.0)

    def report(self, codebook_path: str, csv_path: str) -> dict:
        """Per-layer metrics plus the raw spans; absent metrics map to None."""

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        c = self.counts
        m: dict[str, float | None] = {}
        m["codebook.build_s"] = self._total("codebook.build_codebook")
        m["codebook.solve_s"] = self._total("codebook.design_sensing_phases")
        for s in range(1, 6):
            m[f"codebook.solve_s.s{s}"] = self._total("codebook.design_sensing_phases", stage=s)
        m["codebook.solve_calls"] = c.get("codebook.design_sensing_phases")
        m["codebook.solver_iters"] = c.get("codebook.unit_modulus_projection")
        m["codebook.load_s"] = self._total("codebook.load_codebook")
        m["codebook.save_s"] = self._total("codebook.save_codebook")
        m["codebook.file_bytes"] = os.path.getsize(codebook_path) if os.path.exists(codebook_path) else 0
        m["harness.config_load_s"] = self._total("harness.load_config")

        localize_s = self._total("localization.hierarchical_localize")
        m["localization.localize_s"] = localize_s
        m["localization.localize_calls"] = c.get("localization.hierarchical_localize")
        m["localization.trials_per_s"] = rate(c.get("localization.hierarchical_localize", 0), localize_s)
        m["localization.qpsk_calls"] = c.get("localization.qpsk_product_mean")
        m["channels.complex_normal_calls"] = c.get("channels.complex_normal")
        m["channels.draw_fading_calls"] = c.get("channels.draw_fading")
        m["harness.trial_rng_calls"] = c.get("harness.trial_rng")

        calls = c.get("localization.calibrate_snapshots", 0)
        feasible = sum(1 for s in self.spans if s[0] == "localization.calibrate_snapshots" and s[4]["feasible"])
        m["localization.calibrate_s"] = self._total("localization.calibrate_snapshots")
        m["localization.calibrate_calls"] = c.get("localization.calibrate_snapshots")
        m["localization.error_rate_evals"] = c.get("localization.StageEnsemble.error_rate")
        m["localization.calib_feasible_frac"] = feasible / calls if calls else 0.0
        m["localization.scene_s"] = self._total("localization.make_scene")
        m["geometry.steering_calls"] = sum(c.get(n, 0) for n in _STEERING)

        se_s = self._total("comms.average_se")
        se_trials = sum(s[4]["trials"] for s in self.spans if s[0] == "comms.average_se")
        m["comms.average_se_s"] = se_s
        m["comms.average_se_calls"] = c.get("comms.average_se")
        m["comms.se_trials_per_s"] = rate(se_trials, se_s)
        m["comms.spectral_efficiency_calls"] = c.get("comms.spectral_efficiency")

        m["harness.run_experiment_s"] = self._total("harness.run_experiment")
        m["harness.run_experiment_self_s"] = self._self_time("harness.run_experiment")
        m["harness.resolve_schedule_s"] = self._total("harness.resolve_schedule")
        m["harness.run_trials_s"] = self._total("harness.run_localization_trials")
        m["harness.emit_csv_s"] = self._total("harness.emit_csv")
        if os.path.exists(csv_path):
            m["harness.csv_bytes"] = os.path.getsize(csv_path)
            with open(csv_path, newline="") as f:
                m["harness.csv_rows"] = sum(1 for _ in csv.reader(f)) - 1
        else:
            m["harness.csv_bytes"] = m["harness.csv_rows"] = 0

        for metric, (_, sources) in LAYER_METRICS.items():
            if any(t in self.absent for t in sources):
                m[metric] = None
        return {"metrics": m, "absent": self.absent, "spans": self.spans}
