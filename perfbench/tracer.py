"""In-memory spans around the public functions of ringhopf's modules.

The benchmark wraps the functions at run time, from its own code: every
reference to a wrapped function inside the ringhopf package is replaced,
so calls between modules (remove_multiple -> eigenvalues,
find_limit_cycle -> integrate) become child spans. A span has a name, a
start, an end, a parent span and the id of the benchmark operation that
caused it, plus one integer attribute (ring size, RK4 steps).
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from contextlib import contextmanager


def _ring_size(args, _result):
    return args[0].n


def _steps_out(_args, result):
    return 0 if result is None else result.steps


def _steps_in(args, _result):
    return args[0].steps


# span name -> (module, function, attribute extractor or None)
SPANS = {
    "model.load_ring": ("ringhopf.model", "load_ring", None),
    "model.load_family": ("ringhopf.model", "load_family", None),
    "model.save": ("ringhopf.model", "save", None),
    "spectra.eigenvalues": ("ringhopf.spectra", "eigenvalues", _ring_size),
    "spectra.char_poly": ("ringhopf.spectra", "char_poly", None),
    "spectra.eigenvector_for": ("ringhopf.spectra", "eigenvector_for", None),
    "spectra.adjacency_spectrum": ("ringhopf.spectra", "adjacency_spectrum", None),
    "hopf.hopf_conditions_3": ("ringhopf.hopf", "hopf_conditions_3", None),
    "hopf.sign_constraints": ("ringhopf.hopf", "sign_constraints", None),
    "hopf.detect_imaginary_pair": ("ringhopf.hopf", "detect_imaginary_pair", None),
    "hopf.crossing_check": ("ringhopf.hopf", "crossing_check", None),
    "phases.phase_shifts": ("ringhopf.phases", "phase_shifts", None),
    "phases.classify_case": ("ringhopf.phases", "classify_case", None),
    "phases.generate_tables": ("ringhopf.phases", "generate_tables", None),
    "genericity.remove_multiple": ("ringhopf.genericity", "remove_multiple", None),
    "genericity.remove_resonances": ("ringhopf.genericity", "remove_resonances", None),
    "genericity.multiplicity_forbidden_set": ("ringhopf.genericity", "multiplicity_forbidden_set", None),
    "genericity.resonance_forbidden_set": ("ringhopf.genericity", "resonance_forbidden_set", None),
    "genericity.detect_multiple": ("ringhopf.genericity", "detect_multiple", None),
    "genericity.detect_resonance": ("ringhopf.genericity", "detect_resonance", None),
    "simulate.find_limit_cycle": ("ringhopf.simulate", "find_limit_cycle", None),
    "simulate.integrate": ("ringhopf.simulate", "integrate", _steps_out),
    "simulate.measure_cycle": ("ringhopf.simulate", "measure_cycle", _steps_in),
}

# spans the benchmark opens itself, around in-process ringhopf.cli.main(argv)
CLI_SPANS = ("analyze", "tables", "phases", "perturb", "spectrum", "simulate")


class Tracer:
    """Span store: parallel arrays, so a long traced run stays small."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.attr = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.attr.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def wrap(self, name: str, fn, extract=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.finish(idx)
                if extract is not None:
                    self.attr[idx] = extract(args, result)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every reference to a SPANS function inside ringhopf."""
        modules = [m for k, m in sys.modules.items() if k == "ringhopf" or k.startswith("ringhopf.")]
        for name, (modname, attr, extract) in SPANS.items():
            fn = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, fn, extract)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is fn]:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: call count, durations, self times and attributes (s)."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {nm: {"dur": [], "self": [], "attr": []} for nm in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            rec["dur"].append(dur[i])
            rec["self"].append(dur[i] - child[i])
            rec["attr"].append(self.attr[i])
        return out

    def dump(self, path) -> None:
        """Write the spans as numpy columns; names[name[i]] is span i's name."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            attr=np.frombuffer(self.attr, dtype=np.int64),
        )


def layer_metrics(summary: dict, counts: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from a span summary.

    `counts` holds what the workload counted itself: failed eigenvalue
    calls. Spans that never ran report 0.
    """
    def med(name, scale):
        d = summary.get(name, {}).get("dur")
        return statistics.median(d) * scale if d else 0.0

    def calls(name):
        return len(summary.get(name, {}).get("dur", ()))

    m = {}
    eig = summary.get("spectra.eigenvalues", {"dur": [], "attr": []})
    for size in (3, 4, 10, 20, 40):
        d = [t for t, k in zip(eig["dur"], eig["attr"]) if k == size]
        m[f"spectra.eigenvalues.n{size}_us"] = (statistics.median(d) * 1e6 if d else 0.0, "us")
    m["spectra.eigenvalues.failed"] = (counts.get("eigenvalues_failed", 0), "count")
    per_call = {
        "spectra.char_poly": ("us", 1e6),
        "spectra.eigenvector_for": ("us", 1e6),
        "spectra.adjacency_spectrum": ("us", 1e6),
        "hopf.hopf_conditions_3": ("us", 1e6),
        "hopf.sign_constraints": ("us", 1e6),
        "hopf.detect_imaginary_pair": ("us", 1e6),
        "hopf.crossing_check": ("us", 1e6),
        "phases.phase_shifts": ("us", 1e6),
        "phases.classify_case": ("us", 1e6),
        "phases.generate_tables": ("ms", 1e3),
        "genericity.remove_multiple": ("ms", 1e3),
        "genericity.remove_resonances": ("ms", 1e3),
        "genericity.multiplicity_forbidden_set": ("us", 1e6),
        "genericity.resonance_forbidden_set": ("us", 1e6),
        "genericity.detect_multiple": ("us", 1e6),
        "genericity.detect_resonance": ("us", 1e6),
        "simulate.find_limit_cycle": ("s", 1.0),
        "simulate.integrate": ("s", 1.0),
        "simulate.measure_cycle": ("ms", 1e3),
        "model.load_ring": ("us", 1e6),
        "model.load_family": ("us", 1e6),
        "model.save": ("us", 1e6),
    }
    per_call.update({f"cli.{sub}": ("ms", 1e3) for sub in CLI_SPANS})
    for name, (unit, scale) in per_call.items():
        m[f"{name}_{unit}"] = (med(name, scale), unit)
    integ = summary.get("simulate.integrate", {"dur": [], "attr": []})
    steps = sum(integ["attr"])
    kept = sum(summary.get("simulate.measure_cycle", {"attr": []})["attr"])
    m["simulate.rk4_steps"] = (steps, "count")
    m["simulate.rk4_step_us"] = (sum(integ["dur"]) / steps * 1e6 if steps else 0.0, "us")
    m["simulate.kept_step_ratio"] = (kept / steps if steps else 0.0, "ratio")
    for name in list(SPANS) + [f"cli.{sub}" for sub in CLI_SPANS]:
        rec = summary.get(name, {"self": []})
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_ms"] = (sum(rec["self"]) * 1e3, "ms")
    return m
