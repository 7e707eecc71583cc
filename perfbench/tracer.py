"""Counters and spans recorded around helmdual's public functions, from outside.

Nothing inside helmdual changes: `Recorder.install` swaps each target for a
wrapper wherever a helmdual module holds a reference to it (so `from .search
import find_critical_point` in another module is covered too), and
`uninstall` puts the originals back.

Two levels:

* counting (every pass): FFT and `numpy.linalg.lstsq` call counts, FFT bytes,
  per-start step counts, distinct orbits and the time of the first solver
  call.  No timestamps are taken per call, so untraced wall times stay clean.
* spans (traced passes): every wrapped call also records a span (name,
  start, end, parent span, run id) in memory; `write_spans` stores them at
  the end of the pass and `layer_metrics` derives self times from the tree.

Private helpers (`_newton_polish`, `_gmres`, `_project`) are not wrapped, so
polish time is part of `find_critical_point`'s self time.
"""

import statistics
import sys
import time
from collections import Counter

import numpy as np

FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn")
REDUCTIONS = ("lp_norm", "inner", "dual_mass")
FC_METHODS = ("apply_k_array", "resolvent_array", "dual_residual_arrays",
              "gradient_arrays") + REDUCTIONS

# (module, attribute, layer name) of the public functions spanned in traced passes
SPANNED = (
    ("dual_functional", "odd_power", "dual_functional.odd_power"),
    ("search", "initial_field", "search.initial_field"),
    ("search", "orbit_distance", "search.orbit_distance"),
    ("search", "recenter", "search.recenter"),
    ("search", "mass_centroid", "search.mass_centroid"),
    ("asymptotic", "compare_levels", "asymptotic.compare_levels"),
    ("asymptotic", "transplant", "asymptotic.transplant"),
    ("farfield", "decay_and_expansion_check", "farfield.decay_and_expansion_check"),
    ("config", "parse_config", "config.parse_config"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "build_context", "cli.build_context"),
)


def _helmdual_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "helmdual" or name.startswith("helmdual."))]


class Recorder:
    """Holds the counters and spans of one pass; `spans=False` only counts."""

    def __init__(self, run_id: int, spans: bool):
        self.run_id = run_id
        self.spans = spans
        self.counts = Counter()
        self.starts = []            # (descent steps, polish steps, seconds, status) per start
        self.first_solver_call = None
        self.names = []
        self._name_ids = {}
        self.span_name, self.span_start, self.span_end, self.span_parent = [], [], [], []
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def _replace(self, holder, attr, wrapper):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def _replace_everywhere(self, original, wrapper, extra_holders=()):
        """Point every helmdual module reference (and extra holders) at wrapper."""
        for holder in list(extra_holders) + _helmdual_modules():
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._replace(holder, attr, wrapper)

    def install(self):
        import helmdual
        from helmdual import cli, search, selftest
        from helmdual.dual_functional import FunctionalContext
        from helmdual.errors import HelmdualError

        # scipy.fft only when something already imported it: helmdual uses numpy.fft
        fft_modules = [np.fft] + [m for m in [sys.modules.get("scipy.fft")] if m is not None]
        for module in fft_modules:
            for name in FFT_NAMES:
                original = getattr(module, name, None)
                if original is not None:
                    self._replace_everywhere(original, self._fft(original), [module])
        lstsq = np.linalg.lstsq
        self._replace_everywhere(lstsq, self._counted("numpy.linalg.lstsq", lstsq), [np.linalg])

        self._replace_everywhere(
            search.find_critical_point,
            self._outcomes(self._span("search.find_critical_point", search.find_critical_point),
                           HelmdualError),
        )
        self._replace_everywhere(
            search.multistart_search,
            self._solver_entry(self._span("search.multistart_search", search.multistart_search),
                               count_orbits=True),
        )
        self._replace_everywhere(cli.run_selftest, self._solver_entry(cli.run_selftest))

        if not self.spans:
            return
        for method in FC_METHODS:
            original = getattr(FunctionalContext, method)
            wrapped = self._span(f"dual_functional.{method}", original)
            if method == "dual_residual_arrays":
                wrapped = self._caller_count("dual_residual_arrays", wrapped)
            self._replace(FunctionalContext, method, wrapped)
        for module_name, attr, name in SPANNED:
            original = getattr(getattr(helmdual, module_name), attr)
            self._replace_everywhere(original, self._span(name, original))
        self._replace_everywhere(
            helmdual.farfield_amplitude,
            self._per_direction(self._span("farfield.farfield_amplitude", helmdual.farfield_amplitude)),
        )
        self._replace_everywhere(
            helmdual.write_field,
            self._written(self._span("config.write_field", helmdual.write_field)),
        )
        self._replace(selftest, "SUITES", [
            (suite, self._span(f"selftest.{suite}", check)) for suite, check in selftest.SUITES
        ])

    def uninstall(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        if not self.spans:
            return fn
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, stack = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        inner = self._span(name, fn)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    def _fft(self, fn):
        counts = self.counts
        inner = self._span("kernel.fft", fn)

        def wrapper(x, *args, **kwargs):
            out = inner(x, *args, **kwargs)
            counts["kernel.fft"] += 1
            counts["kernel.fft.bytes"] += np.asarray(x).nbytes + out.nbytes
            return out

        return wrapper

    def _outcomes(self, fn, error_type):
        starts = self.starts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                rec = fn(*args, **kwargs)
            except error_type as exc:
                starts.append((int(getattr(exc, "iterations", 0)), 0, clock() - t0, type(exc).__name__))
                raise
            starts.append((rec.iterations - rec.newton_steps, rec.newton_steps, clock() - t0, "converged"))
            return rec

        return wrapper

    def _solver_entry(self, fn, count_orbits=False):
        def wrapper(*args, **kwargs):
            if self.first_solver_call is None:
                self.first_solver_call = time.perf_counter()
            result = fn(*args, **kwargs)
            if count_orbits:
                self.counts["search.distinct_orbits"] += len(result.records)
            return result

        return wrapper

    def _caller_count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[f"{name}@{sys._getframe(1).f_code.co_name}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _per_direction(self, fn):
        def wrapper(ctx, u, directions, *args, **kwargs):
            self.counts["farfield.directions"] += len(directions)
            return fn(ctx, u, directions, *args, **kwargs)

        return wrapper

    def _written(self, fn):
        def wrapper(*args, **kwargs):
            blob = fn(*args, **kwargs)
            self.counts["config.write_field.bytes"] += len(blob)
            return blob

        return wrapper

    # -- results ------------------------------------------------------------

    def exact_counts(self) -> dict:
        """Counts that must repeat exactly for a repeated seed."""
        return {
            "descent_steps": sum(s[0] for s in self.starts),
            "polish_steps": sum(s[1] for s in self.starts),
            "starts": len(self.starts),
            "fft_calls": self.counts["kernel.fft"],
            "lstsq_calls": self.counts["numpy.linalg.lstsq"],
            "distinct_orbits": self.counts["search.distinct_orbits"],
        }

    def span_arrays(self):
        name = np.asarray(self.span_name, dtype=np.int32)
        start = np.asarray(self.span_start)
        end = np.asarray(self.span_end)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        return name, start, end, parent

    def write_spans(self, path):
        name, start, end, parent = self.span_arrays()
        np.savez(path, names=np.asarray(self.names), name=name, start=start, end=end,
                 parent=parent, run_id=np.full(len(name), self.run_id, dtype=np.int32))

    def layer_metrics(self, suites) -> dict:
        """Per-layer metrics of a traced pass, in BENCHMARK.json units."""
        name, start, end, parent = self.span_arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        ids = self._name_ids

        def mask(*names):
            wanted = [ids[n] for n in names if n in ids]
            return np.isin(name, wanted)

        def calls(*names):
            return int(mask(*names).sum())

        def self_s(*names):
            return float(self_time[mask(*names)].sum())

        def total_s(*names):
            return float(dur[mask(*names)].sum())

        fcp = ids.get("search.find_critical_point", -1)
        lstsq = mask("numpy.linalg.lstsq")
        inside_fcp = np.zeros(len(name), dtype=bool)
        for i in np.flatnonzero(lstsq):
            j = parent[i]
            while j >= 0 and name[j] != fcp:
                j = parent[j]
            inside_fcp[i] = j >= 0

        descent = sum(s[0] for s in self.starts)
        steps = [s[0] for s in self.starts] or [0]
        start_s = [s[2] for s in self.starts] or [0.0]
        fft_calls = calls("kernel.fft")
        candidates = self.counts["dual_residual_arrays@find_critical_point"]
        directions = self.counts["farfield.directions"]
        m = {
            "kernel.fft.calls": fft_calls,
            "kernel.fft.s": self_s("kernel.fft"),
            "kernel.fft.us_per_call": 1e6 * self_s("kernel.fft") / max(fft_calls, 1),
            "kernel.fft.bytes_computed": self.counts["kernel.fft.bytes"],
        }
        for fn in ("apply_k_array", "resolvent_array", "dual_residual_arrays",
                   "gradient_arrays", "odd_power"):
            m[f"dual_functional.{fn}.calls"] = calls(f"dual_functional.{fn}")
            m[f"dual_functional.{fn}.s"] = self_s(f"dual_functional.{fn}")
        reductions = [f"dual_functional.{r}" for r in REDUCTIONS]
        m["dual_functional.reductions.calls"] = calls(*reductions)
        m["dual_functional.reductions.s"] = self_s(*reductions)
        m.update({
            "search.anderson_lstsq.calls": int(inside_fcp.sum()),
            "search.anderson_lstsq.s": float(self_time[inside_fcp].sum()),
            "search.descent_steps": descent,
            "search.polish_steps": sum(s[1] for s in self.starts),
            "search.steps_per_start.p50": statistics.median(steps),
            "search.steps_per_start.max": max(steps),
            "search.us_per_step": 1e6 * total_s("search.find_critical_point") / max(descent, 1),
            "search.start_s.p50": statistics.median(start_s),
            "search.start_s.max": max(start_s),
            "search.find_critical_point.self_s": self_s("search.find_critical_point"),
            "search.accept_ratio": descent / candidates if candidates else 0.0,
            "search.dedup.s": self_s("search.orbit_distance", "search.recenter", "search.mass_centroid"),
            "search.orbit_distance.calls": calls("search.orbit_distance"),
            "search.initial_field.s": self_s("search.initial_field"),
            "search.distinct_orbits": self.counts["search.distinct_orbits"],
            "asymptotic.compare_levels.self_s": self_s("asymptotic.compare_levels"),
            "asymptotic.transplant.s": self_s("asymptotic.transplant"),
            "farfield.farfield_amplitude.calls": calls("farfield.farfield_amplitude"),
            "farfield.farfield_amplitude.s": self_s("farfield.farfield_amplitude"),
            "farfield.us_per_direction":
                1e6 * total_s("farfield.farfield_amplitude") / directions if directions else 0.0,
            "farfield.decay_and_expansion_check.s": self_s("farfield.decay_and_expansion_check"),
            "config.write_field.calls": calls("config.write_field"),
            "config.write_field.bytes": self.counts["config.write_field.bytes"],
            "config.write_field.s": self_s("config.write_field"),
            "config.parse_config.s": self_s("config.parse_config"),
            "cli.run_experiment.self_s": self_s("cli.run_experiment"),
        })
        for suite in suites:
            m[f"selftest.{suite}.s"] = total_s(f"selftest.{suite}")
        return m
