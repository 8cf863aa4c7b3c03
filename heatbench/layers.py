"""Per-layer spans and counters, installed from outside the package.

Each public function of a heatseries module that a workload reaches is
replaced, in every heatseries module that holds a reference to it, by a
wrapper that records a span (name, start, end, parent) or bumps a counter.
Replacing the name where the *caller* looks it up matters: reference.py
calls ``integrate_halfline`` through its own module globals, not through
heatseries.quadrature.  A target the package no longer defines cannot be
wrapped; it is named on a ``missing`` line and counted in
``trace.missing_targets``, so that the metrics it fed reading 0 is never
taken for a gain.  scipy's ``quad`` is wrapped on ``scipy.integrate`` as
well as wherever heatseries holds it, so a package that imports it lazily
is still counted.

A layer's self time is the duration of its spans minus the time covered by
their child spans, so the self times of one repetition add up to the time
spent inside any traced call.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method) -> self-time metric
SPANS = {
    ("backend", "weighted_hermite_table"): "backend.hermite_table_s",
    ("backend", "accumulate_series_1d"): "backend.accumulate_s",
    ("backend", "accumulate_series_2d"): "backend.accumulate_s",
    ("backend", "max_abs_diff"): "backend.maxdiff_s",
    ("kernel_approx", "SeriesGridEvaluator.__init__"): "kernel_approx.grid_init_s",
    ("kernel_approx", "SeriesGridEvaluator.field_up_to"): "kernel_approx.field_s",
    ("kernel_approx", "eval_uk"): "kernel_approx.point_s",
    ("kernel_approx", "eval_uk_radial_origin"): "kernel_approx.radial_s",
    ("moments", "build_moment_table"): "moments.build_s",
    ("moments", "moments_at_time"): "moments.evolve_s",
    ("moments", "MomentTable.to_json"): "moments.json_s",
    ("moments", "MomentTable.from_json"): "moments.json_s",
    ("bounds", "error_bound_F"): "bounds.F_s",
    ("bounds", "envelope_bound_G"): "bounds.closed_form_s",
    ("bounds", "divergence_lower_bound"): "bounds.closed_form_s",
    ("reference", "error_curve"): "reference.error_curve_s",
    ("reference", "convolve_oracle"): "reference.oracle_s",
    ("quadrature", "integrate_interval"): "quadrature.s",
    ("quadrature", "integrate_line"): "quadrature.s",
    ("quadrature", "integrate_halfline"): "quadrature.s",
    ("decomposition", "remainder_l1_norm"): "decomposition.l1_s",
    ("decomposition", "decomposition_residual"): "decomposition.residual_s",
    ("eigen", "eigen_coeffs"): "eigen.coeffs_s",
    ("eigen", "eval_expansion"): "eigen.expansion_s",
    ("eigen", "validity_integral"): "eigen.validity_s",
    ("cli", "main"): "cli.self_s",
}

# function -> call counter recorded by its span
SIMPLE_COUNTS = {
    "eval_uk": "kernel_approx.point_calls",
    "error_bound_F": "bounds.F_calls",
    "eval_expansion": "eigen.expansion_calls",
    "integrate_interval": "quadrature.interval_calls",
}

SELF_TIMES = sorted(set(SPANS.values()))

#: Spans of the first traced repetition are kept, up to this many.
KEEP_SPANS = 200_000

#: Every per-layer metric the traced run reports: name -> (unit, better).
PER_LAYER = {
    "import.heatseries_s": ("s", "lower"),
    "import.scipy_s": ("s", "lower"),
    **{name: ("s", "lower") for name in SELF_TIMES},
    "backend.terms": ("count", "lower"),
    "backend.node_terms": ("count", "lower"),
    "backend.flops_computed": ("flop", "lower"),
    "backend.bytes_computed": ("B", "lower"),
    "backend.gflops": ("GFLOP/s", "higher"),
    "kernel_approx.point_calls": ("count", "lower"),
    "moments.build_calls": ("count", "lower"),
    "moments.entries": ("count", "lower"),
    "moments.indices_enumerated": ("count", "lower"),
    "moments.json_bytes": ("B", "lower"),
    "specfun.hermite_sequence_calls": ("count", "lower"),
    "signedlog.aligned_sum_calls": ("count", "lower"),
    "signedlog.terms_reduced": ("count", "lower"),
    "bounds.F_calls": ("count", "lower"),
    "bounds.abs_moment_calls": ("count", "lower"),
    "bounds.abs_moment_reuse": ("ratio", "higher"),
    "bounds.selfcheck_violations": ("count", "lower"),
    "reference.oracle_calls": ("count", "lower"),
    "reference.oracle_useful_ratio": ("ratio", "higher"),
    "quadrature.interval_calls": ("count", "lower"),
    "quadrature.integrand_evals": ("count", "lower"),
    "quadrature.integrability_errors": ("count", "lower"),
    "quadrature.warnings": ("count", "lower"),
    "decomposition.remainder_calls": ("count", "lower"),
    "eigen.expansion_calls": ("count", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "ops.fail_ratio": ("ratio", "lower"),
    "ops.known_defects": ("count", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "proc.wall_s": ("s", "lower"),
    "proc.ref_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.counter_errors": ("count", "lower"),
    "trace.missing_targets": ("count", "lower"),
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.keep_spans = KEEP_SPANS
        self.missing: list[str] = []
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._seen_errors: set[int] = set()

    def reset(self) -> None:
        """Start a new repetition: zero every self time and counter (in
        place, because the installed wrappers hold these objects)."""
        for table in (self.self_s, self.counts, self.keys, self._seen_errors):
            table.clear()

    # -- wrappers ---------------------------------------------------------

    def span(self, metric: str, fn, after=None, label: str | None = None):
        """Wrap fn in a span named ``label`` whose self time is charged to
        ``metric``; ``after(result, args)`` may record counters from the call."""
        tracer = self
        clock = time.perf_counter
        label = label or metric

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][3] if stack else -1
            index = len(tracer.spans)
            if index < tracer.keep_spans:
                tracer.spans.append(None)
            else:
                index = -1
            frame = [metric, clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if metric == "quadrature.s":
                    tracer._note_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.self_s[metric] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    tracer.spans[index] = (label, frame[1], end, parent)
            if after is not None:
                tracer._safely(after, result, args)
            return result

        return wrapper

    def counter(self, fn, before):
        """Wrap fn so that ``before(args)`` runs first; no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._safely(before, args)
            return fn(*args, **kwargs)

        return wrapper

    def _safely(self, record, *args) -> None:
        """Run a counter; one that no longer fits the package's signatures
        is counted, never allowed to change what the call does."""
        try:
            record(*args)
        except Exception:
            self.counts["trace.counter_errors"] += 1

    def _note_error(self, exc: BaseException) -> None:
        if type(exc).__name__ == "IntegrabilityError" and id(exc) not in self._seen_errors:
            self._seen_errors.add(id(exc))
            self.counts["quadrature.integrability_errors"] += 1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("heatseries.") and mod is not None
        }
        holders = [m for n, m in sys.modules.items() if n == "heatseries" or n.startswith("heatseries.")]
        for (modname, attr), metric in SPANS.items():
            mod = mods.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(f"{modname}.{attr}")
                else:
                    self._install_method(cls, meth, metric)
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.span(metric, original, self._after(attr), f"{modname}.{attr}")
            self._replace(holders, original, wrapper)
        bump = self._bump
        for modname, attr, make in (
            ("moments", "abs_moment", lambda f: self.counter(f, self._count_abs_moment)),
            ("moments", "compositions", self._wrap_enumerator),
            ("signedlog", "aligned_sum", self._wrap_aligned_sum),
            ("specfun", "hermite_weighted_sequence",
             lambda f: self.counter(f, bump("specfun.hermite_sequence_calls"))),
            ("decomposition", "remainder",
             lambda f: self.counter(f, bump("decomposition.remainder_calls"))),
        ):
            original = getattr(mods.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
            else:
                self._replace(holders, original, make(original))
        # QUADPACK itself: only where the workload's warm-up imported it
        integrate = sys.modules.get("scipy.integrate")
        if integrate is not None:
            original = integrate.quad
            wrapper = self.span("quadrature.s", self._quad_counting(original), label="scipy.integrate.quad")
            self._replace(holders + [integrate], original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _replace(self, holders, original, wrapper) -> None:
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._installed.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _install_method(self, cls, meth: str, metric: str) -> None:
        raw = vars(cls)[meth]
        label = f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}.{meth}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.span(metric, raw.__func__, self._after(meth), label))
        else:
            wrapped = self.span(metric, raw, self._after(meth), label)
        self._installed.append((cls, meth, raw))
        setattr(cls, meth, wrapped)

    # -- counters recorded at call boundaries -----------------------------

    def _bump(self, name: str):
        def bump(*_):
            self.counts[name] += 1

        return bump

    def _after(self, attr: str):
        counts = self.counts
        if attr in SIMPLE_COUNTS:
            after = self._bump(SIMPLE_COUNTS[attr])
        elif attr.startswith("accumulate_series"):
            def after(_, args):
                out, coeffs = args[0], args[-1]
                tables = args[1:3] if attr.endswith("2d") else args[1:2]
                terms = len(coeffs)
                counts["backend.terms"] += terms
                counts["backend.node_terms"] += terms * out.size
                counts["backend.flops_computed"] += 2 * terms * out.size
                # compulsory traffic: the field read and written once, one
                # table row per axis and one coefficient per term
                rows = sum(table.shape[-1] for table in tables)
                counts["backend.bytes_computed"] += 8 * (2 * out.size + terms * (rows + 1))
        elif attr == "build_moment_table":
            def after(table, _):
                counts["moments.build_calls"] += 1
                counts["moments.entries"] += len(table.entries)
        elif attr in ("to_json", "from_json"):
            def after(result, args):
                text = result if attr == "to_json" else args[-1]
                counts["moments.json_bytes"] += len(text.encode())
        elif attr == "convolve_oracle":
            def after(_, args):
                u0, x, t = args[:3]
                if hasattr(x, "__len__"):
                    r = math.sqrt(math.fsum(float(c) ** 2 for c in x))
                else:
                    r = abs(float(x))
                counts["reference.oracle_calls"] += 1
                self.keys["reference.oracle"].add((id(u0), t, r))
        else:
            after = None
        return after

    def _quad_counting(self, quad):
        """scipy's quad asked for its evaluation count; what a caller that
        did not ask for the full output gets back is unchanged."""
        counts = self.counts

        @functools.wraps(quad)
        def wrapper(*args, **kwargs):
            if kwargs.get("full_output"):
                return quad(*args, **kwargs)
            result = quad(*args, full_output=1, **kwargs)
            counts["quadrature.integrand_evals"] += result[2]["neval"]
            if len(result) > 3:  # QUADPACK's message in place of a warning
                counts["quadrature.warnings"] += 1
            return result[:2]

        return wrapper

    def _count_abs_moment(self, args) -> None:
        u0, alpha = args[:2]
        self.counts["bounds.abs_moment_calls"] += 1
        self.keys["bounds.abs_moment"].add((id(u0), tuple(alpha)))

    def _wrap_aligned_sum(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(terms):
            terms = list(terms)
            counts["signedlog.aligned_sum_calls"] += 1
            counts["signedlog.terms_reduced"] += len(terms)
            return fn(terms)

        return wrapper

    def _wrap_enumerator(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts["moments.indices_enumerated"] += 1
                yield item

        return wrapper

    # -- one repetition's metrics -----------------------------------------

    def snapshot(self, wall_s: float) -> dict[str, float]:
        """Metrics of the repetition since the last reset."""
        out = {name: self.self_s.get(name, 0.0) for name in SELF_TIMES}
        out.update(self.counts)
        accumulate = out.get("backend.accumulate_s", 0.0)
        flops = out.get("backend.flops_computed", 0.0)
        out["backend.gflops"] = flops / accumulate / 1e9 if accumulate > 0 else 0.0
        calls = out.get("bounds.abs_moment_calls", 0.0)
        out["bounds.abs_moment_reuse"] = len(self.keys["bounds.abs_moment"]) / calls if calls else 0.0
        calls = out.get("reference.oracle_calls", 0.0)
        out["reference.oracle_useful_ratio"] = len(self.keys["reference.oracle"]) / calls if calls else 0.0
        out["trace.coverage"] = math.fsum(self.self_s.values()) / wall_s if wall_s > 0 else 0.0
        out["trace.missing_targets"] = len(self.missing)
        return out
