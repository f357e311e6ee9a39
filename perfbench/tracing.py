"""Spans and counts around the calls into each layer of ``squeeze_dyn``.

The tracer replaces a layer's public functions at the module attributes
their callers look up (``squeeze_dyn.cli.squeezing_curve`` is what
``cli`` calls) with wrappers that record a span: name, start, end and
parent. Spans stay in memory and are written out when the run ends.
The closure returned by ``curve_evaluator`` is called tens of thousands
of times per report, so its calls are counted and timed in aggregate
instead of one span each; their time counts as child time of the
enclosing span. A name that the package no longer has is reported as
missing and traced no further.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, child_s]
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()  # seconds of aggregate-only calls
        self.peaks: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, on_result=None, on_call=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][4] += rec[2] - rec[1]
            if on_result is not None:
                replaced = on_result(args, kwargs, result)
                if replaced is not None:
                    return replaced
            return result

        return wrapper

    def _aggregate(self, key, fn):
        """Count and time calls of ``fn`` without a span per call."""
        spans, stack, counts, sums = self.spans, self._stack, self.counts, self.sums

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                counts[key] += 1
                sums[key] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, module, attr: str, name: str, on_result=None, on_call=None) -> None:
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, self._wrap(name, fn, on_result, on_call))
        self._patches.append((module, attr, fn))

    def unpatch(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def install(self) -> None:
        """Wrap the public layer functions of the imported ``squeeze_dyn``."""
        import importlib

        def mod(name):
            try:
                return importlib.import_module(f"squeeze_dyn.{name}")
            except ImportError:
                self.missing.append(f"squeeze_dyn.{name}")
                return None

        cli, analytic, kappa, verify = (mod(m) for m in ("cli", "analytic", "kappa", "verify"))
        kappa_model = getattr(kappa, "KappaModel", ()) if kappa else ()

        def count_curve(args, kwargs, curve):
            for attr in ("values", "markov_values"):
                vals = getattr(curve, attr, None)
                if vals is not None:
                    self.counts["analytic.curve_nodes"] += len(vals)

        def wrap_evaluator(args, kwargs, evaluator):
            label = "other"
            for a in list(args) + list(kwargs.values()):
                if kappa_model and isinstance(a, kappa_model):
                    label = a.label()
                    break
            return self._aggregate(f"analytic.evaluator.{label}", evaluator)

        def count_report(args, kwargs, report):
            horizon = report.get("horizon")
            for start, end in report.get("intervals", []):
                self.counts["deathtimes.boundaries"] += (start > 0.0) + (end < horizon)

        def counted(rows):
            for row in rows:
                self.counts["format.rows_written"] += 1
                yield row

        def count_rows(args, kwargs):
            # write_csv(fp, kind, params, columns, rows)
            if "rows" in kwargs:
                kwargs = dict(kwargs, rows=counted(kwargs["rows"]))
            elif len(args) > 4:
                args = args[:4] + (counted(args[4]),) + args[5:]
            return args, kwargs

        def density_size(args, kwargs):
            rho = args[0] if args else kwargs.get("rho")
            shape = getattr(rho, "shape", ())
            if len(shape) == 2:
                mib = shape[0] * shape[1] * 16 / 2**20  # complex128
                self.peaks["oracle.density_mib"] = max(self.peaks["oracle.density_mib"], mib)
            return args, kwargs

        def count_cases(args, kwargs, report):
            self.counts["verify.cases"] += len(getattr(report, "cases", ()))

        def count_nodes(args, kwargs, series):
            self.counts["kappa.solver_nodes"] += len(getattr(series, "values", ()))

        if cli is not None:
            self.patch(cli, "main", "cli.main")
            self.patch(cli, "squeezing_curve", "analytic.squeezing_curve", count_curve)
            self.patch(cli, "optimal_alpha", "analytic.optimal_alpha")
            self.patch(cli, "death_report", "deathtimes.death_report", count_report)
            self.patch(cli, "run_verification", "verify.run_verification", count_cases)
            self.patch(cli, "write_csv", "format.write_csv", on_call=count_rows)
            self.patch(cli, "curve_evaluator", "analytic.curve_evaluator", wrap_evaluator)
        if analytic is not None:
            self.patch(analytic, "write_csv", "format.write_csv", on_call=count_rows)
        if kappa is not None:
            self.patch(kappa, "write_csv", "format.write_csv", on_call=count_rows)
            self.patch(kappa, "solve_volterra", "kappa.solve_volterra", count_nodes)
        if verify is not None:
            self.patch(verify, "build_oat_state", "oracle.build_oat_state")
            self.patch(verify, "apply_channel", "oracle.apply_channel", on_call=density_size)
            self.patch(verify, "collective_moments", "oracle.collective_moments")
            self.patch(verify, "integrate_single_qubit_generator", "oracle.generator")

    # -- reduction ---------------------------------------------------------

    def mark(self) -> tuple[int, Counter, Counter]:
        """Snapshot taken before a round, for ``round_metrics``."""
        return len(self.spans), Counter(self.counts), Counter(self.sums)

    def round_metrics(self, mark) -> dict[str, float]:
        """Per-layer totals of the spans and counts recorded since ``mark``."""
        first, counts0, sums0 = mark
        total: Counter = Counter()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, _parent, child in self.spans[first:]:
            total[name] += end - start
            self_s[name] += end - start - child
            calls[name] += 1
        counts = self.counts - counts0
        sums = self.sums - sums0

        ms = 1e3
        out: dict[str, float] = {
            "cli.self_ms": self_s["cli.main"] * ms,
            "format.write_csv_ms": total["format.write_csv"] * ms,
            "format.rows_written": counts["format.rows_written"],
            "analytic.squeezing_curve_ms": total["analytic.squeezing_curve"] * ms,
            "analytic.curve_nodes": counts["analytic.curve_nodes"],
            "analytic.optimal_alpha_calls": calls["analytic.optimal_alpha"],
            "analytic.optimal_alpha_ms": total["analytic.optimal_alpha"] * ms,
            "kappa.solve_volterra_ms": total["kappa.solve_volterra"] * ms,
            "kappa.solver_nodes": counts["kappa.solver_nodes"],
            "deathtimes.death_report_ms": total["deathtimes.death_report"] * ms,
            "deathtimes.self_ms": self_s["deathtimes.death_report"] * ms,
            "deathtimes.boundaries": counts["deathtimes.boundaries"],
            "oracle.apply_channel_ms": total["oracle.apply_channel"] * ms,
            "oracle.apply_channel_calls": calls["oracle.apply_channel"],
            "oracle.collective_moments_ms": total["oracle.collective_moments"] * ms,
            "oracle.generator_ms": total["oracle.generator"] * ms,
            "oracle.generator_calls": calls["oracle.generator"],
            "oracle.density_mib": self.peaks.get("oracle.density_mib", 0.0),
            "verify.run_verification_ms": total["verify.run_verification"] * ms,
            "verify.self_ms": self_s["verify.run_verification"] * ms,
            "verify.cases": counts["verify.cases"],
        }
        out["analytic.curve_ns_per_node"] = _ratio(
            total["analytic.squeezing_curve"] * 1e9, counts["analytic.curve_nodes"])
        out["kappa.solver_ns_per_node"] = _ratio(
            total["kappa.solve_volterra"] * 1e9, counts["kappa.solver_nodes"])
        all_calls = 0
        for label in ("lorentzian", "markovian", "tabulated"):
            key = f"analytic.evaluator.{label}"
            out[f"analytic.evaluator_calls.{label}"] = counts[key]
            out[f"analytic.evaluator_ms.{label}"] = sums[key] * ms
            out[f"analytic.evaluator_us_per_call.{label}"] = _ratio(sums[key] * 1e6, counts[key])
            all_calls += counts[key]
        out["deathtimes.calls_per_boundary"] = _ratio(all_calls, counts["deathtimes.boundaries"])
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "child_s": c}
            for n, s, e, p, c in self.spans
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
