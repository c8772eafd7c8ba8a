"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces each layer's public entry point at the import
site its callers use (for example `shifts.residue_coeffs`, which is how
`shifts` reaches `kernel.residue_coeffs`) with a wrapper that counts the
call and times it.  Wrappers keep a stack of open spans, so a layer's self
time is its busy time minus the part covered by the spans it caused.  The
program itself is not modified; a fresh interpreter per pass discards the
wrappers.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Span:
    __slots__ = ("calls", "busy", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.crosscheck_failures: list[str] = []
        self._open: list[list[float]] = []

    def wrap(self, name: str, fn, after=None, before=None):
        """fn with a span `name`; after(args, result, token) sees each result."""
        span = self.spans[name]
        stack = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before() if before else None
            covered = [0.0]
            stack.append(covered)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                span.calls += 1
                span.busy += dt
                span.child += covered[0]
            if after:
                after(args, result, token)
            return result

        return wrapper

    def install(self, ls) -> None:
        from lambshift import kernel, oracles, shifts, specfun, su11

        def patch(name, sites, after=None, before=None):
            fn = getattr(*sites[0])
            wrapped = self.wrap(name, fn, after, before)
            for module, attr in sites:
                setattr(module, attr, wrapped)

        patch("shifts.lamb_shift", [(shifts, "lamb_shift"), (ls, "lamb_shift")],
              after=self._check_shift, before=self._shift_snapshot)
        patch("shifts.bethe_log", [(shifts, "bethe_log"), (ls, "bethe_log")])
        patch("shifts.decay_rates", [(shifts, "decay_rates"), (ls, "decay_rates")])
        patch("kernel.residue_coeffs", [(shifts, "residue_coeffs")],
              after=lambda args, r, _: self.keys["kernel.residue_coeffs"].add(args))
        patch("su11.rep_matrix_element", [(kernel, "rep_matrix_element")])
        patch("kernel.phi_kernel", [(shifts, "PhiKernel")])
        patch("kernel.tau_integral", [(kernel.PhiKernel, "tau_integral")],
              after=self._after_tau, before=lambda: self.spans["quadrature.inner"].calls)
        patch("quadrature.outer", [(shifts, "integrate_semi_infinite")],
              after=self._quad_counter("quadrature.outer"))
        patch("quadrature.outer", [(shifts, "integrate_panels")],
              after=self._quad_counter("quadrature.outer"))
        patch("quadrature.pv", [(shifts, "integrate_principal_value")],
              after=self._quad_counter("quadrature.pv"))
        patch("quadrature.inner", [(kernel, "integrate_semi_infinite")],
              after=self._quad_counter("quadrature.inner"))
        patch("specfun.hyp2f1", [(su11, "hyp2f1_terminating")])
        patch("specfun.exact_fallback", [(specfun, "_hyp2f1_exact")])
        patch("oracles.eps_real_axis", [(oracles, "shift_via_eps_real_axis")])
        patch("oracles.inner_grid", [(oracles, "_inner_t_integral_grid")])
        patch("oracles.inner_spectral", [(oracles, "_inner_t_integral_spectral")])

    def _after_tau(self, args, result, inner_calls_before) -> None:
        ker = args[0]
        self.keys["kernel.tau_integral"].add((ker.N, ker.L, ker.phi))
        # The closed branch integrates adaptively; the series branch sums.
        if self.spans["quadrature.inner"].calls > inner_calls_before:
            self.counts["kernel.tau_integral.closed_calls"] += 1
        else:
            self.counts["kernel.tau_integral.series_calls"] += 1
        self.counts["kernel.tau_integral.inner_evals"] += result[2]
        self.counts["kernel.tau_integral.nonconverged"] += not result[3]

    def _quad_counter(self, name):
        def after(args, result, _token) -> None:
            self.counts[f"{name}.evals"] += result.evaluations
            self.counts[f"{name}.subdivisions"] += result.subdivisions
            self.counts["quadrature.nonconverged"] += not result.converged

        return after

    def _shift_snapshot(self):
        return (
            self.spans["kernel.tau_integral"].calls,
            self.counts["quadrature.outer.evals"] + self.counts["quadrature.pv.evals"],
        )

    def _check_shift(self, args, result, before) -> None:
        """Counts seen by the wrappers must equal the result's own diagnostics."""
        tau_calls = self.spans["kernel.tau_integral"].calls - before[0]
        quad_evals = self.counts["quadrature.outer.evals"] + self.counts["quadrature.pv.evals"] - before[1]
        parts = result.diagnostics.parts
        label = f"lamb_shift N={result.state.N} L={result.state.L}"
        if tau_calls != parts["tau_phi_integral"].evaluations:
            self.crosscheck_failures.append(
                f"{label}: {tau_calls} tau_integral calls vs "
                f"{parts['tau_phi_integral'].evaluations} tau_phi_integral evaluations"
            )
        if quad_evals != result.diagnostics.evaluations:
            self.crosscheck_failures.append(
                f"{label}: outer+pv evals {quad_evals} vs diagnostics {result.diagnostics.evaluations}"
            )

    def layer_metrics(self) -> dict:
        """Counts (exact) and times (seconds) per layer, by metric name."""
        s = self.spans
        c = self.counts
        out = {}
        for name in (
            "shifts.lamb_shift", "shifts.bethe_log", "shifts.decay_rates",
            "kernel.residue_coeffs", "su11.rep_matrix_element", "kernel.phi_kernel",
            "kernel.tau_integral", "specfun.hyp2f1", "oracles.eps_real_axis",
            "oracles.inner_grid", "oracles.inner_spectral",
        ):
            out[f"{name}.calls"] = s[name].calls
            out[f"{name}.busy_s"] = s[name].busy
        for name in ("kernel.tau_integral", "kernel.residue_coeffs"):
            calls = s[name].calls
            out[f"{name}.unique_ratio"] = len(self.keys[name]) / calls if calls else 0.0
        for key in ("series_calls", "closed_calls", "inner_evals", "nonconverged"):
            out[f"kernel.tau_integral.{key}"] = c[f"kernel.tau_integral.{key}"]
        out["specfun.exact_fallbacks"] = s["specfun.exact_fallback"].calls
        out["specfun.exact_fallback_s"] = s["specfun.exact_fallback"].busy
        for name in ("quadrature.outer", "quadrature.pv", "quadrature.inner"):
            out[f"{name}.calls"] = s[name].calls
            out[f"{name}.evals"] = c[f"{name}.evals"]
            out[f"{name}.self_s"] = s[name].busy - s[name].child
        out["quadrature.outer.subdivisions"] = c["quadrature.outer.subdivisions"]
        out["quadrature.nonconverged"] = c["quadrature.nonconverged"]
        return out
