"""Per-layer tracing of fss from outside the package.

Each traced function is wrapped once, and the wrapper is bound in place of
the original under every name that holds it in the loaded ``fss`` modules.
``from .x import y`` copies a binding into the importing module, so
rebinding only the defining module would miss most calls; binding the
wrapper in each caller's namespace sees them all without editing the
package.  Generators are timed at the function that builds each item
(``trial_fields`` at ``trial_field``).

A span is ``[name, parent index, start, end, info]``.  Spans stay in
memory and are aggregated into per-layer metrics by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import sys
import time

# (defining module, function) pairs; the span name is "module.function".
TARGETS = (
    ("config", "load_config"),
    ("grid", "build_kernel"),
    ("operators", "energy_and_gradient"),
    ("operators", "seminorm_p"),
    ("operators", "pairing"),
    ("operators", "apply_operator"),
    ("sampling", "trial_field"),
    ("solver", "solve_nonsingular"),
    ("solver", "solve_barrier"),
    ("solver", "embedding_constant"),
    ("chain", "run_chain"),
    ("chain", "solve_level"),
    ("chain", "fixed_point_step"),
    ("chain", "weak_residual"),
    ("constants", "lambda_alpha"),
    ("constants", "solution_from_field"),
    ("constants", "mu_from_field"),
    ("constants", "sweep_alpha"),
    ("constants", "verify_sobolev"),
    ("constants", "verify_log_sobolev"),
    ("lemmas", "check_vector_inequalities"),
    ("lemmas", "check_strong_monotonicity"),
    ("lemmas", "check_q_identity"),
    ("lemmas", "check_stampacchia"),
    ("solution_io", "save_solution"),
    ("solution_io", "load_solution"),
    ("solution_io", "write_sweep_csv"),
    ("solution_io", "write_mu_report"),
)


def _array_megabytes(obj) -> float:
    """Computed size of the arrays an object holds (not measured memory)."""
    return sum(getattr(v, "nbytes", 0) for v in vars(obj).values()) / 1e6


# Extra information recorded from a traced function's return value.
_INFO = {"grid.build_kernel": _array_megabytes}


class Tracer:
    """Wraps the TARGETS in the loaded fss modules and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack = [-1]

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "fss" or name.startswith("fss.")]
        for home, func in TARGETS:
            module = sys.modules.get(f"fss.{home}")
            original = getattr(module, func, None)
            if original is None:
                self.missing.append(f"{home}.{func}")
                continue
            wrapper = self._wrap(original, f"{home}.{func}")
            for mod in modules:
                names = [k for k, v in vars(mod).items() if v is original]
                for name in names:
                    setattr(mod, name, wrapper)

    def reset(self):
        self.spans.clear()

    def _wrap(self, fn, name):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(result)
            return result

        return traced


def span_table(spans) -> dict:
    """Calls, total time and self time per span name."""
    table = {}
    for name, _, start, end, _ in spans:
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            table[spans[parent][0]][2] -= end - start
    return {name: dict(zip(("calls", "total_s", "self_s"), row))
            for name, row in sorted(table.items())}


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one traced pipeline run."""
    names = [s[0] for s in spans]
    parents = [s[1] for s in spans]
    dur = [s[3] - s[2] for s in spans]

    def parent_name(i):
        return names[parents[i]] if parents[i] >= 0 else None

    def under(i, targets):
        i = parents[i]
        while i >= 0:
            if names[i] in targets:
                return True
            i = parents[i]
        return False

    def select(*targets, outermost=False):
        return [i for i, n in enumerate(names)
                if n in targets and not (outermost and under(i, targets))]

    def total(indices):
        return sum(dur[i] for i in indices)

    m = {}
    m["config.load_s"] = total(select("config.load_config"))

    kernels = select("grid.build_kernel")
    m["grid.build_kernel_s"] = total(kernels)
    m["grid.kernel_mb"] = max((spans[i][4] for i in kernels), default=0.0)

    for short, name in (("energy_grad", "operators.energy_and_gradient"),
                        ("seminorm", "operators.seminorm_p"),
                        ("pairing", "operators.pairing"),
                        ("apply", "operators.apply_operator")):
        calls = select(name)
        m[f"operators.{short}_calls"] = len(calls)
        m[f"operators.{short}_s"] = total(calls)
    evals = select("operators.energy_and_gradient")
    m["operators.energy_grad_ms"] = (1e3 * m["operators.energy_grad_s"]
                                     / max(len(evals), 1))

    solves = select("solver.solve_nonsingular")
    m["solver.solves"] = len(solves)
    m["solver.solve_s"] = total(solves)
    m["solver.self_s"] = span_table(spans).get(
        "solver.solve_nonsingular", {}).get("self_s", 0.0)
    solve_evals = [i for i in evals
                   if parent_name(i) == "solver.solve_nonsingular"]
    m["solver.evals_per_solve"] = len(solve_evals) / max(len(solves), 1)
    embedding = ("solver.embedding_constant",)
    m["solver.embedding_s"] = total(select(*embedding, outermost=True))
    m["solver.embedding_evals"] = sum(under(i, embedding) for i in evals)

    levels = select("chain.solve_level")
    m["chain.levels"] = len(levels)
    m["chain.sweeps"] = len(select("chain.fixed_point_step"))
    m["chain.sweeps_per_level"] = m["chain.sweeps"] / max(len(levels), 1)
    m["chain.level_solve_s"] = total(levels)
    # run_chain calls solve_nonsingular itself only in the polish.
    polish = [i for i in solves if parent_name(i) == "chain.run_chain"]
    m["chain.polish_sweeps"] = len(polish)
    m["chain.polish_s"] = total(polish)
    m["chain.residual_s"] = total(
        i for i, n in enumerate(names)
        if n.startswith(("operators.", "sampling."))
        and parent_name(i) == "chain.run_chain")

    m["constants.sweep_points"] = sum(
        under(i, ("constants.sweep_alpha",)) for i in select("chain.run_chain"))
    m["constants.constant_s"] = total(select(
        "constants.lambda_alpha", "constants.solution_from_field",
        "constants.mu_from_field", outermost=True))
    certify = ("constants.verify_sobolev", "constants.verify_log_sobolev")
    trials = select("sampling.trial_field")
    m["constants.certify_trials"] = sum(under(i, certify) for i in trials)
    m["constants.certify_s"] = total(select(*certify))
    m["constants.weak_residual_s"] = total(
        select("chain.weak_residual", outermost=True))

    m["sampling.trial_fields"] = len(trials)
    m["sampling.trial_s"] = total(trials)

    m["lemmas.check_s"] = total(i for i, n in enumerate(names)
                                if n.startswith("lemmas."))
    m["solution_io.save_s"] = total(select(
        "solution_io.save_solution", "solution_io.write_sweep_csv",
        "solution_io.write_mu_report"))
    m["solution_io.load_s"] = total(select("solution_io.load_solution"))
    return m


def unit_of(metric: str) -> str:
    """Unit of a layer metric, read from its name's suffix."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_per_solve"):
        return "evals/solve"
    if metric.endswith("_per_level"):
        return "sweeps/level"
    return "count"
