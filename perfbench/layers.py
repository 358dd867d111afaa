"""Which colide functions the traced run wraps, and the per-layer metrics built from their spans.

Each entry names the module whose global the caller resolves (the solver
calls ``h_ldet`` through ``colide.solver.h_ldet``, the grid resolves ``fit``
through ``colide.bench.fit``) and the span name ``<layer>.<function>``; the
layer is the module that defines the function. Names missing from the
package are skipped and listed, so the traced run survives refactors.
"""

import importlib

import numpy as np

from summary import median

TRACED = (
    ("colide.cli", "main", "cli.main"),
    ("colide.bench", "read_config", "bench.read_config"),
    ("colide.bench", "run_grid", "bench.run_grid"),
    # private, but it is the pool's unit of work: the only cell boundary
    ("colide.bench", "_run_cell", "bench.cell"),
    ("colide.bench", "aggregate", "bench.aggregate"),
    ("colide.bench", "emit_results", "bench.emit_results"),
    ("colide.bench", "generate_instance", "bench.generate_instance"),
    ("colide.bench", "fit", "solver.fit"),
    ("colide.bench", "evaluate", "metrics.evaluate"),
    ("colide.bench", "posthoc_noise", "metrics.posthoc_noise"),
    ("colide.bench", "stream", "rng.stream"),
    ("colide.bench", "sample_er_dag", "graphs.sample_dag"),
    ("colide.bench", "sample_sf_dag", "graphs.sample_dag"),
    ("colide.bench", "assign_edge_weights", "graphs.assign_edge_weights"),
    ("colide.bench", "draw_node_variances", "sem.draw_node_variances"),
    ("colide.bench", "sample_noise", "sem.sample_noise"),
    ("colide.bench", "simulate_sem", "sem.simulate_sem"),
    ("colide.solver", "fit", "solver.fit"),
    ("colide.solver", "adam_step", "solver.adam_step"),
    ("colide.solver", "domain_guard", "solver.domain_guard"),
    ("colide.solver", "threshold", "solver.threshold"),
    ("colide.solver", "sample_cov", "sem.sample_cov"),
    ("colide.solver", "h_ldet", "scores.h_ldet"),
    ("colide.solver", "grad_h_ldet", "scores.grad_h_ldet"),
    ("colide.solver", "grad_w_ev", "scores.grad_w"),
    ("colide.solver", "grad_w_nv", "scores.grad_w"),
    ("colide.solver", "grad_ls_baseline", "scores.grad_w"),
    ("colide.solver", "sigma_hat_ev", "scores.sigma_hat"),
    ("colide.solver", "sigma_hat_nv", "scores.sigma_hat"),
    ("colide.solver", "sigma_floor_ev", "scores.sigma_floor"),
    ("colide.solver", "sigma_floor_nv", "scores.sigma_floor"),
    ("colide.scores", "sample_cov", "sem.sample_cov"),
    ("colide.metrics", "evaluate", "metrics.evaluate"),
    ("colide.metrics", "shd", "metrics.shd"),
    ("colide.metrics", "shd_c", "metrics.shd_c"),
    ("colide.metrics", "sid", "metrics.sid"),
    ("colide.metrics", "valid_adjustment", "metrics.valid_adjustment"),
    ("colide.metrics", "d_separated", "metrics.d_separated"),
    ("colide.metrics", "tpr", "metrics.tpr"),
    ("colide.metrics", "fdr", "metrics.fdr"),
    ("colide.metrics", "noise_error", "metrics.noise_error"),
    ("colide.metrics", "cpdag_of", "graphs.cpdag_of"),
    ("colide.metrics", "is_dag", "graphs.is_dag"),
)

# name, unit, better; the traced run prints exactly these.
PER_LAYER = (
    ("scores.h_ldet.calls", "count", "lower"),
    ("scores.h_ldet.self_s", "s", "lower"),
    ("scores.grad_h_ldet.calls", "count", "lower"),
    ("scores.grad_h_ldet.self_s", "s", "lower"),
    ("scores.grad_w.calls", "count", "lower"),
    ("scores.grad_w.self_s", "s", "lower"),
    ("scores.sigma_hat.calls", "count", "lower"),
    ("scores.sigma_hat.self_s", "s", "lower"),
    ("scores.lu_per_iter", "LU/iter", "lower"),
    ("solver.fit.s", "s", "lower"),
    ("solver.iters", "count", "lower"),
    ("solver.iters.stage0", "count", "lower"),
    ("solver.iters.stage1", "count", "lower"),
    ("solver.iters.stage2", "count", "lower"),
    ("solver.iters.stage3", "count", "lower"),
    ("solver.stages_hit_cap", "count", "lower"),
    ("solver.us_per_iter", "us", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.adam_step.self_s", "s", "lower"),
    ("solver.domain_guard.calls", "count", "lower"),
    ("solver.domain_guard.self_s", "s", "lower"),
    ("solver.domain_guard.attempts_per_call", "ratio", "lower"),
    ("solver.stalls", "count", "lower"),
    ("metrics.evaluate.s", "s", "lower"),
    ("metrics.sid.self_s", "s", "lower"),
    ("metrics.valid_adjustment.calls", "count", "lower"),
    ("metrics.valid_adjustment.self_s", "s", "lower"),
    ("metrics.d_separated.calls", "count", "lower"),
    ("metrics.d_separated.self_s", "s", "lower"),
    ("metrics.shd_c.self_s", "s", "lower"),
    ("graphs.sample_dag.s", "s", "lower"),
    ("graphs.cpdag_of.calls", "count", "lower"),
    ("graphs.cpdag_of.self_s", "s", "lower"),
    ("sem.simulate_sem.s", "s", "lower"),
    ("sem.sample_noise.s", "s", "lower"),
    ("sem.sample_cov.calls", "count", "lower"),
    ("sem.sample_cov.s", "s", "lower"),
    ("rng.stream.calls", "count", "lower"),
    ("bench.generate_instance.s", "s", "lower"),
    ("bench.run_grid.s", "s", "lower"),
    ("bench.cell_s_p50", "s", "lower"),
    ("bench.pool_efficiency", "ratio", "higher"),
    ("bench.emit_results.s", "s", "lower"),
    ("bench.cells_failed", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def install(tracer) -> list:
    """Wrap every TRACED name that exists; returns the 'module.attr' names not found."""
    missing = []
    for module_name, attr, span_name in TRACED:
        module = importlib.import_module(module_name)
        if callable(getattr(module, attr, None)):
            tracer.wrap(module, attr, span_name)
        else:
            missing.append(f"{module_name}.{attr}")
    return missing


def layer_metrics(names, sp, self_s, stage_iters, stage_caps, cells_failed, jobs,
                  overhead_s) -> dict:
    """Per-layer metrics from merged spans and the fits' per-stage iteration counts.

    stage_iters holds one per-stage iteration list per fit in the traced round.
    """
    ids = {n: i for i, n in enumerate(names)}
    dur = sp.duration

    def mask(name):
        return sp.name_id == ids.get(name, -1)

    def calls(name):
        return int(np.count_nonzero(mask(name)))

    def total(name):
        return float(dur[mask(name)].sum())

    def self_total(name):
        return float(self_s[mask(name)].sum())

    iters = sum(sum(stages) for stages in stage_iters)
    per_stage = [sum(stages[k] for stages in stage_iters if len(stages) > k)
                 for k in range(4)]
    hit_cap = sum(1 for stages in stage_iters
                  for it, cap in zip(stages, stage_caps) if it >= cap)

    # h_ldet attempts made by the domain guard; a stall is a guard call whose
    # last attempt still left the domain
    guard = mask("solver.domain_guard")
    h_in_guard = np.flatnonzero(mask("scores.h_ldet") & (sp.parent >= 0))
    h_in_guard = h_in_guard[guard[sp.parent[h_in_guard]]]
    order = h_in_guard[np.lexsort((sp.start[h_in_guard], sp.parent[h_in_guard]))]
    last = order[np.r_[sp.parent[order][1:] != sp.parent[order][:-1], True]] if len(order) else order
    stalls = int(np.count_nonzero(sp.raised[last]))

    cells = dur[mask("bench.cell")]
    grid_s = total("bench.run_grid")
    guard_calls = calls("solver.domain_guard")
    fit_s = total("solver.fit")

    values = {
        "scores.h_ldet.calls": calls("scores.h_ldet"),
        "scores.h_ldet.self_s": self_total("scores.h_ldet"),
        "scores.grad_h_ldet.calls": calls("scores.grad_h_ldet"),
        "scores.grad_h_ldet.self_s": self_total("scores.grad_h_ldet"),
        "scores.grad_w.calls": calls("scores.grad_w"),
        "scores.grad_w.self_s": self_total("scores.grad_w"),
        "scores.sigma_hat.calls": calls("scores.sigma_hat"),
        "scores.sigma_hat.self_s": self_total("scores.sigma_hat"),
        "scores.lu_per_iter": ((calls("scores.h_ldet") + 2 * calls("scores.grad_h_ldet")) / iters
                               if iters else 0.0),
        "solver.fit.s": fit_s,
        "solver.iters": iters,
        **{f"solver.iters.stage{k}": per_stage[k] for k in range(4)},
        "solver.stages_hit_cap": hit_cap,
        "solver.us_per_iter": fit_s / iters * 1e6 if iters else 0.0,
        "solver.self_s": self_total("solver.fit"),
        "solver.adam_step.self_s": self_total("solver.adam_step"),
        "solver.domain_guard.calls": guard_calls,
        "solver.domain_guard.self_s": self_total("solver.domain_guard"),
        "solver.domain_guard.attempts_per_call": len(h_in_guard) / guard_calls if guard_calls else 0.0,
        "solver.stalls": stalls,
        "metrics.evaluate.s": total("metrics.evaluate"),
        "metrics.sid.self_s": self_total("metrics.sid"),
        "metrics.valid_adjustment.calls": calls("metrics.valid_adjustment"),
        "metrics.valid_adjustment.self_s": self_total("metrics.valid_adjustment"),
        "metrics.d_separated.calls": calls("metrics.d_separated"),
        "metrics.d_separated.self_s": self_total("metrics.d_separated"),
        "metrics.shd_c.self_s": self_total("metrics.shd_c"),
        "graphs.sample_dag.s": total("graphs.sample_dag"),
        "graphs.cpdag_of.calls": calls("graphs.cpdag_of"),
        "graphs.cpdag_of.self_s": self_total("graphs.cpdag_of"),
        "sem.simulate_sem.s": total("sem.simulate_sem"),
        "sem.sample_noise.s": total("sem.sample_noise"),
        "sem.sample_cov.calls": calls("sem.sample_cov"),
        "sem.sample_cov.s": total("sem.sample_cov"),
        "rng.stream.calls": calls("rng.stream"),
        "bench.generate_instance.s": total("bench.generate_instance"),
        "bench.run_grid.s": grid_s,
        "bench.cell_s_p50": median(cells.tolist()) if len(cells) else 0.0,
        "bench.pool_efficiency": float(cells.sum()) / (jobs * grid_s) if grid_s else 0.0,
        "bench.emit_results.s": total("bench.emit_results"),
        "bench.cells_failed": cells_failed,
        "cli.self_s": self_total("cli.main"),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(sp),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
