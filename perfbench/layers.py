"""Per-layer metrics from the spans of one traced sequence, and the computed
operation counts of the network.

The operation counts are derived from the layer shapes, not measured:
matmul flops are 2 * fan_in * fan_out per row, elementwise flops count one
per arithmetic op or transcendental of the current formulas, and bytes moved
assume each parameter is read once per call (and each gradient written
once) while every activation array is written once and read once.
"""

from tracer import root_of, self_times
from workloads import nfe_problem

INTEGRATORS = ("ode.integrate_fixed", "ode.integrate_dopri5")
# Integrations on the learned field; the analytic studies are reported as
# analysis.studies instead, so their cheap NFE do not dilute ode.* numbers.
LEARNED_FIELD_ROOTS = ("cfm.sample", "analysis.spectrum")
STUDIES = ("analysis.convergence_study", "analysis.dopri5_tolerance_study",
           "analysis.stability_region_grid")

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "nn.forward.calls": ("count", "lower"),
    "nn.forward.rows": ("count", "lower"),
    "nn.forward.self_s": ("s", "lower"),
    "nn.forward.us_per_row": ("us", "lower"),
    "nn.forward.gflop": ("GFLOP", "lower"),
    "nn.forward.gflop_per_s": ("GFLOP/s", "higher"),
    "nn.check_finite.calls": ("count", "lower"),
    "nn.check_finite.self_s": ("s", "lower"),
    "nn.loss_and_grad.calls": ("count", "lower"),
    "nn.loss_and_grad.self_s": ("s", "lower"),
    "nn.loss_and_grad.gflop_per_s": ("GFLOP/s", "higher"),
    "nn.adam_update.calls": ("count", "lower"),
    "nn.adam_update.self_s": ("s", "lower"),
    "ode.nfe": ("count", "lower"),
    "ode.attempts": ("count", "lower"),
    "ode.rejected": ("count", "lower"),
    "ode.accept_ratio": ("ratio", "higher"),
    "ode.self_s": ("s", "lower"),
    "ode.overhead_us_per_nfe": ("us", "lower"),
    "cfm.train.self_s": ("s", "lower"),
    "cfm.save_model.s": ("s", "lower"),
    "cfm.load_model.s": ("s", "lower"),
    "cfm.model_bytes": ("B", "lower"),
    "cfm.sample.self_s": ("s", "lower"),
    "data.generate.calls": ("count", "lower"),
    "data.generate.s": ("s", "lower"),
    "numeric.gaussian_sample.s": ("s", "lower"),
    "numeric.eig2x2.calls": ("count", "lower"),
    "numeric.eig2x2.self_s": ("s", "lower"),
    "analysis.swd.s": ("s", "lower"),
    "analysis.spectrum.self_s": ("s", "lower"),
    "analysis.studies.s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def op_counts(cfg, rows=1):
    """Computed flops and bytes of nn.forward and nn.loss_and_grad for a
    batch of ``rows`` rows of the network ``cfg`` (an MlpConfig)."""
    d, h, e, b = cfg.data_dim, cfg.hidden, cfg.time_embed_dim, cfg.n_blocks
    params = (d + e) * h + h + b * (2 * h * h + 4 * h) + h * d + d
    fwd_matmul = 2 * ((d + e) * h + b * 2 * h * h + h * d)
    # time embedding 3e/2; per block: two biases, LayerNorm 8h, SiLU 4h, residual h
    fwd_elementwise = 3 * e // 2 + h + b * 15 * h + d
    bwd_matmul = 2 * (2 * h * d + b * 4 * h * h + (d + e) * h)
    # per block: SiLU grad 5h, LayerNorm grad 11h, bias grads 2h, residual h; loss 3d
    bwd_elementwise = b * 19 * h + h + 3 * d
    fwd_flops = rows * (fwd_matmul + fwd_elementwise)
    grad_flops = fwd_flops + rows * (bwd_matmul + bwd_elementwise)
    # activations per block: a, g, s and the new h, each written and read once
    fwd_bytes = 8 * (params + rows * (2 * d + e + 2 * h + b * 8 * h))
    # backward re-reads the cached activations and writes/reads ds, da, dh
    grad_bytes = fwd_bytes + 8 * (2 * params + rows * (b * 10 * h + 2 * h))
    return {
        "label": "computed",
        "rows": rows,
        "parameters": params,
        "forward_flop": fwd_flops,
        "forward_bytes": fwd_bytes,
        "loss_and_grad_flop": grad_flops,
        "loss_and_grad_bytes": grad_bytes,
    }


def layer_metrics(spans, run_id, cfg, model_bytes):
    """Per-layer numbers of one traced sequence (spans whose run id matches)."""
    selfs = self_times(spans)
    calls, total, own, rows = {}, {}, {}, {}
    nfe = attempts = rejected = 0
    ode_self = roots_s = 0.0
    for i, span in enumerate(spans):
        if span.run_id != run_id:
            continue
        name = span.name
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + span.duration
        own[name] = own.get(name, 0.0) + selfs[i]
        attrs = span.attrs or {}
        rows[name] = rows.get(name, 0) + attrs.get("rows", 0)
        if span.parent < 0:
            roots_s += span.duration
        if name in INTEGRATORS and spans[root_of(spans, i)].name in LEARNED_FIELD_ROOTS:
            nfe += attrs["nfe"]
            ode_self += selfs[i]
            if name == "ode.integrate_dopri5":
                attempts += attrs["attempts"]
                rejected += attrs["rejected"]

    def ratio(num, den):
        return num / den if den else 0.0

    fwd_rows = rows.get("nn.forward", 0)
    fwd_self = own.get("nn.forward", 0.0)
    fwd_gflop = op_counts(cfg, fwd_rows)["forward_flop"] / 1e9
    grad_gflop = op_counts(cfg, rows.get("nn.loss_and_grad", 0))["loss_and_grad_flop"] / 1e9
    return {
        "nn.forward.calls": calls.get("nn.forward", 0),
        "nn.forward.rows": fwd_rows,
        "nn.forward.self_s": fwd_self,
        "nn.forward.us_per_row": ratio(fwd_self * 1e6, fwd_rows),
        "nn.forward.gflop": fwd_gflop,
        "nn.forward.gflop_per_s": ratio(fwd_gflop, fwd_self),
        "nn.check_finite.calls": calls.get("nn.check_finite", 0),
        "nn.check_finite.self_s": own.get("nn.check_finite", 0.0),
        "nn.loss_and_grad.calls": calls.get("nn.loss_and_grad", 0),
        "nn.loss_and_grad.self_s": own.get("nn.loss_and_grad", 0.0),
        "nn.loss_and_grad.gflop_per_s": ratio(grad_gflop, own.get("nn.loss_and_grad", 0.0)),
        "nn.adam_update.calls": calls.get("nn.adam_update", 0),
        "nn.adam_update.self_s": own.get("nn.adam_update", 0.0),
        "ode.nfe": nfe,
        "ode.attempts": attempts,
        "ode.rejected": rejected,
        "ode.accept_ratio": ratio(attempts - rejected, attempts),
        "ode.self_s": ode_self,
        "ode.overhead_us_per_nfe": ratio(ode_self * 1e6, nfe),
        "cfm.train.self_s": own.get("cfm.train", 0.0),
        "cfm.save_model.s": total.get("cfm.save_model", 0.0),
        "cfm.load_model.s": total.get("cfm.load_model", 0.0),
        "cfm.model_bytes": model_bytes,
        "cfm.sample.self_s": own.get("cfm.sample", 0.0),
        "data.generate.calls": calls.get("data.generate", 0),
        "data.generate.s": total.get("data.generate", 0.0),
        "numeric.gaussian_sample.s": total.get("numeric.gaussian_sample", 0.0),
        "numeric.eig2x2.calls": calls.get("numeric.eig2x2", 0) + calls.get("numeric.cond2x2", 0),
        "numeric.eig2x2.self_s": own.get("numeric.eig2x2", 0.0) + own.get("numeric.cond2x2", 0.0),
        "analysis.swd.s": total.get("analysis.swd", 0.0),
        "analysis.spectrum.self_s": own.get("analysis.spectrum", 0.0),
        "analysis.studies.s": sum(total.get(name, 0.0) for name in STUDIES),
        "roots_s": roots_s,
    }


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def observe(name, args, kwargs, result):
    """Span attributes: rows of network calls, NFE and step counts of
    integrator calls with the outcome of the NFE identity check."""
    if name in ("nn.forward", "nn.loss_and_grad"):
        return {"rows": len(args[1])}
    if name == "ode.integrate_fixed":
        trace = result[1]
        n_steps = _arg(args, kwargs, 4, "n_steps")
        method = _arg(args, kwargs, 5, "method")
        return {"nfe": trace.nfe_total, "attempts": len(trace.steps), "rejected": 0,
                "nfe_problem": nfe_problem(trace, method, n_steps=n_steps)}
    if name == "ode.integrate_dopri5":
        trace = result[1]
        cfg = _arg(args, kwargs, 4, "cfg")
        return {"nfe": trace.nfe_total, "attempts": len(trace.steps),
                "rejected": trace.n_rejected,
                "nfe_problem": nfe_problem(trace, "dopri5", h_init=cfg.h_init)}
    return None
