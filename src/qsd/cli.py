"""Command-line interface.

Subcommands: bound, symmetric, psk, optimize, simulate, dilation, sweep.
All results go to stdout as JSON (or CSV for sweeps) with fixed float
formatting, so identical arguments produce byte-identical output.  Exit
codes: 0 success, 2 usage or input error, 3 I/O error, 4 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import closed_form, coupling as coupling_mod, optimizer, simulate as simulate_mod
from ._serialize import CSV_DIGITS, dumps, fmt_float
from .ensembles import Ensemble, ensemble_from_json, gram_binary, gram_psk, gram_symmetric
from .errors import NoSolutionError, QsdError, ValidationError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

SWEEP_HEADER = "family,n,axis,value,p_err_closed,p_err_srm,p_err_opt"
SWEEP_OUTPUTS = ("closed_form", "srm_oracle", "optimizer")


def _load_ensemble(text: str) -> tuple[Ensemble, dict]:
    """Parse an --ensemble argument: inline JSON or a path to a JSON file."""
    raw = text.strip()
    if not raw.startswith("{"):
        with open(raw, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed ensemble JSON: {exc}") from exc
    return ensemble_from_json(obj), obj


def _solver_config(args) -> optimizer.SolverConfig:
    values = asdict(optimizer.SolverConfig())
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"malformed solver config JSON: {exc}") from exc
        unknown = set(overrides) - set(values)
        if unknown:
            raise ValidationError(f"unknown solver config keys: {sorted(unknown)}")
        values.update(overrides)
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values["max_iters"] = int(values["max_iters"])
    values["restarts"] = int(values["restarts"])
    values["seed"] = int(values["seed"])
    return optimizer.SolverConfig(**values)


def _psk_solve(n: int, alpha_sq: float):
    if n == 3:
        return optimizer.psk3_solve(alpha_sq)
    if n == 4:
        return optimizer.psk4_solve(alpha_sq)
    raise ValidationError("structured PSK solvers exist only for n in {3, 4}")


def _optimal_coupling(ensemble: Ensemble, raw: dict) -> coupling_mod.CouplingMatrix:
    """Best-known coupling for an ensemble given on the command line."""
    if ensemble.n == 2:
        return coupling_mod.binary_optimal_coupling(
            float(ensemble.priors[0]), complex(ensemble.gram[0, 1])
        )
    if raw.get("kind") == "symmetric":
        return coupling_mod.symmetric_optimal_coupling(int(raw["n"]), float(raw["s"]))
    if raw.get("kind") == "psk" and int(raw["n"]) in (3, 4):
        n, alpha_sq = int(raw["n"]), float(raw["alpha_sq"])
        params, _ = _psk_solve(n, alpha_sq)
        return optimizer.psk_coupling(n, alpha_sq, params)
    return optimizer.optimize_general(ensemble).coupling


def _coupling_arg(source: str, ensemble: Ensemble, raw: dict) -> coupling_mod.CouplingMatrix:
    """Resolve a --coupling argument: "optimal" or a path to a JSON file
    holding a coupling that must be feasible for the ensemble."""
    if source == "optimal":
        return _optimal_coupling(ensemble, raw)
    with open(source, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed coupling JSON: {exc}") from exc
    cpl = coupling_mod.coupling_from_json(obj, ensemble)
    residual = coupling_mod.feasibility_residual(cpl)
    if residual > coupling_mod.FEASIBILITY_TOL:
        raise ValidationError(
            f"coupling is infeasible for this ensemble (residual {residual:.3e})"
        )
    return cpl


def _params_obj(params: optimizer.PskParams) -> dict:
    return {
        "p": params.p,
        "r": params.r,
        "r_prime": params.r_prime,
        "theta1": params.theta1,
        "theta2": params.theta2,
        "u": params.u,
        "v": params.v,
    }


def cmd_bound(args) -> int:
    overlap = complex(args.overlap_re, args.overlap_im)
    sol = closed_form.binary_individual_errors(args.eta1, overlap)
    print(dumps({"p_error": sol.p_error, "r1": sol.r1, "r2": sol.r2}))
    return EXIT_OK


def cmd_symmetric(args) -> int:
    p_error = closed_form.symmetric_min_error(args.n, args.s)
    p_plus, p_minus = closed_form.symmetric_p_quadratic(args.n, args.s)
    payload = {
        "n": args.n,
        "s": args.s,
        "p_error": p_error,
        "p": p_plus,
        "r": (1.0 - p_plus) / (args.n - 1),
        "p_minus": p_minus,
    }
    if args.emit_coupling:
        payload["coupling"] = coupling_mod.coupling_to_json(
            coupling_mod.symmetric_optimal_coupling(args.n, args.s)
        )
    print(dumps(payload))
    return EXIT_OK


def cmd_psk(args) -> int:
    params, p_error = _psk_solve(args.n, args.alpha_sq)
    payload = {
        "n": args.n,
        "alpha_sq": args.alpha_sq,
        "p_error": p_error,
        "params": _params_obj(params),
    }
    if args.emit_coupling:
        payload["coupling"] = coupling_mod.coupling_to_json(
            optimizer.psk_coupling(args.n, args.alpha_sq, params)
        )
    print(dumps(payload))
    return EXIT_OK


def cmd_optimize(args) -> int:
    config = _solver_config(args)
    if args.show_config:
        print(dumps(asdict(config)))
        return EXIT_OK
    if args.ensemble is None:
        raise ValidationError("--ensemble is required (unless using --show-config)")
    ensemble, _ = _load_ensemble(args.ensemble)
    result = optimizer.optimize_general(ensemble, config)
    payload = {
        "p_error": result.p_error,
        "converged": result.converged,
        "certified": result.certified,
        "dual_gap": result.dual_gap,
        "restarts_used": result.restarts_used,
        "objective_trace": list(result.objective_trace),
        "feasibility_residual": coupling_mod.feasibility_residual(result.coupling),
    }
    if args.emit_coupling:
        payload["coupling"] = coupling_mod.coupling_to_json(result.coupling)
    print(dumps(payload))
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def cmd_simulate(args) -> int:
    ensemble, raw = _load_ensemble(args.ensemble)
    cpl = _coupling_arg(args.coupling, ensemble, raw)
    report = simulate_mod.run_monte_carlo(cpl, args.shots, args.seed)
    if args.counts_csv:
        lines = ["input,outcome,count"]
        for j in range(ensemble.n):
            for k in range(ensemble.n):
                lines.append(f"{j},{k},{int(report.counts[j, k])}")
        with open(args.counts_csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    print(
        dumps(
            {
                "shots": report.shots,
                "seed": report.seed,
                "counts": report.counts,
                "empirical_error": report.empirical_error,
                "analytic_error": report.analytic_error,
                "std_error": report.std_error,
            }
        )
    )
    return EXIT_OK


def cmd_dilation(args) -> int:
    ensemble, raw = _load_ensemble(args.ensemble)
    cpl = _coupling_arg(args.coupling, ensemble, raw)
    dilation = coupling_mod.build_dilation(cpl)
    u = dilation.joint_unitary
    coords = dilation.state_coords
    checks = coupling_mod.dilation_residuals(dilation)
    residuals = {
        "unitary_residual": float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))),
        "map_residual": checks["map_residual"],
        "gram_residual": float(np.max(np.abs(coords @ coords.conj().T - ensemble.gram))),
        "outcome_prob_residual": checks["outcome_prob_residual"],
    }
    ok = all(value <= 1e-10 for value in residuals.values())
    payload = {
        "system_dim": dilation.system_dim,
        "ancilla_dim": dilation.ancilla_dim,
        **residuals,
        "ok": ok,
    }
    print(dumps(payload))
    if args.check and not ok:
        return EXIT_NUMERICAL
    return EXIT_OK


def _sweep_outputs(text: str) -> set:
    wanted = {token.strip() for token in text.split(",") if token.strip()}
    unknown = wanted - set(SWEEP_OUTPUTS)
    if unknown:
        raise ValidationError(f"unknown sweep outputs: {sorted(unknown)}")
    if not wanted:
        raise ValidationError("at least one sweep output is required")
    return wanted


def _sweep_cell(value: float | None) -> str:
    return "" if value is None else fmt_float(value, CSV_DIGITS)


def _sweep_row(family, n, axis, value, outputs, fixed_s, fixed_eta1) -> str:
    closed = srm = opt = None
    if family == "symmetric":
        if "closed_form" in outputs:
            closed = closed_form.symmetric_min_error(n, value)
        if "srm_oracle" in outputs:
            srm = closed_form.srm_error_general(gram_symmetric(n, value))
        if "optimizer" in outputs:
            opt = optimizer.optimize_general(gram_symmetric(n, value)).p_error
    elif family == "psk":
        if "srm_oracle" in outputs:
            srm = closed_form.srm_error_circulant(gram_psk(n, value))
        if "optimizer" in outputs:
            opt = _psk_solve(n, value)[1]
    else:  # binary; n is always 2
        eta1, s = (value, fixed_s) if axis == "eta1" else (fixed_eta1, value)
        if "closed_form" in outputs:
            closed = closed_form.helstrom_bound(eta1, s)
        if "srm_oracle" in outputs:
            ens = gram_binary(s, eta1)
            srm = closed_form.srm_error_general(ens) if ens.equal_priors else None
        if "optimizer" in outputs:
            opt = optimizer.optimize_general(gram_binary(s, eta1)).p_error
    cells = [
        family,
        str(n),
        axis,
        fmt_float(value, CSV_DIGITS),
        _sweep_cell(closed),
        _sweep_cell(srm),
        _sweep_cell(opt),
    ]
    return ",".join(cells)


def cmd_sweep(args) -> int:
    outputs = _sweep_outputs(args.outputs)
    if args.steps < 2:
        raise ValidationError("steps must be at least 2")
    if not args.min < args.max:
        raise ValidationError("min must be strictly less than max")

    axis_by_family = {"symmetric": {"s"}, "psk": {"alpha_sq"}, "binary": {"s", "eta1"}}
    if args.axis not in axis_by_family[args.family]:
        raise ValidationError(f"axis {args.axis!r} is invalid for family {args.family!r}")

    if args.family == "binary":
        n_list = [2]
    else:
        if not args.n:
            raise ValidationError(f"--n is required for family {args.family!r}")
        n_list = [int(tok) for tok in args.n.split(",")]
        if args.family == "psk" and "optimizer" in outputs and any(
            n not in (3, 4) for n in n_list
        ):
            raise ValidationError("the PSK optimizer column requires n in {3, 4}")

    values = np.linspace(args.min, args.max, args.steps)
    lines = [SWEEP_HEADER]
    for n in n_list:
        for value in values:
            lines.append(
                _sweep_row(
                    args.family, n, args.axis, float(value), outputs, args.s, args.eta1
                )
            )
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsd",
        description="Minimum-error discrimination of pure-state ensembles "
        "via nondestructive ancilla couplings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="closed-form binary minimum error")
    p.add_argument("--eta1", type=float, required=True)
    p.add_argument("--overlap-re", type=float, required=True)
    p.add_argument("--overlap-im", type=float, default=0.0)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("symmetric", help="closed form for equal real overlaps")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--emit-coupling", action="store_true")
    p.set_defaults(func=cmd_symmetric)

    p = sub.add_parser("psk", help="optimal circulant coupling for PSK coherent sets")
    p.add_argument("--n", type=int, required=True, choices=(3, 4))
    p.add_argument("--alpha-sq", type=float, required=True)
    p.add_argument("--emit-coupling", action="store_true")
    p.set_defaults(func=cmd_psk)

    p = sub.add_parser("optimize", help="gradient ascent over feasible couplings")
    p.add_argument("--ensemble")
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--grad-tol", type=float, dest="grad_tol")
    p.add_argument("--rank-tol", type=float, dest="rank_tol")
    p.add_argument("--config", help="JSON file with solver config overrides")
    p.add_argument("--show-config", action="store_true")
    p.add_argument("--emit-coupling", action="store_true")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="seeded Monte Carlo of the protocol")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coupling", default="optimal", help='"optimal" or a JSON file')
    p.add_argument("--counts-csv", dest="counts_csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dilation", help="build the joint unitary and verify it")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--coupling", default="optimal", help='"optimal" or a JSON file')
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_dilation)

    p = sub.add_parser("sweep", help="CSV error curves over a parameter axis")
    p.add_argument("--family", required=True, choices=("symmetric", "psk", "binary"))
    p.add_argument("--n", help="comma-separated state counts (not used for binary)")
    p.add_argument("--axis", required=True, choices=("s", "alpha_sq", "eta1"))
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--outputs", default="closed_form,srm_oracle")
    p.add_argument("--s", type=float, default=0.0, help="fixed overlap for binary eta1 sweeps")
    p.add_argument("--eta1", type=float, default=0.5, help="fixed prior for binary s sweeps")
    p.add_argument("--out", default="-", help="output CSV path, - for stdout")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoSolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QsdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
