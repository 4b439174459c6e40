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
from ._serialize import CSV_DIGITS, complex_obj, dumps, fmt_float
from .ensembles import (
    Ensemble,
    ensemble_from_json,
    gram_binary,
    gram_psk,
    gram_symmetric,
    is_circulant,
)
from .errors import NoSolutionError, QsdError, ValidationError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

SWEEP_HEADER = "family,n,axis,value,p_err_closed,p_err_srm,p_err_opt"
SWEEP_OUTPUTS = ("closed_form", "srm_oracle", "optimizer")
# grid points per state count in one sweep, checked before the grid is built
MAX_SWEEP_STEPS = 10**6


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_json(path: str, what: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed {what} JSON: {exc}") from exc


def _load_ensemble(text: str) -> Ensemble:
    """Parse an --ensemble argument: inline JSON or a path to a JSON file."""
    raw = text.strip()
    return ensemble_from_json(raw if raw.startswith("{") else _read_text(raw))


def _solver_config(args) -> optimizer.SolverConfig:
    values = asdict(optimizer.SolverConfig())
    config_path = getattr(args, "config", None)
    if config_path:
        overrides = _read_json(config_path, "solver config")
        if not isinstance(overrides, dict):
            raise ValidationError("solver config JSON must be an object")
        unknown = set(overrides) - set(values)
        if unknown:
            raise ValidationError(f"unknown solver config keys: {sorted(unknown)}")
        values.update(overrides)
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        for key, kind in (("max_iters", int), ("rank_tol", float)):
            values[key] = kind(values[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"solver config {key} must be a number: {exc}") from exc
    return optimizer.SolverConfig(**values)


def _optimal_coupling(ensemble: Ensemble) -> coupling_mod.CouplingMatrix:
    """Best-known coupling for an ensemble: the closed form of the first
    structure it has (two states; equal priors with equal real overlaps;
    equal priors with a circulant Gram matrix), else the weight solve of
    :func:`~qsd.optimizer.optimize_general`.

    The weight solve also takes over when a closed form refuses the ensemble:
    ``Ensemble`` admits Gram matrices up to its own tolerances (eigenvalues
    down to -1e-10, circulant to 1e-10), beyond the closed forms' tighter ones.
    """
    n, gram = ensemble.n, ensemble.gram
    try:
        if n == 2:
            return coupling_mod.binary_optimal_coupling(
                float(ensemble.priors[0]), complex(gram[0, 1])
            )
        if ensemble.equal_priors:
            off = gram[~np.eye(n, dtype=bool)]
            if n > 2 and np.all(off == off[0]) and off[0].imag == 0.0:
                return coupling_mod.symmetric_optimal_coupling(n, off[0].real)
            if is_circulant(gram):
                return coupling_mod.circulant_optimal_coupling(ensemble)
    except QsdError:
        pass
    return optimizer.optimize_general(ensemble).coupling


def _coupling_arg(source: str, ensemble: Ensemble) -> coupling_mod.CouplingMatrix:
    """Resolve a --coupling argument: "optimal" or a path to a JSON file
    holding a coupling that must be feasible for the ensemble."""
    if source == "optimal":
        return _optimal_coupling(ensemble)
    cpl = coupling_mod.coupling_from_json(_read_json(source, "coupling"), ensemble)
    residual = coupling_mod.feasibility_residual(cpl)
    if not residual <= coupling_mod.FEASIBILITY_TOL:
        raise ValidationError(
            f"coupling is infeasible for this ensemble (residual {residual:.3e})"
        )
    return cpl


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
    n, alpha_sq = args.n, args.alpha_sq
    cpl = coupling_mod.circulant_optimal_coupling(gram_psk(n, alpha_sq))
    payload = {"n": n, "alpha_sq": alpha_sq}
    if n in (3, 4):
        params, payload["p_error"] = optimizer.psk_params(cpl.c[0])
        keys = ("p", "r", "r_prime", "theta1", "theta2", "u", "v")
        payload["params"] = {key: getattr(params, key) for key in keys}
    else:
        payload["p_error"] = coupling_mod.error_probability(cpl)
        payload["row"] = [complex_obj(z) for z in cpl.c[0]]
    if args.emit_coupling:
        payload["coupling"] = coupling_mod.coupling_to_json(cpl)
    print(dumps(payload))
    return EXIT_OK


def cmd_optimize(args) -> int:
    config = _solver_config(args)
    if args.show_config:
        print(dumps(asdict(config)))
        return EXIT_OK
    if args.ensemble is None:
        raise ValidationError("--ensemble is required (unless using --show-config)")
    ensemble = _load_ensemble(args.ensemble)
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
    ensemble = _load_ensemble(args.ensemble)
    cpl = _coupling_arg(args.coupling, ensemble)
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
    ensemble = _load_ensemble(args.ensemble)
    cpl = _coupling_arg(args.coupling, ensemble)
    residuals = coupling_mod.dilation_residuals(cpl)
    ok = all(value <= coupling_mod.DILATION_CHECK_TOL for value in residuals.values())
    payload = {"system_dim": cpl.n, "ancilla_dim": cpl.n, **residuals, "ok": ok}
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
            cpl = coupling_mod.circulant_optimal_coupling(gram_psk(n, value))
            opt = coupling_mod.error_probability(cpl)
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
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:
        raise ValidationError(f"steps must lie in [2, {MAX_SWEEP_STEPS}], got {args.steps}")
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
        try:
            n_list = [int(tok) for tok in args.n.split(",")]
        except ValueError as exc:
            raise ValidationError(f"--n must be comma-separated integers: {exc}") from exc

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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line with exit code 2, like
    every other input error, in place of argparse's usage text."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-sq", type=float, required=True)
    p.add_argument("--emit-coupling", action="store_true")
    p.set_defaults(func=cmd_psk)

    p = sub.add_parser("optimize", help="optimal coupling from square-root-measurement weights")
    p.add_argument("--ensemble")
    p.add_argument("--max-iters", type=int, dest="max_iters")
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

    p = sub.add_parser("dilation", help="verify the joint unitary from its N x N block")
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
    p.add_argument(
        "--steps", type=int, required=True, help=f"grid points, 2 to {MAX_SWEEP_STEPS}"
    )
    p.add_argument("--outputs", default="closed_form,srm_oracle")
    p.add_argument("--s", type=float, default=0.0, help="fixed overlap for binary eta1 sweeps")
    p.add_argument("--eta1", type=float, default=0.5, help="fixed prior for binary s sweeps")
    p.add_argument("--out", default="-", help="output CSV path, - for stdout")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
