"""Command-line interface.

Subcommands: bound, symmetric, psk, optimize, simulate, dilation, sweep.
All results go to stdout as JSON (or CSV for sweeps) with fixed float
formatting, so identical arguments produce byte-identical output.  Exit
codes: 0 success, 2 usage or input error, 3 I/O error, 4 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys

import numpy as np

from . import closed_form, coupling as coupling_mod, optimizer, simulate as simulate_mod
from ._serialize import CSV_DIGITS, complex_obj, cut_echo, dumps, fmt_float
from .ensembles import (
    Ensemble,
    _check_dense,
    check_alpha_sq,
    check_binary,
    check_state_count,
    check_symmetric,
    ensemble_from_json,
    gram_binary,
    gram_psk,
    gram_symmetric,
)
from .errors import NoSolutionError, QsdError, ValidationError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

SWEEP_HEADER = "family,n,axis,value,p_err_closed,p_err_srm,p_err_opt"
SWEEP_OUTPUTS = ("closed_form", "srm_oracle", "optimizer")
# grid points in one sweep, steps times state counts, checked before the
# first row is computed
MAX_SWEEP_STEPS = 10**6


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_ensemble(text: str) -> Ensemble:
    """Parse an --ensemble argument: inline JSON or a path to a JSON file."""
    raw = text.strip()
    return ensemble_from_json(raw if raw.startswith("{") else _read_text(raw))


def _coupling_arg(source: str, ensemble: Ensemble) -> coupling_mod.CouplingMatrix:
    """Resolve a --coupling argument: "optimal" or a path to a JSON file
    holding a coupling that must be feasible for the ensemble."""
    if source == "optimal":
        return optimizer.optimal_coupling(ensemble)
    return coupling_mod.coupling_from_json(_read_text(source), ensemble)


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
        "r": p_error / (args.n - 1),
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
    cpl = optimizer.optimal_coupling(gram_psk(n, alpha_sq))
    payload = {"n": n, "alpha_sq": alpha_sq, "p_error": coupling_mod.error_probability(cpl)}
    if n in (3, 4):
        params = optimizer.psk_params(cpl.c[0])
        keys = ("p", "r", "r_prime", "theta1", "theta2", "u", "v")
        payload["params"] = {key: getattr(params, key) for key in keys}
    else:
        payload["row"] = [complex_obj(z) for z in cpl.c[0]]
    if args.emit_coupling:
        payload["coupling"] = coupling_mod.coupling_to_json(cpl)
    print(dumps(payload))
    return EXIT_OK


def cmd_optimize(args) -> int:
    ensemble = _load_ensemble(args.ensemble)
    result = optimizer.optimize_general(ensemble)
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
        with open(args.counts_csv, "w", encoding="utf-8") as fh:
            fh.write("input,outcome,count\n")
            for j, row in enumerate(report.counts.tolist()):
                fh.writelines(f"{j},{k},{count}\n" for k, count in enumerate(row))
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
        raise ValidationError(cut_echo(f"unknown sweep outputs: {sorted(unknown)}"))
    if not wanted:
        raise ValidationError("at least one sweep output is required")
    return wanted


def _sweep_point(args, n: int, value: float) -> tuple:
    """A grid point's parameters: ``(eta1, overlap)`` for the binary
    family, ``(n, s)`` or ``(n, alpha_sq)`` for the others."""
    if args.family == "binary":
        return (value, args.s) if args.axis == "eta1" else (args.eta1, value)
    return n, value


def _sweep_row(args, n, value, outputs) -> str:
    closed = srm = opt = None
    binary, psk = args.family == "binary", args.family == "psk"
    point = _sweep_point(args, n, value)
    if "closed_form" in outputs and not psk:
        closed = (closed_form.helstrom_bound if binary else closed_form.symmetric_min_error)(*point)
    if not outputs.isdisjoint(("srm_oracle", "optimizer")):
        # one ensemble for both columns: the oracles read its Gram and
        # priors, never the factor that the solver memoizes on it
        ens = gram_binary(*point[::-1]) if binary else (gram_psk if psk else gram_symmetric)(*point)
        if "srm_oracle" in outputs and (psk or ens.equal_priors):
            srm = (closed_form.srm_error_circulant if psk else closed_form.srm_error_general)(ens)
        if "optimizer" in outputs and psk:
            opt = coupling_mod.error_probability(optimizer.optimal_coupling(ens))
        elif "optimizer" in outputs:
            opt = optimizer._converged_solve(ens).p_error
    cells = ("" if x is None else fmt_float(x, CSV_DIGITS) for x in (value, closed, srm, opt))
    return ",".join([args.family, str(n), args.axis, *cells])


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
    # each family's admissible values form an interval, so its grid's ends,
    # taken in the rows' order, pass the validators every row calls
    check = {"binary": check_binary, "symmetric": check_symmetric, "psk": lambda n, a: check_alpha_sq(a)}
    for n in n_list:
        _check_dense(check_state_count(n))
        for end in (args.min, args.max):
            check[args.family](*_sweep_point(args, n, end))
    points = args.steps * len(n_list)
    if points > MAX_SWEEP_STEPS:
        raise ValidationError(
            f"{args.steps} steps for {len(n_list)} state counts make {points} grid points, "
            f"above the limit of {MAX_SWEEP_STEPS}"
        )

    values = np.linspace(args.min, args.max, args.steps)
    out = contextlib.nullcontext(sys.stdout) if args.out == "-" else open(args.out, "w", encoding="utf-8")
    with out as fh:
        fh.write(SWEEP_HEADER + "\n")
        fh.writelines(_sweep_row(args, n, float(value), outputs) + "\n" for n in n_list for value in values)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line with exit code 2, like
    every other input error, in place of argparse's usage text (the argument
    it echoes cut by ``cut_echo``), and names an unrecognized argument
    before a missing required option."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {cut_echo(message)}")

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand checks its required options before the top level
        # sees the arguments it left over; when that check fails, parse
        # again without it and hand any leftovers up to be reported first
        try:
            return super().parse_known_args(args, namespace)
        except ValidationError:
            required = [a for a in self._actions if a.required and a.option_strings]
            if not required:
                raise
            for action in required:
                action.required = False
            try:
                parsed = super().parse_known_args(args, namespace)
            finally:
                for action in required:
                    action.required = True
            if not parsed[1]:
                raise
            return parsed


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

    p = sub.add_parser("psk", help="optimal coupling for PSK coherent sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-sq", type=float, required=True)
    p.add_argument("--emit-coupling", action="store_true")
    p.set_defaults(func=cmd_psk)

    p = sub.add_parser("optimize", help="optimal coupling from square-root-measurement weights")
    p.add_argument("--ensemble", required=True)
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
        print(f"error: {cut_echo(str(exc))}", file=sys.stderr)
        return EXIT_IO


def run() -> int:
    """The program's entry point: ``python -m qsd`` and the ``qsd`` script.

    Moves everything imported so far into the collector's permanent
    generation, then runs :func:`main` on ``sys.argv``.  Those objects live
    until the process exits, so no output changes; the interpreter's
    shutdown collections, and any full collection during a long command,
    stop scanning numpy's and qsd's module objects.  In-process callers
    use :func:`main`, which leaves the collector alone.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
