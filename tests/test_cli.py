import argparse
import gc
import json
import re
import runpy
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qsd.cli
from conftest import (
    REFUSED_SETTINGS,
    cli_json,
    main_cli,
    mp_psk_error,
    near_circulant_dip,
    near_dependent,
    run_cli,
)
from qsd._serialize import matrix_obj
from qsd.cli import main
from qsd.closed_form import symmetric_min_error
from qsd.coupling import (
    FEASIBILITY_TOL,
    ROOT_RESIDUAL_TOL,
    CouplingMatrix,
    build_dilation,
    circulant_optimal_coupling,
    error_probability,
    feasibility_residual,
    symmetric_optimal_coupling,
)
from qsd import optimal_coupling, optimizer
from qsd.ensembles import (
    CIRCULANT_TOL,
    MAX_STATES,
    Ensemble,
    circulant,
    gram_psk,
    gram_symmetric,
)
from qsd.errors import InfeasibleCouplingError, QsdError, ValidationError
from qsd.optimizer import optimize_general

BINARY_UNEQ = '{"kind":"binary","overlap":{"re":0.6,"im":0.0},"eta1":0.25}'
BINARY_EQ = '{"kind":"binary","overlap":{"re":0.6,"im":0},"eta1":0.5}'
SYM_3_HALF = '{"kind":"symmetric","n":3,"s":0.5}'
PSK_3_HALF = '{"kind":"psk","n":3,"alpha_sq":0.5}'


class TestBound:
    def test_equal_priors_reference(self):
        out = cli_json("bound", "--eta1", "0.5", "--overlap-re", "0.6")
        assert out["p_error"] == pytest.approx(0.1, abs=1e-12)
        assert out["r1"] == pytest.approx(0.1, abs=1e-12)
        assert out["r2"] == pytest.approx(0.1, abs=1e-12)

    def test_orthogonal_zeros(self):
        out = cli_json("bound", "--eta1", "0.5", "--overlap-re", "0")
        assert out == {"p_error": 0, "r1": 0, "r2": 0}

    def test_invalid_prior_exit_2(self):
        code, _, err = run_cli("bound", "--eta1", "1.5", "--overlap-re", "0.2")
        assert code == 2
        assert err.strip()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_overlap_exit_2(self, bad):
        code, out, err = run_cli("bound", "--eta1", "0.5", "--overlap-re", bad)
        assert code == 2
        assert out == ""
        assert "overlap" in err
        assert "Traceback" not in err

    def test_complex_overlap(self):
        out = cli_json(
            "bound", "--eta1", "0.25", "--overlap-re", "0.0", "--overlap-im", "0.6"
        )
        assert out["p_error"] == pytest.approx(0.07279981273412345, abs=1e-15)

    def test_byte_identical(self):
        runs = [
            run_cli("bound", "--eta1", "0.25", "--overlap-re", "0.6") for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestSymmetric:
    def test_reference_point(self):
        out = cli_json("symmetric", "--n", "3", "--s", "0.5")
        assert out["p_error"] == pytest.approx(1 / 9, abs=1e-12)
        assert out["p"] == pytest.approx(8 / 9, abs=1e-12)

    def test_emit_coupling(self):
        out = cli_json("symmetric", "--n", "3", "--s", "0.5", "--emit-coupling")
        c = out["coupling"]["c"]
        assert len(c) == 3
        assert c[0][0]["re"] == pytest.approx((8 / 9) ** 0.5, abs=1e-12)

    def test_psd_violation_exit_2(self):
        code, _, _ = run_cli("symmetric", "--n", "4", "--s", "-0.5")
        assert code == 2

    def test_oversized_coupling_refused_closed_form_kept(self):
        code, out, err = run_cli("symmetric", "--n", "100000", "--s", "0.5", "--emit-coupling")
        assert (code, out) == (2, "")
        assert "4096" in err
        assert "Traceback" not in err
        # the closed form needs no matrix and has no size limit
        out = cli_json("symmetric", "--n", "100000", "--s", "0.5")
        assert out["p_error"] == pytest.approx(symmetric_min_error(100000, 0.5), abs=1e-15)


class TestPsk:
    def test_zero_intensity_ternary(self):
        out = cli_json("psk", "--n", "3", "--alpha-sq", "0")
        assert out["p_error"] == pytest.approx(2 / 3, abs=1e-12)

    def test_quaternary_params_schema(self):
        out = cli_json("psk", "--n", "4", "--alpha-sq", "1.0", "--emit-coupling")
        assert set(out["params"]) == {"p", "r", "r_prime", "theta1", "theta2", "u", "v"}
        assert len(out["coupling"]["c"]) == 4

    def test_unsupported_n_exit_2(self):
        code, _, _ = run_cli("psk", "--n", "1", "--alpha-sq", "0.5")
        assert code == 2
        code, _, _ = run_cli("psk", "--n", "5", "--alpha-sq", "0.5")
        assert code == 0

    def test_any_n_row_payload(self):
        out = cli_json("psk", "--n", "5", "--alpha-sq", "1.0", "--emit-coupling")
        assert list(out) == ["n", "alpha_sq", "p_error", "row", "coupling"]
        assert out["row"] == out["coupling"]["c"][0]
        assert abs(out["p_error"] - float(mp_psk_error(5, 1.0))) <= 1e-8

    def test_oversized_n_exit_2(self):
        code, out, err = run_cli("psk", "--n", "100000", "--alpha-sq", "1.0")
        assert (code, out) == (2, "")
        assert "4096" in err
        assert "Traceback" not in err

    def test_negative_intensity_exit_2(self):
        code, _, _ = run_cli("psk", "--n", "3", "--alpha-sq", "-1")
        assert code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_intensity_exit_2(self, bad):
        code, out, err = run_cli("psk", "--n", "3", "--alpha-sq", bad)
        assert code == 2
        assert out == ""
        assert "finite" in err
        assert "Traceback" not in err

    def test_large_intensity_ternary(self):
        out = cli_json("psk", "--n", "3", "--alpha-sq", "15")
        assert 0.0 < out["p_error"] < 1e-19


class TestOptimize:
    def test_binary_converges_exit_0(self):
        code, out, err = run_cli("optimize", "--ensemble", BINARY_UNEQ)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["p_error"] == pytest.approx(0.07279981273412345, abs=1e-7)
        assert payload["feasibility_residual"] <= 1e-8
        trace = payload["objective_trace"]
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_prior_roundoff_prints_no_negative_error(self):
        ens = '{"kind":"gram","matrix":[[1,0.5],[0.5,1]],"priors":[1.0,-1e-12]}'
        code, out, err = main_cli("optimize", "--ensemble", ens)
        assert code == 0, err
        assert json.loads(out)["p_error"] >= 0.0

    def test_ensemble_from_file(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text(SYM_3_HALF)
        out = cli_json("optimize", "--ensemble", str(path))
        assert out["p_error"] == pytest.approx(1 / 9, abs=1e-6)

    def test_missing_ensemble_file_exit_3(self):
        code, _, _ = run_cli("optimize", "--ensemble", "/no/such/file.json")
        assert code == 3

    def test_show_config_defaults(self):
        # the weight solve has no settings, so --help shows no defaults;
        # --show-config is gone
        code, out, err = run_cli("optimize", "--help")
        assert (code, err) == (0, "")
        assert "default" not in out and "--max-iters" not in out and "--rank-tol" not in out
        code, out, err = main_cli("optimize", "--ensemble", BINARY_UNEQ, "--show-config")
        assert (code, out) == (2, "")
        assert err == "error: qsd: unrecognized arguments: --show-config\n"

    def test_flags_are_the_solver_settings(self, monkeypatch):
        # the weight solve takes no settings: the command passes the
        # ensemble alone
        seen = []
        real = optimizer.optimize_general
        monkeypatch.setattr(
            optimizer, "optimize_general", lambda *a, **kw: seen.append((a, kw)) or real(*a, **kw)
        )
        assert main_cli("optimize", "--ensemble", BINARY_UNEQ)[0] == 0
        ((args, kwargs),) = seen
        assert len(args) == 1 and kwargs == {}

    @pytest.mark.parametrize(
        "kwargs", [kw for kw in REFUSED_SETTINGS if not isinstance(next(iter(kw.values())), str)]
    )
    def test_refused_settings_exit_2(self, kwargs):
        # the values, as flag tokens, of a setting that qsd optimize no
        # longer has: each is an unrecognized argument
        ((key, value),) = kwargs.items()
        token = "--" + key.replace("_", "-") + f"={value!r}"
        code, out, err = main_cli("optimize", "--ensemble", BINARY_UNEQ, token)
        assert (code, out) == (2, "")
        assert err == f"error: qsd: unrecognized arguments: {token}\n"

    def test_unknown_config_key_exit_2(self, tmp_path):
        # --config is gone whatever its file holds; no keyword takes its keys
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"walkers": 3}')
        code, out, err = main_cli("optimize", "--ensemble", BINARY_UNEQ, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: qsd: unrecognized arguments: --config {cfg}\n"
        with pytest.raises(TypeError, match="walkers"):
            optimize_general(gram_symmetric(3, 0.5), walkers=3)

    @pytest.mark.parametrize(
        "content, message",
        [
            ("5", "must be an object"),
            ('{"max_iters": "x"}', "max_iters"),
            ('{"rank_tol": 1.0}', "rank_tol"),
            # values of the wrong JSON kind are refused, not cast
            ('{"max_iters": 2.5}', "max_iters"),
            ('{"max_iters": 3.0}', "max_iters"),
            ('{"max_iters": true}', "max_iters"),
            ('{"max_iters": "5"}', "max_iters"),
            ('{"rank_tol": "1e-9"}', "rank_tol"),
            ('{"rank_tol": false}', "rank_tol"),
        ],
    )
    def test_malformed_config_values_exit_2(self, tmp_path, content, message):
        # what a config file was refused for stays refused: the file by
        # the command line, which has no --config, and each key by the
        # signature of optimize_general, which takes no settings, as
        # walkers is
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, out, err = main_cli("optimize", "--ensemble", BINARY_UNEQ, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "--config" in err
        values = json.loads(content)
        if isinstance(values, dict):
            with pytest.raises(TypeError, match=message):
                optimize_general(gram_symmetric(3, 0.5), **values)

    def test_removed_step_init_key_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"step_init": 0.1}')
        code, _, err = run_cli("optimize", "--ensemble", BINARY_UNEQ, "--config", str(cfg))
        assert code == 2
        assert "--config" in err
        code, _, err = run_cli("optimize", "--ensemble", BINARY_UNEQ, "--step-init", "0.1")
        assert code == 2
        assert "--step-init" in err

    @pytest.mark.parametrize("key", ["restarts", "seed", "grad_tol", "rank_tol", "max_iters"])
    def test_removed_search_knobs_exit_2(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        code, _, err = run_cli("optimize", "--ensemble", BINARY_UNEQ, "--config", str(cfg))
        assert code == 2
        assert "--config" in err
        flag = "--" + key.replace("_", "-")
        code, out, err = run_cli("optimize", "--ensemble", BINARY_UNEQ, flag, "1")
        assert (code, out) == (2, "")
        assert err == f"error: qsd: unrecognized arguments: {flag} 1\n"

    def test_exhausted_iterations_exit_4(self):
        # a best-effort result still prints: the unconverged solve of
        # UNCONVERGED_GRAM, in a fresh process
        code, out, _ = run_cli("optimize", "--ensemble", UNCONVERGED_GRAM)
        assert code == 4
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["p_error"] < 0.5

    def test_rank_tol_cutting_real_eigenvalues_exit_2(self, tmp_json):
        # 200 copies of one state and one state at sin^2 = 1.5e-10 off it:
        # the eigenvalue 1.49e-10 lies below the fixed cut at 1e-12 of the
        # largest (201), and dropping it leaves a row 1.5e-10 short
        n = 201
        gram = np.ones((n, n))
        gram[-1, :-1] = gram[:-1, -1] = np.sqrt(1.0 - 1.5e-10)
        message = (
            "the 1e-12 rank cut drops Gram eigenvalues up to 1.492e-10, "
            "which leaves coupling rows 1.485e-10 short of unit norm"
        )
        with pytest.raises(ValidationError) as refused:
            optimize_general(Ensemble(n, gram, np.full(n, 1.0 / n)))
        assert str(refused.value) == message
        path = tmp_json({"kind": "gram", "matrix": gram.tolist(), "priors": [1.0 / n] * n})
        code, out, err = run_cli("optimize", "--ensemble", path)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_payload_reports_certificate(self):
        out = cli_json("optimize", "--ensemble", BINARY_UNEQ)
        assert out["certified"] is True
        assert 0.0 <= out["dual_gap"] <= 1e-10
        assert out["restarts_used"] == 1

    def test_ill_conditioned_gram_certified(self, tmp_json):
        # lambda_min / lambda_max = 3.5e-7: a log-weight Newton on an eigh of
        # P^{1/2} G P^{1/2} stops here at gap 1.1e-5, yet converged and exit 0
        ens = near_dependent(15)
        path = tmp_json({"kind": "gram", "matrix": matrix_obj(ens.gram), "priors": ens.priors.tolist()})
        out = cli_json("optimize", "--ensemble", path)
        assert out["certified"] is True
        assert out["dual_gap"] <= 1e-10

    def test_emit_coupling_round_trip(self, tmp_path):
        code, out, _ = run_cli(
            "optimize", "--ensemble", SYM_3_HALF, "--emit-coupling"
        )
        assert code == 0
        c = json.loads(out)["coupling"]["c"]
        mat = np.array([[cell["re"] + 1j * cell["im"] for cell in row] for row in c])
        assert mat.shape == (3, 3)
        diag_gain = sum(abs(mat[j, j]) ** 2 for j in range(3)) / 3
        assert diag_gain == pytest.approx(8 / 9, abs=1e-6)

    def test_deterministic(self):
        args = ("optimize", "--ensemble", PSK_3_HALF)
        assert run_cli(*args) == run_cli(*args)


class TestSimulate:
    def test_binary_schema_and_noise(self):
        out = cli_json(
            "simulate", "--ensemble", BINARY_EQ, "--shots", "1000000", "--seed", "7"
        )
        assert list(out) == [
            "shots",
            "seed",
            "counts",
            "empirical_error",
            "analytic_error",
            "std_error",
        ]
        assert out["analytic_error"] == pytest.approx(0.1, abs=1e-12)
        assert abs(out["empirical_error"] - 0.1) <= 4 * out["std_error"]
        assert sum(sum(row) for row in out["counts"]) == 1000000

    def test_byte_identical_same_seed(self):
        args = ("simulate", "--ensemble", SYM_3_HALF, "--shots", "200000", "--seed", "3")
        assert run_cli(*args) == run_cli(*args)

    def test_nan_prior_exit_2(self, tmp_path):
        ensemble = (
            '{"kind":"gram","matrix":[[1,0,0],[0,1,0],[0,0,1]],'
            '"priors":[NaN,0.5,0.5]}'
        )
        path = tmp_path / "coupling.json"
        path.write_text(json.dumps({"c": np.eye(3).tolist()}))
        code, out, err = run_cli(
            "simulate", "--ensemble", ensemble, "--shots", "1000", "--coupling", str(path)
        )
        assert code == 2
        assert out == ""
        assert "priors must be finite" in err
        assert "Traceback" not in err

    def test_undrawable_shots_refused(self):
        code, out, err = run_cli(
            "simulate", "--ensemble", BINARY_EQ, "--shots", "100000000000000000000"
        )
        assert code == 2
        assert out == ""
        assert "2**63" in err

    def test_counts_csv(self, tmp_path):
        path = tmp_path / "counts.csv"
        cli_json(
            "simulate",
            "--ensemble",
            BINARY_EQ,
            "--shots",
            "5000",
            "--seed",
            "2",
            "--counts-csv",
            str(path),
        )
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "input,outcome,count"
        assert len(lines) == 5
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 5000

    def test_counts_csv_cells_match_counts(self, tmp_path):
        # one line per (input, outcome) cell, row by row, as in "counts"
        path = tmp_path / "counts.csv"
        code, out, _ = main_cli(
            "simulate", "--ensemble", '{"kind":"psk","n":5,"alpha_sq":1}',
            "--shots", "20000", "--seed", "3", "--counts-csv", str(path),
        )
        counts = json.loads(out)["counts"]
        cells = [f"{j},{k},{c}" for j, row in enumerate(counts) for k, c in enumerate(row)]
        assert code == 0
        assert path.read_text() == "\n".join(["input,outcome,count", *cells]) + "\n"

    def test_coupling_from_file(self, tmp_path):
        code, out, _ = run_cli(
            "optimize", "--ensemble", BINARY_UNEQ, "--emit-coupling"
        )
        coupling = json.loads(out)["coupling"]
        path = tmp_path / "coupling.json"
        path.write_text(json.dumps(coupling))
        out2 = cli_json(
            "simulate",
            "--ensemble",
            BINARY_UNEQ,
            "--shots",
            "20000",
            "--seed",
            "1",
            "--coupling",
            str(path),
        )
        assert abs(out2["empirical_error"] - out2["analytic_error"]) <= 5 * out2["std_error"]

    def test_infeasible_coupling_file_exit_2(self, tmp_path):
        identity = {
            "c": [
                [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
                [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
            ]
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(identity))
        code, _, err = run_cli(
            "simulate",
            "--ensemble",
            BINARY_EQ,
            "--shots",
            "100",
            "--coupling",
            str(path),
        )
        assert code == 2
        assert "infeasible" in err

    @pytest.mark.parametrize("command", [("simulate", "--shots", "100"), ("dilation",)])
    def test_infeasible_coupling_has_the_library_message(self, tmp_path, command):
        # the loader refuses the file with the message build_dilation gives
        identity = np.eye(2, dtype=complex)
        with pytest.raises(InfeasibleCouplingError) as info:
            build_dilation(CouplingMatrix(identity, gram_symmetric(2, 0.3)))
        path = tmp_path / "identity.json"
        path.write_text(json.dumps({"c": matrix_obj(identity)}))
        ensemble = '{"kind":"symmetric","n":2,"s":0.3}'
        code, out, err = main_cli(command[0], "--ensemble", ensemble, *command[1:], "--coupling", str(path))
        assert (code, out, err) == (2, "", f"error: {info.value}\n")

    def test_bad_shots_exit_2(self):
        code, _, _ = run_cli("simulate", "--ensemble", BINARY_EQ, "--shots", "0")
        assert code == 2

    def test_circulant_ensemble_gets_the_circulant_optimum(self):
        # the general search drops a 4.5e-12 Gram eigenvalue here and was
        # 1.4e-7 above the optimum
        ensemble = '{"kind":"psk","n":16,"alpha_sq":1.0}'
        out = cli_json("simulate", "--ensemble", ensemble, "--shots", "1000")
        assert abs(out["analytic_error"] - float(mp_psk_error(16, 1.0))) <= 1e-9

    def test_oversized_ensemble_exit_2(self):
        ensemble = '{"kind":"psk","n":100000,"alpha_sq":1.0}'
        code, out, err = run_cli("simulate", "--ensemble", ensemble, "--shots", "1000")
        assert (code, out) == (2, "")
        assert "4096" in err
        assert "Traceback" not in err


def test_oversized_gram_refused_before_parsing():
    # every entry is unparseable: only a row count taken first names the limit
    ensemble = json.dumps({"kind": "gram", "matrix": [["x"]] * (MAX_STATES + 1), "priors": [1.0]})
    code, out, err = main_cli("optimize", "--ensemble", ensemble)
    assert (code, out) == (2, "")
    assert err == f"error: n={MAX_STATES + 1} is above the limit of {MAX_STATES} states for a dense Gram\n"


def test_optimal_coupling_dispatches_on_the_ensemble():
    # explicit Gram matrices get the closed forms their structure allows
    psk, sym = gram_psk(5, 0.7), gram_symmetric(4, 0.3)
    as_gram = Ensemble(5, psk.gram, psk.priors)
    assert np.array_equal(optimal_coupling(as_gram).c, circulant_optimal_coupling(psk).c)
    as_gram = Ensemble(4, sym.gram, sym.priors)
    assert np.array_equal(optimal_coupling(as_gram).c, symmetric_optimal_coupling(4, 0.3).c)
    unequal = Ensemble(5, psk.gram, [0.3, 0.2, 0.2, 0.2, 0.1])
    assert np.array_equal(optimal_coupling(unequal).c, optimize_general(unequal).coupling.c)
    # equal real overlaps, but a diagonal entry 5e-13 off 1 (inside
    # DIAGONAL_TOL): circulant only to within CIRCULANT_TOL, so the
    # circulant closed form of the ensemble itself, not the symmetric one
    gram = sym.gram.copy()
    gram[2, 2] += 5e-13
    near = Ensemble(4, gram, sym.priors)
    assert near._circulant_deviation == pytest.approx(5e-13, rel=1e-3)
    cpl = optimal_coupling(near)
    assert cpl.ensemble is near
    assert np.array_equal(cpl.c, circulant_optimal_coupling(near).c)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("alpha_sq", [0.5, 6.0])
def test_psk_commands_take_the_one_route(n, alpha_sq):
    # qsd psk, --coupling optimal and the library read optimal_coupling and
    # its error_probability, so they print the same bytes; 2-PSK at
    # alpha_sq = 6 once printed 9.4378363604e-12 from one and
    # 9.4378393989e-12 from the other, and 3-PSK at 0.8 once differed in
    # its last two digits
    ensemble = json.dumps({"kind": "psk", "n": n, "alpha_sq": alpha_sq})
    psk = main_cli("psk", "--n", str(n), "--alpha-sq", str(alpha_sq))[1]
    simulated = main_cli("simulate", "--ensemble", ensemble, "--shots", "1000")[1]
    printed = re.search(r'"p_error": ([^,]+),', psk).group(1)
    assert printed == re.search(r'"analytic_error": ([^,]+),', simulated).group(1)
    library = error_probability(optimal_coupling(gram_psk(n, alpha_sq)))
    assert float(printed) == library
    assert abs(library / float(mp_psk_error(n, alpha_sq)) - 1.0) <= 1e-12


# n = 24 nearly dependent states with Dirichlet priors, drawn by
# rng = default_rng([2201, 327]): n = rng.integers(3, 25); an n x n complex
# Gaussian x (real part first) with its last column scaled by
# 10**rng.uniform(-6, -2); rows normalized, G = x x^H Hermitized with unit
# diagonal; priors rng.dirichlet(ones(n)).  The weight solve stops at a
# dual gap of 1.56e-10, above CERT_TOL, with its gradient test unmet.
UNCONVERGED_GRAM = str(Path(__file__).parent / "golden" / "gram24_unconverged.json")


def test_unconverged_weight_solve_exit_4():
    code, out, err = main_cli("optimize", "--ensemble", UNCONVERGED_GRAM)
    assert (code, err) == (4, "")
    payload = json.loads(out)
    assert payload["converged"] is False
    gap = payload["dual_gap"]
    assert gap == pytest.approx(1.562e-10, rel=1e-3)
    # --coupling optimal takes the same solve and refuses its result
    for args in (("simulate", "--shots", "1000"), ("dilation", "--check")):
        code, out, err = main_cli(args[0], "--ensemble", UNCONVERGED_GRAM, *args[1:])
        assert (code, out) == (4, "")
        assert err == f"error: the weight solve did not converge (dual gap {gap:.3e})\n"


def _fallback_coupling(ensemble, closed_form):
    # the closed form refuses this ensemble, which Ensemble itself accepts
    with pytest.raises(QsdError):
        closed_form(ensemble)
    cpl = optimal_coupling(ensemble)
    assert feasibility_residual(cpl) <= FEASIBILITY_TOL
    return cpl


def test_optimal_coupling_falls_back_below_the_symmetric_range():
    # s 2e-11 below -1/(n-1): inside Ensemble's eigenvalue floor (-1e-10),
    # outside check_symmetric's 1e-12 margin
    s = -0.5 - 2e-11
    gram = np.full((3, 3), s, dtype=complex)
    np.fill_diagonal(gram, 1.0)
    ensemble = Ensemble(3, gram, np.full(3, 1.0 / 3.0))
    cpl = _fallback_coupling(ensemble, lambda e: symmetric_optimal_coupling(3, s))
    assert np.allclose(cpl.c, optimize_general(ensemble).coupling.c)
    gram_json = json.dumps({"kind": "gram", "matrix": gram.real.tolist(), "priors": [1 / 3] * 3})
    code, out, err = run_cli("simulate", "--ensemble", gram_json, "--shots", "1000")
    assert code == 0, err


def test_optimal_coupling_falls_back_off_a_near_circulant():
    # circulant to 9.5e-11 (CIRCULANT_TOL accepts 1e-10) and with an
    # eigenvalue of -5e-11, so C C^H misses G by 1.04e-10 > ROOT_RESIDUAL_TOL
    row = np.fft.ifft([2.0, 1.0, -5e-11])
    gram = circulant(row / row[0])
    gram = 0.5 * (gram + gram.conj().T)
    gram[1, 2] += 9.5e-11
    gram[2, 1] = np.conj(gram[1, 2])
    ensemble = Ensemble(3, gram, np.full(3, 1.0 / 3.0))
    assert 0.0 < ensemble._circulant_deviation <= CIRCULANT_TOL
    _fallback_coupling(ensemble, circulant_optimal_coupling)


@pytest.mark.parametrize("bump, circulant_route", [(1e-12, True), (2e-10, False)])
def test_near_circulant_route_follows_the_kept_deviation(bump, circulant_route):
    # 5-PSK with one overlap pair moved off the circulant: within
    # CIRCULANT_TOL the closed form, whose C C^H = G check allows the
    # deviation, beyond it the weight solve
    gram = gram_psk(5, 0.7).gram.copy()
    gram[1, 3] += bump
    gram[3, 1] = np.conj(gram[1, 3])
    ensemble = Ensemble(5, gram, np.full(5, 0.2))
    assert ensemble._circulant_deviation == pytest.approx(bump, rel=1e-3)
    expected = (
        circulant_optimal_coupling(ensemble)
        if circulant_route
        else optimize_general(ensemble).coupling
    )
    assert np.array_equal(optimal_coupling(ensemble).c, expected.c)


def test_near_circulant_below_the_floor_takes_the_closed_form():
    # the circulant of G's first row has an eigenvalue below
    # EIGENVALUE_FLOOR, G itself does not: the closed form's C C^H = G
    # check accepts its coupling, and the weight solve agrees with it
    ensemble = near_circulant_dip()
    cpl = optimal_coupling(ensemble)
    assert np.array_equal(cpl.c, circulant_optimal_coupling(ensemble).c)
    assert feasibility_residual(cpl) <= ROOT_RESIDUAL_TOL
    assert abs(error_probability(cpl) - optimize_general(ensemble).p_error) <= 1e-10


@pytest.mark.parametrize("n", ["3.7", "true", '"3"'])
def test_non_integer_json_state_count_exit_2(n):
    ensemble = f'{{"kind":"symmetric","n":{n},"s":0.4}}'
    code, out, err = run_cli("simulate", "--ensemble", ensemble, "--shots", "1000")
    assert (code, out) == (2, "")
    assert err == f"error: malformed ensemble JSON: n must be an integer, got {json.loads(n)!r}\n"


class TestDilation:
    def test_check_passes_for_optimal(self):
        code, out, _ = run_cli("dilation", "--ensemble", PSK_3_HALF, "--check")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        for key in (
            "unitary_residual",
            "map_residual",
            "gram_residual",
            "outcome_prob_residual",
        ):
            assert payload[key] <= 1e-10

    def test_dims_reported(self):
        out = cli_json("dilation", "--ensemble", SYM_3_HALF)
        assert out["system_dim"] == 3
        assert out["ancilla_dim"] == 3

    def test_n128_checked_from_the_block(self):
        # the dense joint unitary would need 4 GiB; the check needs n x n arrays
        code, out, err = run_cli(
            "dilation", "--ensemble", '{"kind":"symmetric","n":128,"s":0.5}', "--check"
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["system_dim"], payload["ok"]) == (128, True)

    def test_n64_in_process_memory_and_time(self, capsys):
        # the dense joint unitary would be 268 MB at n = 64
        argv = ["dilation", "--ensemble", '{"kind":"symmetric","n":64,"s":0.5}', "--check"]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert peak < 16 << 20
        assert elapsed < 1.0


@pytest.mark.parametrize("command", ["simulate", "dilation"])
@pytest.mark.parametrize(
    "text", ['{"c": [[', '{"c": [["x", 0], [0, 1]]}'], ids=["truncated", "non-number"]
)
def test_malformed_coupling_file_exit_2(tmp_path, command, text):
    path = tmp_path / "coupling.json"
    path.write_text(text)
    extra = ["--shots", "100"] if command == "simulate" else []
    code, out, err = run_cli(
        command, "--ensemble", BINARY_EQ, "--coupling", str(path), *extra
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, extra",
    [("simulate", ["--shots", "1000"]), ("simulate", ["--shots", "1000000"]), ("dilation", [])],
)
def test_nan_coupling_file_exit_2(tmp_path, command, extra):
    path = tmp_path / "coupling.json"
    path.write_text('{"c": [[NaN, 0], [0, 1]]}')
    ensemble = '{"kind":"symmetric","n":2,"s":0.0}'
    code, out, err = run_cli(command, "--ensemble", ensemble, "--coupling", str(path), *extra)
    assert (code, out) == (2, "")
    assert "unit vectors" in err
    assert "Traceback" not in err


# json.loads refuses the first two and the last with RecursionError or an
# integer-digit ValueError; the middle two hold an entry whose full echo
# would print every bracket
OPTIMIZE_FILE = ("optimize", "--ensemble", "FILE")
SIMULATE_FILE = ("simulate", "--ensemble", BINARY_EQ, "--shots", "100", "--coupling", "FILE")
DEEP_ENTRY = "[" * 900 + "]" * 900


@pytest.mark.parametrize(
    "args, text, message",
    [
        (OPTIMIZE_FILE, "[" * 1000 + "]" * 1000, "malformed ensemble JSON"),
        (SIMULATE_FILE, '{"c": ' * 990 + "null" + "}" * 990, "malformed coupling JSON"),
        (OPTIMIZE_FILE, f'{{"kind": "gram", "matrix": [[{DEEP_ENTRY}]], "priors": [1]}}',
         "expected a number or {re, im} object, got [[[[[[[...]]]]]]]"),
        (SIMULATE_FILE, f'{{"c": [[{DEEP_ENTRY}, 0], [0, 1]]}}', "got [[[[[[[...]]]]]]]"),
        (OPTIMIZE_FILE, '{"kind": "psk", "n": ' + "1" * 5000 + ', "alpha_sq": 1}',
         "malformed ensemble JSON: Exceeds the limit"),
        # float() echoes the string it refuses whole
        (OPTIMIZE_FILE, '{"kind": "binary", "overlap": 0.5, "eta1": "' + "x" * 100_000 + '"}',
         "malformed ensemble JSON: could not convert string to float: 'xxx"),
    ],
    ids=["ensemble-1000-deep", "coupling-990-deep", "ensemble-entry-900-deep",
         "coupling-entry-900-deep", "ensemble-5000-digits", "ensemble-100k-float-string"],
)
def test_deep_or_huge_json_exit_2(tmp_path, args, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_cli(*(str(path) if a == "FILE" else a for a in args))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and len(err) < 300


SWEEP_S3 = (
    "sweep", "--family", "symmetric", "--n", "3", "--axis", "s", "--min", "0", "--max", "0.5", "--steps", "3",
)


@pytest.mark.parametrize(
    "args, message",
    [
        (("simulate", "--ensemble", "LATIN1", "--shots", "100"), "is not UTF-8 text"),
        (("simulate", "--ensemble", BINARY_EQ, "--shots", "100", "--coupling", "TRUNCATED"),
         "malformed coupling JSON"),
        ((*SWEEP_S3, "--outputs", "bogus"), "unknown sweep outputs"),
        ((*SWEEP_S3, "--outputs", ","), "at least one sweep output is required"),
        ((*SWEEP_S3, "--outputs", "x" * 100_000), "unknown sweep outputs: ['xxx"),
        (("sweep", "--family", "psk", "--axis", "alpha_sq", "--min", "0.1", "--max", "1", "--steps", "3"),
         "--n is required for family 'psk'"),
        (("simulate", "--ensemble", BINARY_EQ, "--shots", "100", "--seed", str(2**64)),
         "seed must fit in 64 unsigned bits"),
    ],
    ids=["non-utf8-ensemble", "malformed-coupling", "unknown-output", "no-output", "huge-output",
         "psk-without-n", "seed-2**64"],
)
def test_input_refusal_exit_2(tmp_path, args, message):
    files = {"LATIN1": tmp_path / "latin1.json", "TRUNCATED": tmp_path / "truncated.json"}
    files["LATIN1"].write_bytes(b'{"kind": "symmetric", "n": 3, "s": 0.5, "note": "\xe9"}')
    files["TRUNCATED"].write_text('{"c": [[1, 0], [0,')
    code, out, err = main_cli(*(str(files.get(a, a)) for a in args))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1 and len(err) <= 1000


class TestSweep:
    def test_header_and_shape(self):
        code, out, _ = run_cli(
            "sweep",
            "--family",
            "symmetric",
            "--n",
            "3,4",
            "--axis",
            "s",
            "--min",
            "0.1",
            "--max",
            "0.9",
            "--steps",
            "5",
            "--out",
            "-",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "family,n,axis,value,p_err_closed,p_err_srm,p_err_opt"
        assert len(lines) == 1 + 2 * 5
        values = [float(line.split(",")[3]) for line in lines[1:6]]
        assert values == sorted(values)

    def test_closed_and_srm_agree(self):
        code, out, _ = run_cli(
            "sweep",
            "--family",
            "symmetric",
            "--n",
            "2,3,4",
            "--axis",
            "s",
            "--min",
            "0.0",
            "--max",
            "0.95",
            "--steps",
            "8",
            "--out",
            "-",
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            cells = line.split(",")
            assert abs(float(cells[4]) - float(cells[5])) <= 1e-9

    def test_binary_eta1_axis_at_zero_overlap(self):
        code, out, _ = run_cli(
            "sweep",
            "--family",
            "binary",
            "--axis",
            "eta1",
            "--min",
            "0.1",
            "--max",
            "0.9",
            "--steps",
            "5",
            "--s",
            "0.0",
            "--out",
            "-",
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[4]) == 0.0

    def test_psk_optimizer_matches_srm(self):
        code, out, _ = run_cli(
            "sweep",
            "--family",
            "psk",
            "--n",
            "3,4",
            "--axis",
            "alpha_sq",
            "--min",
            "0.2",
            "--max",
            "1.8",
            "--steps",
            "4",
            "--outputs",
            "srm_oracle,optimizer",
            "--out",
            "-",
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            cells = line.split(",")
            assert cells[4] == ""  # no closed form requested for PSK
            assert abs(float(cells[5]) - float(cells[6])) <= 1e-8

    def test_file_output(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            "sweep",
            "--family",
            "symmetric",
            "--n",
            "3",
            "--axis",
            "s",
            "--min",
            "0.0",
            "--max",
            "0.5",
            "--steps",
            "3",
            "--out",
            str(path),
        )
        assert code == 0
        assert path.read_text().startswith("family,n,axis,value")

    def test_unwritable_path_exit_3(self):
        code, _, _ = run_cli(
            "sweep",
            "--family",
            "symmetric",
            "--n",
            "3",
            "--axis",
            "s",
            "--min",
            "0.0",
            "--max",
            "0.5",
            "--steps",
            "2",
            "--out",
            "/no/such/dir/sweep.csv",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "extra",
        [
            ("--steps", "1"),
            ("--steps", "1000001"),
            ("--steps", "1000000000000"),
            ("--min", "0.9", "--max", "0.1"),
            ("--axis", "alpha_sq"),
        ],
    )
    def test_invalid_sweep_args_exit_2(self, extra):
        base = {
            "--family": "symmetric",
            "--n": "3",
            "--axis": "s",
            "--min": "0.1",
            "--max": "0.9",
            "--steps": "4",
            "--out": "-",
        }
        for key, value in zip(extra[::2], extra[1::2]):
            base[key] = value
        args = ["sweep"]
        for key, value in base.items():
            args += [key, value]
        code, _, _ = run_cli(*args)
        assert code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (("symmetric", "--n", "2,3", "--axis", "s", "--min", "0.1", "--max", "0.5", "--steps", "600000"),
             "600000 steps for 2 state counts make 1200000 grid points, above the limit of 1000000"),
            (("symmetric", "--n", "3,4097", "--axis", "s", "--min", "0.1", "--max", "0.5", "--steps", "4"),
             "n=4097 is above the limit of 4096 states for a dense Gram"),
            (("symmetric", "--n", "3,1", "--axis", "s", "--min", "0.1", "--max", "0.5", "--steps", "4"),
             "n must be at least 2, got 1"),
            # a value outside the family's range, at any n of the grid
            (("symmetric", "--n", "2,3", "--axis", "s", "--min", "-0.9", "--max", "0.9", "--steps", "5"),
             "s=-0.9 outside the positive-semidefinite range [-0.5, 1]"),
            (("psk", "--n", "3", "--axis", "alpha_sq", "--min", "-1", "--max", "2", "--steps", "3"),
             "alpha_sq must be finite and nonnegative, got -1.0"),
            (("binary", "--axis", "eta1", "--min", "0.5", "--max", "1.5", "--steps", "3"),
             "eta1 must lie in [0, 1], got 1.5"),
            (("binary", "--axis", "eta1", "--min", "0.1", "--max", "0.9", "--steps", "3", "--s", "1.5"),
             "|overlap| must be <= 1, got 1.5"),
            (("binary", "--axis", "s", "--min", "0.1", "--max", "0.9", "--steps", "3", "--eta1", "-0.5"),
             "eta1 must lie in [0, 1], got -0.5"),
        ],
        ids=[
            "grid", "above_max_states", "below_two",
            "symmetric_range", "psk_range", "binary_range", "fixed_s", "fixed_eta1",
        ],
    )
    def test_whole_grid_refused_before_the_first_row(self, monkeypatch, args, message):
        monkeypatch.setattr(qsd.cli, "_sweep_row", lambda *args: pytest.fail("a row was computed"))
        code, out, err = main_cli("sweep", "--family", *args)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unwritable_path_refused_before_the_first_row(self, monkeypatch):
        monkeypatch.setattr(qsd.cli, "_sweep_row", lambda *args: pytest.fail("a row was computed"))
        code, out, err = main_cli(
            "sweep", "--family", "symmetric", "--n", "3", "--axis", "s",
            "--min", "0.1", "--max", "0.5", "--steps", "2", "--out", "/no/such/dir/sweep.csv",
        )
        assert (code, out) == (3, "") and err.startswith("error: ")

    def test_unconverged_optimizer_cell_exit_4(self):
        # the weight solve ends with dual gaps of 1.2e-7 and 1.8e-7 here,
        # and qsd optimize exits 4 on either ensemble; a row printed before
        # the unconverged cell stays on stdout
        for low, rows in (("0.9999999999979", 0), ("0.5", 1)):
            code, out, err = main_cli(
                "sweep", "--family", "binary", "--axis", "s", "--min", low,
                "--max", "0.9999999999979702", "--steps", "2", "--eta1", "0.1",
                "--outputs", "closed_form,optimizer",
            )
            assert code == 4
            assert len(out.splitlines()) == 1 + rows and out.startswith(qsd.cli.SWEEP_HEADER)
            assert err.startswith("error: the weight solve did not converge (dual gap ")
            assert len(err.splitlines()) == 1

    def test_rows_written_as_computed(self, tmp_path):
        # 50,000 rows are about 2 MB of text: held whole, with the list of
        # its lines, they peaked at 9.8 MiB
        path = tmp_path / "sweep.csv"
        argv = ["sweep", "--family", "symmetric", "--n", "2", "--axis", "s", "--min", "0",
                "--max", "0.9", "--steps", "50000", "--outputs", "closed_form", "--out", str(path)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 << 20
        lines = path.read_text().splitlines()
        assert len(lines) == 50001 and lines[-1].startswith("symmetric,2,s,0.9,")

    def test_psk_optimizer_column_any_n(self):
        out = run_cli(
            "sweep", "--family", "psk", "--n", "2,5,16", "--axis", "alpha_sq",
            "--min", "0.2", "--max", "1.8", "--steps", "3", "--outputs", "srm_oracle,optimizer",
        )[1]
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 9
        # each column against mpmath, since they share no spectrum.  The
        # roundoff delta ~ n eps of a Gram eigenvalue lam moves its square
        # root by delta / (2 sqrt(lam)), up to sqrt(delta): more than 1e-11
        # for lam below 1e-7.  16-PSK at alpha_sq = 0.2 has lam ~ 1e-17,
        # and both columns read 1.0e-9 below the optimum (ROADMAP item 2)
        for row in rows:
            n, alpha_sq = int(row[1]), float(row[3])
            exact = float(mp_psk_error(n, alpha_sq))
            tol = 1e-11 if np.linalg.eigvalsh(gram_psk(n, alpha_sq).gram)[0] > 1e-7 else 2e-9
            assert abs(float(row[5]) - exact) <= tol and abs(float(row[6]) - exact) <= tol, row

    @pytest.mark.parametrize("n", ["x", "3,,4", "3.5", ""])
    def test_non_integer_n_exit_2(self, n):
        code, out, err = run_cli(
            "sweep", "--family", "symmetric", f"--n={n}", "--axis", "s",
            "--min", "0", "--max", "0.5", "--steps", "2",
        )
        assert (code, out) == (2, "")
        assert "Traceback" not in err

    def test_byte_identical(self):
        args = (
            "sweep", "--family", "psk", "--n", "3", "--axis", "alpha_sq",
            "--min", "0.1", "--max", "1.0", "--steps", "3",
            "--outputs", "srm_oracle,optimizer", "--out", "-",
        )
        assert run_cli(*args) == run_cli(*args)


def assert_one_line_usage_error(args, message):
    code, out, err = run_cli(*args)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert message in err and len(err) <= 1000


class TestTopLevel:
    def test_no_args_exit_2(self):
        assert_one_line_usage_error((), "required: command")

    def test_unknown_command_exit_2(self):
        assert_one_line_usage_error(("frobnicate",), "invalid choice")

    @pytest.mark.parametrize(
        "args, message",
        [
            (("optimize", "--ensemble", SYM_3_HALF, "--bogus"), "unrecognized arguments: --bogus"),
            (("symmetric", "--n", "x", "--s", "0.5"), "invalid int value"),
            (("optimize", "--emit-coupling"), "required: --ensemble"),
            # an unknown flag is named before the missing --ensemble
            (("optimize", "--show-config"), "unrecognized arguments: --show-config"),
            (("optimize", "--config", "x.json"), "unrecognized arguments: --config x.json"),
            (("simulate", "--bogus", "--shots", "5"), "unrecognized arguments: --bogus"),
            # line breaks in an unrecognized argument are escaped
            (("optimize", "--ensemble", SYM_3_HALF, "--a=\x0cb\n"), "arguments: --a=\\x0cb\\n\n"),
            # an unrecognized argument and a refused value are cut
            (("optimize", "--ensemble", SYM_3_HALF, "--" + "x" * 100_000), "arguments: --xxx"),
            (("bound", "--eta1=" + "x" * 100_000, "--overlap-re", "0.5"), "invalid float value: 'xxx"),
        ],
    )
    def test_subcommand_usage_error_is_one_line_exit_2(self, args, message):
        assert_one_line_usage_error(args, message)

    def test_readme_flags_are_subcommand_options(self):
        # every --flag of a qsd command line in a README code block, with
        # its indented continuation lines but not # comments, is an option
        # of that subcommand, and every subcommand is shown
        parser = qsd.cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        readme = Path(__file__).resolve().parents[1] / "README.md"
        in_block, command, shown = False, None, set()
        for line in readme.read_text(encoding="utf-8").splitlines():
            if line.startswith("```"):
                in_block, command = not in_block, None
                continue
            head = re.match(r"qsd (\w+)", line) if in_block else None
            if head:
                command = head.group(1)
                shown.add(command)
            elif not (command and line[:1].isspace() and not line.lstrip().startswith("#")):
                command = None
                continue
            for flag in re.findall(r"--[\w-]+", line):
                assert flag in sub.choices[command]._option_string_actions, (command, flag)
        assert shown == set(sub.choices)

    def test_help_prints_usage_exit_0(self):
        code, out, err = run_cli("optimize", "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: qsd optimize [-h] --ensemble ENSEMBLE")

    def test_malformed_inline_json_exit_2(self):
        code, _, err = run_cli("optimize", "--ensemble", '{"kind":')
        assert code == 2


def test_cli_and_dilation_import_neither_scipy_nor_numpy_ma():
    # a fresh interpreter: the test session itself may have loaded these.
    # numpy loads numpy.random and numpy.fft on first use; either at module
    # level would add milliseconds to every command.  A symmetric dilation
    # validates an exact circulant, whose spectrum is numpy.fft's, so that
    # second line allows numpy.fft
    script = (
        "import sys\n"
        "def loaded(*subs):\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                  or m.split('.')[0] == 'numpy' and m.split('.')[1:2] in subs)\n"
        "import qsd.cli\n"
        "print(loaded(['ma'], ['random'], ['fft']))\n"
        "from qsd import build_dilation, symmetric_optimal_coupling\n"
        "build_dilation(symmetric_optimal_coupling(3, 0.5))\n"
        "print(loaded(['ma'], ['random']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", ""]


def test_commands_without_json_input_load_no_json():
    # a fresh interpreter: only the ensemble and coupling loaders parse JSON
    script = (
        "import sys\n"
        "import qsd.cli\n"
        "for argv in (['bound', '--eta1', '0.5', '--overlap-re', '0.6'],\n"
        "             ['symmetric', '--n', '3', '--s', '0.5', '--emit-coupling'],\n"
        "             ['psk', '--n', '3', '--alpha-sq', '0.5'],\n"
        "             ['sweep', '--family', 'psk', '--n', '3', '--axis', 'alpha_sq',\n"
        "              '--min', '0.1', '--max', '1', '--steps', '2', '--outputs', 'optimizer']):\n"
        "    assert qsd.cli.main(argv) == 0\n"
        "    assert 'json' not in sys.modules, argv\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


# a fresh interpreter that runs the entry point with ``main`` wrapped: the
# wrapper reports the freeze count before ``run()`` and when ``main`` starts
ENTRY_PROBE = """
import gc, sys
import qsd.cli
main, before = qsd.cli.main, gc.get_freeze_count()
def probe(argv=None):
    print(before, gc.get_freeze_count(), file=sys.stderr)
    return main(argv)
qsd.cli.main = probe
sys.exit(qsd.cli.run())
"""


class TestEntry:
    def test_main_in_process_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        assert main(["bound", "--eta1", "0.5", "--overlap-re", "0.6"]) == 0
        assert main(["bound", "--eta1", "1.5", "--overlap-re", "0.6"]) == 2
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize(
        "args",
        [
            ("bound", "--eta1", "0.25", "--overlap-re", "0.6"),
            ("bound", "--eta1", "1.5", "--overlap-re", "0.6"),
        ],
    )
    def test_run_freezes_the_heap_then_runs_main(self, args):
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY_PROBE, *args], capture_output=True, text=True, timeout=300
        )
        counts, _, err = proc.stderr.partition("\n")
        before, frozen = map(int, counts.split())
        assert frozen > before
        assert (proc.returncode, proc.stdout, err) == run_cli(*args)

    def test_script_and_module_name_run(self, monkeypatch):
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            assert tomllib.load(fh)["project"]["scripts"] == {"qsd": "qsd.cli:run"}
        monkeypatch.setattr(qsd.cli, "run", lambda: 7)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("qsd", run_name="__main__")
        assert exc.value.code == 7
