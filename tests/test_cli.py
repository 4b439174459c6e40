import json
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from conftest import cli_json, mp_psk_error, run_cli
from qsd.cli import _optimal_coupling, main
from qsd.closed_form import symmetric_min_error
from qsd.coupling import (
    FEASIBILITY_TOL,
    circulant_optimal_coupling,
    feasibility_residual,
    symmetric_optimal_coupling,
)
from qsd.ensembles import Ensemble, circulant, gram_psk, gram_symmetric, is_circulant
from qsd.errors import QsdError
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

    def test_ensemble_from_file(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text(SYM_3_HALF)
        out = cli_json("optimize", "--ensemble", str(path))
        assert out["p_error"] == pytest.approx(1 / 9, abs=1e-6)

    def test_missing_ensemble_file_exit_3(self):
        code, _, _ = run_cli("optimize", "--ensemble", "/no/such/file.json")
        assert code == 3

    def test_show_config_defaults(self):
        out = cli_json("optimize", "--show-config")
        assert list(out) == ["max_iters", "rank_tol"]
        assert out["max_iters"] == 2000
        assert out["rank_tol"] == pytest.approx(1e-12)

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_iters": 30, "rank_tol": 1e-10}')
        out = cli_json(
            "optimize", "--config", str(cfg), "--rank-tol", "1e-9", "--show-config"
        )
        assert out["max_iters"] == 30
        assert out["rank_tol"] == pytest.approx(1e-9)

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"walkers": 3}')
        code, _, err = run_cli("optimize", "--config", str(cfg), "--show-config")
        assert code == 2
        assert "walkers" in err

    @pytest.mark.parametrize(
        "content, message",
        [("5", "must be an object"), ('{"max_iters": "x"}', "max_iters"), ('{"rank_tol": 1.0}', "rank_tol")],
    )
    def test_malformed_config_values_exit_2(self, tmp_path, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, _, err = run_cli("optimize", "--config", str(cfg), "--show-config")
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err

    def test_removed_step_init_key_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"step_init": 0.1}')
        code, _, err = run_cli("optimize", "--config", str(cfg), "--show-config")
        assert code == 2
        assert "step_init" in err
        code, _, _ = run_cli("optimize", "--step-init", "0.1", "--show-config")
        assert code == 2

    @pytest.mark.parametrize("key", ["restarts", "seed", "grad_tol"])
    def test_removed_search_knobs_exit_2(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        code, _, err = run_cli("optimize", "--config", str(cfg), "--show-config")
        assert code == 2
        assert key in err
        flag = "--" + key.replace("_", "-")
        code, out, err = run_cli("optimize", "--ensemble", BINARY_UNEQ, flag, "1")
        assert (code, out) == (2, "")
        assert flag in err

    def test_exhausted_iterations_exit_4(self):
        code, out, _ = run_cli(
            "optimize",
            "--ensemble",
            BINARY_UNEQ,
            "--max-iters",
            "1",
        )
        assert code == 4
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["p_error"] < 0.5

    def test_rank_tol_cutting_real_eigenvalues_exit_2(self):
        # the symmetric n = 3, s = 0.5 Gram has eigenvalues 0.5, 0.5 and 2
        code, out, err = run_cli("optimize", "--ensemble", SYM_3_HALF, "--rank-tol", "0.5")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "rank_tol" in err and "5.000e-01" in err

    def test_payload_reports_certificate(self):
        out = cli_json("optimize", "--ensemble", BINARY_UNEQ)
        assert out["certified"] is True
        assert 0.0 <= out["dual_gap"] <= 1e-10
        assert out["restarts_used"] == 1

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


def test_optimal_coupling_dispatches_on_the_ensemble():
    # explicit Gram matrices get the closed forms their structure allows
    psk, sym = gram_psk(5, 0.7), gram_symmetric(4, 0.3)
    as_gram = Ensemble(5, psk.gram, psk.priors)
    assert np.array_equal(_optimal_coupling(as_gram).c, circulant_optimal_coupling(psk).c)
    as_gram = Ensemble(4, sym.gram, sym.priors)
    assert np.array_equal(_optimal_coupling(as_gram).c, symmetric_optimal_coupling(4, 0.3).c)
    unequal = Ensemble(5, psk.gram, [0.3, 0.2, 0.2, 0.2, 0.1])
    assert np.array_equal(_optimal_coupling(unequal).c, optimize_general(unequal).coupling.c)


def _fallback_coupling(ensemble, closed_form):
    # the closed form refuses this ensemble, which Ensemble itself accepts
    with pytest.raises(QsdError):
        closed_form(ensemble)
    cpl = _optimal_coupling(ensemble)
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
    # circulant to 9.5e-11 (is_circulant accepts 1e-10) and with an
    # eigenvalue of -5e-11, so C C^H misses G by 1.04e-10 > ROOT_RESIDUAL_TOL
    row = np.fft.ifft([2.0, 1.0, -5e-11])
    gram = circulant(row / row[0])
    gram = 0.5 * (gram + gram.conj().T)
    gram[1, 2] += 9.5e-11
    gram[2, 1] = np.conj(gram[1, 2])
    ensemble = Ensemble(3, gram, np.full(3, 1.0 / 3.0))
    assert is_circulant(ensemble.gram)
    _fallback_coupling(ensemble, circulant_optimal_coupling)


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

    def test_psk_optimizer_column_any_n(self):
        out = run_cli(
            "sweep", "--family", "psk", "--n", "2,5,16", "--axis", "alpha_sq",
            "--min", "0.2", "--max", "1.8", "--steps", "3", "--outputs", "srm_oracle,optimizer",
        )[1]
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 9
        for row in rows:
            assert abs(float(row[5]) - float(row[6])) <= 1e-11

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
    assert message in err


class TestTopLevel:
    def test_no_args_exit_2(self):
        assert_one_line_usage_error((), "required: command")

    def test_unknown_command_exit_2(self):
        assert_one_line_usage_error(("frobnicate",), "invalid choice")

    @pytest.mark.parametrize(
        "args, message",
        [
            (("optimize", "--bogus"), "unrecognized arguments: --bogus"),
            (("symmetric", "--n", "x", "--s", "0.5"), "invalid int value"),
        ],
    )
    def test_subcommand_usage_error_is_one_line_exit_2(self, args, message):
        assert_one_line_usage_error(args, message)

    def test_help_prints_usage_exit_0(self):
        code, out, err = run_cli("optimize", "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: qsd optimize")

    def test_malformed_inline_json_exit_2(self):
        code, _, err = run_cli("optimize", "--ensemble", '{"kind":')
        assert code == 2


def test_cli_and_dilation_import_neither_scipy_nor_numpy_ma():
    # a fresh interpreter: the test session itself may have loaded both
    script = (
        "import sys, qsd.cli\n"
        "from qsd import build_dilation, symmetric_optimal_coupling\n"
        "build_dilation(symmetric_optimal_coupling(3, 0.5))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
