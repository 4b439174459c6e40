"""Byte-for-byte stdout of fixed commands.

Each file in ``golden/`` holds the stdout of one command below, written by
``python -m qsd <argv> > tests/golden/<name>.out`` from the repository root:
the first seven at 74f177e, the five from ``psk16_coupling`` on at 65fbc0e;
``bound`` and ``symmetric`` again (last digits) when the binary and
equal-overlap closed forms stopped subtracting nearly equal numbers.
Those five cover the circulant routes: the closed form, the dilation check
on its coupling, the dilation a 10^6-shot simulation builds, and
``psk5_near_circulant.json``, a 5-PSK Gram at alpha_sq = 0.7 with 1e-12
added at (1, 3) and its conjugate, which takes ``eigh`` at validation but
the circulant closed form for ``--coupling optimal``.  ``optimize`` ran
with ``--max-iters 50`` until that flag went; its bytes did not move.
``psk3`` and ``psk4`` again (last two digits of p_error: 0.053379611601847066
to ...073 and 0.029338893380679274 to ...281) when ``qsd psk`` took the
coupling's ``error_probability`` in place of its first row's off-diagonal
mass, and ``sweep_psk`` again when the circulant SRM oracle got its own
spectrum: the 8-PSK alpha_sq = 0.05 ``p_err_srm`` cell moved from
0.810000147972 to 0.810000147973, mpmath's 0.8100001479728263 correctly
rounded.  ``dilation_psk5`` again (last digits of its residuals: unitary
8.74e-16 to 5.12e-16, gram 3.33e-16 to 2.83e-16, map 2.233e-16 to
2.238e-16) when validation took an exact circulant's eigenvalues from
``numpy.fft``, the closed form's spectrum, in place of a direct DFT whose
twiddles are not exact (``exp(2j*pi/3).real`` is -0.4999999999999998).
A change that moves one byte of these outputs fails here; the
ROADMAP promises that default stdout stays byte-identical.
"""

from pathlib import Path

import pytest

from conftest import main_cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "bound": ["bound", "--eta1", "0.25", "--overlap-re", "0.6", "--overlap-im", "0.2"],
    "symmetric": ["symmetric", "--n", "4", "--s", "0.3", "--emit-coupling"],
    "psk3": ["psk", "--n", "3", "--alpha-sq", "0.8"],
    "psk4": ["psk", "--n", "4", "--alpha-sq", "1.5"],
    "simulate": [
        "simulate", "--ensemble", '{"kind":"psk","n":3,"alpha_sq":0.5}',
        "--shots", "100000", "--seed", "7",
    ],
    "sweep": [
        "sweep", "--family", "symmetric", "--n", "2,3,5", "--axis", "s", "--min", "-0.2",
        "--max", "0.9", "--steps", "12", "--outputs", "closed_form,srm_oracle",
    ],
    "optimize": [
        "optimize", "--ensemble", '{"kind":"binary","overlap":{"re":0.6,"im":0.2},"eta1":0.3}',
    ],
    "psk16_coupling": ["psk", "--n", "16", "--alpha-sq", "1.0", "--emit-coupling"],
    "dilation_psk5": [
        "dilation", "--ensemble", '{"kind":"psk","n":5,"alpha_sq":0.7}', "--check",
    ],
    "simulate_dilation": [
        "simulate", "--ensemble", '{"kind":"symmetric","n":4,"s":0.4}',
        "--shots", "1000000", "--seed", "3",
    ],
    "simulate_near_circulant": [
        "simulate", "--ensemble", str(GOLDEN / "psk5_near_circulant.json"),
        "--shots", "100000", "--seed", "5",
    ],
    "sweep_psk": [
        "sweep", "--family", "psk", "--n", "3,8", "--axis", "alpha_sq", "--min", "0.05",
        "--max", "4", "--steps", "9", "--outputs", "srm_oracle,optimizer",
    ],
}


def test_every_golden_file_has_a_command():
    assert sorted(path.stem for path in GOLDEN.glob("*.out")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_bytes(name):
    code, out, err = main_cli(*COMMANDS[name])
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
