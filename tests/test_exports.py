import dataclasses
import subprocess
import sys

import pytest

import qsd


def test_every_export_resolves():
    assert [name for name in qsd.__all__ if not hasattr(qsd, name)] == []


def test_exports_sorted_without_duplicates():
    assert list(qsd.__all__) == sorted(set(qsd.__all__))
    # the one route to the optimal coupling is public
    assert "optimal_coupling" in qsd.__all__


def test_star_import_in_fresh_interpreter():
    # a fresh interpreter: the test session has already imported qsd; only
    # ensemble_from_json's string branch loads json
    script = (
        "import sys\n"
        "from qsd import *\n"
        "import qsd\n"
        "assert 'json' not in sys.modules\n"
        "print(sorted(set(qsd.__all__) - set(globals())))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _array_holders():
    ens = qsd.gram_psk(3, 0.5)
    coupling = qsd.circulant_optimal_coupling(ens)
    return {
        "Ensemble": ens,
        "SpectralFactor": qsd.spectral_factor(ens),
        "CouplingMatrix": coupling,
        "DilationModel": qsd.build_dilation(coupling),
        "OptimizeResult": qsd.optimize_general(ens),
        "SimulationReport": qsd.run_monte_carlo(coupling, 1000, 1),
    }


@pytest.mark.parametrize("name", list(_array_holders()))
def test_array_holders_compare_by_identity(name):
    # a generated == compares the array fields and raises; these types
    # compare and hash by identity instead
    x = _array_holders()[name]
    assert type(x).__name__ == name
    assert x == x
    assert hash(x) == hash(x)
    assert (x == dataclasses.replace(x)) is False
