import subprocess
import sys

import qsd


def test_every_export_resolves():
    assert [name for name in qsd.__all__ if not hasattr(qsd, name)] == []


def test_exports_sorted_without_duplicates():
    assert list(qsd.__all__) == sorted(set(qsd.__all__))


def test_star_import_in_fresh_interpreter():
    # a fresh interpreter: the test session has already imported qsd
    script = (
        "from qsd import *\n"
        "import qsd\n"
        "print(sorted(set(qsd.__all__) - set(globals())))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
