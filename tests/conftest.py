"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest


def run_cli(*args: str):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "qsd", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_json(*args: str):
    code, out, err = run_cli(*args)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


@pytest.fixture
def tmp_json(tmp_path):
    def write(obj, name="payload.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write
