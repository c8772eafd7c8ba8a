"""The CLI's own numbers, as printed at 12 significant digits, against a recorded fixture.

The fixture holds the exit code and stdout of each command below.  It
changes only when an output moves on purpose; then re-record it with

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from lambshift.cli import main

FIXTURE = Path(__file__).with_name("data") / "cli_outputs.json"
COMMANDS = [f"table --id {i} --format csv" for i in (1, 2, 3)] + [
    f"{command} --n {N} --l {L} --format json"
    for N, L in ((5, 0), (8, 3), (20, 10), (3, 2), (50, 49))
    for command in ("shift", "bethe")
]


def _run(command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(command.split())
    return {"exit": status, "stdout": out.getvalue()}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_equals_fixture(command, monkeypatch):
    monkeypatch.delenv("LAMBSHIFT_CONSTANTS", raising=False)
    assert _run(command) == json.loads(FIXTURE.read_text())[command]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({command: _run(command) for command in COMMANDS}, indent=1) + "\n")
