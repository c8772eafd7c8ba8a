"""The CLI's own numbers, as printed at 12 significant digits, against a recorded fixture.

The fixture holds the exit code and stdout of each command below.  It
changes only when an output moves on purpose; then re-record it with

    PYTHONPATH=src python tests/test_cli_outputs.py

which first prints each value that moved, one line each: the command, the
JSON field or the CSV cell, and old -> new.
"""

import contextlib
import csv
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
] + [
    "shift --n 3 --l 1 --dipole --cutoff-x 1e4 --format json",
    "shift --n 2 --l 0 --dipole --cutoff-x 1e3 --format csv",
    # exits 2 with no output: the cutoff lies below the (2, 1) pole
    "shift --n 2 --l 1 --dipole --cutoff-x 1e-9",
    # no open channel: the PV term is a zero column times a negative prefactor
    "shift --n 1 --l 0 --format json",
    # residues past N = 4 (row tables of Jacobi degree up to 12 in both
    # approximations) and the oracles' Jacobi recurrence (kernel_q)
    "rates --n 20 --l 7 --format json",
    "rates --n 12 --l 0 --dipole --format csv",
    "verify --format json",
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


def _leaves(value, path: str = ""):
    """(path, value) of each scalar of a parsed JSON document, paths as field.sub[index]."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _cells(stdout: str):
    """(line i (the row's cells before this one), column, value) of each CSV cell."""
    header, *rows = [*csv.reader(io.StringIO(stdout))] or [[]]
    for i, row in enumerate(rows, start=2):
        for j, (column, value) in enumerate(zip(header, row)):
            yield f"line {i} ({','.join(row[:j])}) {column}", value


def moved(old: dict, new: dict) -> list[str]:
    """One line per value that differs between two recordings: command, field or cell, old -> new."""
    lines = []
    for command in dict.fromkeys([*old, *new]):
        if command not in old or command not in new:
            lines.append(f"{command}: {'added' if command in new else 'removed'}")
            continue
        before, after = old[command], new[command]
        if before["exit"] != after["exit"]:
            lines.append(f"{command}: exit {before['exit']} -> {after['exit']}")
        try:
            pairs = [dict(_leaves(json.loads(out["stdout"]))) for out in (before, after)]
        except json.JSONDecodeError:
            pairs = [dict(_cells(out["stdout"])) for out in (before, after)]
        for field in dict.fromkeys([*pairs[0], *pairs[1]]):
            was, now = (p.get(field, "(none)") for p in pairs)
            if repr(was) != repr(now):  # == would pass -0.0 for 0.0
                lines.append(f"{command}: {field}: {was} -> {now}")
    return lines


def test_moved_names_each_changed_field_and_cell():
    old = {"a": {"exit": 0, "stdout": '{"x": 1, "d": {"e": [1, 2]}}'}, "t": {"exit": 0, "stdout": "k,v\n1,2\n3,4\n"}}
    new = {"a": {"exit": 0, "stdout": '{"x": 1, "d": {"e": [1, 5]}}'}, "t": {"exit": 2, "stdout": "k,v\n1,2\n3,6\n"}}
    assert moved(old, new) == ["a: d.e[1]: 2 -> 5", "t: exit 0 -> 2", "t: line 3 (3) v: 4 -> 6"]
    assert moved(old, old) == []
    signed = {"z": {"exit": 0, "stdout": '{"v": -0.0}'}}
    assert moved(signed, {"z": {"exit": 0, "stdout": '{"v": 0.0}'}}) == ["z: v: -0.0 -> 0.0"]


if __name__ == "__main__":
    recorded = {command: _run(command) for command in COMMANDS}
    previous = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    print("\n".join(moved(previous, recorded)) or "no value moved")
    FIXTURE.write_text(json.dumps(recorded, indent=1) + "\n")
