"""CLI outputs compared byte for byte against recorded ones.

Each case runs ``imcoalg.cli.main(argv)`` in a fresh directory holding the
frame files of ``tests/golden/`` and compares the exit code, stdout,
stderr and every file the command wrote with ``tests/golden/cli.json``.
The benchmark digests cover only the complex, freealg and bisim reports
of passing runs; these cases cover check, mc, lift, export, the DOT/JSON
writers, and bisim runs that fail, stop on an error or print
distinguishing formulas.

Record the expected outputs again with ``python tests/test_cli_golden.py``
(``src/`` on the import path); only do so for an intended report change.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from imcoalg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "cli.json"
FRAMES = (
    "chain.frame", "cycle.frame", "diamond.frame", "mixfail.frame",
    "pair.frame", "step.frame", "undeclared.frame",
)
WRITES = ["--dot", "out.dot", "--json", "out.json"]

CASES = {
    "check-chain": ["check", "chain.frame", "--report", "report.json"],
    "check-chain-strict": ["check", "chain.frame", "--strict-nbhd"],
    "check-chain-close": ["check", "chain.frame", "--close-valuations"],
    "check-chain-strict-close": [
        "check", "chain.frame", "--strict-nbhd", "--close-valuations"
    ],
    "check-diamond-strict": ["check", "diamond.frame", "--strict-nbhd"],
    "check-mixfail": ["check", "mixfail.frame"],
    "mc-chain": ["mc", "chain.frame", "[]p"],
    "mc-chain-close": ["mc", "chain.frame", "q -> []p", "--close-valuations"],
    "mc-chain-close-neg": ["mc", "chain.frame", "~[]q", "--close-valuations"],
    "mc-diamond": ["mc", "diamond.frame", "q | ~q"],
    "mc-diamond-box": ["mc", "diamond.frame", "[]p & (q -> []q)"],
    "mc-mixfail": ["mc", "mixfail.frame", "p"],
    "bisim-chain-diamond": [
        "bisim", "chain.frame", "diamond.frame", "--close-valuations",
        "--report", "report.json",
    ],
    "bisim-chain-step-distinguish": [
        "bisim", "chain.frame", "step.frame", "--distinguish", "1",
        "--close-valuations",
    ],
    "bisim-step-chain-distinguish": [
        "bisim", "step.frame", "chain.frame", "--distinguish", "2",
        "--close-valuations",
    ],
    "bisim-mixfail": ["bisim", "chain.frame", "mixfail.frame"],
    "bisim-cycle": ["bisim", "chain.frame", "cycle.frame"],
    "bisim-undeclared": ["bisim", "chain.frame", "undeclared.frame"],
    "bisim-missing-file": ["bisim", "chain.frame", "nope.frame"],
    "lift-chain": ["lift", "chain.frame", "--depth", "2"],
    "lift-diamond": ["lift", "diamond.frame", "--depth", "2"],
    "lift-mixfail": ["lift", "mixfail.frame", "--depth", "2"],
    "export-chain": ["export", "chain.frame", "--close-valuations"] + WRITES,
    "export-chain-unclosed": ["export", "chain.frame", "--json", "out.json"],
    "export-chain-dot": ["export", "chain.frame", "--dot", "out.dot"],
    "export-diamond": ["export", "diamond.frame"] + WRITES,
    "complex-chain": ["complex", "chain.frame", "--depth", "2"] + WRITES,
    "complex-diamond": ["complex", "diamond.frame"] + WRITES,
    "complex-pair-depth3": ["complex", "pair.frame", "--depth", "3"] + WRITES,
    "freealg-1": ["freealg", "--generators", "1", "--stages", "1"] + WRITES,
    "freealg-2": [
        "freealg", "--generators", "1", "--stages", "2", "--inner-depth", "1"
    ] + WRITES,
    "freealg-gen2": ["freealg", "--generators", "2", "--stages", "1"] + WRITES,
}


def run_case(argv, workdir):
    """Exit code, stdout, stderr and the written files of one CLI run in
    workdir, which starts with only the frame files in it."""
    for name in FRAMES:
        shutil.copyfile(GOLDEN / name, workdir / name)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    finally:
        os.chdir(cwd)
    files = {
        path.name: path.read_bytes().decode()
        for path in sorted(workdir.iterdir())
        if path.name not in FRAMES
    }
    return {"exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


def test_every_case_is_recorded(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_recording(case, expected, tmp_path):
    assert run_case(CASES[case], tmp_path) == expected[case]


def record(scratch):
    """Run every case under scratch and write the outputs to EXPECTED."""
    out = {}
    for case, argv in sorted(CASES.items()):
        workdir = scratch / case
        workdir.mkdir()
        out[case] = run_case(argv, workdir)
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
