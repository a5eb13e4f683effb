"""Golden ``--no-timings`` reports, compared byte for byte.

Every experiment at ranks 2-5 (``--seed 3 --samples 6``), and ``fold`` and
``path-bases`` on four bases, must write the JSON report stored under
``tests/data/reports/``, exit with the stored code and print the stored
stderr.  Two runs of one tree agreeing (the acceptance check) does not show
that a refactor left the reports alone; these files do.

A change that means to alter a report regenerates them with
``PYTHONPATH=src python tests/test_reports.py`` and says so.
"""

import contextlib
import io
import json
import pathlib

import pytest

from freebases.cli import EXPERIMENTS, main

DATA = pathlib.Path(__file__).parent / "data" / "reports"
BASES = (
    "ab,b,c",
    "aBab,bab,c",
    "abcA,aBcA,acA",
    "cbbcbAA,cbAcbbcbbcbAAcbAA,cbbcbAAcbAA",
)


def _cases():
    cases = {}
    for name in sorted(EXPERIMENTS):
        for rank in range(2, 6):
            cases["experiment-%s-rank%d" % (name, rank)] = [
                "experiment", name, "--rank", str(rank), "--seed", "3", "--samples", "6",
            ]
    for k, basis in enumerate(BASES):
        cases["fold-%d" % k] = ["fold", "--basis", basis]
        cases["path-bases-%d" % k] = ["path-bases", "--b", basis]
    return cases


CASES = _cases()


def _run(argv, report):
    """Exit code, stderr and report bytes (None when none was written)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv + ["--no-timings", "--json", str(report)])
    return rc, err.getvalue(), report.read_bytes() if report.exists() else None


def _expected():
    with open(DATA / "expected.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path):
    want = _expected()[case]
    assert want["argv"] == CASES[case]
    rc, err, report = _run(CASES[case], tmp_path / "report.json")
    assert (rc, err) == (want["exit"], want["stderr"])
    golden = DATA / ("%s.json" % case)
    assert report == (golden.read_bytes() if golden.exists() else None)


def regenerate():
    """Rewrite every golden report and the expected exit codes and stderr."""
    DATA.mkdir(parents=True, exist_ok=True)
    expected = {}
    for case, argv in sorted(CASES.items()):
        golden = DATA / ("%s.json" % case)
        if golden.exists():
            golden.unlink()
        rc, err, _ = _run(argv, golden)
        expected[case] = {"argv": argv, "exit": rc, "stderr": err}
    with open(DATA / "expected.json", "w") as fh:
        json.dump(expected, fh, sort_keys=True, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
