"""Run the tier-1 suite and compare its failures with the known-red ledger.

The ledger, known_red.txt beside this script, lists the tier-1 tests known
to fail, one pytest node id a line followed by " # " and the reason; blank
lines and lines that start with "#" are comments.  The script runs the
suite in process (pytest.main on tests/), skipping and deselecting nothing,
and collects every node id whose collection, setup, call or teardown fails.
It prints the pytest summary, then each failure the ledger does not list
and each ledger entry that did not fail, and exits 0 only when the failing
set equals the ledger exactly (and pytest finished its run), else 1.
Needs only the standard library and pytest; run from anywhere:

    python tests/data/known_red.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
LEDGER = Path(__file__).with_name("known_red.txt")


def read_ledger(path: Path) -> dict[str, str]:
    """{node id: reason} of each entry in the ledger."""
    entries = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        node, sep, reason = line.partition(" # ")
        if not sep or not reason.strip():
            raise ValueError(f"{path}:{number}: expected '<node id> # <reason>'")
        entries[node.strip()] = reason.strip()
    return entries


class Outcomes:
    """pytest plugin: the node ids that failed, and those whose call passed."""

    def __init__(self):
        self.failed, self.passed = set(), set()

    def pytest_collectreport(self, report):
        if report.failed:
            self.failed.add(report.nodeid)

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.add(report.nodeid)
        elif report.when == "call" and report.passed:
            self.passed.add(report.nodeid)


def main() -> int:
    ledger = read_ledger(LEDGER)
    outcomes = Outcomes()
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                          "--rootdir", str(ROOT), str(ROOT / "tests")], plugins=[outcomes])
    new = sorted(outcomes.failed - ledger.keys())
    fixed = sorted(ledger.keys() - outcomes.failed)
    for node in new:
        print(f"new failure: {node}")
    for node in fixed:
        print(f"{'now passes' if node in outcomes.passed else 'did not run'}: {node}")
    finished = status in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED)
    if not finished:
        print(f"pytest stopped early: {status!r}")
    print(f"{len(outcomes.failed)} failed, {len(ledger)} in the ledger, "
          f"{len(new)} new, {len(fixed)} no longer failing")
    return 0 if finished and not new and not fixed else 1


if __name__ == "__main__":
    sys.exit(main())
