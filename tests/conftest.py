from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import golden

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The suite with ten times the examples, for the differential tests of the
# fast kernels, marked deep: `-m deep --hypothesis-profile=deep`.  A test
# that sets its own max_examples scales it with `strategies.examples`.
# pytest imports this file before the hypothesis plugin reads that option,
# so the option wins over the load below.
settings.register_profile(
    "deep",
    settings.get_profile("suite"),
    max_examples=10 * settings.get_profile("suite").max_examples,
)
settings.load_profile("suite")

DATA_DIR = Path(__file__).parent / "data"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion after the test summary."""
    acceptance = sys.modules.get("test_acceptance")
    lines = list(getattr(acceptance, "CRITERION_LINES", ())) if acceptance else []
    for report in terminalreporter.stats.get("skipped", ()):
        match = re.search(r"test_criterion_(\d+)", report.nodeid)
        if match is None:
            continue
        reason = report.longrepr[2] if isinstance(report.longrepr, tuple) else str(report.longrepr)
        reason = reason.removeprefix("Skipped: ")
        lines.append(f"criterion {match.group(1)}: SKIP - {reason}")
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(set(lines), key=lambda s: int(s.split(":")[0].split()[1])):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def five():
    return golden.scale()


@pytest.fixture(scope="session")
def decathlon():
    return golden.graded_matrix()


@pytest.fixture(scope="session")
def reference_factors():
    return golden.reference_factors()


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture()
def scores_csv(data_dir):
    return data_dir / "decathlon_scores.csv"


@pytest.fixture()
def ranges_csv(data_dir):
    return data_dir / "decathlon_ranges.csv"


@pytest.fixture()
def graded_csv(data_dir):
    return data_dir / "decathlon_graded.csv"
