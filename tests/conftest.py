from pathlib import Path

import pytest

from kdilate.graphalg import Graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def graph_e() -> Graph:
    """Four vertices with loop multiplicities 8, 3, 4, 6 and the edges
    v1->v2, v1->v3, v2->v4, v3->v4."""
    return Graph(
        ["v1", "v2", "v3", "v4"],
        [[8, 1, 1, 0],
         [0, 3, 0, 1],
         [0, 0, 4, 1],
         [0, 0, 0, 6]])


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {status} {report.nodeid.split('::')[-1]}")
