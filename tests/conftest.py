from types import SimpleNamespace

import pytest

from tauwaring import verify
from tauwaring.divisor_arith import build_sigma_table, sieve_spf
from tauwaring.tau_core import build_prime_tau_map, build_tau_table_series

# Verdict lines recorded by the acceptance tests; echoed after the run so
# they show up without -s.
acceptance_verdicts: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def table_2k():
    return build_tau_table_series(2000)


@pytest.fixture(scope="session")
def table_20k():
    return build_tau_table_series(20_000)


@pytest.fixture(scope="session")
def table_100k():
    return build_tau_table_series(100_000)


@pytest.fixture(scope="session")
def spf_2k():
    return sieve_spf(2000)


@pytest.fixture(scope="session")
def spf_100k():
    return sieve_spf(100_000)


@pytest.fixture(scope="session")
def prime_tau_2k(table_2k):
    return build_prime_tau_map(table_2k)


@pytest.fixture(scope="session")
def sigma1_2k():
    return build_sigma_table(1, 2000)


@pytest.fixture(scope="session")
def sigma5_2k():
    return build_sigma_table(5, 2000)


@pytest.fixture(scope="session")
def sigma11_2k():
    return build_sigma_table(11, 2000)


@pytest.fixture
def parsed_lines(monkeypatch):
    """The counts of table value lines that verify.load_table turns into ints,
    one per block, through its json.loads fast path or its _load_lines loop."""
    counts = []
    loads, load_lines = verify.json.loads, verify._load_lines

    def counted_loads(text):
        nums = loads(text)
        counts.append(len(nums) // 2)
        return nums

    def counted_lines(lines, n, values):
        counts.append(len(lines))
        return load_lines(lines, n, values)

    monkeypatch.setattr(verify, "json", SimpleNamespace(loads=counted_loads))
    monkeypatch.setattr(verify, "_load_lines", counted_lines)
    return counts
