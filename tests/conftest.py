"""Shared test configuration.

Every randomized test draws from a ``random.Random`` seeded through the
``--seed`` command line option, so failures replay exactly.  Every
``functools.lru_cache`` in ``qclrc`` is cleared before each test, so a
test runs as it would alone and no test's coverage of a kernel depends on
which tests ran before it.
"""

from __future__ import annotations

import random
import sys

import pytest

DEFAULT_SEED = 20260819


def pytest_addoption(parser):
    parser.addoption(
        "--seed", action="store", type=int, default=DEFAULT_SEED,
        help="seed for randomized property tests")


def _qclrc_caches() -> list:
    """Every lru_cache of a qclrc module: module functions and methods of
    the module's classes."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] != "qclrc":
            continue
        for obj in vars(mod).values():
            owned = [obj]
            if isinstance(obj, type) and obj.__module__ == name:
                owned += vars(obj).values()
            for fn in owned:
                if callable(getattr(fn, "cache_clear", None)):
                    found[id(fn)] = fn
    return list(found.values())


@pytest.fixture(autouse=True)
def _cold_caches():
    for fn in _qclrc_caches():
        fn.cache_clear()


@pytest.fixture
def rng(request) -> random.Random:
    return random.Random(request.config.getoption("--seed"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in name:
                short = name.split("::")[-1]
                verdict = "PASS" if outcome == "passed" else "FAIL"
                lines[short] = verdict
    if lines:
        terminalreporter.section("acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"{name}: {lines[name]}")
