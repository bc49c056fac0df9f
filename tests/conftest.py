"""Shared fixtures plus the acceptance-criteria summary section.

The package caches no catalog and no lattice: each catalog() call builds
new groups, apart from the Theorem A groups that families.theorem_a_group
builds once, and each all_subgroups() call walks the lattice again. So the
session fixtures here are what the tests share: a catalog built once, and
lattices64, the lattice of every catalog(64) group, walked once for the
tests that need all of them."""

import sys

import pytest

import grouplattice as gl


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # re-emit the acceptance CRITERION lines after capture ends, so they
    # show up in every run mode; the list lives in test_acceptance.py
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def catalog36():
    return gl.catalog(36)


@pytest.fixture(scope="session")
def catalog64():
    return gl.catalog(64)


@pytest.fixture(scope="session")
def lattices64(catalog64):
    return tuple(gl.all_subgroups(entry.group) for entry in catalog64)


@pytest.fixture(scope="session")
def s3():
    return gl.symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return gl.symmetric(4)


@pytest.fixture(scope="session")
def d8():
    return gl.dihedral(4)


@pytest.fixture(scope="session")
def d12():
    return gl.dihedral(6)
