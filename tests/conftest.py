"""Shared fixtures: one root datum, lattice, and engine per test word.

Property tests run under one deterministic hypothesis profile: derandomized,
with no example database and no deadline, so the suite gives the same
result on every run; each test sets only its own max_examples.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from bottsam import CartanDatum, OkounkovEngine, PicardLattice, WeylWord

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def a1():
    return CartanDatum.from_type("A1")


@pytest.fixture(scope="session")
def a2():
    return CartanDatum.from_type("A2")


@pytest.fixture(scope="session")
def b2():
    return CartanDatum.from_type("B2")


@pytest.fixture(scope="session")
def lattice_a1(a1):
    return PicardLattice(a1, WeylWord([1]))


@pytest.fixture(scope="session")
def lattice_a2_12(a2):
    return PicardLattice(a2, WeylWord([1, 2]))


@pytest.fixture(scope="session")
def lattice_a2_121(a2):
    return PicardLattice(a2, WeylWord([1, 2, 1]))


@pytest.fixture(scope="session")
def lattice_b2_12(b2):
    return PicardLattice(b2, WeylWord([1, 2]))


@pytest.fixture(scope="session")
def okounkov_a1(lattice_a1):
    return OkounkovEngine(lattice_a1)


@pytest.fixture(scope="session")
def okounkov_a2_12(lattice_a2_12):
    return OkounkovEngine(lattice_a2_12)


@pytest.fixture(scope="session")
def okounkov_a2_121(lattice_a2_121):
    return OkounkovEngine(lattice_a2_121)


@pytest.fixture(scope="session")
def okounkov_b2_12(lattice_b2_12):
    return OkounkovEngine(lattice_b2_12)
