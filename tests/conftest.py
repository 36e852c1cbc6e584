"""Makes the tests directory importable so suites can share oracles.

Hypothesis runs derandomized, without a deadline and without an example
database, so every run draws the same examples and no example fails on a
slow machine.
"""

import numpy as np
import pytest
from hypothesis import settings

from ringhopf import genericity, spectra

settings.register_profile("ringhopf", derandomize=True, deadline=None, database=None)
settings.load_profile("ringhopf")


@pytest.fixture(autouse=True)
def _fresh_spectrum_memo():
    """Each test solves its own rings: `eigenvalues` returns its last Spectrum for the same
    ring object, which a test that patches spectra's internals must not get from another.
    The forbidden sets likewise keep the data of their last diagonal."""
    spectra._memo = None
    genericity._memo = None


@pytest.fixture
def solves(monkeypatch):
    """The number of Aberth solves, `spectra._aberth_roots` calls, made so far in the test."""
    count = 0
    aberth = spectra._aberth_roots

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return aberth(*args, **kwargs)

    monkeypatch.setattr(spectra, "_aberth_roots", counted)
    return lambda: count


@pytest.fixture
def critical_points(monkeypatch):
    """The number of gaps of A' searched, `spectra._critical_point` calls, so far in the test."""
    count = 0
    find = spectra._critical_point

    def counted(*args):
        nonlocal count
        count += 1
        return find(*args)

    for module in (spectra, genericity):
        monkeypatch.setattr(module, "_critical_point", counted)
    return lambda: count


@pytest.fixture
def eigensolves(monkeypatch):
    """The shape of every array passed to `np.linalg.eigvals` so far in the test."""
    shapes = []
    eigvals = np.linalg.eigvals

    def recorded(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    return shapes
