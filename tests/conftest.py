"""Shared fixtures; the naive reference implementations are in
``naive_reference.py``."""

from __future__ import annotations

import pytest

from bxoslab import ItemSet, RngStream
from bxoslab.construction import reference_configuration


@pytest.fixture(scope="session")
def reference():
    return reference_configuration()


@pytest.fixture()
def rng():
    return RngStream(20260808, 0)


def make_set(m, items):
    return ItemSet.from_indices(m, items)
