"""Fixtures shared by the test modules."""

import pytest

import u2sing.resolution as resolution
import u2sing.sweep as sweep
from u2sing.catalog import _gstar, _gstar_closure


@pytest.fixture
def small_global_bounds(monkeypatch):
    """``verify`` runs the HJ round trip and the Eisenstein identity to 10,
    not to ``HJ_P_MAX`` = 500 and ``EISENSTEIN_N_MAX`` = 200: for tests of
    the per-spec sweep, which would otherwise pay about 75 ms a call."""
    monkeypatch.setattr(sweep, "HJ_P_MAX", 10)
    monkeypatch.setattr(sweep, "EISENSTEIN_N_MAX", 10)


@pytest.fixture
def fresh_caches():
    """Empty process caches, emptied again after the test: the checked G*
    with the tables built on them (``catalog._gstar``, whose
    ``GStar.tables`` go with it: Dimino's products and the Mobius-image
    stabilizers of ``resolution._image_stabilizers``) and the G* closures
    (``_gstar_closure``).  A test that patches a stage they cache computes
    every entry under its patch, whatever ran before it, and leaves no
    patched entry to another test."""
    caches = (_gstar, _gstar_closure)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def stabilizer_builds(monkeypatch):
    """The builds of Mobius-image stabilizers during the test: one entry,
    the image's order h, each time ``resolution._stabilizers`` is run."""
    builds = []
    real = resolution._stabilizers

    def counted(table):
        builds.append(len(table))
        return real(table)

    monkeypatch.setattr(resolution, "_stabilizers", counted)
    return builds
