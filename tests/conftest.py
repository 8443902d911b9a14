"""Fixtures shared by the test modules."""

import pytest

import u2sing.sweep as sweep
from u2sing.catalog import _gstar, _gstar_closure
from u2sing.resolution import _image_stabilizers


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
    with the tables Dimino built on them (``catalog._gstar``, whose
    ``GStar.tables`` go with it), the G* closures (``_gstar_closure``) and
    the memo of Mobius-image stabilizers (``resolution._image_stabilizers``).
    A test that patches a stage they cache computes every entry under its
    patch, whatever ran before it, and leaves no patched entry to another
    test."""
    caches = (_gstar, _gstar_closure, _image_stabilizers)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
