"""Fixtures shared by the test modules."""

import pytest

import u2sing.sweep as sweep
from u2sing.resolution import _image_stabilizers


@pytest.fixture
def small_global_bounds(monkeypatch):
    """``verify`` runs the HJ round trip and the Eisenstein identity to 10,
    not to ``HJ_P_MAX`` = 500 and ``EISENSTEIN_N_MAX`` = 200: for tests of
    the per-spec sweep, which would otherwise pay about 75 ms a call."""
    monkeypatch.setattr(sweep, "HJ_P_MAX", 10)
    monkeypatch.setattr(sweep, "EISENSTEIN_N_MAX", 10)


@pytest.fixture
def fresh_images():
    """An empty memo of Mobius-image stabilizers, emptied again after the
    test, so that a test that patches ``_stabilizers`` or ``_mobius_table``
    computes every image under its patch, whatever ran before it, and
    leaves no patched entry to another test."""
    _image_stabilizers.cache_clear()
    yield
    _image_stabilizers.cache_clear()
