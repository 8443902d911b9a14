"""Fixtures shared by the test modules."""

import pytest

import u2sing.sweep as sweep


@pytest.fixture
def small_global_bounds(monkeypatch):
    """``verify`` runs the HJ round trip and the Eisenstein identity to 10,
    not to ``HJ_P_MAX`` = 500 and ``EISENSTEIN_N_MAX`` = 200: for tests of
    the per-spec sweep, which would otherwise pay about 75 ms a call."""
    monkeypatch.setattr(sweep, "HJ_P_MAX", 10)
    monkeypatch.setattr(sweep, "EISENSTEIN_N_MAX", 10)
