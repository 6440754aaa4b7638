"""Shared fixtures."""

import pytest

from ipcsim.plant import SurrogatePlant


@pytest.fixture
def advance_block_rows(monkeypatch):
    """Row counts of every SurrogatePlant.advance_block call in the test."""
    rows, real = [], SurrogatePlant.advance_block

    def counted(self, u_eff, d, e):
        out = real(self, u_eff, d, e)
        rows.append(len(out))
        return out

    monkeypatch.setattr(SurrogatePlant, "advance_block", counted)
    return rows
