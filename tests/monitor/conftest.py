"""Shared monitor fixtures: the session lab capture as an index."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def lab_index(lab_records):
    """``lab_records`` as a built :class:`CaptureIndex`."""
    from repro.net.columnar import PacketTable
    from repro.net.decode import DecodeErrorLog
    from repro.net.index import CaptureIndex

    table = PacketTable()
    table.extend_records(lab_records, DecodeErrorLog())
    return CaptureIndex(table)
