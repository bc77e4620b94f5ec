"""Suite-wide pytest configuration and shared test helpers.

Two things live here:

1. The ``--update-golden`` flag, which lets the golden-record tests
   rewrite ``tests/fabric/golden/digests.json`` instead of asserting
   against it (see ``tests/fabric/test_golden_digests.py``).

2. Fixture helpers that used to be duplicated between
   ``tests/peer/helpers.py`` and ``tests/orderer/helpers.py``: the test
   channel name, context construction, and the envelope/rwset builders
   every pipeline test starts from.  The per-package helper modules keep
   their domain-specific rigs (``PeerRig``, ``Sink``) and import the
   shared pieces from here.
"""

from __future__ import annotations

import pytest

from repro.common.types import (
    KVRead,
    KVWrite,
    TransactionEnvelope,
    TxReadWriteSet,
)
from repro.runtime.context import NetworkContext

#: The single channel every pipeline test runs on.
CHANNEL = "mychannel"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the committed golden records (digest, events, "
             "sim_tps) with those observed in this run instead of asserting "
             "against them")


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    """True when the run was invoked with ``--update-golden``."""
    return bool(request.config.getoption("--update-golden"))


def make_context(seed: int = 5) -> NetworkContext:
    """A fresh simulation context with the suite's default seed."""
    return NetworkContext.create(seed=seed)


def write_rwset(key: str, value: bytes = b"v",
                read_version: object = None) -> TxReadWriteSet:
    """The canonical one-read/one-write set used across pipeline tests."""
    return TxReadWriteSet(reads=(KVRead(key, read_version),),
                          writes=(KVWrite(key, value),))


def make_envelope(tx_id: str, channel: str = CHANNEL) -> TransactionEnvelope:
    """An unendorsed envelope (ordering-side tests skip endorsement)."""
    return TransactionEnvelope(
        tx_id=tx_id, channel=channel, chaincode="noop", creator="client0",
        rwset=write_rwset(tx_id), endorsements=(), response_bytes=b"resp")
