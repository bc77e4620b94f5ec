"""Simulated outputs of one run, and the checks every run must pass.

The outputs are what a speed-only change must leave identical: the
aggregated :class:`~repro.metrics.collector.PhaseMetrics` (``sim_tps`` is
its ``overall_throughput``; latency p50/p95/p99 and the per-phase figures
are fields of it), the transaction outcome counts and the blocks cut.
Kernel event counts and trace digests are not outputs: an event diet
changes them by design, so they are recorded for information only.
"""

from __future__ import annotations

import json
import pathlib

#: Default-seed outputs of every workload at full size, checked exactly.
EXPECTED_FILE = pathlib.Path(__file__).with_name("expected.json")

#: The paper's Table II AND5 validate-bound throughput, in tps.
PAPER_AND5_TPS = 210.0


def simulated_outputs(network, phase_metrics) -> dict:
    """The run's simulated outputs as one JSON-ready dict."""
    cuts = network.metrics.block_cuts
    return {"phase": phase_metrics.as_dict(),
            "counts": outcome_counts(network),
            "blocks": len(cuts),
            "ordered_tx": sum(size for _, size, _, _ in cuts)}


def outcome_counts(network) -> dict[str, int]:
    """Where every submitted transaction ended at the drained horizon.

    ``valid`` and ``invalid`` are on the first peer's chain (every channel);
    ``rejected`` means the client gave up and the transaction never reached
    the chain; ``rejected_then_committed`` counts client give-ups whose
    transaction was committed anyway (a client-side ordering timeout past
    the validate knee) and is already inside ``valid`` or ``invalid``.
    """
    from repro.common.types import ValidationCode

    records = network.metrics.records
    on_chain: dict[str, bool] = {}
    valid = invalid = 0
    peer = network.peers[0]
    for channel in network.channel_names:
        ledger = peer.ledger_for(channel)
        for block in ledger.blocks:
            flags = block.metadata.validation_flags
            for tx, flag in zip(block.transactions, flags):
                ok = flag is ValidationCode.VALID
                on_chain[tx.tx_id] = ok
                valid += ok
                invalid += not ok
    rejected_ids = {tx_id for tx_id, record in records.items()
                    if record.rejected is not None}
    rejected = len(rejected_ids - on_chain.keys())
    return {
        "submitted": sum(client.submitted for client in network.clients),
        "valid": valid,
        "invalid": invalid,
        "rejected": rejected,
        "rejected_then_committed": len(rejected_ids) - rejected,
        "in_flight": len(records.keys() - on_chain.keys() - rejected_ids),
        "client_rejected": sum(client.rejected for client in network.clients),
        "records": len(records),
        "on_chain_distinct": len(on_chain),
        "ledger_valid": sum(peer.ledger_for(c).valid_tx_count
                            for c in network.channel_names),
        "ledger_invalid": sum(peer.ledger_for(c).invalid_tx_count
                              for c in network.channel_names),
        "phantoms": len(on_chain.keys() - records.keys()),
    }


def run_checks(network, outputs: dict) -> list[str]:
    """Invariants every run must hold, whatever the seed.

    Returns the failed checks (empty when all hold).
    """
    failures = []
    try:
        network.assert_ledgers_consistent()
    except AssertionError as error:
        failures.append(f"ledgers inconsistent: {error}")
    counts = outputs["counts"]
    if counts["phantoms"]:
        failures.append(f"{counts['phantoms']} on-chain transactions were "
                        "never submitted")
    if counts["on_chain_distinct"] != counts["valid"] + counts["invalid"]:
        failures.append("a transaction id is on the chain twice")
    if (counts["ledger_valid"], counts["ledger_invalid"]) != (
            counts["valid"], counts["invalid"]):
        failures.append("ledger counters disagree with the chain's flags")
    if counts["submitted"] != counts["records"]:
        failures.append("client submit counters disagree with the "
                        "metrics records")
    if counts["client_rejected"] != (counts["rejected"]
                                     + counts["rejected_then_committed"]):
        failures.append("client reject counters disagree with the "
                        "metrics records")
    total = (counts["valid"] + counts["invalid"] + counts["rejected"]
             + counts["in_flight"])
    if counts["submitted"] != total:
        failures.append(f"conservation: submitted {counts['submitted']} != "
                        f"valid + invalid + rejected + in flight {total}")
    return failures


def load_expected(path: pathlib.Path = EXPECTED_FILE) -> dict:
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def compare(expected, actual, where: str = "") -> list[str]:
    """Every leaf where ``actual`` differs from ``expected``, exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        diffs = []
        for key in sorted(expected.keys() | actual.keys()):
            if key not in actual or key not in expected:
                diffs.append(f"{where}{key}: only in "
                             f"{'expected' if key in expected else 'actual'}")
            else:
                diffs.extend(compare(expected[key], actual[key],
                                     f"{where}{key}."))
        return diffs
    if expected != actual:
        return [f"{where.rstrip('.')}: expected {expected!r}, "
                f"got {actual!r}"]
    return []
