"""Distributed validation service: the campaign job table over TCP.

A campaign directory is still the unit of truth — this package only
changes *who drives it*.  There is one job table,
:class:`repro.campaign.coordinator.Coordinator`, and one worker-side unit
loop, :class:`repro.campaign.supervisor.UnitLoop`; a local campaign
connects the two in process.  This package puts a network between them:
:mod:`.server` serves the coordinator over a length-prefixed JSON/TCP
protocol (:mod:`.protocol`) and sweeps expired leases, and worker clients
(:mod:`.worker`) run the unit loop over that channel with a heartbeat,
bounded reconnects and a graceful drain.  Every transition is journaled,
so ``repro campaign status``/``resume`` and the deterministic merger
treat a service-run directory exactly like a local one.
"""

from repro.campaign.coordinator import Coordinator, ServiceConfig
from repro.campaign.leases import Lease, LeaseTable
from repro.campaign.supervisor import WorkerSummary
from repro.service.protocol import (
    MessageChannel,
    ProtocolError,
    connect,
    parse_address,
)
from repro.service.server import query_status, serve_campaign
from repro.service.worker import ServiceWorker, WorkerConfig, run_worker

__all__ = [
    "Coordinator",
    "Lease",
    "LeaseTable",
    "MessageChannel",
    "ProtocolError",
    "ServiceConfig",
    "ServiceWorker",
    "WorkerConfig",
    "WorkerSummary",
    "connect",
    "parse_address",
    "query_status",
    "run_worker",
    "serve_campaign",
]
