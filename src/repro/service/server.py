"""The coordinator's TCP front: serve a campaign's job table to workers.

:func:`serve_campaign` plans (or resumes) a campaign exactly like the
single-host supervisor — same manifest, same dedup-class-aware shard
plan — builds its :class:`repro.campaign.coordinator.Coordinator`, and
answers length-prefixed JSON frames (:mod:`.protocol`) by passing each
decoded message to :meth:`Coordinator.handle`.  The serve loop also runs
the lease sweep, the one piece of the job table a local campaign never
needs: it observes its workers' deaths directly, while a remote worker
can only stop renewing.
"""

from __future__ import annotations

import logging
import os
import socketserver
import threading
import time
import traceback

from repro.campaign.coordinator import Coordinator, ServiceConfig
from repro.campaign.journal import Journal, load_state, manifest_path
from repro.campaign.merge import CampaignReport, merge_campaign
from repro.campaign.supervisor import (
    CampaignConfig,
    prepare_campaign,
    prepare_resume,
)
from repro.service.protocol import (
    ProtocolError,
    connect,
    recv_message,
    send_message,
)

logger = logging.getLogger(__name__)


class _ServiceServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, coordinator: Coordinator):
        super().__init__(address, _ConnectionHandler)
        self.coordinator = coordinator


class _ConnectionHandler(socketserver.BaseRequestHandler):
    """One worker connection: decode frames, dispatch, reply."""

    def handle(self):
        sock = self.request
        while True:
            try:
                message = recv_message(sock)
            except ProtocolError as error:
                logger.warning(
                    "dropping connection from %s: %s",
                    self.client_address[0],
                    error,
                )
                return
            if message is None:
                return
            try:
                reply = self.server.coordinator.handle(
                    message, self.client_address[0]
                )
            except Exception:
                detail = traceback.format_exc(limit=8)
                logger.error("handler failure: %s", detail)
                reply = {"type": "error", "detail": detail}
            try:
                send_message(sock, reply)
            except OSError:
                return


def serve_campaign(
    directory: str,
    config: CampaignConfig | None = None,
    service: ServiceConfig | None = None,
    corpus=None,
    on_bound=None,
) -> CampaignReport:
    """Coordinate a campaign over TCP and block until it completes.

    Fresh directories start a new campaign; a directory holding a
    manifest is *resumed* — orphaned in-flight units are re-queued exactly
    once (the same :func:`prepare_resume` plan and coordinator recovery a
    local resume uses) before serving begins.  ``on_bound`` (if given) is
    called with the bound ``(host, port)`` once the server is listening —
    tests and scripts use it to learn an OS-assigned port.

    The coordinator itself needs no drain protocol: every transition is
    journaled before it is acted on, so killing the coordinator at any
    point leaves a directory that ``serve_campaign`` or ``repro campaign
    resume`` completes to the byte-identical report.
    """
    config = config or CampaignConfig()
    service = service or ServiceConfig()
    if os.path.exists(manifest_path(directory)):
        prepared = prepare_resume(
            directory, corpus=corpus, validate=config.validate
        )
    else:
        prepared = prepare_campaign(directory, config, corpus)
    with Journal(directory) as journal:
        coordinator = Coordinator(prepared, journal, service)
        server = _ServiceServer((service.host, service.port), coordinator)
        bound = server.server_address
        if on_bound is not None:
            on_bound(bound)
        logger.info("coordinator listening on %s:%d", bound[0], bound[1])
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": service.poll_seconds},
            daemon=True,
        )
        thread.start()
        try:
            while not coordinator.finished:
                coordinator.sweep()
                time.sleep(service.poll_seconds)
            # Linger briefly so workers polling for leases get a clean
            # ``drain`` reply instead of a connection reset.
            deadline = time.monotonic() + service.drain_grace_seconds
            while time.monotonic() < deadline:
                time.sleep(service.poll_seconds)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=2.0)
    return merge_campaign(prepared.manifest, load_state(directory))


def query_status(address: str, timeout: float = 5.0) -> dict:
    """Ask a live coordinator for its status (the ``repro service
    status`` command)."""
    channel = connect(address, retries=1, timeout=timeout, recv_timeout=timeout)
    try:
        return channel.request({"type": "status"})
    finally:
        channel.close()
