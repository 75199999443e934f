"""Fault-injection validate hooks for campaign crash-recovery testing.

The supervisor ships a ``validate`` hook to its spawned workers by module
path, and spawn children inherit ``os.environ`` — so the hooks here are
configured entirely through environment variables set by the parent (CLI
flags or tests) before the campaign starts:

``REPRO_CAMPAIGN_KILL_ONCE``
    Regex.  The first worker to validate a matching function SIGKILLs
    itself *before* producing an outcome — exactly once per campaign
    directory (a marker file records that the pill was swallowed), so the
    retry or the resumed campaign completes the function normally.  This
    simulates a transient worker death.

``REPRO_CAMPAIGN_KILL_ALWAYS``
    Regex.  Matching functions kill their worker on *every* attempt —
    a true poison pill that must end in quarantine.

``REPRO_CAMPAIGN_KILL_DIR``
    Directory for the one-shot marker files (the supervisor sets it to
    the campaign directory so "once" survives a run → resume boundary).

Everything else falls through to the real validation pipeline.
"""

from __future__ import annotations

import hashlib
import os
import re
import signal

from repro.tv.driver import validate_function

KILL_ONCE_ENV = "REPRO_CAMPAIGN_KILL_ONCE"
KILL_ALWAYS_ENV = "REPRO_CAMPAIGN_KILL_ALWAYS"
KILL_DIR_ENV = "REPRO_CAMPAIGN_KILL_DIR"


def _die() -> None:
    # SIGKILL, not sys.exit: the point is an unannounced worker death
    # (no "done" message, no exception propagation) as seen after an OOM
    # kill or a hardware fault.
    os.kill(os.getpid(), signal.SIGKILL)


def _claim_once(name: str) -> bool:
    """Atomically claim the one-shot kill for ``name``.

    O_CREAT|O_EXCL makes the claim exclusive even when several workers
    race on the same function name across retries.
    """
    directory = os.environ.get(KILL_DIR_ENV)
    if not directory:
        return True  # no marker dir: every attempt matches (discouraged)
    digest = hashlib.sha256(name.encode()).hexdigest()[:16]
    marker = os.path.join(directory, f"killed-{digest}.marker")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def sigkill_injector(module, name, options, cache):
    """Validate hook that SIGKILLs the worker on configured functions."""
    always = os.environ.get(KILL_ALWAYS_ENV)
    if always and re.search(always, name):
        _die()
    once = os.environ.get(KILL_ONCE_ENV)
    if once and re.search(once, name) and _claim_once(name):
        _die()
    return validate_function(module, name, options, cache)
