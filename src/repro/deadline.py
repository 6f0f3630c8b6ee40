"""The one blocking-wait deadline.

Kept in a leaf module with no imports from the package, so every layer
that blocks — the communicator's receives in :mod:`repro.mpi`, the
byte-range locks in :mod:`repro.fs` — bounds its waits by the same
figure without an import cycle.
"""

from __future__ import annotations

import os

__all__ = ["recv_timeout"]


def recv_timeout() -> float:
    """Seconds a blocked wait may last before raising.

    A receive whose sender never sends (mismatched tag, crashed peer
    the failure detector missed), or a range lock whose holder never
    releases it, must surface as an error, not a hang; this deadline
    bounds every blocking wait in the runtime.  Override with
    ``REPRO_RECV_TIMEOUT``.
    """
    return float(os.environ.get("REPRO_RECV_TIMEOUT", 60.0))
