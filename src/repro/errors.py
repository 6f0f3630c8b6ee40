"""Exception hierarchy for the repro package.

All errors raised by repro subsystems derive from :class:`ReproError`, so a
caller can catch everything from this library with a single ``except``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class DatatypeError(ReproError):
    """Invalid datatype construction or illegal use of a datatype.

    Raised for negative counts/blocklengths, type mismatches in
    constructors, and violations of the MPI-IO restrictions on etypes and
    filetypes (negative displacements, non-monotonic displacements).
    """


class FlattenError(ReproError):
    """Errors from the explicit (list-based) flattening subsystem."""


class FFError(ReproError):
    """Errors from the flattening-on-the-fly (listless) subsystem."""


class FileSystemError(ReproError):
    """Errors from the simulated file system (bad path, mode, bounds...)."""


class LockError(FileSystemError):
    """A byte-range lock could not be acquired or released consistently."""


class MPIRuntimeError(ReproError):
    """Errors from the SPMD runtime and communicator layer."""


class IOEngineError(ReproError):
    """Errors from the MPI-IO layer (bad view, mode violations...)."""


class HintError(IOEngineError):
    """An MPI-IO hint has an invalid value."""


class ServiceError(ReproError):
    """Errors from the multi-tenant I/O service (:mod:`repro.server`)."""


class ServiceQueueFull(ServiceError):
    """A tenant's request queue is at capacity — backpressure surfaces
    at post time, before any bytes are accepted."""


class ServiceWorkerError(ServiceError):
    """An IOP worker died (or failed) while executing a request."""


class PeerError(ReproError):
    """A process the transport started (:mod:`repro.transport`) died,
    or stayed silent past the blocking-wait deadline; the message names
    it."""
