"""A mappable file seen as a non-mappable one.

On a :class:`~repro.fs.simfile.FileBuffer` (``SimFile``, ``OsFile``) an
independent access is one mapped copy and a collective access is one
barrier plus that copy.  The paper's mechanisms — data sieving and
two-phase collective I/O — run only on backends whose bytes are not one
shared buffer (``ShardedFile``, ``PosixFile``, the service).  To keep
measuring and testing those mechanisms on the in-memory store and on
real files, :func:`unmapped` wraps a namespace so that its files are not
``FileBuffer``\\ s: every attribute is still the wrapped file's, the way
:class:`~repro.fs.posix.PosixFile` wraps one, so the bytes, stats and
device charges are the same, but the planner sieves (or goes direct)
and collectives run two-phase rounds.

Both wrappers pickle by pickling what they wrap, so a proc-runtime rank
gets its own wrapper around its own ``OsFile``.
"""

from __future__ import annotations

import threading

__all__ = ["UnmappedFile", "UnmappedFileSystem", "unmapped"]


class UnmappedFile:
    """A file that is not a :class:`~repro.fs.simfile.FileBuffer`: every
    attribute is the wrapped file's (a ``SimFile``, an ``OsFile``).
    Attributes set on it are set on the wrapped file."""

    def __init__(self, file) -> None:
        self.__dict__["_file"] = file

    def __getattr__(self, name):
        return getattr(self.__dict__["_file"], name)

    def __setattr__(self, name, value) -> None:
        setattr(self._file, name, value)

    def __reduce__(self):
        return (UnmappedFile, (self._file,))


class UnmappedFileSystem:
    """A namespace (``SimFileSystem``, ``OsFileSystem``) whose files
    come wrapped in :class:`UnmappedFile` — one wrapper per file, so
    every rank's open of a path shares one handle state."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._mu = threading.Lock()
        self._wrapped = {}

    def __getattr__(self, name):
        return getattr(self.__dict__["_inner"], name)

    def __reduce__(self):
        return (UnmappedFileSystem, (self._inner,))

    def _wrap(self, f) -> UnmappedFile:
        with self._mu:
            w = self._wrapped.get(id(f))
            if w is None:
                w = self._wrapped[id(f)] = UnmappedFile(f)
            return w

    def create(self, path, *args, **kwargs) -> UnmappedFile:
        return self._wrap(self._inner.create(path, *args, **kwargs))

    def lookup(self, path) -> UnmappedFile:
        return self._wrap(self._inner.lookup(path))


def unmapped(fs) -> UnmappedFileSystem:
    """``fs`` seen through :class:`UnmappedFileSystem`: its independent
    accesses sieve (or go direct) and its collectives run two-phase,
    instead of being mapped."""
    return UnmappedFileSystem(fs)
