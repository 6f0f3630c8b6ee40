"""The ambient-session context variable.

Every layer — the copy kernels in :mod:`repro.core`, the metrics
registry and flight recorder in :mod:`repro.obs`, the runtimes in
:mod:`repro.mpi` — resolves its per-session state through
:data:`SESSION` with one ``SESSION.get()`` read on the hot path.

The variable's default is the process-default
:class:`~repro.session.IOSession`, so ``SESSION.get()`` never returns
``None``: a new thread (which starts with an empty context), a rank
thread or a server worker sees the default without activating
anything, and an explicitly activated session (:meth:`repro.session.
IOSession.activate`, ``run_spmd(..., session=)``) shadows it in its
context.  A session builds its components on first use, so building
the default here imports none of the layers that import this module.
"""

from __future__ import annotations

from contextvars import ContextVar

from repro.session import IOSession

__all__ = ["SESSION"]

#: The IOSession of the calling context (the process default unless
#: another one is active).
SESSION: ContextVar = ContextVar("repro_session",
                                 default=IOSession("default"))
