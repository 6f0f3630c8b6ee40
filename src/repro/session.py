"""Explicit I/O sessions: re-entrant, isolated copies of the core state.

An :class:`IOSession` owns every piece of cross-cutting state in this
stack: the kernel-path counters (:mod:`repro.core.gather`), the
block-program store and its counters (:mod:`repro.core.blockprog`), the
metrics registry (:mod:`repro.obs.metrics`) and the flight recorder
(:mod:`repro.obs.flight`).  There is always one active: the process
default, which is the default of the context variable
:data:`repro._ctx.SESSION`, unless another session is activated (``with
session:`` or ``with session.activate():``) in the calling context.
:func:`current` therefore never returns ``None``, and every layer
resolves its state through that variable with a single ``get`` on the
hot path.

Separate sessions are what let two client worlds or two service
tenants share a process: their counters never absorb each other, and a
new world never wipes another world's flight record.  Each tenant of
the multi-tenant service (:mod:`repro.server`) gets its own session,
and ``run_spmd(..., session=s)`` runs a world in ``s`` on either
backend.
"""

from __future__ import annotations

import threading

# repro._ctx imports this module to build the default session, so the
# functions below import SESSION where they use it.

__all__ = ["IOSession", "current"]

#: The components of a session, built together on first use.
_PARTS = frozenset(("kernel_paths", "prog_stats", "programs", "flight",
                    "metrics"))


class IOSession:
    """One isolated copy of the cross-cutting core/obs state.

    Components:

    ``metrics``
        a :class:`~repro.obs.metrics.MetricsRegistry` whose ``global``
        section reads *this session's* block-program and kernel-path
        counters;
    ``programs``
        a :class:`~repro.core.blockprog.ProgramStore` of compiled block
        programs, keyed by layout;
    ``prog_stats`` / ``kernel_paths``
        the block-program and gather/scatter-kernel counters;
    ``flight``
        a :class:`~repro.obs.flight.FlightRecorder` of breadcrumbs.
    """

    def __init__(self, name: str = "session") -> None:
        self.name = str(name)
        self._build_mu = threading.Lock()
        # Activation tokens are context-bound: keep the stack per
        # thread so several worker threads can hold the same session
        # active at once without popping each other's tokens.
        self._tokens = threading.local()

    def __getattr__(self, attr: str):
        # Reached only while the components are missing: the first
        # access builds all of them, after which they are plain
        # attributes.  Building lazily is what lets repro._ctx create
        # the process default at import time without importing the
        # layers that import repro._ctx.
        if attr not in _PARTS:
            raise AttributeError(attr)
        with self._build_mu:
            if attr not in self.__dict__:
                from repro.core.blockprog import ProgramStore, _Stats
                from repro.core.gather import _KernelPaths
                from repro.obs.flight import FlightRecorder
                from repro.obs.metrics import MetricsRegistry

                kernel_paths, prog_stats = _KernelPaths(), _Stats()
                metrics = MetricsRegistry(prog_stats, kernel_paths)
                self.__dict__.update(
                    kernel_paths=kernel_paths, prog_stats=prog_stats,
                    programs=ProgramStore(), metrics=metrics,
                    flight=FlightRecorder(metrics))
        return self.__dict__[attr]

    # ------------------------------------------------------------------
    def activate(self) -> "IOSession":
        """Bind this session to the calling context (re-entrant).

        Usable directly as a context manager::

            with session.activate():
                ...  # every layer resolves this session's state
        """
        from repro._ctx import SESSION

        stack = getattr(self._tokens, "stack", None)
        if stack is None:
            stack = self._tokens.stack = []
        stack.append(SESSION.set(self))
        return self

    def deactivate(self) -> None:
        """Undo the innermost :meth:`activate` of this thread."""
        from repro._ctx import SESSION

        stack = getattr(self._tokens, "stack", None)
        if stack:
            SESSION.reset(stack.pop())

    def __enter__(self) -> "IOSession":
        return self.activate()

    def __exit__(self, *exc) -> None:
        self.deactivate()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero this session's counters and drop its compiled programs
        (the session-scoped analogue of ``metrics.reset()``)."""
        self.metrics.reset()
        self.programs.clear()
        self.flight.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<IOSession {self.name!r}>"


def current() -> IOSession:
    """The session active in the calling context: the one activated
    innermost, else the process default.  Never ``None``."""
    from repro._ctx import SESSION

    return SESSION.get()
