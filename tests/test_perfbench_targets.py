"""The benchmark's traced pass shims every entry point it names by
replacing ``owner.__dict__[name]`` (``perfbench/tracing.py``): a name
that moved to a base class, a module or a wrapper makes that pass fail
with a ``KeyError``.  This holds each one in its owner's own
namespace."""

from perfbench.tracing import _targets


def test_every_traced_entry_point_is_its_owners_own():
    missing = [f"{layer}: {getattr(owner, '__name__', owner)}.{name}"
               for layer, owner, name in _targets()
               if name not in owner.__dict__]
    assert missing == []
