"""Compatibility stub: ``layout_decision_log().reset()`` does nothing.

Gather plans have one storage layout, so there are no layout decisions to
log.  This name exists only because ``benchmarks/e2e/workloads.py`` imports
it and resets it once per rep; nothing in the package calls it.
"""

from types import SimpleNamespace


def layout_decision_log() -> SimpleNamespace:
    """An object whose ``reset()`` is a no-op."""
    return SimpleNamespace(reset=lambda: None)
