"""folnerdom: exact-arithmetic certificates for ergodic-average dominance
on discrete amenable groups (Z^d, discrete Heisenberg, lamplighter).

The public names are loaded on first access (PEP 562), so that a CLI
subcommand imports only the modules it runs: ``python -m folnerdom.cli``
imports this package first, and only ``simulate`` needs ``actions``.
"""

import importlib

_EXPORTS = {
    "actions": ("FiniteAction", "Observable"),
    "chains": ("Chain", "build_chain", "lamplighter_folner"),
    "dominance": ("DominanceReport", "dominance_report"),
    "groups": ("Group", "Heisenberg", "Lamplighter", "Zd"),
    "measures": ("FinSupMeasure",),
    "schedules": ("Schedule",),
    "sets": ("FiniteSubset",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
