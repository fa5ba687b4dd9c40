"""JSON-stable canonical form of configurations and requests.

:func:`canonical` turns the values that key cached work -- run
requests in :mod:`repro.experiments.orchestrator` and workload
materializations in :mod:`repro.workload.materialize` -- into plain
data whose ``json.dumps(..., sort_keys=True)`` is deterministic.  It
imports nothing from :mod:`repro`, so both layers can share it without
an import cycle.
"""

from __future__ import annotations

import dataclasses
import enum

__all__ = ["canonical"]


def canonical(value):
    """Canonicalize ``value`` into JSON-stable plain data.

    Handles dataclasses, enums (and enum-keyed dicts), functions,
    numpy scalars and arbitrary objects with public attribute state.
    Deterministic: equal configurations canonicalize to equal trees.
    """
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__qualname__, "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__class__": type(value).__qualname__,
            **{
                f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(canonical(key)): canonical(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if callable(value) and hasattr(value, "__qualname__"):
        return {
            "__function__": f"{getattr(value, '__module__', '?')}."
            f"{value.__qualname__}"
        }
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()  # numpy scalar
    if hasattr(value, "__dict__"):
        return {
            "__class__": type(value).__qualname__,
            **{
                key: canonical(val)
                for key, val in sorted(vars(value).items())
                if not key.startswith("_")
            },
        }
    raise TypeError(f"cannot canonicalize {type(value).__name__}: {value!r}")
