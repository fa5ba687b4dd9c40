"""Reversible JSON codec for the run-request object universe.

The orchestrator's :func:`~repro.experiments.orchestrator.canonical`
flattens requests one-way for fingerprinting; shipping a
:class:`~repro.experiments.orchestrator.RunRequest` to a remote daemon
additionally needs the way *back*.  :func:`encode` maps the closed
universe of objects a request can contain -- dataclasses (configs,
specs, tariffs, packs), enums (app types), placement policies,
module-level functions (the local allocator), numpy arrays (recorded
trace matrices) and plain containers -- onto tagged JSON trees that
:func:`decode` reconstructs exactly.

Round-trip contract
-------------------

``decode(encode(request))`` rebuilds a request whose
:meth:`~repro.experiments.orchestrator.RunRequest.fingerprint` equals
the original's -- the property the whole service rests on (the daemon
recomputes fingerprints from decoded requests and refuses mismatches).
The protocol tests assert it over every registered policy, scale and
pack kind.

Decoding safety
---------------

Tagged nodes name classes/functions as ``module:qualname``.  Decoding
imports them, which executes module top-levels -- so only modules
inside the :data:`ALLOWED_PACKAGE` tree (``repro``) resolve, and the
referenced object must actually *be* a dataclass, enum or callable of
the claimed category.  Anything else raises :class:`CodecError`
instead of importing.
"""

from __future__ import annotations

import base64
import dataclasses
import enum
import importlib
from typing import Any

import numpy as np

__all__ = ["ALLOWED_PACKAGE", "CodecError", "decode", "encode"]

#: Top-level package decodable references must live in.
ALLOWED_PACKAGE = "repro"

#: Tag keys marking non-plain JSON nodes.  A plain dict containing one
#: of these as a key is encoded through the __items__ escape so the
#: tags can never be forged by data.
_TAGS = (
    "__tuple__",
    "__items__",
    "__enum__",
    "__dataclass__",
    "__ndarray__",
    "__callable__",
    "__object__",
)


class CodecError(ValueError):
    """A value cannot be encoded, or a tree cannot be safely decoded."""


def _qualify(obj: type | Any) -> str:
    """The ``module:qualname`` reference for an encodable object.

    Applies the same allowlist as decoding, so an unshippable request
    (a policy or allocator defined outside :data:`ALLOWED_PACKAGE`)
    fails at *encode* time on the client instead of as a daemon 400.
    """
    module = getattr(obj, "__module__", None) or ""
    if module != ALLOWED_PACKAGE and not module.startswith(
        ALLOWED_PACKAGE + "."
    ):
        raise CodecError(
            f"cannot encode reference to {module}:{obj.__qualname__}: "
            f"only {ALLOWED_PACKAGE!r} objects cross the wire"
        )
    return f"{module}:{obj.__qualname__}"


def encode(value: Any) -> Any:
    """Encode ``value`` into a JSON-dumpable tagged tree.

    Lossless inverse of :func:`decode` over the request universe;
    raises :class:`CodecError` for objects outside it (live libraries,
    open files, lambdas and other unnameable callables).
    """
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": _qualify(type(value)), "name": value.name}
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {
            "__ndarray__": data.dtype.str,
            "shape": list(data.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii"),
        }
    if isinstance(value, np.generic):
        return encode(value.item())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": _qualify(type(value)),
            "fields": {
                f.name: encode(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if f.init
            },
        }
    if isinstance(value, dict):
        plain_keys = all(
            isinstance(key, str) and key not in _TAGS for key in value
        )
        if plain_keys:
            return {key: encode(val) for key, val in value.items()}
        return {
            "__items__": [
                [encode(key), encode(val)] for key, val in value.items()
            ]
        }
    if isinstance(value, tuple):
        return {"__tuple__": [encode(item) for item in value]}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if callable(value) and hasattr(value, "__qualname__"):
        if "<" in value.__qualname__ or not hasattr(value, "__module__"):
            raise CodecError(
                f"cannot encode unnameable callable {value!r}"
            )
        if isinstance(value, type):
            raise CodecError(
                f"cannot encode bare class {value!r}; encode an instance"
            )
        return {"__callable__": _qualify(value)}
    if hasattr(value, "__dict__"):
        state = {
            key: encode(val)
            for key, val in sorted(vars(value).items())
            if not key.startswith("_")
        }
        return {"__object__": _qualify(type(value)), "state": state}
    raise CodecError(
        f"cannot encode {type(value).__name__} value: {value!r}"
    )


def _resolve(reference: str) -> Any:
    """Import a ``module:qualname`` reference inside the allowlist."""
    module_name, _, qualname = reference.partition(":")
    if not qualname:
        raise CodecError(f"malformed reference {reference!r}")
    if module_name != ALLOWED_PACKAGE and not module_name.startswith(
        ALLOWED_PACKAGE + "."
    ):
        raise CodecError(
            f"refusing to import {reference!r}: decodable references "
            f"must live under the {ALLOWED_PACKAGE!r} package"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise CodecError(f"cannot import {reference!r}: {error}") from None
    target: Any = module
    for part in qualname.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise CodecError(
                f"{module_name} has no attribute chain {qualname!r}"
            ) from None
    # The module-name check alone is spoofable: repro modules import
    # the stdlib, so "repro.cli:os.system" would walk to a foreign
    # callable.  The *resolved* object must itself live in the
    # allowlisted tree.
    owner = getattr(target, "__module__", None) or ""
    if owner != ALLOWED_PACKAGE and not owner.startswith(
        ALLOWED_PACKAGE + "."
    ):
        raise CodecError(
            f"refusing {reference!r}: it resolves to an object defined "
            f"in {owner or '<unknown>'!r}, outside the "
            f"{ALLOWED_PACKAGE!r} package"
        )
    return target


def decode(tree: Any) -> Any:
    """Rebuild the value an :func:`encode` tree describes.

    Raises :class:`CodecError` on malformed trees, references outside
    the allowlist, or references whose category does not match their
    tag (e.g. a ``__dataclass__`` node naming a plain class).
    """
    if isinstance(tree, (bool, int, float, str)) or tree is None:
        return tree
    if isinstance(tree, list):
        return [decode(item) for item in tree]
    if not isinstance(tree, dict):
        raise CodecError(f"cannot decode {type(tree).__name__} node")
    if "__tuple__" in tree:
        return tuple(decode(item) for item in tree["__tuple__"])
    if "__items__" in tree:
        return {
            decode(key): decode(val) for key, val in tree["__items__"]
        }
    if "__enum__" in tree:
        cls = _resolve(tree["__enum__"])
        if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
            raise CodecError(f"{tree['__enum__']!r} is not an enum")
        try:
            return cls[tree["name"]]
        except KeyError:
            raise CodecError(
                f"{tree['__enum__']} has no member {tree['name']!r}"
            ) from None
    if "__ndarray__" in tree:
        raw = base64.b64decode(tree["data"])
        return np.frombuffer(raw, dtype=np.dtype(tree["__ndarray__"])).reshape(
            tree["shape"]
        ).copy()
    if "__dataclass__" in tree:
        cls = _resolve(tree["__dataclass__"])
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            raise CodecError(
                f"{tree['__dataclass__']!r} is not a dataclass"
            )
        fields = {
            name: decode(val) for name, val in tree.get("fields", {}).items()
        }
        try:
            return cls(**fields)
        except TypeError as error:
            raise CodecError(
                f"cannot rebuild {tree['__dataclass__']}: {error}"
            ) from None
    if "__callable__" in tree:
        target = _resolve(tree["__callable__"])
        if not callable(target) or isinstance(target, type):
            raise CodecError(
                f"{tree['__callable__']!r} is not a plain callable"
            )
        return target
    if "__object__" in tree:
        cls = _resolve(tree["__object__"])
        if not isinstance(cls, type):
            raise CodecError(f"{tree['__object__']!r} is not a class")
        state = {
            name: decode(val) for name, val in tree.get("state", {}).items()
        }
        try:
            return cls(**state)
        except TypeError as error:
            raise CodecError(
                f"cannot rebuild {tree['__object__']} from state "
                f"{sorted(state)}: {error}"
            ) from None
    return {key: decode(val) for key, val in tree.items()}
