"""Pluggable result-store backends for the experiment orchestrator.

Public surface:

* :class:`ResultStore` -- memory layer + persistent backend, what the
  orchestrator resolves runs against.
* :func:`open_backend` / :func:`detect_format` -- backend selection
  and on-disk format auto-detection (a root in the retired
  ``sharded`` layout is detected and refused, with the migration
  recipe).
* :class:`JsonFileBackend`, :class:`SegmentBackend` -- the two
  layouts (see each module and DESIGN.md for formats and concurrency
  discipline).
* :mod:`repro.store.maintenance` -- ``ls``/``gc``/``migrate`` helpers
  behind the ``repro store`` CLI.
"""

from repro.store.base import (
    BACKEND_ENV_VAR,
    KNOWN_FORMATS,
    MARKER_NAME,
    STORE_ENV_VAR,
    STORE_VERSION,
    StoreBackend,
    detect_format,
)
from repro.store.core import ResultStore, open_backend
from repro.store.jsonfile import JsonFileBackend
from repro.store.maintenance import (
    DocumentInfo,
    MigrationReport,
    collect_garbage,
    list_documents,
    migrate_store,
    parse_age,
)
from repro.store.segment import INDEX_DTYPE, RECORD_HEADER, SegmentBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "DocumentInfo",
    "INDEX_DTYPE",
    "JsonFileBackend",
    "KNOWN_FORMATS",
    "MARKER_NAME",
    "MigrationReport",
    "RECORD_HEADER",
    "ResultStore",
    "STORE_ENV_VAR",
    "STORE_VERSION",
    "SegmentBackend",
    "StoreBackend",
    "collect_garbage",
    "detect_format",
    "list_documents",
    "migrate_store",
    "open_backend",
    "parse_age",
]
