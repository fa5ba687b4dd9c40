"""Declarative experiment suites with crash-safe resumable campaigns.

The suite layer turns the orchestration stack (fingerprinted
``RunRequest``s, the result store, the service client) into
"regenerate the whole paper from one config file":

* :mod:`repro.suite.spec` -- the TOML suite spec: ``[matrix]`` axes
  crossed into a deterministic run grid, ``[outputs]`` declaring the
  figures/tables the suite regenerates, every semantic error located
  as ``file:line: [section].key``.
* :mod:`repro.suite.ledger` -- the campaign manifest: an append-only
  JSONL provenance ledger next to the store
  (``planned -> submitted -> done/failed`` per fingerprint, with
  suite/code/pack shas, daemon id, engine kind and wall time).
* :mod:`repro.suite.campaign` -- the driver behind ``repro suite
  run/resume``: executes through any orchestrator-surface consumer,
  skips ledger-done *store-verified* fingerprints on resume.
* :mod:`repro.suite.outputs` -- the output stage: declared
  figures/tables/CSV exports rebuilt purely from stored artifacts.
"""

from repro.suite.campaign import (
    CampaignDriver,
    CampaignError,
    CampaignReport,
    campaign_status,
    code_sha,
)
from repro.suite.ledger import CampaignLedger, CampaignState, LedgerError
from repro.suite.outputs import OutputError, generate_outputs
from repro.suite.spec import (
    COMPARISON_POLICIES,
    SuiteCell,
    SuiteRun,
    SuiteSpec,
    SuiteSpecError,
    load_suite,
    parse_suite,
)

__all__ = [
    "COMPARISON_POLICIES",
    "CampaignDriver",
    "CampaignError",
    "CampaignLedger",
    "CampaignReport",
    "CampaignState",
    "LedgerError",
    "OutputError",
    "SuiteCell",
    "SuiteRun",
    "SuiteSpec",
    "SuiteSpecError",
    "campaign_status",
    "code_sha",
    "generate_outputs",
    "load_suite",
    "parse_suite",
]
