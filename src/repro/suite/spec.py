"""Declarative experiment-suite specs: one TOML file per figure/table.

A suite spec is the pattern SNIPPETS.md snippet 3 points at (the
districting repo's ``config-tableN.json`` -> Table N): one declarative
config expands deterministically into the full run grid behind a paper
deliverable, and the declared outputs regenerate from the result store
alone.  The TOML shape::

    [suite]
    name = "paper"
    description = "Figs. 1-6 and Table I, full grid"

    [matrix]
    scale = "small"          # tiny | small | paper
    horizon = 24             # optional horizon override (slots)
    packs = ["synthetic"]    # registered workload pack names
    policies = ["Proposed", "Ener-aware", "Pri-aware", "Net-aware"]
    seeds = [0, 1, 2]
    alphas = [0.5]           # Eq. 5 weight (Proposed only)
    engines = ["slot"]       # slot | event run kinds
    qos = [0.98]             # migration QoS levels (scenario knob)

    [outputs]
    figures = [1, 2, 3, 4, 5, 6]
    tables = [1]
    export = true            # CSV export of the comparison series
    scorecard = true         # paper-claim scorecard over every seed

Every ``[matrix]`` axis except ``scale``/``horizon`` is a list; the
grid is their cross product (packs x seeds x alphas x engines x qos x
policies), expanded in that nesting order so the request sequence --
and therefore the campaign ledger's planned order -- is deterministic
for a given file.  Older files may still carry ``vectorized = [true]``
in ``[matrix]``, from when the engine shipped reference loops behind
that flag; it is accepted and ignored, and any other value is an
error.

Error reporting follows ``load_utilization_csv``'s discipline: every
:class:`SuiteSpecError` names ``file:line: [section].key`` for the
offending value, and unknown or misspelled keys are rejected rather
than ignored (a typoed axis silently shrinking a nightly sweep is the
failure mode this guards against).

The spec's identity is ``sha256`` over the raw TOML bytes -- the
*suite sha* recorded in every campaign ledger header, tying stored
artifacts back to the exact file revision that planned them.
"""

from __future__ import annotations

import hashlib
import pathlib
import tomllib
from dataclasses import dataclass, field
from typing import Iterator

from repro.experiments.orchestrator import (
    EngineOptions,
    RunRequest,
)
from repro.experiments.runner import default_policies
from repro.sim.config import (
    EngineCoreConfig,
    ExperimentConfig,
    config_for_scale,
)
from repro.sim.state import PlacementPolicy
from repro.workload.packs import TracePack, available_packs, get_pack

__all__ = [
    "COMPARISON_POLICIES",
    "KNOWN_FIGURES",
    "KNOWN_TABLES",
    "SuiteCell",
    "SuiteRun",
    "SuiteSpec",
    "SuiteSpecError",
    "load_suite",
]

#: The paper's four methods in reporting order -- what the figure
#: reports require, and the policy-name vocabulary specs may use.
COMPARISON_POLICIES = tuple(policy.name for policy in default_policies())

#: Figures/tables a suite may declare as outputs.
KNOWN_FIGURES = (1, 2, 3, 4, 5, 6)
KNOWN_TABLES = (1,)

_SUITE_KEYS = {"name", "description"}
_MATRIX_KEYS = {
    "scale", "horizon", "packs", "policies", "seeds", "alphas",
    "engines", "vectorized", "qos",
}
_OUTPUT_KEYS = {"figures", "tables", "export", "scorecard"}
_SCALES = ("tiny", "small", "paper")
_ENGINES = ("slot", "event")


class SuiteSpecError(ValueError):
    """A malformed suite spec, located as ``file:line: [section].key``."""


class _KeyLocator:
    """Maps ``(section, key)`` to a 1-based line number in the raw TOML.

    tomllib reports line numbers for syntax errors but discards them
    for well-formed documents, so semantic diagnostics (unknown key,
    bad axis value) re-locate keys by scanning the source text:
    ``[section]`` headers open sections, and the first
    ``key = ...``/``key=...`` line inside one wins.  Good enough for
    the flat two-level schema suites use; a key the scan cannot find
    falls back to the section header's line (or line 1).
    """

    def __init__(self, text: str) -> None:
        self._keys: dict[tuple[str, str], int] = {}
        self._sections: dict[str, int] = {}
        section = ""
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                section = line.strip("[]").strip().strip('"')
                self._sections.setdefault(section, number)
                continue
            key = line.split("=", 1)[0].strip().strip('"')
            if key:
                self._keys.setdefault((section, key), number)

    def line(self, section: str, key: str | None = None) -> int:
        if key is not None and (section, key) in self._keys:
            return self._keys[(section, key)]
        return self._sections.get(section, 1)


@dataclass(frozen=True)
class _Diagnostics:
    """Shared error context: the spec path plus the key locator."""

    path: str
    locator: _KeyLocator

    def error(self, section: str, key: str | None, message: str) -> SuiteSpecError:
        where = f"[{section}]" + (f".{key}" if key else "")
        line = self.locator.line(section, key)
        return SuiteSpecError(f"{self.path}:{line}: {where}: {message}")


@dataclass(frozen=True)
class SuiteRun:
    """One expanded run: the request plus its suite-side labels.

    ``labels`` names the matrix coordinates that produced the request
    (pack, policy, seed, alpha, engine, qos) -- ledger provenance,
    never part of the fingerprint.
    """

    request: RunRequest
    labels: dict

    @property
    def fingerprint(self) -> str:
        # Memoized locally: campaign bookkeeping reads this several
        # times per run (plan, skip check, submit, done), and even the
        # request's own memoized hash costs a method chain per call.
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = self.request.fingerprint()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


@dataclass(frozen=True)
class SuiteCell:
    """One output cell: the four-policy comparison at fixed coordinates.

    Outputs (figures/tables/export) are regenerated per cell -- one per
    (pack x engine x qos) combination at the matrix's *first* seed and
    alpha, mirroring the paper's single-realization figures.  The
    scorecard reads the cell's comparison at every seed
    (:meth:`SuiteSpec.cell_seeds`).
    """

    key: str
    config: ExperimentConfig
    runs: tuple[SuiteRun, ...]  # comparison order (COMPARISON_POLICIES)

    def fingerprints(self) -> dict[str, str]:
        """Policy name -> fingerprint for this cell's comparison."""
        return {
            run.labels["policy"]: run.fingerprint for run in self.runs
        }


def _policy(name: str, alpha: float) -> PlacementPolicy:
    """A fresh ``name`` policy (policies carry state) at ``alpha``."""
    return next(
        policy for policy in default_policies(alpha) if policy.name == name
    )


@dataclass(frozen=True)
class SuiteSpec:
    """A parsed, validated suite spec plus its content identity."""

    name: str
    description: str
    path: str
    sha256: str
    scale: str
    horizon: int | None
    packs: tuple[str, ...]
    policies: tuple[str, ...]
    seeds: tuple[int, ...]
    alphas: tuple[float, ...]
    engines: tuple[str, ...]
    qos: tuple[float, ...]
    figures: tuple[int, ...] = ()
    tables: tuple[int, ...] = ()
    export: bool = False
    scorecard: bool = False
    raw: str = field(default="", repr=False)

    @property
    def campaign_id(self) -> str:
        """Deterministic campaign identity: suite name + content sha.

        Re-running an unchanged spec resumes the same campaign ledger;
        editing the file (new sha) starts a fresh campaign, so a
        ledger never silently mixes two grid definitions.
        """
        return f"{self.name}-{self.sha256[:10]}"

    @property
    def has_outputs(self) -> bool:
        return bool(
            self.figures or self.tables or self.export or self.scorecard
        )

    def _config(self, seed: int, qos: float) -> ExperimentConfig:
        config = config_for_scale(self.scale, seed=seed, horizon=self.horizon)
        if qos != config.qos:
            import dataclasses

            config = dataclasses.replace(config, qos=qos)
        return config

    def _pack(self, name: str) -> TracePack:
        return get_pack(name)

    def expand(self) -> list[SuiteRun]:
        """The full deterministic run grid, in planning order.

        Nesting order (outermost first): pack, qos, engine, seed,
        alpha, policy.  Fingerprints are unique by construction for
        distinct coordinates except that baseline policies ignore
        ``alpha`` -- those duplicates are planned once (first alpha
        wins), keeping the ledger one-entry-per-fingerprint.
        """
        runs: list[SuiteRun] = []
        seen: set[str] = set()
        for run in self._iter_runs():
            if run.fingerprint in seen:
                continue
            seen.add(run.fingerprint)
            runs.append(run)
        return runs

    def _iter_runs(self) -> Iterator[SuiteRun]:
        for pack_name in self.packs:
            pack = self._pack(pack_name)
            for qos in self.qos:
                for engine in self.engines:
                    for seed in self.seeds:
                        for alpha in self.alphas:
                            for policy_name in self.policies:
                                yield self._run(
                                    pack, pack_name, qos, engine, seed,
                                    alpha, policy_name,
                                )

    def _run(
        self, pack, pack_name, qos, engine, seed, alpha, policy_name
    ) -> SuiteRun:
        request = RunRequest(
            config=self._config(seed, qos),
            policy=_policy(policy_name, alpha),
            options=EngineOptions(engine=EngineCoreConfig(kind=engine)),
            pack=pack,
        )
        return SuiteRun(
            request=request,
            labels={
                "pack": pack_name,
                "policy": policy_name,
                "seed": seed,
                "alpha": alpha,
                "engine": engine,
                "qos": qos,
            },
        )

    def _comparison(
        self, pack, pack_name, qos, engine, seed, alpha
    ) -> tuple[SuiteRun, ...]:
        return tuple(
            self._run(pack, pack_name, qos, engine, seed, alpha, name)
            for name in COMPARISON_POLICIES
        )

    def output_cells(self) -> list[SuiteCell]:
        """The comparison cells the declared outputs regenerate from.

        One cell per (pack x qos x engine) combination at the first
        seed and first alpha.  Empty when the spec declares no outputs.
        """
        if not self.has_outputs:
            return []
        seed, alpha = self.seeds[0], self.alphas[0]
        cells = []
        for pack_name in self.packs:
            pack = self._pack(pack_name)
            for qos in self.qos:
                for engine in self.engines:
                    cells.append(
                        SuiteCell(
                            key=_cell_key(pack_name, qos, engine),
                            config=self._config(seed, qos),
                            runs=self._comparison(
                                pack, pack_name, qos, engine, seed, alpha
                            ),
                        )
                    )
        return cells

    def cell_seeds(
        self, cell: SuiteCell
    ) -> Iterator[tuple[int, tuple[SuiteRun, ...]]]:
        """``(seed, comparison)`` at ``cell``'s coordinates, every seed.

        Built lazily, one seed at a time, in the matrix's seed order.
        """
        labels = cell.runs[0].labels
        pack = self._pack(labels["pack"])
        for seed in self.seeds:
            yield seed, self._comparison(
                pack, labels["pack"], labels["qos"], labels["engine"], seed,
                labels["alpha"],
            )


def _cell_key(pack: str, qos: float, engine: str) -> str:
    """Filesystem-safe label for one output cell."""
    parts = [pack, engine]
    if qos != 0.98:
        parts.append(f"qos{qos:g}".replace(".", "p"))
    return "-".join(parts)


# -- parsing / validation ------------------------------------------------


def _check_table(
    diag: _Diagnostics, document: dict, section: str, allowed: set[str],
    required: bool = False,
) -> dict:
    table = document.get(section)
    if table is None:
        if required:
            raise SuiteSpecError(
                f"{diag.path}:1: missing required [{section}] table"
            )
        return {}
    if not isinstance(table, dict):
        raise diag.error(section, None, "must be a table ([section])")
    for key in table:
        if key not in allowed:
            raise diag.error(
                section, key,
                f"unknown key {key!r}; allowed: {sorted(allowed)}",
            )
    return table


def _string(diag: _Diagnostics, table: dict, section: str, key: str,
            default: str | None = None, choices: tuple[str, ...] | None = None):
    value = table.get(key, default)
    if value is None:
        raise diag.error(section, key, "required string is missing")
    if not isinstance(value, str):
        raise diag.error(
            section, key, f"expected a string, got {value!r}"
        )
    if choices is not None and value not in choices:
        raise diag.error(
            section, key, f"must be one of {list(choices)}, got {value!r}"
        )
    return value


def _axis(
    diag: _Diagnostics,
    table: dict,
    section: str,
    key: str,
    kinds: tuple[type, ...],
    default: list,
    describe: str,
    check=None,
) -> tuple:
    """A non-empty homogeneous list axis with per-element validation."""
    value = table.get(key, default)
    if not isinstance(value, list):
        raise diag.error(
            section, key, f"expected a list of {describe}, got {value!r}"
        )
    if not value:
        raise diag.error(section, key, "axis must not be empty")
    out = []
    for item in value:
        # bool is an int subclass; keep the axes honest (seeds = [true]
        # must not parse as seeds = [1]).
        if isinstance(item, bool) and bool not in kinds:
            raise diag.error(
                section, key, f"expected {describe}, got {item!r}"
            )
        if not isinstance(item, kinds):
            raise diag.error(
                section, key, f"expected {describe}, got {item!r}"
            )
        if check is not None:
            message = check(item)
            if message:
                raise diag.error(section, key, f"{message}: {item!r}")
        out.append(item)
    if len(set(map(repr, out))) != len(out):
        raise diag.error(section, key, f"duplicate entries: {value!r}")
    return tuple(out)


def parse_suite(
    text: str, path: str | pathlib.Path = "<suite>"
) -> SuiteSpec:
    """Parse and validate suite TOML text into a :class:`SuiteSpec`.

    Raises :class:`SuiteSpecError` with ``file:line: [section].key``
    context for every semantic problem; TOML syntax errors surface
    with tomllib's own line/column report prefixed by the path.
    """
    path = str(path)
    diag = _Diagnostics(path=path, locator=_KeyLocator(text))
    try:
        document = tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise SuiteSpecError(f"{path}: invalid TOML: {error}") from None
    for section in document:
        if section not in ("suite", "matrix", "outputs"):
            raise diag.error(
                section, None,
                "unknown table; suites use [suite], [matrix], [outputs]",
            )

    suite = _check_table(diag, document, "suite", _SUITE_KEYS, required=True)
    name = _string(diag, suite, "suite", "name")
    if not name or any(ch in name for ch in "/\\ \t\n"):
        raise diag.error(
            "suite", "name",
            f"must be a non-empty label without spaces or slashes, "
            f"got {name!r}",
        )
    description = suite.get("description", "")
    if not isinstance(description, str):
        raise diag.error(
            "suite", "description",
            f"expected a string, got {description!r}",
        )

    matrix = _check_table(
        diag, document, "matrix", _MATRIX_KEYS, required=True
    )
    scale = _string(
        diag, matrix, "matrix", "scale", default="small", choices=_SCALES
    )
    horizon = matrix.get("horizon")
    if horizon is not None and (
        isinstance(horizon, bool)
        or not isinstance(horizon, int)
        or horizon < 1
    ):
        raise diag.error(
            "matrix", "horizon",
            f"expected a positive integer slot count, got {horizon!r}",
        )
    registered = set(available_packs())
    packs = _axis(
        diag, matrix, "matrix", "packs", (str,), ["synthetic"],
        "registered pack names",
        check=lambda p: (
            None if p in registered
            else f"unknown pack (available: {sorted(registered)})"
        ),
    )
    policies = _axis(
        diag, matrix, "matrix", "policies", (str,),
        list(COMPARISON_POLICIES), "policy names",
        check=lambda p: (
            None if p in COMPARISON_POLICIES
            else f"unknown policy (available: {list(COMPARISON_POLICIES)})"
        ),
    )
    seeds = _axis(
        diag, matrix, "matrix", "seeds", (int,), [0],
        "integer seeds",
        check=lambda s: None if s >= 0 else "seed must be >= 0",
    )
    alphas = _axis(
        diag, matrix, "matrix", "alphas", (int, float), [0.5],
        "alpha weights in [0, 1]",
        check=lambda a: None if 0.0 <= a <= 1.0 else "alpha out of [0, 1]",
    )
    engines = _axis(
        diag, matrix, "matrix", "engines", (str,), ["slot"],
        "engine kinds",
        check=lambda e: (
            None if e in _ENGINES else f"unknown engine (use {_ENGINES})"
        ),
    )
    # Accepted for files written while the engine still shipped its
    # reference loops behind this flag; [true] is the only path left.
    legacy = matrix.get("vectorized", [True])
    if not (
        isinstance(legacy, list) and len(legacy) == 1 and legacy[0] is True
    ):
        raise diag.error(
            "matrix", "vectorized",
            "the engine's reference loops were removed; only [true] is "
            f"accepted (or drop the key), got {legacy!r}",
        )
    qos = _axis(
        diag, matrix, "matrix", "qos", (int, float), [0.98],
        "QoS levels in (0, 1)",
        check=lambda q: None if 0.0 < q < 1.0 else "qos out of (0, 1)",
    )

    outputs = _check_table(diag, document, "outputs", _OUTPUT_KEYS)
    figures: tuple[int, ...] = ()
    tables: tuple[int, ...] = ()
    export = scorecard = False
    if outputs:
        if "figures" in outputs:
            figures = _axis(
                diag, outputs, "outputs", "figures", (int,), [],
                "figure numbers",
                check=lambda f: (
                    None if f in KNOWN_FIGURES
                    else f"unknown figure (have {list(KNOWN_FIGURES)})"
                ),
            )
        if "tables" in outputs:
            tables = _axis(
                diag, outputs, "outputs", "tables", (int,), [],
                "table numbers",
                check=lambda t: (
                    None if t in KNOWN_TABLES
                    else f"unknown table (have {list(KNOWN_TABLES)})"
                ),
            )
        export = outputs.get("export", False)
        if not isinstance(export, bool):
            raise diag.error(
                "outputs", "export",
                f"expected a boolean, got {export!r}",
            )
        scorecard = outputs.get("scorecard", False)
        if not isinstance(scorecard, bool):
            raise diag.error(
                "outputs", "scorecard",
                f"expected a boolean, got {scorecard!r}",
            )
    if (figures or tables or export or scorecard) and set(
        COMPARISON_POLICIES
    ) - set(policies):
        missing = sorted(set(COMPARISON_POLICIES) - set(policies))
        raise diag.error(
            "matrix", "policies",
            "declared outputs need the full four-policy comparison; "
            f"missing {missing}",
        )

    return SuiteSpec(
        name=name,
        description=description,
        path=path,
        sha256=hashlib.sha256(text.encode()).hexdigest(),
        scale=scale,
        horizon=horizon,
        packs=packs,
        policies=policies,
        seeds=seeds,
        alphas=alphas,
        engines=engines,
        qos=qos,
        figures=figures,
        tables=tables,
        export=export,
        scorecard=scorecard,
        raw=text,
    )


def load_suite(path: str | pathlib.Path) -> SuiteSpec:
    """Load and validate a suite spec file."""
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise SuiteSpecError(f"cannot read suite {path}: {error}") from None
    return parse_suite(text, path)
