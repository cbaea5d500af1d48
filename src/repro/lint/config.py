"""Policy knobs for the lint engine.

The defaults encode *this repository's* layering and determinism
contracts.  Tests exercise rules against synthetic trees by building
fixture packages with the same dotted layout (``repro/core/...``), or
by overriding individual fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = [
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_CONTRACT_NAME",
    "LayerContract",
    "LintConfig",
    "load_contract",
]

#: Conventional baseline filename, committed at the repo root.
DEFAULT_BASELINE_NAME = ".reprolint-baseline.json"

#: Conventional layer-contract filename, committed at the repo root.
DEFAULT_CONTRACT_NAME = ".reprolint.toml"


def _tuple(*items):
    return tuple(items)


@dataclass(frozen=True)
class LintConfig:
    """Everything rule behaviour keys off, in one frozen record."""

    # -- determinism (REP101/REP102/REP103) ----------------------------

    #: Packages whose import-time or result-path code must be seeded:
    #: any module whose dotted name starts with one of these prefixes.
    deterministic_prefixes: tuple = field(default_factory=lambda: _tuple(
        "repro.core", "repro.analysis", "repro.experiments",
        "repro.corpus", "repro.protocols", "repro.checksums",
        "repro.faults", "repro.store", "repro.telemetry", "repro.channel",
    ))

    #: Function-name shapes treated as serialization/report producers
    #: for the unsorted-iteration rule (REP103).
    serialization_prefixes: tuple = field(default_factory=lambda: _tuple(
        "to_", "render", "write_", "dump", "export",
    ))
    serialization_names: tuple = field(default_factory=lambda: _tuple(
        "snapshot", "stats", "summary",
    ))

    # -- concurrency (REP201/REP202) -----------------------------------

    #: Constructors whose first argument runs in worker processes.
    pool_constructors: tuple = field(default_factory=lambda: _tuple(
        "SupervisedPool", "ProcessPoolExecutor",
    ))

    # -- layering (REP301/REP302/REP303) -------------------------------

    #: Modules held to the facade-only import rule.
    cli_modules: tuple = field(default_factory=lambda: _tuple("repro.cli"))
    #: What those modules may import from the project (everything else
    #: must go through the facade).  ``repro.lint`` is dev tooling
    #: layered *above* the domain code, so it is reachable directly.
    cli_allowed_prefixes: tuple = field(default_factory=lambda: _tuple(
        "repro.api", "repro.lint",
    ))

    #: The bottom layer: may import nothing else from the project.
    pure_layer_prefixes: tuple = field(default_factory=lambda: _tuple(
        "repro.checksums",
    ))

    #: Cold-path modules: importable on a warm ``--cache`` hit or on a
    #: splice table whose corpora and shards all come from the store,
    #: so they must not eagerly import the splice engine, the
    #: packetizer or the corpus generators (PR 1's 10-20x warm-start
    #: win).  Exact names match only themselves; prefixes match their
    #: whole subtree.
    cold_modules_exact: tuple = field(default_factory=lambda: _tuple(
        "repro", "repro.core", "repro.core.experiment", "repro.core.options",
        "repro.corpus", "repro.corpus.filesystem", "repro.corpus.transforms",
        "repro.experiments", "repro.experiments.registry",
        "repro.experiments.report", "repro.experiments.render",
        "repro.experiments.splice_tables", "repro.protocols",
        "repro.protocols.config",
    ))
    cold_prefixes: tuple = field(default_factory=lambda: _tuple(
        "repro.api", "repro.cli", "repro.checksums", "repro.store",
        "repro.telemetry", "repro.faults", "repro.lint",
    ))

    #: Hot modules a cold module must not import at module scope.
    hot_module_prefixes: tuple = field(default_factory=lambda: _tuple(
        "repro.core.engine", "repro.core.shard", "repro.protocols.packetizer",
        "repro.protocols.ftpsim", "repro.corpus.generators",
        "repro.corpus.profiles", "repro.experiments.figures",
        "repro.experiments.ablations", "repro.experiments.extensions",
    ))
    #: Names that resolve to hot modules when imported off a lazy
    #: package (``from repro.core import SpliceEngine`` pays for the
    #: engine even though ``repro.core`` itself is cheap).
    hot_attribute_names: tuple = field(default_factory=lambda: _tuple(
        "SpliceEngine", "Packetizer", "FileTransferSimulator",
        "build_filesystem",
    ))
    #: Lazy packages whose attributes may be hot (PEP 562 facades).
    lazy_packages: tuple = field(default_factory=lambda: _tuple(
        "repro", "repro.core", "repro.corpus", "repro.protocols",
    ))

    # -- batch hot path (REP304) ---------------------------------------

    #: Modules on the splice hot path: per-item work there must route
    #: through the batch kernels (``repro.core.batch``,
    #: ``compute_many``), not per-cell Python loops.
    batch_hot_modules: tuple = field(default_factory=lambda: _tuple(
        "repro.core.engine", "repro.core.fragsplice",
    ))

    #: Callee names (last dotted segment, leading underscores ignored)
    #: recognized as byte-at-a-time scalar kernels.
    scalar_kernel_names: tuple = field(default_factory=lambda: _tuple(
        "compute", "verify", "process", "step",
        "judge_splice", "judge_splice_cells",
        "word_sums", "fletcher8", "internet_checksum",
        "ones_complement_sum",
    ))

    # -- crash consistency (REP401/REP402) -----------------------------

    #: Packages whose renames must be fsync-ordered.
    store_prefixes: tuple = field(default_factory=lambda: _tuple(
        "repro.store",
    ))

    #: Checkpoint-journal modules: every filesystem write must route
    #: through the store's atomic_write or durable_append helper
    #: (REP402) so a kill can never tear a record already written.
    journal_prefixes: tuple = field(default_factory=lambda: _tuple(
        "repro.store.journal",
    ))

    # -- verified store reads (REP403) ---------------------------------

    #: Class-name suffixes held to the verified-read contract: their
    #: payload-returning ``get*`` methods must verify the integrity
    #: trailer (or delegate to a method that does).
    verified_read_class_suffixes: tuple = field(default_factory=lambda: _tuple(
        "Backend", "Store", "Cache", "Client",
    ))
    #: Method-name markers exempting a ``get*`` method: it returns raw
    #: trailer-carrying frames by design (verification happens at the
    #: caller's unframe boundary).
    verified_read_exempt_markers: tuple = field(default_factory=lambda: _tuple(
        "frame", "raw",
    ))
    #: Call-name markers recognized as trailer verification.
    verify_helper_markers: tuple = field(default_factory=lambda: _tuple(
        "verify", "unframe",
    ))

    # -- protocol conformance (REP501) ---------------------------------

    #: Modules holding a ``_FACTORIES`` algorithm registry.
    registry_modules: tuple = field(default_factory=lambda: _tuple(
        "repro.checksums.registry",
    ))
    #: Members every registered algorithm class must define.
    protocol_methods: tuple = field(default_factory=lambda: _tuple(
        "compute", "field", "verify",
        "compute_many", "prefix_state", "combine", "state_value",
    ))
    protocol_attributes: tuple = field(default_factory=lambda: _tuple(
        "width", "name",
    ))

    # -- interprocedural taint (REP111) --------------------------------

    #: Call-name markers (substring of the lower-cased leaf) treated
    #: as sanitizers by the dataflow engine: the return of
    #: ``derive_seed(...)`` or ``canonical_stamp(...)`` is clean even
    #: when its inputs were entropy/wall clock, because deriving a
    #: value *from* the run seed (or a pinned epoch) is exactly how
    #: this codebase launders nondeterminism on purpose.
    sanitizer_markers: tuple = field(default_factory=lambda: _tuple(
        "seed", "canonical", "deterministic",
    ))

    # -- helpers -------------------------------------------------------

    def replace(self, **overrides):
        """A copy with ``overrides`` applied (tests use this)."""
        return replace(self, **overrides)

    def is_deterministic(self, module):
        return _prefixed(module, self.deterministic_prefixes)

    def is_cli(self, module):
        return module in self.cli_modules

    def is_pure_layer(self, module):
        return _prefixed(module, self.pure_layer_prefixes)

    def is_cold(self, module):
        return module in self.cold_modules_exact or _prefixed(
            module, self.cold_prefixes
        )

    def is_hot_target(self, module):
        return _prefixed(module, self.hot_module_prefixes)

    def is_batch_hot(self, module):
        return _prefixed(module, self.batch_hot_modules)

    def is_store(self, module):
        return _prefixed(module, self.store_prefixes)

    def is_journal(self, module):
        return _prefixed(module, self.journal_prefixes)

    def is_verified_read_class(self, class_name):
        return class_name.endswith(self.verified_read_class_suffixes)

    def is_registry(self, module):
        return module in self.registry_modules

    def is_serializer_name(self, name):
        return name in self.serialization_names or any(
            name.startswith(prefix) for prefix in self.serialization_prefixes
        )


def _prefixed(module, prefixes):
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


@dataclass(frozen=True)
class LayerContract:
    """The declared import DAG from ``.reprolint.toml``.

    ``layers`` maps a layer name to the module prefixes it owns;
    ``allowed`` maps a layer to the layers it may (directly) import.
    By default only *eager* (module-scope) imports are checked --
    function-level lazy imports are this codebase's sanctioned
    dependency-inversion idiom (PEP 562 facades, `repro.core.experiment`
    reaching the store at call time) and would make the true graph
    cyclic.  Set ``include_lazy`` to hold lazy imports to the DAG too.
    """

    path: str
    layers: tuple  # ((layer, (prefix, ...)), ...)
    allowed: tuple  # ((layer, (layer, ...)), ...)
    include_lazy: bool = False

    def layer_of(self, module):
        """The layer owning ``module`` (longest prefix wins), or None."""
        best = None
        best_length = -1
        for layer, prefixes in self.layers:
            for prefix in prefixes:
                if module == prefix or module.startswith(prefix + "."):
                    if len(prefix) > best_length:
                        best = layer
                        best_length = len(prefix)
        return best

    def allows(self, source_layer, target_layer):
        """True if ``source_layer`` may import ``target_layer``."""
        if source_layer == target_layer:
            return True
        for layer, targets in self.allowed:
            if layer == source_layer:
                return target_layer in targets
        return False

    def find_cycle(self):
        """A layer cycle in the *declared* edges, or None.

        The contract must itself be a DAG -- a cycle in the
        declaration would make "illegal edge" vacuous.
        """
        edges = {layer: tuple(targets) for layer, targets in self.allowed}
        WHITE, GREY, BLACK = 0, 1, 2
        state = {}
        for start, _ in self.layers:
            if state.get(start, WHITE) != WHITE:
                continue
            stack = [(start, iter(edges.get(start, ())))]
            state[start] = GREY
            trail = [start]
            while stack:
                node, successors = stack[-1]
                advanced = False
                for successor in successors:
                    colour = state.get(successor, WHITE)
                    if colour == GREY:
                        return (*trail[trail.index(successor):], successor)
                    if colour == WHITE:
                        state[successor] = GREY
                        trail.append(successor)
                        stack.append(
                            (successor, iter(edges.get(successor, ()))))
                        advanced = True
                        break
                if not advanced:
                    state[node] = BLACK
                    trail.pop()
                    stack.pop()
        return None


def load_contract(path):
    """Parse a ``.reprolint.toml`` layer contract.

    Raises ``ValueError`` on malformed documents (bad TOML, layers
    referenced in ``allowed`` but never declared).
    """
    import tomllib

    path = Path(path)
    try:
        payload = tomllib.loads(path.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise ValueError("invalid layer contract %s: %s" % (path, exc))
    section = payload.get("contract", {})
    layers = tuple(
        (str(layer), tuple(str(prefix) for prefix in prefixes))
        for layer, prefixes in section.get("layers", {}).items()
    )
    declared = {layer for layer, _ in layers}
    allowed = tuple(
        (str(layer), tuple(str(target) for target in targets))
        for layer, targets in section.get("allowed", {}).items()
    )
    unknown = sorted(
        {layer for layer, _ in allowed} - declared
        | {
            target
            for _, targets in allowed
            for target in targets
        } - declared
    )
    if unknown:
        raise ValueError(
            "layer contract %s names undeclared layer(s): %s"
            % (path, ", ".join(unknown))
        )
    return LayerContract(
        path=str(path),
        layers=layers,
        allowed=allowed,
        include_lazy=bool(section.get("include_lazy", False)),
    )
