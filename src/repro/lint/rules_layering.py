"""Layering rules: REP301, REP302, REP303, REP311.

The package graph is a contract: the CLI sees only the facade, the
check codes sit below everything, and cold-path modules never pay for
the splice engine at import time (PR 1's 10-20x warm-start win).
REP311 generalises the hand-picked pairs: a committed
``.reprolint.toml`` declares the whole layer DAG and every eager
import in the project is held to it.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.engine import Rule, iter_imports, register
from repro.lint.findings import Finding

__all__ = [
    "CliFacadeOnlyRule",
    "EagerEngineImportRule",
    "LayerContractRule",
    "PureLayerRule",
]


def _matches(module_name, allowed_prefixes):
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in allowed_prefixes
    )


@register
class CliFacadeOnlyRule(Rule):
    """REP301: the CLI goes through ``repro.api``, nothing deeper."""

    id = "REP301"
    title = "cli-facade-bypass"
    severity = "error"
    category = "layering"
    invariant = (
        "repro.cli imports project code only through the stable "
        "repro.api facade (and the repro.lint tooling layer), so "
        "internal modules can move without breaking the entry point."
    )

    def check(self, module, ctx):
        if not ctx.config.is_cli(module.name):
            return
        allowed = ctx.config.cli_allowed_prefixes
        for node, target, alias, is_from in iter_imports(module):
            if not (target == "repro" or target.startswith("repro.")):
                continue
            if target == "repro" or not _matches(target, allowed):
                shown = target if not is_from else "%s (name %r)" % (
                    target, alias,
                )
                yield self.finding(
                    module, node,
                    "CLI imports %s directly; route it through the "
                    "repro.api facade" % shown,
                )


@register
class PureLayerRule(Rule):
    """REP302: ``repro.checksums`` imports nothing above itself."""

    id = "REP302"
    title = "layer-purity"
    severity = "error"
    category = "layering"
    invariant = (
        "repro.checksums is the bottom layer: it may import only the "
        "standard library, numpy, and itself -- never protocols, "
        "core, store, or any other repro package."
    )

    def check(self, module, ctx):
        if not ctx.config.is_pure_layer(module.name):
            return
        for node, target, alias, is_from in iter_imports(module):
            if not (target == "repro" or target.startswith("repro.")):
                continue
            if _matches(target, ctx.config.pure_layer_prefixes):
                continue
            yield self.finding(
                module, node,
                "bottom-layer module imports %s; repro.checksums must "
                "stay free of upward dependencies" % target,
            )


@register
class EagerEngineImportRule(Rule):
    """REP303: cold-path modules never import the engine eagerly."""

    id = "REP303"
    title = "eager-engine-import"
    severity = "error"
    category = "layering"
    invariant = (
        "Modules on the warm-start path (CLI, api, store, registry, "
        "package __init__s) and on a --cache sweep whose corpora and "
        "shards all hit import the splice engine, the packetizer and "
        "the corpus generators only inside function bodies, so neither "
        "pays the engine+numpy import bill."
    )

    def check(self, module, ctx):
        config = ctx.config
        if not config.is_cold(module.name):
            return
        for node, target, alias, is_from in iter_imports(
            module, module_scope_only=True,
        ):
            if config.is_hot_target(target):
                yield self.finding(
                    module, node,
                    "cold-path module eagerly imports %s; move the "
                    "import into the function that needs it" % target,
                )
            elif is_from and target in config.lazy_packages \
                    and (alias in config.hot_attribute_names or alias == "*"):
                yield self.finding(
                    module, node,
                    "from %s import %s resolves a hot attribute at "
                    "import time (the lazy package will import the "
                    "engine to serve it); import the defining module "
                    "lazily instead" % (target, alias),
                )


@register
class LayerContractRule(Rule):
    """REP311: every eager import obeys the declared layer DAG."""

    id = "REP311"
    title = "layer-contract"
    severity = "error"
    category = "layering"
    scope = "project"
    invariant = (
        "The committed .reprolint.toml declares the layer DAG "
        "(engine -> checksums -> store -> telemetry -> cli); the "
        "declaration is acyclic and every eager import in the "
        "project follows a declared edge."
    )

    def check_project(self, ctx):
        contract = ctx.contract
        if contract is None:
            return
        cycle = contract.find_cycle()
        if cycle is not None:
            yield Finding(
                rule=self.id,
                severity=self.severity,
                path=Path(contract.path).name,
                line=0,
                col=0,
                message="declared layer graph has a cycle: %s -- the "
                        "contract must be a DAG before imports can be "
                        "held to it" % " -> ".join(cycle),
                snippet="[contract.allowed]",
            )
            return
        for module in ctx.project.modules():
            try:
                module.tree
            except SyntaxError:
                continue
            source_layer = contract.layer_of(module.name)
            if source_layer is None:
                continue
            for node, target, alias, is_from in iter_imports(
                module, module_scope_only=not contract.include_lazy,
            ):
                target_layer = contract.layer_of(target)
                if target_layer is None and is_from and alias:
                    # ``from repro import store`` imports a module even
                    # though the *from* target maps to no layer.
                    target_layer = contract.layer_of(
                        "%s.%s" % (target, alias) if target else alias)
                if target_layer is None:
                    continue
                if not contract.allows(source_layer, target_layer):
                    yield self.finding(
                        module, node,
                        "layer %r imports %s (layer %r) but the "
                        "contract declares no %s -> %s edge" % (
                            source_layer, target, target_layer,
                            source_layer, target_layer,
                        ),
                    )
