"""Crash-consistency and protocol-conformance rules: REP401-403, REP501.

REP401 guards the store's durability contract: an ``os.replace`` into
place is only crash-safe if the file contents were fsynced *before*
the rename and the parent directory entry is fsynced *after* it --
otherwise a power cut can resurrect a half-written object or forget a
fully-written one ever had a name.

REP402 guards the checkpoint journal's torn-write contract: journal
modules exist so an interrupted sweep can resume from its last shard
boundary, which only holds if *every* write they perform is one of the
store's two write disciplines -- ``atomic_write`` (all-or-nothing
whole file) or ``durable_append`` (one more self-delimiting record,
fsynced) -- one raw ``open(..., "wb")``, ``open(..., "ab")`` or
``Path.write_bytes`` and a kill mid-write can tear records already
written, silently discarding hours of completed shards.

REP403 guards the store's verified-read contract: every
*payload-returning* ``get`` method on a store-layer class must
re-verify the integrity trailer (or delegate to a method that does)
before handing bytes out -- a store that returns raw stored bytes from
a payload path silently reintroduces the undetected-corruption failure
mode the whole subsystem exists to prevent.  Methods whose names mark
them as frame-level (``get_frame``) are the deliberate exception: they
return trailer-carrying bytes for the caller's own unframe boundary.

REP501 statically re-checks part of what the runtime conformance tests
check dynamically: every algorithm registered in ``checksums.registry``
defines every ChecksumAlgorithm member (compute/field/verify, the batch
members compute_many/prefix_state/combine/state_value, width/name),
and any literal mask agrees with the literal width --
the exact width/modulus slip Koopman's checksum papers warn silently
invalidates error-detection measurements.
"""

from __future__ import annotations

import ast

from repro.lint.engine import Rule, dotted_name, register

__all__ = [
    "FsyncOrderedRenameRule",
    "JournalAtomicWriteRule",
    "RegistryConformanceRule",
    "VerifiedReadRule",
]

_RENAMES = {"os.rename", "os.replace"}


@register
class FsyncOrderedRenameRule(Rule):
    """REP401: every store rename is fsync-ordered."""

    id = "REP401"
    title = "unfsynced-rename"
    severity = "error"
    category = "crash-consistency"
    invariant = (
        "Every os.rename/os.replace under repro.store is preceded by "
        "an fsync of the file and followed by an fsync of the parent "
        "directory, so objects survive power loss whole-or-absent."
    )

    def check(self, module, ctx):
        if not ctx.config.is_store(module.name):
            return
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(module, func)

    def _check_function(self, module, func):
        calls = [
            node for node in ast.walk(func)
            if isinstance(node, ast.Call)
        ]
        renames = [
            node for node in calls
            if (dotted_name(node.func) or "") in _RENAMES
        ]
        if not renames:
            return
        fsync_lines = [
            node.lineno for node in calls
            if (dotted_name(node.func) or "").endswith("os.fsync")
            or (dotted_name(node.func) or "") == "os.fsync"
        ]
        dirsync_lines = [
            node.lineno for node in calls
            if self._is_dirsync(node)
        ]
        for rename in renames:
            missing = []
            if not any(line <= rename.lineno for line in fsync_lines):
                missing.append(
                    "no os.fsync of the written file before the rename"
                )
            if not any(line >= rename.lineno for line in dirsync_lines):
                missing.append(
                    "no parent-directory fsync after the rename"
                )
            if missing:
                chain = dotted_name(rename.func)
                yield self.finding(
                    module, rename,
                    "%s() is not crash-consistent: %s" % (
                        chain, "; ".join(missing),
                    ),
                )

    @staticmethod
    def _is_dirsync(node):
        """A call whose name marks it as a directory fsync helper."""
        chain = dotted_name(node.func) or ""
        leaf = chain.rsplit(".", 1)[-1].lower()
        return "fsync" in leaf and "dir" in leaf


#: Call chains that mutate the filesystem directly (REP402).
_RAW_WRITE_CALLS = {"os.write", "os.rename", "os.replace", "os.truncate"}

#: Attribute leaves that write through a file/path object (REP402).
_RAW_WRITE_ATTRS = {"write_bytes", "write_text"}

#: ``open()`` mode characters that imply mutation (REP402).
_WRITE_MODE_CHARS = set("wax+")


@register
class JournalAtomicWriteRule(Rule):
    """REP402: journal modules write only through the store's write helpers."""

    id = "REP402"
    title = "unjournaled-checkpoint-write"
    severity = "error"
    category = "crash-consistency"
    invariant = (
        "Every filesystem write in a checkpoint-journal module routes "
        "through one of the store's two write disciplines: "
        "atomic_write (write, fsync, rename, directory fsync) for a "
        "whole file, durable_append (append, fsync) for one more "
        "self-delimiting record, so a kill can tear at most the record "
        "being appended, never one written before it."
    )

    def check(self, module, ctx):
        if not ctx.config.is_journal(module.name):
            return
        yield from self._scan(module, module.tree.body, exempt=False)

    def _scan(self, module, body, exempt):
        """Walk statements, tracking whether an atomic helper encloses us.

        A function whose name marks it as the atomic-write discipline
        itself (``atomic_write``, ``_atomic_replace``, ...) is the one
        place raw write APIs are legitimate -- everything else in a
        journal module must call the helper instead of reimplementing
        (or worse, skipping) it.
        """
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._scan(
                    module, node.body,
                    exempt or "atomic" in node.name.lower(),
                )
                continue
            if isinstance(node, ast.ClassDef):
                yield from self._scan(module, node.body, exempt)
                continue
            if exempt:
                continue
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    message = self._raw_write(call)
                    if message:
                        yield self.finding(module, call, message)

    def _raw_write(self, call):
        """Why ``call`` is a raw (non-atomic) write, or None."""
        chain = dotted_name(call.func) or ""
        leaf = chain.rsplit(".", 1)[-1]
        if chain in _RAW_WRITE_CALLS:
            return (
                "%s() bypasses the atomic_write discipline; a kill "
                "mid-call tears the checkpoint" % chain
            )
        if leaf in _RAW_WRITE_ATTRS:
            return (
                ".%s() writes the checkpoint in place; route the bytes "
                "through atomic_write so readers see old-or-new, never "
                "torn" % leaf
            )
        if leaf == "open":
            mode = self._open_mode(call)
            if mode is not None and set(mode) & _WRITE_MODE_CHARS:
                return (
                    "open(..., %r) writes the checkpoint in place; "
                    "route the bytes through atomic_write or "
                    "durable_append instead" % mode
                )
        return None

    @staticmethod
    def _open_mode(call):
        """The literal mode string of an ``open`` call, or None."""
        node = None
        if len(call.args) >= 2:
            node = call.args[1]
        else:
            for keyword in call.keywords:
                if keyword.arg == "mode":
                    node = keyword.value
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None


@register
class VerifiedReadRule(Rule):
    """REP403: store read paths verify the integrity trailer."""

    id = "REP403"
    title = "unverified-store-read"
    severity = "error"
    category = "crash-consistency"
    invariant = (
        "Every payload-returning get method on a store-layer class "
        "(suffix Backend/Store/Cache/Client under repro.store) calls "
        "an unframe/verify helper or delegates to a get method that "
        "does, so raw stored bytes never leave the store unverified."
    )

    def check(self, module, ctx):
        if not ctx.config.is_store(module.name):
            return
        for class_def in ast.walk(module.tree):
            if not isinstance(class_def, ast.ClassDef):
                continue
            if not ctx.config.is_verified_read_class(class_def.name):
                continue
            for func in class_def.body:
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if not self._is_payload_get(ctx.config, func.name):
                    continue
                if not self._verifies(ctx.config, func):
                    yield self.finding(
                        module, func,
                        "%s.%s() returns stored bytes without verifying "
                        "the integrity trailer: call unframe_object/"
                        "verify_frame (or delegate to a get method that "
                        "does), or mark the method frame-level by naming "
                        "it *_frame" % (class_def.name, func.name),
                    )

    @staticmethod
    def _is_payload_get(config, name):
        """True for public payload-returning get methods.

        Underscore-prefixed hooks are reached only through the counted
        public methods, and names carrying an exempt marker
        (``get_frame``) return trailer-carrying bytes by design.
        """
        if name.startswith("_"):
            return False
        if name != "get" and not name.startswith("get_"):
            return False
        lowered = name.lower()
        return not any(
            marker in lowered
            for marker in config.verified_read_exempt_markers
        )

    def _verifies(self, config, func):
        """True if ``func`` verifies, or delegates to a checked getter."""
        for call in ast.walk(func):
            if not isinstance(call, ast.Call):
                continue
            chain = dotted_name(call.func) or ""
            leaf = chain.rsplit(".", 1)[-1].lower()
            if any(marker in leaf for marker in config.verify_helper_markers):
                return True
            if self._is_payload_get(config, leaf):
                # Delegation to another payload get method -- that
                # callee is itself held to this rule (get_frame and
                # friends deliberately do NOT count).
                return True
        return False


@register
class RegistryConformanceRule(Rule):
    """REP501: registered algorithms satisfy the protocol, statically."""

    id = "REP501"
    title = "registry-protocol-conformance"
    severity = "error"
    category = "protocol"
    # Resolves registered classes across modules (Project.get), so its
    # result is a function of the whole scan, not one file: project
    # scope keeps it out of the per-file incremental cache.
    scope = "project"
    invariant = (
        "Every algorithm in checksums.registry statically defines "
        "compute/field/verify/compute_many/prefix_state/combine/"
        "state_value/width/name, and a literal mask always equals "
        "(1 << width) - 1."
    )

    def check(self, module, ctx):
        if not ctx.config.is_registry(module.name):
            return
        factories = self._find_factories(module.tree)
        if factories is None:
            yield self.finding(
                module, module.tree,
                "registry module defines no _FACTORIES dict to check",
            )
            return
        imports = self._import_map(module.tree)
        for key_node, value_node in zip(factories.keys, factories.values):
            entry = self._literal(key_node) or "<dynamic>"
            class_name = self._factory_class(value_node)
            if class_name is None:
                yield self.finding(
                    module, value_node,
                    "factory for %r is not statically resolvable to a "
                    "class; register a class or a lambda returning a "
                    "direct constructor call" % entry,
                    severity="warning",
                )
                continue
            yield from self._check_class(
                module, ctx, value_node, entry, class_name, imports,
            )

    # -- registry parsing --------------------------------------------------

    @staticmethod
    def _find_factories(tree):
        names = ("_FACTORIES", "FACTORIES")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) \
                            and target.id in names \
                            and isinstance(node.value, ast.Dict):
                        return node.value
            elif isinstance(node, ast.AnnAssign):
                # Typed form: ``_FACTORIES: Dict[str, ...] = {...}``.
                if isinstance(node.target, ast.Name) \
                        and node.target.id in names \
                        and isinstance(node.value, ast.Dict):
                    return node.value
        return None

    @staticmethod
    def _literal(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    @staticmethod
    def _factory_class(node):
        """The class name a factory expression constructs, or None."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call):
            func = node.body.func
            if isinstance(func, ast.Name):
                return func.id
        return None

    @staticmethod
    def _import_map(tree):
        """Imported name -> defining module (from-imports only)."""
        mapping = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    mapping[alias.asname or alias.name] = node.module
        return mapping

    # -- class resolution and member collection ----------------------------

    def _check_class(self, module, ctx, node, entry, class_name, imports):
        config = ctx.config
        class_def, home = self._resolve_class(
            module, ctx, class_name, imports,
        )
        if class_def is None:
            if class_name in imports and ctx.project.get(
                    imports[class_name]) is None:
                return  # defined outside the scanned tree; not checkable
            yield self.finding(
                module, node,
                "registered class %r for %r not found in the scanned "
                "sources" % (class_name, entry),
                severity="warning",
            )
            return
        members = self._class_members(class_def, home)
        missing = [
            name for name in (*config.protocol_methods,
                              *config.protocol_attributes)
            if name not in members
        ]
        if missing:
            yield self.finding(
                module, node,
                "algorithm %r (class %s) does not define required "
                "protocol member(s): %s" % (
                    entry, class_name, ", ".join(missing),
                ),
            )
        yield from self._check_mask(module, node, entry, class_name, members)

    def _resolve_class(self, module, ctx, class_name, imports):
        """``(ClassDef, home ModuleInfo)`` or ``(None, None)``."""
        # Same-module definition first (fixtures, self-registering code).
        for candidate in module.tree.body:
            if isinstance(candidate, ast.ClassDef) \
                    and candidate.name == class_name:
                return candidate, module
        home_name = imports.get(class_name)
        if home_name is None:
            return None, None
        home = ctx.project.get(home_name)
        if home is None:
            return None, None
        try:
            tree = home.tree
        except SyntaxError:
            return None, None
        for candidate in tree.body:
            if isinstance(candidate, ast.ClassDef) \
                    and candidate.name == class_name:
                return candidate, home
        return None, None

    def _class_members(self, class_def, home):
        """name -> literal value (or True) for the class's members.

        Includes methods, class attributes, ``self.X = ...``
        assignments in any method, and members inherited from base
        classes defined in the same module (``_SuffixCode`` style
        mixins).
        """
        members = {}
        for base in class_def.bases:
            if isinstance(base, ast.Name) and home is not None:
                for candidate in home.tree.body:
                    if isinstance(candidate, ast.ClassDef) \
                            and candidate.name == base.id:
                        members.update(
                            self._class_members(candidate, home)
                        )
        for node in class_def.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members[node.name] = True
                for stmt in ast.walk(node):
                    if isinstance(stmt, ast.Assign):
                        targets = stmt.targets
                        value = stmt.value
                    elif isinstance(stmt, ast.AnnAssign):
                        # ``self.width: int = spec.width`` in __init__.
                        targets = [stmt.target]
                        value = stmt.value
                    else:
                        continue
                    for target in targets:
                        if isinstance(target, ast.Attribute) \
                                and isinstance(target.value, ast.Name) \
                                and target.value.id == "self":
                            members[target.attr] = self._const(value)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        members[target.id] = self._const(node.value)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                members[node.target.id] = self._const(node.value)
        return members

    @staticmethod
    def _const(node):
        """The literal int value of an expression, else True (present)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            return node.value
        return True

    @staticmethod
    def _is_literal_int(value):
        # ``True`` is the "present but not literal" sentinel from
        # ``_const`` and must not be mistaken for the integer 1.
        return isinstance(value, int) and not isinstance(value, bool)

    def _check_mask(self, module, node, entry, class_name, members):
        width = members.get("width")
        if not self._is_literal_int(width):
            return
        for mask_name in ("mask", "_mask", "MASK", "_MASK"):
            mask = members.get(mask_name)
            if self._is_literal_int(mask) and mask != (1 << width) - 1:
                yield self.finding(
                    module, node,
                    "algorithm %r (class %s): literal %s 0x%X disagrees "
                    "with width %d (expected 0x%X) -- a width/mask slip "
                    "silently corrupts every measurement using this "
                    "code" % (
                        entry, class_name, mask_name, mask, width,
                        (1 << width) - 1,
                    ),
                )
