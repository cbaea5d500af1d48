"""``# reprolint:`` suppression pragmas.

Two scopes:

* ``# reprolint: disable=REP101[,REP102]`` -- trailing a code line it
  suppresses those rules on that line; on a comment-only line it
  suppresses them on the *next* line (so a justification can ride
  above the code it excuses).
* ``# reprolint: disable-file=REP103`` -- anywhere in the file,
  suppresses the rules for the whole file.

``disable=all`` suppresses every rule in the chosen scope.  Pragmas
are recognised only in genuine comment tokens (via ``tokenize``), so
prose *about* the pragma syntax -- like this docstring -- never
registers as a suppression; on source that will not tokenize the
parser falls back to raw line scanning so broken files keep their
pragmas.
"""

from __future__ import annotations

import io
import re
import tokenize

__all__ = ["PragmaDeclaration", "PragmaIndex"]

_PRAGMA_RE = re.compile(
    # A prose justification may precede the marker inside the same
    # comment; the search anchors on the "reprolint" word wherever
    # it sits in the comment text.
    r"#.*?\breprolint:\s*(?P<scope>disable-file|disable)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s-]+)"
)

#: Sentinel meaning "every rule".
_ALL = "all"


class PragmaDeclaration:
    """One ``# reprolint:`` comment as written in the source.

    The suppression *index* answers lookups; declarations preserve the
    author's intent -- which rules, at which line, shielding which
    target lines -- so the hygiene rule (REP601) can ask whether a
    pragma still suppresses anything.
    """

    __slots__ = ("lineno", "scope", "rules", "targets")

    def __init__(self, lineno, scope, rules, targets):
        #: 1-based line the pragma comment sits on.
        self.lineno = lineno
        #: ``"file"`` or ``"line"``.
        self.scope = scope
        #: The rule ids named (upper-cased), or ``{"all"}``.
        self.rules = frozenset(rules)
        #: Lines this pragma shields (empty for file scope).
        self.targets = frozenset(targets)


class PragmaIndex:
    """Per-file index answering "is rule R suppressed at line N?"."""

    def __init__(self):
        #: rule ids disabled for the whole file (or {"all"}).
        self.file_disables = set()
        #: line (1-based) -> set of rule ids (or {"all"}).
        self.line_disables = {}
        #: Every pragma as written, in file order (REP601 material).
        self.declarations = []

    @classmethod
    def from_source(cls, source):
        index = cls()
        if _PRAGMA_RE.search(source) is None:
            # A comment that matches is a substring of a line that
            # matches, so no line matching means no pragma: skip the
            # tokenizer (most files never mention reprolint at all).
            return index
        for lineno, text, comment in _comments(source):
            match = _PRAGMA_RE.search(comment)
            if match is None:
                continue
            rules = {
                token.strip().upper() if token.strip().lower() != _ALL
                else _ALL
                for token in match.group("rules").split(",")
                if token.strip()
            }
            if match.group("scope") == "disable-file":
                index.file_disables |= rules
                index.declarations.append(
                    PragmaDeclaration(lineno, "file", rules, ()))
            else:
                # A comment-only pragma shields the following line.
                target = lineno
                if text.lstrip().startswith("#"):
                    target = lineno + 1
                index.line_disables.setdefault(target, set()).update(rules)
                # The trailing form also shields its own line even when
                # the pragma is the only thing on it -- harmless.
                index.line_disables.setdefault(lineno, set()).update(rules)
                index.declarations.append(
                    PragmaDeclaration(lineno, "line", rules,
                                      {lineno, target}))
        return index

    def suppressed(self, rule_id, line):
        """True if ``rule_id`` is disabled at ``line``."""
        rule_id = rule_id.upper()
        if _ALL in self.file_disables or rule_id in self.file_disables:
            return True
        at_line = self.line_disables.get(line, ())
        return _ALL in at_line or rule_id in at_line


def _comments(source):
    """Yield ``(lineno, full_line, comment_text)`` for real comments.

    Tokenizing keeps docstring prose that merely *mentions* the pragma
    syntax from registering as a suppression.  Source that fails to
    tokenize (the REP000 case) degrades to raw line scanning so a
    half-edited file keeps its pragmas.
    """
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(
            io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError,
            ValueError):
        for lineno, text in enumerate(lines, start=1):
            yield lineno, text, text
        return
    for token in tokens:
        if token.type == tokenize.COMMENT:
            lineno = token.start[0]
            text = lines[lineno - 1] if lineno <= len(lines) else ""
            yield lineno, text, token.string
