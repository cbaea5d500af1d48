"""README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md claim only what
the tree contains.

Eight checks over the user-facing docs:

* every ``BENCH_<n>.json`` they name exists at the repository root;
* every repository path they name in inline code under ``src/``,
  ``tests/``, ``benchmarks/``, ``perfbench/`` or ``examples/`` exists
  (a pytest node id counts by its file, ``path:line`` by its path);
* every ``make <target>`` in a code block or inline code span is a
  Makefile target;
* every option on a ``repro-checksums ...`` or ``python -m repro.cli
  ...`` line of a code block is accepted by that subcommand's parser,
  and every value that follows an option with ``choices`` on such a
  line is one of them (``--format json``, not a removed format);
* every inline code span in the meaning column of an exit-code table
  names a subcommand path the parser accepts (``channel replay``), an
  option some subcommand accepts (``--rules``), or a
  ``repro.api`` name (``RunAborted``);
* the span table of ``docs/architecture.md`` names exactly the spans
  that a ``span("<name>")`` literal in src opens (``repro.telemetry``'s
  own self-test spans aside);
* the rule catalogue of ``docs/architecture.md`` lists exactly the
  rule ids that ``repro-checksums lint --list-rules`` prints.

Other command lines (perfbench, pytest, pip) are not checked: their
options belong to other programs.
"""

import argparse
import ast
import re
import shlex
from pathlib import Path

import repro.api
from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
ARCHITECTURE = ROOT / "docs" / "architecture.md"
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]

_FENCE = re.compile(r"^\s*```")
_CLI_LINE = re.compile(
    r"^\s*(?:\$\s+)?(?:\w+=\S*\s+)*"
    r"(?:repro-checksums|python3? -m repro\.cli)\s+(?P<args>.+)$"
)
_MAKE_LINE = re.compile(r"^\s*(?:\$\s+)?make\s+(?P<target>[\w-]+)")
_MAKE_SPAN = re.compile(r"`make\s+(?P<target>[\w-]+)[^`]*`")
_MAKE_RULE = re.compile(r"^(?P<target>[\w-]+)\s*:(?!=)", re.MULTILINE)
_BENCH_FILE = re.compile(r"BENCH_\d+\.json")
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_REPO_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|perfbench|examples)/[\w./*-]*)"
)
_TABLE_ROW = re.compile(r"^\s*\|(?P<cells>.*)\|\s*$")
_TABLE_RULE = re.compile(r"^[\s|:-]+$")


def code_block_lines(path):
    """``(line_number, text)`` of fenced code, comments dropped and
    backslash continuations joined onto their first line."""
    lines, inside, joining = [], False, False
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if _FENCE.match(raw):
            inside, joining = not inside, False
            continue
        if not inside:
            continue
        text = re.split(r"\s#", raw, maxsplit=1)[0].strip()
        if joining:
            lines[-1] = (lines[-1][0], lines[-1][1] + " " + text.rstrip("\\"))
        else:
            lines.append((number, text.rstrip("\\")))
        joining = text.endswith("\\")
    return lines


def where(path, number):
    return "%s:%d" % (path.relative_to(ROOT), number)


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return None


def exit_table_meanings(path):
    """``(line_number, cell)`` of every meaning cell of an exit-code table.

    An exit-code table is a Markdown table whose header has a column
    starting with "exit" (``exit``, ``exit code``); every other column
    of its body rows is a meaning column.
    """
    meanings, exit_column, in_table = [], None, False
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        row = _TABLE_ROW.match(line)
        if row is None:
            in_table = False
            continue
        cells = [cell.strip() for cell in row.group("cells").split("|")]
        if not in_table:  # the header row
            in_table = True
            exit_column = next((index for index, cell in enumerate(cells)
                                if cell.lower().startswith("exit")), None)
        elif exit_column is not None and not _TABLE_RULE.match(line):
            meanings += [(number, cell) for index, cell in enumerate(cells)
                         if index != exit_column]
    return meanings


def section_table_first_cells(path, heading):
    """``(line_number, first cell)`` of each body row of the first
    Markdown table under the ``heading`` line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = lines.index(heading)
    cells, rows = [], 0
    for number, line in enumerate(lines[start + 1:], start + 2):
        row = _TABLE_ROW.match(line)
        if row is None:
            if rows:
                break
            continue
        rows += 1
        if rows > 2:  # past the header and its rule
            cells.append((number, row.group("cells").split("|")[0].strip()))
    return cells


def src_span_names():
    """Every ``span("<name>")`` literal under src/repro, outside
    ``repro.telemetry``, as ``{name: [path:line, ...]}``."""
    names = {}
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        if path.relative_to(src).parts[0] == "telemetry":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            func = node.func
            leaf = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if leaf == "span":
                names.setdefault(node.args[0].value, []).append(
                    where(path, node.lineno))
    return names


def _all_options(parser):
    options = set(parser._option_string_actions)
    for child in (_subparsers(parser) or {}).values():
        options |= _all_options(child)
    return options


def is_subcommand_path(words):
    """True if ``words`` is a path of subcommands ``build_parser()``
    accepts (``channel replay``, ``lint``)."""
    parser = build_parser()
    for word in words:
        choices = _subparsers(parser)
        if choices is None or word not in choices:
            return False
        parser = choices[word]
    return bool(words)


def command_parser(args):
    """``(parser, tokens)``: the (sub)command parser ``args`` runs and
    the tokens left after the subcommand words, or ``(None, [word])``
    for the first word that names no subcommand."""
    parser, tokens = build_parser(), shlex.split(args)
    while tokens and _subparsers(parser) is not None:
        choices = _subparsers(parser)
        if tokens[0] not in choices:
            return None, tokens[:1]
        parser = choices[tokens.pop(0)]
    return parser, tokens


def unknown_options(args):
    """Options in ``args`` that its (sub)command's parser rejects."""
    parser, tokens = command_parser(args)
    if parser is None:
        return ["unknown subcommand %r" % tokens[0]]
    return [token for token in tokens
            if token.startswith("-") and token != "-"
            and token.split("=", 1)[0] not in parser._option_string_actions]


def choice_values(args):
    """``(option, value, choices)`` for each value in ``args`` that
    follows an option with ``choices`` (``--format json``,
    ``--plan=bitrot``)."""
    parser, tokens = command_parser(args)
    if parser is None:
        return []
    values = []
    for token, following in zip(tokens, tokens[1:] + [None]):
        option, inline, value = token.partition("=")
        action = parser._option_string_actions.get(option)
        if action is not None and action.choices is not None:
            values.append((option, value if inline else following,
                           list(action.choices)))
    return values


def test_named_bench_snapshots_exist():
    named = {(where(path, number), name)
             for path in DOCS
             for number, line in enumerate(
                 path.read_text(encoding="utf-8").splitlines(), 1)
             for name in _BENCH_FILE.findall(line)}
    assert named
    missing = sorted(claim for claim in named if not (ROOT / claim[1]).is_file())
    assert not missing, missing


def test_named_repository_paths_exist():
    named = []
    for path in DOCS:
        text = path.read_text(encoding="utf-8")
        for number, line in enumerate(text.splitlines(), 1):
            for span in _CODE_SPAN.findall(line):
                named += [(where(path, number), match.rstrip("."))
                          for match in _REPO_PATH.findall(span)]
    assert len(named) >= 20
    missing = sorted(claim for claim in named
                     if not any(ROOT.glob(claim[1].rstrip("/") or ".")))
    assert not missing, missing


def test_make_targets_exist():
    targets = set(_MAKE_RULE.findall((ROOT / "Makefile").read_text(encoding="utf-8")))
    named = []
    for path in DOCS:
        for number, line in code_block_lines(path):
            named += [(where(path, number), m) for m in _MAKE_LINE.findall(line)]
        for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            named += [(where(path, number), m) for m in _MAKE_SPAN.findall(line)]
    assert len(named) >= 5
    missing = sorted(claim for claim in named if claim[1] not in targets)
    assert not missing, missing


def test_cli_options_exist():
    checked, problems = 0, []
    for path in DOCS:
        for number, line in code_block_lines(path):
            match = _CLI_LINE.match(line)
            if match is None:
                continue
            checked += 1
            for problem in unknown_options(match.group("args")):
                problems.append("%s: %s: %s" % (where(path, number), problem, line))
    assert checked >= 20
    assert not problems, "\n".join(problems)


def test_cli_option_values_are_valid_choices():
    checked, problems = 0, []
    for path in DOCS:
        for number, line in code_block_lines(path):
            match = _CLI_LINE.match(line)
            if match is None:
                continue
            for option, value, choices in choice_values(match.group("args")):
                checked += 1
                if value not in choices:
                    problems.append("%s: %s %s is not one of %s: %s" % (
                        where(path, number), option, value,
                        ", ".join(choices), line))
    assert checked >= 15
    assert not problems, "\n".join(problems)


def test_exit_code_tables_name_real_commands():
    options, checked, problems = _all_options(build_parser()), 0, []
    for path in DOCS:
        for number, cell in exit_table_meanings(path):
            for span in _CODE_SPAN.findall(cell):
                checked += 1
                if span.startswith("-"):
                    known = span in options
                else:
                    known = span in repro.api.__all__ \
                        or is_subcommand_path(span.split())
                if not known:
                    problems.append("%s: %r" % (where(path, number), span))
    assert checked >= 5
    assert not problems, "\n".join(problems)


def test_span_table_names_the_spans_src_opens():
    documented = {span for _, cell in section_table_first_cells(
        ARCHITECTURE, "### Spans") for span in _CODE_SPAN.findall(cell)}
    opened = src_span_names()
    assert len(documented) >= 10
    assert sorted(documented - set(opened)) == [], "documented, never opened"
    undocumented = {name: opened[name] for name in sorted(set(opened) - documented)}
    assert not undocumented, "opened, not in the span table: %s" % undocumented


def test_rule_catalogue_matches_the_registry(capsys):
    catalogue = [match.group(0)
                 for _, cell in section_table_first_cells(
                     ARCHITECTURE, "### The rule catalogue")
                 for match in [re.match(r"`(REP\d{3})`", cell)] if match]
    assert main(["lint", "--list-rules"]) == 0
    listed = re.findall(r"^(REP\d{3}) ", capsys.readouterr().out, re.MULTILINE)
    assert len(listed) >= 10
    assert sorted(set(catalogue)) == sorted(catalogue)  # no row twice
    assert sorted(match.strip("`") for match in catalogue) == sorted(listed)
