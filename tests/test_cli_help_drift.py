"""CLI/docs drift: flag tables and the module map must match reality.

The README's per-subcommand flags table promises exact flag spellings.
These tests diff the table against :func:`repro.cli.build_parser` in
**both** directions, so adding a flag without documenting it fails just
like documenting a flag that does not exist.  The same bidirectional
discipline applies to ``docs/architecture.md``: every top-level
``repro.*`` package must appear on the map, and every ``repro.*`` name
the map mentions must exist under ``src/repro/``.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import repro_version
from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"
ARCHITECTURE = REPO / "docs" / "architecture.md"
SRC_REPRO = REPO / "src" / "repro"

HEADER = re.compile(r"^\|\s*Command\s*\|\s*Flags\s*\|\s*$")
ROW = re.compile(r"^\|\s*`(?P<command>[a-z-]+)`\s*\|\s*(?P<flags>.*?)\s*\|\s*$")
FLAG = re.compile(r"`(--[a-z][a-z0-9-]*)`")


def parser_flags():
    """{subcommand: [long flags in parser order]}, ``--help`` excluded."""
    parser = build_parser()
    subs = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    table = {}
    for name, sub in subs.choices.items():
        flags = []
        for action in sub._actions:
            flags.extend(
                opt for opt in action.option_strings
                if opt.startswith("--") and opt != "--help"
            )
        table[name] = flags
    return table


def table_flags(path):
    """Parse ``| `cmd` | `--flag` ... |`` rows from ``Command | Flags`` tables.

    Only tables headed exactly ``| Command | Flags |`` count — other
    markdown tables are ignored.
    """
    table = {}
    in_table = False
    for line in path.read_text().splitlines():
        if HEADER.match(line):
            in_table = True
            continue
        if not line.startswith("|"):
            in_table = False
            continue
        if not in_table:
            continue
        match = ROW.match(line)
        if not match:
            continue
        cell = match.group("flags")
        table[match.group("command")] = [] if cell == "—" else FLAG.findall(cell)
    return table


class TestReadmeTable:
    def test_every_subcommand_is_documented(self):
        documented = table_flags(README)
        missing = set(parser_flags()) - set(documented)
        assert not missing, f"subcommands absent from the README table: {missing}"

    def test_no_phantom_subcommands(self):
        phantom = set(table_flags(README)) - set(parser_flags())
        assert not phantom, f"README documents unknown subcommands: {phantom}"

    def test_flags_match_exactly(self):
        actual = parser_flags()
        for command, documented in table_flags(README).items():
            assert documented == actual[command], (
                f"`{command}` flag drift:\n"
                f"  README : {documented}\n"
                f"  --help : {actual[command]}"
            )


def repro_packages():
    """Top-level packages and modules under ``src/repro/`` (no dunders)."""
    names = set()
    for entry in SRC_REPRO.iterdir():
        if entry.name.startswith("_"):
            continue
        if entry.is_dir() and (entry / "__init__.py").exists():
            names.add(entry.name)
        elif entry.suffix == ".py":
            names.add(entry.stem)
    return names


def architecture_modules():
    """Top-level ``repro.<name>`` tokens mentioned by the module map."""
    return set(
        re.findall(r"\brepro\.([a-z_]+)", ARCHITECTURE.read_text())
    )


class TestArchitectureModuleMap:
    """``docs/architecture.md`` is the map of the repository — it must
    cover every package and name nothing that does not exist."""

    def test_every_package_is_on_the_map(self):
        missing = repro_packages() - architecture_modules()
        assert not missing, (
            f"packages absent from docs/architecture.md: {sorted(missing)}"
        )

    def test_no_phantom_packages(self):
        phantom = architecture_modules() - repro_packages()
        assert not phantom, (
            "docs/architecture.md mentions repro modules that do not "
            f"exist under src/repro/: {sorted(phantom)}"
        )

    def test_both_sides_are_nonempty(self):
        assert len(repro_packages()) >= 10
        assert len(architecture_modules()) >= 10


class TestVersionFlag:
    def test_version_exits_zero_with_package_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"repro {repro_version()}"

    def test_version_is_nonempty_and_dotted(self):
        version = repro_version()
        assert version and re.match(r"^\d+\.\d+", version)


class TestTableSanity:
    """Guard the parsers themselves: no row should be empty by accident."""

    @pytest.mark.parametrize("path", [README])
    def test_tables_were_actually_found(self, path):
        table = table_flags(path)
        assert table, f"no flag-table rows parsed from {path.name}"

    def test_flagged_commands_have_flags(self):
        for command, flags in table_flags(README).items():
            if command in ("stats", "workloads"):
                assert flags == []
            else:
                assert flags, f"`{command}` row lists no flags"
