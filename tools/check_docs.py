"""Docs-consistency checker (the CI `docs-check` gate).

Four properties keep the documentation honest:

1. **CLI coverage** — every subcommand `build_parser()` registers, and
   every option string of every subcommand, appears literally in
   ``docs/cli.md``.  Adding a flag without documenting it fails CI.
2. **Env var coverage** — the environment-variable table in
   ``docs/cli.md`` lists exactly the ``REPRO_``-prefixed names that
   appear in the Python sources under ``src/``, ``benchmarks/`` and
   ``tools/``: a new knob needs a row, and a deleted knob loses its row.
3. **Link integrity** — every relative markdown link in ``README.md``
   and ``docs/*.md`` resolves to an existing file (anchors stripped).
4. **README index coverage** — every ``docs/*.md`` page is a resolved
   link target somewhere in ``README.md``, so a new docs page cannot
   land without an entry in the README docs index.

Run standalone (exit 1 on any issue, listing all of them)::

    PYTHONPATH=src python tools/check_docs.py

or via the thin pytest wrapper ``tests/test_docs_consistency.py``.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
CLI_DOC = REPO_ROOT / "docs" / "cli.md"
README = REPO_ROOT / "README.md"
DOCS_DIR = REPO_ROOT / "docs"

#: Markdown docs whose relative links must resolve.
LINKED_DOCS = ("README.md", "docs/*.md")
#: Source trees whose env var names the docs/cli.md table must list.
ENV_SOURCE_DIRS = ("src", "benchmarks", "tools")
ENV_SECTION = "## Environment variables"

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_ENV_NAME_RE = re.compile(r"\bREPRO_[A-Z0-9_]+")
_ENV_ROW_RE = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`", re.MULTILINE)


def _subcommand_parsers(parser: argparse.ArgumentParser):
    """(name, subparser) pairs for every registered subcommand."""
    for action in parser._actions:  # noqa: SLF001 - argparse has no public walk
        if isinstance(action, argparse._SubParsersAction):  # noqa: SLF001
            # .choices maps every alias; dedupe by parser identity.
            seen = set()
            for name, sub in action.choices.items():
                if id(sub) not in seen:
                    seen.add(id(sub))
                    yield name, sub


def check_cli_docs() -> List[str]:
    """Every subcommand + flag in ``build_parser()`` is in docs/cli.md."""
    from repro.cli import build_parser

    issues: List[str] = []
    if not CLI_DOC.exists():
        return [f"{CLI_DOC.relative_to(REPO_ROOT)}: missing"]
    text = CLI_DOC.read_text(encoding="utf-8")
    doc = CLI_DOC.relative_to(REPO_ROOT)

    for name, sub in _subcommand_parsers(build_parser()):
        if f"repro {name}" not in text:
            issues.append(f"{doc}: subcommand 'repro {name}' is undocumented")
        for action in sub._actions:  # noqa: SLF001
            if isinstance(action, argparse._HelpAction):  # noqa: SLF001
                continue
            if action.option_strings:
                for option in action.option_strings:
                    if option not in text:
                        issues.append(
                            f"{doc}: 'repro {name}' flag {option} is undocumented")
            elif action.dest != "command" and f"`{action.dest}`" not in text:
                issues.append(
                    f"{doc}: 'repro {name}' positional '{action.dest}' "
                    "is undocumented")
    return issues


def check_env_docs() -> List[str]:
    """docs/cli.md's env table lists exactly the env names the code uses."""
    doc = CLI_DOC.relative_to(REPO_ROOT)
    if not CLI_DOC.exists():
        return [f"{doc}: missing"]
    text = CLI_DOC.read_text(encoding="utf-8")
    if ENV_SECTION not in text:
        return [f"{doc}: no '{ENV_SECTION}' section"]
    section = text.split(ENV_SECTION, 1)[1].split("\n## ", 1)[0]
    documented = set(_ENV_ROW_RE.findall(section))
    used = set()
    for top in ENV_SOURCE_DIRS:
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            used.update(_ENV_NAME_RE.findall(path.read_text(encoding="utf-8")))
    where = "/, ".join(ENV_SOURCE_DIRS) + "/"
    issues = [f"{doc}: env var {name} appears under {where} but has no "
              "row in the environment table"
              for name in sorted(used - documented)]
    issues += [f"{doc}: environment table row {name} names a variable "
               f"that appears nowhere under {where}"
               for name in sorted(documented - used)]
    return issues


def check_links() -> List[str]:
    """Every relative markdown link resolves to an existing file."""
    issues: List[str] = []
    docs: List[Path] = []
    for pattern in LINKED_DOCS:
        docs.extend(sorted(REPO_ROOT.glob(pattern)))
    for doc in docs:
        text = doc.read_text(encoding="utf-8")
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                issues.append(
                    f"{doc.relative_to(REPO_ROOT)}: broken link '{target}'")
    return issues


def check_readme_doc_index() -> List[str]:
    """Every ``docs/*.md`` page is linked from ``README.md``."""
    if not README.exists():
        return ["README.md: missing"]
    text = README.read_text(encoding="utf-8")
    linked = set()
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if path:
            linked.add((README.parent / path).resolve())
    issues: List[str] = []
    for page in sorted(DOCS_DIR.glob("*.md")):
        if page.resolve() not in linked:
            issues.append(
                f"README.md: docs page '{page.relative_to(REPO_ROOT)}' "
                "is not linked from the README docs index")
    return issues


def run_checks() -> List[str]:
    return (check_cli_docs() + check_env_docs() + check_links()
            + check_readme_doc_index())


def main() -> int:
    issues = run_checks()
    for issue in issues:
        print(issue, file=sys.stderr)
    if issues:
        print(f"docs-check: {len(issues)} issue(s)", file=sys.stderr)
        return 1
    print("docs-check: CLI coverage, env var coverage, link integrity, "
          "and README docs index OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
