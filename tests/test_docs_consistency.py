"""Docs-consistency gate: CLI and env var coverage, markdown links.

Thin wrapper over ``tools/check_docs.py`` so the gate runs inside the
normal test suite as well as standalone in CI.
"""

import importlib.util
import sys
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"

spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
check_docs = importlib.util.module_from_spec(spec)
sys.modules.setdefault("check_docs", check_docs)
spec.loader.exec_module(check_docs)


def test_every_cli_flag_is_documented():
    assert check_docs.check_cli_docs() == []


def test_env_table_matches_the_code():
    assert check_docs.check_env_docs() == []


def test_every_markdown_link_resolves():
    assert check_docs.check_links() == []


def test_every_docs_page_is_linked_from_readme():
    assert check_docs.check_readme_doc_index() == []


def test_checker_reports_undocumented_flags(monkeypatch):
    """The gate must actually bite: strip a flag from the doc text and
    the checker has to flag it."""
    text = check_docs.CLI_DOC.read_text(encoding="utf-8")

    class FakeDoc:
        def exists(self):
            return True

        def read_text(self, encoding=None):
            return text.replace("--cache-dir", "")

        def relative_to(self, root):
            return Path("docs/cli.md")

    monkeypatch.setattr(check_docs, "CLI_DOC", FakeDoc())
    issues = check_docs.check_cli_docs()
    assert any("--cache-dir" in issue for issue in issues)


def test_env_check_reports_stale_and_missing_rows(monkeypatch):
    """The env gate must bite both ways: a row for a variable no code
    uses, and a used variable whose row is gone."""
    text = check_docs.CLI_DOC.read_text(encoding="utf-8")
    row = "| `REPRO_HEARTBEAT_SECONDS` |"
    assert row in text
    edited = text.replace(row, "| `REPRO_NOT_A_KNOB` | `0` | x | y |\n"
                          + "| `REPRO_HEARTBEAT_SECOND` |")

    class FakeDoc:
        def exists(self):
            return True

        def read_text(self, encoding=None):
            return edited

        def relative_to(self, root):
            return Path("docs/cli.md")

    monkeypatch.setattr(check_docs, "CLI_DOC", FakeDoc())
    issues = check_docs.check_env_docs()
    assert len(issues) == 3
    assert any("row REPRO_NOT_A_KNOB names" in issue for issue in issues)
    assert any("row REPRO_HEARTBEAT_SECOND names" in issue for issue in issues)
    assert any("REPRO_HEARTBEAT_SECONDS appears" in issue for issue in issues)


def test_readme_index_check_reports_unlinked_pages(monkeypatch):
    """Strip every docs/ link from the README text and the index check
    has to flag each page."""
    text = check_docs.README.read_text(encoding="utf-8")

    class FakeReadme:
        parent = check_docs.README.parent

        def exists(self):
            return True

        def read_text(self, encoding=None):
            return text.replace("docs/", "dropped/")

    monkeypatch.setattr(check_docs, "README", FakeReadme())
    issues = check_docs.check_readme_doc_index()
    pages = sorted(check_docs.DOCS_DIR.glob("*.md"))
    assert len(issues) == len(pages)
    assert any("monitor.md" in issue for issue in issues)
