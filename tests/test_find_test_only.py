"""The test-only scan: the tree is clean, and the scan sees a new
unread definition or write-only attribute."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "find_test_only.py"


@pytest.fixture(scope="module")
def finder():
    spec = importlib.util.spec_from_file_location("find_test_only", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def _write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def test_tree_has_only_allowlisted_entries(finder, capsys):
    assert finder.main() == 0, capsys.readouterr().out
    kept = {entry.key for entry in finder.scan()}
    assert kept == set(finder.ALLOWLIST)
    assert all(reason.strip() for reason in finder.ALLOWLIST.values())


def test_scan_reports_unread_code_to_a_fixed_point(finder, tmp_path):
    _write(tmp_path, "src/repro/mod.py", """
        from dataclasses import dataclass


        @dataclass
        class Record:
            value: int = 0
            mark: int = 0


        class Widget:
            def __init__(self):
                self.count = 0
                self.log = []
                self.seen = 0

            def used(self, record):
                self.count += 1
                self.log.append(self.count)
                record.mark = 1
                return record.value

            def helper_only_tests_call(self):
                return self.seen

            def __repr__(self):
                return "Widget()"
        """)
    _write(tmp_path, "scripts/run.py", """
        from repro.mod import Record, Widget

        Widget().used(Record())
        """)
    found = {entry.key: entry.kind for entry in finder.scan(tmp_path)}
    assert found == {
        # No reader calls it; then `seen` is read only inside it.
        "mod:Widget.helper_only_tests_call": "definition",
        "mod:Widget.seen": "state",
        # Written on the run path, never read.
        "mod:Widget.log": "state",
        "mod:Record.mark": "state",
    }


def test_package_reexport_is_not_a_use(finder, tmp_path):
    # A name that only its package's __init__.py re-exports, and only a
    # test imports, is test-only; a name a reader imports is used.
    _write(tmp_path, "src/repro/pkg/__init__.py", """
        from repro.pkg.mod import only_reexported, used

        __all__ = ["only_reexported", "used"]
        """)
    _write(tmp_path, "src/repro/pkg/mod.py", """
        def only_reexported():
            return 1


        def used():
            return 2
        """)
    _write(tmp_path, "scripts/run.py", """
        from repro.pkg import used

        used()
        """)
    _write(tmp_path, "tests/test_pkg.py", """
        from repro.pkg import only_reexported

        assert only_reexported() == 1
        """)
    found = {entry.key: entry.kind for entry in finder.scan(tmp_path)}
    assert found == {"pkg.mod:only_reexported": "definition"}
