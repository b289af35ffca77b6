"""Self-tests for the repo's static analyzer (``tools/check``).

Every rule gets one known-bad fixture (must fire) and one known-good
fixture (must stay silent); two regression fixtures reproduce the shapes
of real bugs from the repo's history; and the whole ``src/`` tree must
check clean — that last test is what makes the CI gate trustworthy.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.check import run_paths  # noqa: E402
from tools.check.rules import ALL_RULES  # noqa: E402

#: rule id -> fixture stem (rule ids are kebab-case, files snake_case).
RULE_FIXTURES = {
    "guarded-by": "guarded_by",
    "result-under-lock": "result_under_lock",
    "mutation-delta": "mutation_delta",
    "action-keys": "action_keys",
    "config-mutation": "config_mutation",
    "sql-hygiene": "sql_hygiene",
    "unstable-key": "unstable_key",
    "route-auth": "route_auth",
    "telemetry-hygiene": "telemetry_hygiene",
    "one-writer": "one_writer",
}


def check_file(path: Path, select: set[str] | None = None):
    return run_paths([str(path)], select=select, root=REPO)


class TestRuleFixtures:
    def test_every_rule_has_fixture_coverage(self):
        assert set(RULE_FIXTURES) == {rule.id for rule in ALL_RULES}

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_bad_fixture_fires(self, rule_id):
        report = check_file(FIXTURES / f"{RULE_FIXTURES[rule_id]}_bad.py")
        assert not report.errors
        assert rule_id in {v.rule for v in report.violations}, (
            f"{rule_id} did not fire on its known-bad fixture"
        )

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_good_fixture_is_silent(self, rule_id):
        report = check_file(
            FIXTURES / f"{RULE_FIXTURES[rule_id]}_good.py", select={rule_id}
        )
        assert not report.errors
        assert report.violations == [], (
            f"{rule_id} false-positived on its known-good fixture: "
            f"{[v.render() for v in report.violations]}"
        )

    def test_violations_carry_location_and_message(self):
        report = check_file(FIXTURES / "guarded_by_bad.py")
        violation = report.violations[0]
        assert violation.rule == "guarded-by"
        assert violation.path.endswith("guarded_by_bad.py")
        assert violation.line > 0
        assert "_entries" in violation.message
        rendered = violation.render()
        assert f":{violation.line}:" in rendered and "guarded-by" in rendered


class TestRegressions:
    def test_pr1_identity_key_bug_shape(self):
        """The PR-1 bug: bare id(frame) cache keys, no weakref validation."""
        report = check_file(FIXTURES / "regression_pr1_idkey_bad.py")
        fired = {v.rule for v in report.violations}
        assert "unstable-key" in fired

    def test_pr5_dangling_manifest_bug_shape(self):
        """The PR-5 bug: store eviction mutating entries outside the lock."""
        report = check_file(FIXTURES / "regression_pr5_manifest_bad.py")
        fired = {v.rule for v in report.violations}
        assert "guarded-by" in fired
        # Only the unlocked eviction is flagged; publish holds the lock.
        assert all(
            "_evict" in v.message or v.line >= 20 for v in report.violations
        )


class TestActionKeys:
    def test_every_undecided_or_contradicted_action_fires(self):
        report = check_file(FIXTURES / "action_keys_bad.py", select={"action-keys"})
        named = sorted(v.message.split("'")[1] for v in report.violations)
        assert named == ["KeyedOverrideAction", "MysteryAction", "RekeyedAction"]


class TestSuppressions:
    def test_ignore_comment_silences_trailing_and_standalone(self):
        report = check_file(FIXTURES / "suppression.py")
        assert report.violations == []
        assert report.suppressed == 2

    def test_suppression_is_rule_specific(self, tmp_path):
        source = (
            "_C = {}\n"
            "def f(x):\n"
            "    _C[id(x)] = 1  # check: ignore[sql-hygiene]\n"
        )
        path = tmp_path / "wrong_rule.py"
        path.write_text(source)
        report = check_file(path)
        assert {v.rule for v in report.violations} == {"unstable-key"}


class TestLockScopeSemantics:
    def test_closure_does_not_inherit_enclosing_lock(self, tmp_path):
        """The pool done-callback shape: a closure built under the lock
        runs later with no lock held, so its guarded access must fire."""
        source = (
            "import threading\n"
            "_PENDING = {}  # guarded-by: _LOCK\n"
            "_LOCK = threading.Lock()\n"
            "def submit(future):\n"
            "    with _LOCK:\n"
            "        future.add_done_callback(\n"
            "            lambda f: _PENDING.pop(f, None)\n"
            "        )\n"
        )
        path = tmp_path / "closure.py"
        path.write_text(source)
        report = check_file(path, select={"guarded-by"})
        assert len(report.violations) == 1
        assert "_PENDING" in report.violations[0].message


class TestSourceTreeIsClean:
    def test_src_checks_clean_in_process(self):
        report = run_paths([str(REPO / "src")], root=REPO)
        assert report.errors == []
        assert report.violations == [], "\n".join(
            v.render() for v in report.violations
        )
        assert report.files_checked > 50

    def test_cli_exit_codes_and_json_report(self, tmp_path):
        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "tools.check", *args],
                cwd=REPO,
                capture_output=True,
                text=True,
                timeout=120,
            )

        clean = cli("src", "--json", str(tmp_path / "report.json"))
        assert clean.returncode == 0, clean.stdout + clean.stderr
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["violations"] == [] and payload["errors"] == []
        assert payload["files_checked"] > 50

        dirty = cli(str(FIXTURES / "unstable_key_bad.py"))
        assert dirty.returncode == 1
        assert "unstable-key" in dirty.stdout

        usage = cli("src", "--select", "no-such-rule")
        assert usage.returncode == 2


class TestAnnotationPresence:
    """The guarded-by convention must actually cover the concurrent core."""

    MODULES = [
        "src/repro/core/pool.py",
        "src/repro/core/executor/cache.py",
        "src/repro/core/usage_log.py",
        "src/repro/core/optimizer/scheduler.py",
        "src/repro/dataframe/observe.py",
        "src/repro/service/store.py",
        "src/repro/service/precompute.py",
        "src/repro/service/session.py",
    ]

    @pytest.mark.parametrize("relpath", MODULES)
    def test_module_declares_guards(self, relpath):
        text = (REPO / relpath).read_text(encoding="utf-8")
        assert "# guarded-by:" in text, f"{relpath} lost its lock annotations"
