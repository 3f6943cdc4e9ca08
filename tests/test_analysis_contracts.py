"""``as_dict`` key-set contract checker (CON603) and its tree runner.

CON603 gets known-bad ``as_dict`` bodies with exact codes and lines;
CON600 gets a source that does not parse.  The integration tests run
the checker over the shipped tree against the suppression baseline.
"""

import textwrap
from pathlib import Path

from repro.analysis.contracts import (
    check_as_dict_keys,
    check_tree,
    rules_for,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src" / "repro"


class TestCon600Unreadable:
    def test_syntax_error_is_con600(self):
        diags = check_as_dict_keys("def f(:\n", "perf/example.py")
        assert [(d.code, d.location) for d in diags] \
            == [("CON600", "perf/example.py:1")]


class TestCon603AsDictKeys:
    def test_fstring_key_in_dict_literal(self):
        src = (
            "class Stats:\n"
            "    def as_dict(self):\n"
            "        return {f'k.{self.name}': 1}\n"
        )
        diags = check_as_dict_keys(src, "perf/example.py")
        assert [(d.code, d.location) for d in diags] \
            == [("CON603", "perf/example.py:3")]

    def test_computed_subscript_store(self):
        src = textwrap.dedent("""
            class Stats:
                def as_dict(self):
                    out = {}
                    out[self.key] = 1
                    return out
        """)
        diags = check_as_dict_keys(src, "appliance/example.py")
        assert [d.code for d in diags] == ["CON603"]

    def test_literal_keys_clean(self):
        src = textwrap.dedent("""
            class Stats:
                def as_dict(self):
                    out = {"requests": 1}
                    out["completed"] = 2
                    return out
        """)
        assert check_as_dict_keys(src, "perf/example.py") == []

    def test_double_star_expansion_exempt(self):
        src = textwrap.dedent("""
            class Stats:
                def as_dict(self):
                    return {"requests": 1, **self.extra}
        """)
        assert check_as_dict_keys(src, "perf/example.py") == []

    def test_other_functions_ignored(self):
        src = textwrap.dedent("""
            class Stats:
                def snapshot(self):
                    return {self.key: 1}
        """)
        assert check_as_dict_keys(src, "perf/example.py") == []


class TestRuleSelection:
    def test_contract_files_get_pairing_rules(self):
        # The step-timer files no longer carry surface-parity rules
        # (both timers inherit one StepTimer); only CON603 applies.
        assert rules_for("perf/analytical.py") == ("CON603",)
        assert rules_for("perf/simulator.py") == ("CON603",)

    def test_as_dict_scope(self):
        assert rules_for("appliance/continuous.py") == ("CON603",)
        assert rules_for("obs/tracer.py") == ()
        assert rules_for("cxl/arbiter.py") == ()


class TestRealTree:
    def test_tree_clean_modulo_baseline(self):
        from repro.analysis.baseline import Baseline
        report = check_tree(REPO_SRC)
        baseline = Baseline.load(
            REPO_ROOT / "tools" / "static_analysis_baseline.json")
        result = baseline.apply(report, REPO_SRC)
        assert result.report.clean, result.report.render()

    def test_known_exceptions_are_the_unit_enum_keys(self):
        report = check_tree(REPO_SRC)
        assert [d.code for d in report.diagnostics] \
            == ["CON603", "CON603"]
        assert all(d.location.startswith("perf/simulator.py")
                   for d in report.diagnostics)
