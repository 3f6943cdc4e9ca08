"""Contract checker for the key sets that cross the model boundary.

``as_dict()`` results in ``perf`` and ``appliance`` travel into
exporters, benchmarks and CI asserts, so their key *set* is part of the
contract between the simulator's layers and its consumers.

* **CON603** — an ``as_dict()`` key is not a string literal (in
  ``perf`` and ``appliance``).  A computed key can change spelling or
  set membership between runs; a literal cannot.

``CON600`` reports inputs that do not parse.  Entry points mirror the
sibling lints: :func:`check_as_dict_keys` for one source in tests,
:func:`check_tree` over a source tree.

(The step-model surface itself needs no lint: both step timers inherit
``prefill_s`` / ``decode_step_s`` / ``decode_steps_s`` from one
:class:`repro.perf.analytical.StepTimer`.)
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Tuple

from .diagnostics import AnalysisReport, Diagnostic, Severity

#: Packages whose ``as_dict`` key sets are contract surface (CON603).
AS_DICT_SCOPED = ("perf", "appliance")


# -- CON603: as_dict keys must be string literals -------------------------

def _nonliteral_keys(func: ast.AST) -> List[ast.AST]:
    """Non-literal key expressions written inside an ``as_dict`` body."""
    offenders: List[ast.AST] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is None:
                    continue  # **expansion: keys checked at their source
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    offenders.append(key)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) \
                        and not (isinstance(target.slice, ast.Constant)
                                 and isinstance(target.slice.value, str)):
                    offenders.append(target.slice)
    return offenders


def check_as_dict_keys(source: str, relpath: str) -> List[Diagnostic]:
    """CON603 findings for one file (caller applies path scoping)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Diagnostic(
            "CON600", Severity.ERROR, f"syntax error: {exc.msg}",
            location=f"{relpath}:{exc.lineno or 0}", source=relpath)]
    diags: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name != "as_dict":
            continue
        for key in _nonliteral_keys(node):
            try:
                rendered = ast.unparse(key)
            except Exception:  # pragma: no cover
                rendered = "<key>"
            diags.append(Diagnostic(
                "CON603", Severity.ERROR,
                f"as_dict() key {rendered} is not a string literal; "
                f"computed keys make the exported key set unstable "
                f"across runs and models",
                location=f"{relpath}:{getattr(key, 'lineno', 0)}",
                source=relpath))
    diags.sort(key=lambda d: (int(d.location.rsplit(':', 1)[-1] or 0),
                              d.code))
    return diags


def rules_for(relpath: str) -> Tuple[str, ...]:
    """CON rule codes that apply to a file at ``relpath``."""
    rel = relpath.replace("\\", "/")
    if rel.split("/", 1)[0] in AS_DICT_SCOPED:
        return ("CON603",)
    return ()


def check_tree(root: Path) -> AnalysisReport:
    """Check ``as_dict`` key literalness in every scoped file of a tree."""
    root = Path(root)
    diags: List[Diagnostic] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.split("/", 1)[0] not in AS_DICT_SCOPED:
            continue
        diags.extend(check_as_dict_keys(
            path.read_text(encoding="utf-8"), rel))
    return AnalysisReport.collect(diags, subject=str(root))
