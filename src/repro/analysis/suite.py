"""The full source-tree static-analysis suite, as one entry point.

Composes the four tree passes — simulation purity (PUR3xx), unit
discipline (UNIT4xx), determinism (DET5xx), and the ``as_dict``
key-set contract checker (CON6xx) — into a single report, then applies the
checked-in suppression baseline (:mod:`repro.analysis.baseline`).
This is what ``repro lint``, ``tools/static_checks.py``, ``make
lint``, and the blocking CI job all run, so "clean" means the same
thing at every surface.

Passes are named for selection (``--select units,det``):
:data:`PASSES` maps name -> tree-runner.  The ISA *program* verifier
is deliberately not part of this suite — it checks compiled programs,
not source, and keeps its own entry point (``repro lint-program``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import ConfigurationError

from . import contracts, determinism, purity, units_lint
from .baseline import Baseline, BaselineResult
from .diagnostics import AnalysisReport

#: Selectable tree passes, in report order.
PASSES = {
    "purity": purity.lint_tree,
    "units": units_lint.lint_tree,
    "determinism": determinism.lint_tree,
    "contracts": contracts.check_tree,
}

#: Short aliases accepted by ``--select``.
PASS_ALIASES = {
    "pur": "purity",
    "unit": "units",
    "det": "determinism",
    "con": "contracts",
    "contract": "contracts",
}

#: Diagnostic-code prefixes each pass emits — used to scope the
#: baseline to the selected passes, so running ``--select units``
#: does not report the DET/CON entries as stale.
PASS_CODE_PREFIXES = {
    "purity": ("PUR",),
    "units": ("UNIT",),
    "determinism": ("DET",),
    "contracts": ("CON",),
}


def resolve_passes(names: Optional[Iterable[str]] = None
                   ) -> Tuple[str, ...]:
    """Normalize a pass selection; ``None``/empty means every pass."""
    if not names:
        return tuple(PASSES)
    resolved = []
    for name in names:
        canonical = PASS_ALIASES.get(name.strip().lower(),
                                     name.strip().lower())
        if canonical not in PASSES:
            raise ConfigurationError(
                f"unknown analysis pass {name!r}; "
                f"choose from {', '.join(PASSES)}")
        if canonical not in resolved:
            resolved.append(canonical)
    return tuple(resolved)


def run_suite(root: Path, passes: Optional[Iterable[str]] = None,
              baseline: Optional[Baseline] = None) -> BaselineResult:
    """Run the selected passes over ``root`` and apply the baseline.

    Returns a :class:`~repro.analysis.baseline.BaselineResult` whose
    ``report`` holds only unsuppressed findings; ``suppressed`` and
    ``stale`` expose the baseline's effect so tooling can both honor
    and police it (a stale entry fails CI like a finding does).
    """
    root = Path(root)
    if not root.is_dir():
        raise ConfigurationError(f"no such directory: {root}")
    selected = resolve_passes(passes)
    merged = AnalysisReport(subject=str(root))
    for name in selected:
        merged = merged.merged(PASSES[name](root))
    if baseline is None:
        baseline = Baseline()
    # Scope the baseline to the selected passes: an entry for a pass
    # that did not run cannot match anything, and must not be counted
    # stale for it (``--select units`` with the full checked-in
    # baseline would otherwise always fail).
    prefixes = tuple(p for name in selected
                     for p in PASS_CODE_PREFIXES[name])
    scoped = Baseline(tuple(e for e in baseline.entries
                            if e.code.startswith(prefixes)))
    return scoped.apply(merged, root)


def render_result(result: BaselineResult) -> str:
    """Human-readable suite report, baseline effects included."""
    lines = [result.report.render()]
    if result.suppressed:
        lines.append(f"  {len(result.suppressed)} finding(s) "
                     f"suppressed by baseline")
    for entry in result.stale:
        lines.append(f"  stale baseline entry: {entry.code} "
                     f"{entry.path} ({entry.reason}) — matched "
                     f"nothing; delete it")
    return "\n".join(lines)


def pass_counts(result: BaselineResult) -> Dict[str, int]:
    """Unsuppressed finding count per diagnostic family (for tooling)."""
    counts: Dict[str, int] = {}
    for diag in result.report.diagnostics:
        family = diag.code.rstrip("0123456789")
        counts[family] = counts.get(family, 0) + 1
    return counts
