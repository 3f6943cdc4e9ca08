#!/usr/bin/env python
"""Source-tree static-analysis runner (the CI ``static-analysis`` job).

Thin CLI over :mod:`repro.analysis.suite`: runs the simulation-purity
lint (PUR3xx), the dimensional/unit lint (UNIT4xx), the determinism
lint (DET5xx), and the ``as_dict`` key-set contract checker (CON6xx) over
every Python file under ``src/repro``, then applies the checked-in
suppression baseline (``tools/static_analysis_baseline.json``).  See
``docs/ANALYSIS.md`` for the rule tables and the baseline policy.

Usage::

    PYTHONPATH=src python tools/static_checks.py [--root DIR]
        [--select purity,units,determinism,contracts]
        [--baseline FILE | --no-baseline] [--json] [--errors-only]

The default baseline applies only when linting this repo's own
``src/repro`` (a foreign ``--root`` would render every entry stale);
pass ``--baseline`` explicitly to use one elsewhere.

Exit codes follow the repo convention: 0 clean, 2 when the suite found
diagnostics or a baseline entry went stale, 1 when the tool itself
failed (bad root, import error, malformed baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

#: Exit code for "the lint found something" (vs 1 = tool crashed).
EXIT_DIAGNOSTICS = 2

#: The checked-in suppression baseline next to this script.
DEFAULT_BASELINE = Path(__file__).resolve().parent \
    / "static_analysis_baseline.json"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=None,
                        help="tree to lint (default: src/repro next to "
                             "this script's repo)")
    parser.add_argument("--select", action="append", default=[],
                        metavar="PASSES",
                        help="comma-separated passes (purity, units, "
                             "determinism, contracts); default: all")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="suppression baseline JSON (default: "
                             f"{DEFAULT_BASELINE.name} when linting "
                             "this repo's src/repro)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    parser.add_argument("--errors-only", action="store_true",
                        help="exit 2 only on errors (warnings pass)")
    args = parser.parse_args(argv)

    default_root = Path(__file__).resolve().parents[1] / "src" / "repro"
    root = args.root if args.root is not None else default_root
    if not root.is_dir():
        print(f"error: no such directory: {root}", file=sys.stderr)
        return 1

    sys.path.insert(0, str(default_root.parent))
    try:
        from repro.analysis.baseline import Baseline
        from repro.analysis.suite import render_result, run_suite
        from repro.errors import ConfigurationError
    except ImportError as exc:
        print(f"error: cannot import repro.analysis: {exc}",
              file=sys.stderr)
        return 1

    baseline = None
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline \
            and Path(root).resolve() == default_root \
            and DEFAULT_BASELINE.is_file():
        baseline_path = DEFAULT_BASELINE
    try:
        if baseline_path is not None and not args.no_baseline:
            baseline = Baseline.load(baseline_path)
        passes = [name for chunk in args.select
                  for name in chunk.split(",") if name.strip()] or None
        result = run_suite(root, passes=passes, baseline=baseline)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_result(result))
    if args.errors_only:
        failed = not result.report.ok or bool(result.stale)
    else:
        failed = not result.ok
    return EXIT_DIAGNOSTICS if failed else 0


if __name__ == "__main__":
    sys.exit(main())
