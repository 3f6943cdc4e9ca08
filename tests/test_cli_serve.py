"""``repro serve`` end to end: stdout pinned to golden files.

Each case drives the CLI in-process on OPT-1.3B with eight requests and
compares the whole printed report with ``tests/golden/serve/<case>.txt``.
A recorded trace must replay to the same stats block.  Regenerate a
golden only when a change is meant to move the numbers, by writing the
command's stdout to the file (``PYTHONPATH=src python -m repro serve
...``) and saying why in CHANGES.md.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "serve"
BASE = ["serve", "OPT-1.3B", "--requests", "8"]
CLASSES = ["--class", "interactive:3:1:0.5:0.05", "--class", "batch:1"]

CASES = {
    "pnm_compare_fcfs": ["--compare-fcfs"],
    "int8_two_devices": ["--dtype", "int8", "--devices", "2"],
    "sim_step_model": ["--step-model", "sim"],
    "gpu_tenants_slo": ["--device", "gpu", "--memory-gb", "8",
                        "--tenants", "4", *CLASSES, "--slo"],
}


def _serve(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _golden(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text()


def _stats(out: str) -> str:
    return out[out.index("  [continuous"):]


@pytest.mark.parametrize("case", sorted(CASES))
def test_serve_output_matches_golden(capsys, case):
    code, out = _serve(capsys, BASE + CASES[case])
    assert code == 0
    assert out == _golden(case)


def test_saved_trace_replays_to_identical_stats(capsys, tmp_path):
    trace = str(tmp_path / "t.jsonl")
    code, recorded = _serve(capsys, BASE + [
        "--devices", "2", "--arrival", "flash-crowd", "--tenants", "4",
        *CLASSES, "--slo", "--seed", "11", "--save-trace", trace])
    assert code == 0
    assert recorded.replace(trace, "TRACE") == _golden("save_trace")
    code, replayed = _serve(capsys, [
        "serve", "OPT-1.3B", "--devices", "2", *CLASSES, "--slo",
        "--trace-file", trace])
    assert code == 0
    assert replayed.startswith(f"OPT-1.3B on CXL-PNM: 8 requests, "
                               f"trace {trace}, memory 512 GB\n")
    assert _stats(replayed) == _stats(recorded)


def test_sim_step_model_rejects_gpu(capsys):
    code, out = _serve(capsys, BASE + ["--step-model", "sim",
                                       "--device", "gpu"])
    assert code == 2
    assert out == "error: --step-model sim requires --device pnm\n"
