"""The benchmark's own checks: its checker can fail, and its inputs never
depend on the library under test."""

import subprocess
import sys
from pathlib import Path

import output_check


def test_checker_rejects_each_corrupted_output():
    assert output_check.negative_controls() == []


def test_inputs_and_answers_never_import_vclabels(tmp_path):
    script = (
        "import sys, pathlib, workload_gen, output_check\n"
        "work = pathlib.Path(sys.argv[1])\n"
        "for w in workload_gen.ROUNDS:\n"
        "    workload_gen.cli_round(w, 1, 0, work, work)\n"
        "output_check.negative_controls()\n"
        "workload_gen.batch_pass(1, 0)\n"
        "assert 'vclabels' not in sys.modules\n"
    )
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        cwd=Path(__file__).parent, check=True, timeout=120,
    )
