"""Repository tools: the verify report comparison."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_report_diff_finds_no_difference_between_a_tree_and_itself():
    # ten cold verify runs per tree, one per sweep q, on one cheap check
    tool = ROOT / "tools" / "report_diff.py"
    args = [str(ROOT), str(ROOT), "--checks", "density_symmetry"]
    proc = subprocess.run([sys.executable, str(tool), *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["10 runs, 10 checks compared, 0 differences"]
