"""``tools/op_digests.py`` prints one digest line per benchmark operation.
Two processes on the same inputs must print the same lines: reruns are
byte-identical, step and evaluation counts included."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"artifact_verify (\S+) exit=0 files=(\d+) advance=(\d+) velocity=(\d+) "
                  r"sha256=[0-9a-f]{64}")


def _digests(seed: int) -> list[str]:
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "op_digests.py"),
                           "--seed", str(seed), "--workload", "artifact_verify"],
                          capture_output=True, text=True, timeout=300, check=True)
    return done.stdout.splitlines()


def test_two_runs_print_equal_lines_one_per_operation(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    first = _digests(1)
    assert first == _digests(1)
    names = [op.name for op in workloads.artifact_verify(1, lambda *shape: (0.5, 0.6))]
    assert [LINE.fullmatch(line).group(1) for line in first] == names
    for line in first:
        name, files, advance, velocity = LINE.fullmatch(line).groups()
        # the two simulate runs step, verify and render take no step, and
        # every step costs at least two evaluations
        assert (int(advance) > 0) == name.startswith("sim_") and int(files) > 0
        assert int(velocity) >= 2 * int(advance)


def test_an_unknown_workload_is_refused():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "op_digests.py"),
                           "--workload", "no_such_workload"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    assert "no_such_workload" in done.stderr
