"""``tools/regime_matrix.py`` prints one line per scenario, law and shape:
verdict, stop kind, stop time over the bound, final mesh quality, steps and
evaluations."""

import re
import subprocess
import sys
from pathlib import Path

from gaussflow.engine import STOP_KINDS

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"(PASS|FAIL) (SHRINK_INSIDE|EXPAND_OUTSIDE) (FLOW0?P?) (\S+) stop=([A-Z_]+) "
                  r"t/bound=(\d+\.\d{4}) quality=(\S+) steps=(\d+) evals=(\d+)")


def _matrix(*rows: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "regime_matrix.py"), *rows],
                          capture_output=True, text=True, timeout=300)


def test_a_two_row_slice_prints_every_column():
    # rows print in matrix order, whatever order they are named in
    done = _matrix("icosphere2-expand/FLOW", "icosphere2-shrink/FLOW0")
    assert done.returncode == 0 and done.stderr == ""
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    got = [LINE.fullmatch(line).groups() for line in lines]
    assert [g[1:4] for g in got] == [("SHRINK_INSIDE", "FLOW0", "icosphere2-shrink"),
                                     ("EXPAND_OUTSIDE", "FLOW", "icosphere2-expand")]
    for verdict, _, _, _, kind, ratio, quality, steps, evals in got:
        assert kind in STOP_KINDS and float(ratio) > 0.0
        assert 0.0 <= float(quality) <= 1.0
        # every step costs at least two evaluations
        assert int(evals) >= 2 * int(steps) > 0


def test_an_unknown_row_is_refused():
    done = _matrix("torus/FLOW")
    assert done.returncode == 2 and done.stdout == ""
    assert "torus/FLOW" in done.stderr
