"""Digest what every benchmark operation does, to compare two checkouts.

Each operation of ``perfbench/workloads.py`` is one ``gaussflow`` command
line.  This tool builds the benchmark's inputs with ``perfbench/run.py``'s
own input builder, calls ``gaussflow.cli.main`` on each operation in
workload order, in one temporary directory per workload, and prints one
line per operation:

    WORKLOAD OP exit=CODE files=N advance=N velocity=N rk4=N rkc=N sha256=HEX

``files`` counts the files the operation wrote, ``advance`` and
``velocity`` its calls of ``engine._advance`` (accepted steps) and
``engine.velocity`` (evaluations, rejected and bisection trials included),
``rk4`` and ``rkc`` its calls of ``engine._rk4_advance`` and
``engine._rkc_advance`` (integrator trials, so a diff shows which
integrator the evaluations went to), and the digest covers the exit code,
stdout, stderr and the path and bytes of every file written.  Two checkouts that print the same lines took the
same steps and wrote the same bytes.

    python tools/op_digests.py [--seed N] [--workload NAME ...] [--root CHECKOUT]

``--root`` is the checkout whose ``src/gaussflow`` and ``perfbench/`` are
used, by default the one this script lies in; point it at a second copy of
another commit and diff the two outputs.  The tool changes nothing in
``perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

def _counting(module, name: str, counts: dict) -> None:
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    setattr(module, name, counted)


def _files(root: Path) -> dict:
    """The stat of every file under root, by relative path."""
    stats = {}
    for p in root.rglob("*"):
        if p.is_file():
            st = p.stat()
            stats[str(p.relative_to(root))] = (st.st_mtime_ns, st.st_size, st.st_ino)
    return stats


def _digest_op(op, cli, counts: dict, work: Path) -> str:
    before = _files(work)
    for name in counts:
        counts[name] = 0
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = str(cli.main(list(op.argv)))
    except Exception as exc:        # a raising operation is digested too
        code = f"raised:{type(exc).__name__}"
        err.write(str(exc))
    after = _files(work)
    written = sorted(path for path, st in after.items() if before.get(path) != st)
    removed = sorted(set(before) - set(after))
    h = hashlib.sha256()
    for part in (code, out.getvalue(), err.getvalue()):
        h.update(part.encode() + b"\0")
    for path in written:
        data = (work / path).read_bytes()
        h.update(f"{path}\0{len(data)}\0".encode() + data)
    for path in removed:
        h.update(f"removed\0{path}\0".encode())
    return (f"exit={code} files={len(written)} advance={counts['_advance']} "
            f"velocity={counts['velocity']} rk4={counts['_rk4_advance']} "
            f"rkc={counts['_rkc_advance']} sha256={h.hexdigest()}")


def main(argv=None) -> int:
    default_root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", action="append",
                    help="a workload to run; repeat for more (default: all)")
    ap.add_argument("--root", type=Path, default=default_root)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    # one BLAS thread, as the benchmark sets it, before numpy is imported:
    # reductions keep one summation order from process to process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import run as bench
    from gaussflow import cli, engine
    from workloads import WORKLOADS

    for mod in (engine, bench):
        if not Path(mod.__file__).resolve().is_relative_to(root):
            print(f"error: imported {mod.__name__} from {mod.__file__}, not from {root}",
                  file=sys.stderr)
            return 2
    unknown = sorted(set(args.workload or ()) - set(WORKLOADS))
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    counts = {"_advance": 0, "velocity": 0, "_rk4_advance": 0, "_rkc_advance": 0}
    for name in counts:
        _counting(engine, name, counts)
    home = os.getcwd()
    for workload in args.workload or list(WORKLOADS):
        with tempfile.TemporaryDirectory(prefix="op_digests-") as tmp:
            work = Path(tmp)
            os.chdir(work)
            try:
                ops = bench.build_inputs(workload, args.seed)
                for op in ops:
                    print(f"{workload} {op.name} {_digest_op(op, cli, counts, work)}",
                          flush=True)
            finally:
                os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
