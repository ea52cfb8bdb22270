"""Count the code lines of Python modules, per module and in total.

A line is code when it holds a token other than a comment, newline or
indent, and it is not part of a module, class or function docstring.  A
statement that spans lines counts each of its lines; so does a string that
is not a docstring.  Blank lines, comment lines and docstrings count as raw
lines only.

    python tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them; the default is
``src/gaussflow`` beside this script's directory.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def _modules(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                yield from (os.path.join(root, f) for f in sorted(files) if f.endswith(".py"))
        else:
            yield path


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or [
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "gaussflow")]
    code = raw = 0
    for path in _modules(paths):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        n, r = code_lines(source), len(source.splitlines())
        code, raw = code + n, raw + r
        print(f"{n:6d} {r:6d}  {os.path.normpath(path)}")
    print(f"{code:6d} {raw:6d}  total (code lines, raw lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
