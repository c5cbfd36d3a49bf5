"""Count the code lines of a Python package, per module and in total.

A code line is a line that some token other than a comment or a docstring
covers: blank lines, comment lines and docstrings do not count, and a
multi-line string that is not a docstring counts every line it spans.
Docstrings are the string statements that open a module, class or function.

Run from anywhere::

    python tools/code_lines.py            # src/redlab beside this script
    python tools/code_lines.py some/pkg   # any directory of .py files
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(source: str) -> set:
    """(line, column) of every docstring in ``source``."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    package = argv[0] if argv else os.path.join(here, os.pardir, "src", "redlab")
    names = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    total = 0
    for name in names:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{name:<20} {count:>6}")
    print(f"{'total':<20} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
