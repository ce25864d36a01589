#!/usr/bin/env python3
"""Count the code lines of a Python package: lines that hold a token other
than a comment, and that are not part of a docstring.  Blank lines,
comment-only lines and the lines of module, class and function docstrings
do not count; a line inside any other multi-line string does.

    python scripts/code_lines.py [DIR ...]     # default: src/curvedhall

Prints one ``<lines>  <module>`` row per ``.py`` file, sorted by name, and
a ``<total>  total`` row per directory.  Stdlib only.
"""

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    for folder in argv or [os.path.join(os.path.dirname(__file__), "..",
                                        "src", "curvedhall")]:
        total = 0
        for name in sorted(f for f in os.listdir(folder) if f.endswith(".py")):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                n = code_lines(fh.read())
            total += n
            print(f"{n:6d}  {name[:-3]}")
        print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
