"""Count the code lines of a package's Python modules.

A code line is a non-blank line that holds a token other than a comment
and is not part of a module, class or function docstring. Lines are
found with `tokenize` (a multi-line string counts every line it spans)
and docstrings with `ast`. Prints one line per module, largest first,
then the total.

    python3 tools/code_lines.py [DIR]   # DIR defaults to src/hashsim
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno,
                                              first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/hashsim")
    counts = {p.stem: code_lines(p) for p in sorted(root.glob("*.py"))}
    if not counts:
        print(f"no Python modules in {root}", file=sys.stderr)
        return 1
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
