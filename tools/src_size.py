"""Print the size of the ``fracground`` package as one JSON line.

    python tools/src_size.py

The four numbers are the lines of the ``.py`` files under ``src/``; their code
lines, those that hold a token other than a comment and are not part of a
module, class or function docstring (read with ``tokenize`` and ``ast``); the
names in ``fracground.__all__``; and the configuration keys in
``fracground.config.DEFAULTS``.  Standard library only.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(path: Path) -> tuple[int, int]:
    """Return (all lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    code = {
        line
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type not in _NOT_CODE
        for line in range(tok.start[0], tok.end[0] + 1)
    }
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main() -> None:
    counts = [count_lines(path) for path in sorted(SRC.rglob("*.py"))]
    sys.path.insert(0, str(SRC))
    import fracground
    from fracground.config import DEFAULTS

    print(json.dumps({
        "src_lines": sum(total for total, _ in counts),
        "code_lines": sum(code for _, code in counts),
        "public_names": len(fracground.__all__),
        "config_keys": len(DEFAULTS),
    }))


if __name__ == "__main__":
    main()
