"""Print the sizes of ``src/bootperc`` that ROADMAP item 8 tracks.

The first is the ``wc -l`` total of its modules.  The second counts code
lines only: lines that hold a token other than a comment, leaving out
blank lines and module, class and function docstrings.  A row per module
follows the two totals, so a change in the totals can be traced to the
modules that moved.  The last line counts the package's public names,
``bootperc.__all__``, read from the modules' ``__all__`` lists without
importing the package.

Run from the repository root: ``python tools/src_lines.py``.
"""

import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def listed(path: Path) -> list[ast.expr]:
    """The items of the module's ``__all__`` list."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if "__all__" in targets:
            return node.value.elts
    return []


def public_names(package: Path) -> int:
    """Length of the package's ``__all__``: each ``*module.__all__`` in it counts that
    module's list, and any other item counts one."""
    return sum(len(listed(package / f"{item.value.value.id}.py")) if isinstance(item, ast.Starred)
               else 1 for item in listed(package / "__init__.py"))


def main() -> None:
    package = Path("src/bootperc")
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, source.count("\n"), code_lines(source)))
    print(f"lines={sum(row[1] for row in rows)}")
    print(f"code_lines={sum(row[2] for row in rows)}")
    for name, lines, code in rows:
        print(f"{name} lines={lines} code_lines={code}")
    print(f"public_names={public_names(package)}")


if __name__ == "__main__":
    main()
