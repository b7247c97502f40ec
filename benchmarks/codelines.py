"""The code-line count every size claim in ROADMAP.md / CHANGES.md uses.

A *code line* is a physical line that holds at least one token which is
not a comment, not part of a docstring (the leading string statement of a
module, class or function, found with ``ast``) and not layout (NEWLINE,
NL, INDENT, DEDENT, ENCODING, ENDMARKER). Blank lines, comment-only lines
and docstrings therefore never count, and neither reformatting comments
nor moving prose in or out of docstrings moves the number.

    python3 benchmarks/codelines.py src                   # one total
    python3 benchmarks/codelines.py --compare OLD NEW     # per-file table
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path
from typing import Dict

_LAYOUT = {
    tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.add((first.lineno, first.col_offset))
    counted = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT and token.start not in docstrings:
            counted.update(range(token.start[0], token.end[0] + 1))
    return len(counted)


def count_tree(root: Path) -> Dict[str, int]:
    """``relative path -> code lines`` for every ``*.py`` under ``root``."""
    return {
        str(path.relative_to(root)): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, help="tree to total")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (count_tree(root) for root in args.compare)
        for name in sorted(set(old) | set(new)):
            before, after = old.get(name, 0), new.get(name, 0)
            if before != after:
                print(f"{after - before:+6d}  {before:6d} -> {after:6d}  {name}")
        total_old, total_new = sum(old.values()), sum(new.values())
        print(f"{total_new - total_old:+6d}  {total_old:6d} -> {total_new:6d}  total")
    elif args.root is not None:
        print(sum(count_tree(args.root).values()))
    else:
        parser.error("give a tree to total, or --compare OLD NEW")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
