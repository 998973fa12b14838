"""Count the code of `src/lil_lab`: lines and tokens without comments,
docstrings and blank lines.

A token is one `tokenize` token other than a comment, a newline, an
indent, a dedent or the end marker; a docstring (the first statement of
a module, class or function when it is a string literal, found with
`ast`) is not counted.  A line is counted when a counted token covers
it, so a multi-line expression or string counts each of its lines.

    python3 tools/code_size.py              # the working tree
    python3 tools/code_size.py --rev HEAD~1 # a git revision, via `git show`

One row per module, then the total.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/lil_lab"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) of every docstring literal."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                starts.add((body[0].value.lineno, body[0].value.col_offset))
    return starts


def measure(source: str) -> tuple[int, int]:
    """(code lines, code tokens) of one module's source."""
    docstrings = _docstring_starts(source)
    lines, tokens = set(), 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        tokens += 1
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), tokens


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def sources(rev: str | None) -> dict[str, str]:
    """Module name -> source text, from the working tree or from `rev`."""
    if rev is None:
        return {p.name: p.read_text() for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = _git("ls-tree", "--name-only", rev, f"{PACKAGE}/").split()
    return {Path(n).name: _git("show", f"{rev}:{n}") for n in sorted(names) if n.endswith(".py")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", help="a git revision to count instead of the working tree")
    args = ap.parse_args(argv)
    total_lines = total_tokens = 0
    print(f"{'module':<16}{'lines':>8}{'tokens':>9}")
    for name, source in sources(args.rev).items():
        lines, tokens = measure(source)
        total_lines, total_tokens = total_lines + lines, total_tokens + tokens
        print(f"{name:<16}{lines:>8,}{tokens:>9,}")
    print(f"{'total':<16}{total_lines:>8,}{total_tokens:>9,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
