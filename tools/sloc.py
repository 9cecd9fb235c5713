"""Count the source lines of a package: lines that hold code, not comments
or docstrings.

A line counts when it holds a token other than a comment, a newline, an
indent or a dedent.  A statement that is only a string (a docstring, or a
bare string anywhere else) counts for nothing.

    python3 tools/sloc.py            # src/vecgame
    python3 tools/sloc.py PATH...    # these files or directories
"""

from __future__ import annotations

import os
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _SKIP:
                if tok.type == tokenize.NEWLINE and statement:
                    if any(t.type != tokenize.STRING for t in statement):
                        for t in statement:
                            lines.update(range(t.start[0], t.end[0] + 1))
                    statement = []
                continue
            statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "vecgame"]
    files = sorted(p for r in roots for p in (r.rglob("*.py") if r.is_dir() else [r]))
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
