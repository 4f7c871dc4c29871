"""Count the code lines of the fss package.

A line counts when a token spans it, except comments, the NL, NEWLINE,
INDENT, DEDENT, ENCODING and ENDMARKER tokens, and a string token that
begins a statement (a docstring, or any other bare string statement).
Blank lines, comment lines and docstrings therefore do not count.

Usage, from the root of a checkout:

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/fss.  Prints one line per module and the
total, with standard library only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# Tokens after which the next token begins a statement.
_STATEMENT_ENDS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                   tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Number of distinct lines of ``path`` spanned by a counted token."""
    lines: set[int] = set()
    previous = tokenize.ENCODING
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            starts_statement = previous in _STATEMENT_ENDS
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                previous = tok.type
            if tok.type in _SKIPPED:
                continue
            if tok.type == tokenize.STRING and starts_statement:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/fss")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20s} {count:6,d}")
    print(f"{'total':20s} {total:6,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
