"""Code lines per module of a package, counted with ``tokenize``.

    python3 tools/loc.py [src/cliquegames]

A line counts when a token of code lies on it.  Blank lines and comments
do not count, nor do statements that are a string alone (docstrings and
other statement-leading strings).  A string that spans lines as part of
code counts on every line it spans.  Every ``*.py`` file directly in the
directory counts, ``__init__.py`` included.  Prints one line per module,
largest first, then the total.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import sys
import tokenize

# tokens that are not code, or that only end a line
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(path: str) -> int:
    """The number of code lines in one Python file."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []

    def end_statement() -> None:
        if statement and any(tok.type != tokenize.STRING for tok in statement):
            for tok in statement:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        statement.clear()

    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NEWLINE:
                end_statement()
            elif tok.type not in SKIPPED and tok.type != tokenize.ENCODING:
                statement.append(tok)
    end_statement()
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", default="src/cliquegames", help="directory of the modules")
    args = ap.parse_args(argv)
    counts = {
        name: code_lines(os.path.join(args.package, name))
        for name in sorted(os.listdir(args.package))
        if name.endswith(".py")
    }
    if not counts:
        print(f"no *.py files in {args.package}", file=sys.stderr)
        return 1
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
