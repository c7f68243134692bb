"""Count code lines per module, the way ROADMAP item 10 counts them.

A line counts when it holds a token other than a comment, a docstring, or
the NL, NEWLINE, INDENT and DEDENT tokens; a token spanning several lines
counts on each. A docstring here is a string that forms a statement on its
own. Blank lines, comment lines and docstrings therefore count nothing.

    python tools/code_lines.py [PATH ...]    # default: src

prints one line per module and the total.
"""
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """Lines of ``path`` that hold a code token."""
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        # a string between two layout tokens is a statement of its own
        if (tok.type == tokenize.STRING and tokens[i - 1].type in _LAYOUT
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    files = []
    for root in map(Path, argv or ["src"]):
        files += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
