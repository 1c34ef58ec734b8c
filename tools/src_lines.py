"""Count the code lines of the package: no blank lines, comments or
docstrings.

    python3 tools/src_lines.py [root]

Reads every ``*.py`` file under ``root`` (``src`` by default) with the
tokenizer.  A line counts when some token other than a comment sits on it; a
statement made of string literals alone, a docstring, counts for nothing.
Prints one line per file and the total last.
"""

import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(root: str = "src") -> int:
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return total


if __name__ == "__main__":
    main(*sys.argv[1:])
