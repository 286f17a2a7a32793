#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of each module of
``src/spai_ir``, and their totals.

A line is a docstring line when a string that is a statement of its own
(a module, class or function docstring) covers it, a code line when any
other token does, a comment line when it holds only a comment, and blank
otherwise; so the four counts of a module add up to its line count.  The
tokens come from :mod:`tokenize`, so a ``#`` or a blank line inside a
string counts with that string.

    python tools/src_lines.py
"""

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spai_ir"
KINDS = ("code", "docstring", "comment", "blank")
# a string that starts a logical line after one of these is a statement of its own
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(source: str) -> dict:
    """The code, docstring, comment and blank line counts of ``source``."""
    lines = source.splitlines()
    kind = ["blank"] * len(lines)
    rank = {k: i for i, k in enumerate(reversed(KINDS))}  # code outranks docstring outranks comment
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    previous = tokenize.ENCODING
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            if tok.type != tokenize.NL:
                previous = tok.type
            continue
        if tok.type == tokenize.COMMENT:
            label = "comment"
        elif tok.type == tokenize.STRING and previous in _STATEMENT_START and _ends_statement(tokens, i):
            label = "docstring"
        else:
            label = "code"
        if tok.type != tokenize.COMMENT:
            previous = tok.type if label == "code" else tokenize.NEWLINE
        for row in range(tok.start[0], min(tok.end[0], len(lines)) + 1):
            if rank[label] > rank[kind[row - 1]]:
                kind[row - 1] = label
    return {k: kind.count(k) for k in KINDS}


def _ends_statement(tokens, i: int) -> bool:
    """Whether the string ``tokens[i]`` is followed, past comments, line
    breaks inside brackets and strings it is joined to, by the end of its
    logical line."""
    for tok in tokens[i + 1 :]:
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.STRING):
            return tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
    return True


def main() -> int:
    rows = {path.name: count_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in KINDS}
    width = max(len(name) for name in rows)
    print(f"{'module':<{width}} " + " ".join(f"{k:>9}" for k in KINDS + ("lines",)))
    for name, r in rows.items():
        print(f"{name:<{width}} " + " ".join(f"{r[k]:>9}" for k in KINDS) + f" {sum(r.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
