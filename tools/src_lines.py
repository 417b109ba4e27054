#!/usr/bin/env python3
"""Count code, comment and blank lines of the library sources.

Usage: python3 tools/src_lines.py [ROOT]   (ROOT defaults to the repo's src/)

Scans every .cpp, .hpp and .inc file under ROOT. A line is blank when it
holds only whitespace, comment when everything on it belongs to a `//`
comment or a `/* */` block, and code otherwise (a statement with a
trailing comment is code). Quoted literals are skipped, so a `//` or `/*`
inside one opens no comment; raw string literals are not parsed.
Prints one line: code / comment / blank = total.
"""

import pathlib
import sys

SUFFIXES = {".cpp", ".hpp", ".inc"}


def classify(lines):
    """Return (code, comment, blank) counts for one file's lines."""
    code = comment = blank = 0
    in_block = False
    for line in lines:
        if not line.strip() and not in_block:
            blank += 1
            continue
        has_code = False
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    break
                in_block = False
                i = end + 2
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            elif line[i].isspace():
                i += 1
            else:
                has_code = True
                if line[i] in "\"'":
                    quote, i = line[i], i + 1
                    while i < n and line[i] != quote:
                        i += 2 if line[i] == "\\" else 1
                i += 1
        if has_code:
            code += 1
        else:
            comment += 1
    return code, comment, blank


def main():
    here = pathlib.Path(__file__).resolve().parent
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else here.parent / "src"
    totals = [0, 0, 0]
    for path in sorted(root.rglob("*")):
        if path.suffix in SUFFIXES and path.is_file():
            counts = classify(path.read_text(encoding="utf-8").splitlines())
            totals = [t + c for t, c in zip(totals, counts)]
    code, comment, blank = totals
    print(f"{code:,} / {comment:,} / {blank:,} = {code + comment + blank:,}"
          "  (code / comment / blank)")


if __name__ == "__main__":
    main()
