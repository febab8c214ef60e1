"""Fail when a module of the enrq package grows past TOKEN_CAP tokens.

Run it from the root of a checkout:

    python tests/check_module_tokens.py

It counts the tokens of each `src/enrq/*.py` with `tokenize` (the
ENCODING token included), prints one line per module, and exits 1 when
any has more than TOKEN_CAP, marking those lines.  On Python 3.11 the memory `compile()`
takes steps up by about 240 KiB once a module passes roughly 4,100
tokens, and a run without a bytecode cache compiles every module it
imports, so a module past the step raises peak RSS with parser memory,
not program data.  The cap keeps each module a margin below the step.
"""

import pathlib
import sys
import tokenize

TOKEN_CAP = 4000
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "enrq"


def token_counts():
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        with path.open("rb") as fh:
            counts[path.name] = sum(1 for _ in tokenize.tokenize(fh.readline))
    return counts


def main():
    counts = token_counts()
    for name, n in counts.items():
        print(f"src/enrq/{name}: {n} tokens" + (f", over the cap of {TOKEN_CAP}" if n > TOKEN_CAP else ""))
    largest = max(counts, key=counts.get)
    if counts[largest] > TOKEN_CAP:
        return 1
    print(f"module tokens ok: largest is {largest} at {counts[largest]} of {TOKEN_CAP}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
