#!/usr/bin/env python3
"""List the functions of ``src/hilbclose`` that no command reaches.

Run from anywhere:

    python3 tools/reach.py

It runs a fixed matrix of 63 CLI invocations in this process under
``sys.setprofile`` and prints every function and method of the package that
none of them called, with its line count, then the total.  The matrix:

- ``analyze`` on six rings, ⟨3,5,7⟩, ℕ, free Z³, the remark ring
  ⟨(1,0),(1,1),(0,2),(0,3)⟩, free Z² and ⟨(2,0),(1,1),(0,2)⟩, in all
  three ``--report`` formats, each with no ``--char``, ``--char 2`` and
  ``--char 3``;
- ``verify`` on a corpus of the same six instances, with and without
  ``--char 2``;
- ``fuzz --seed 42 --count 100 --n-max 8``, ``--seed 7 --count 40
  --max-coord 10 --char 2``, ``--seed 7 --count 12 --char 2`` and
  ``--seed 11 --count 60 --max-coord 4 --char 3``;
- ``example`` on the three built-ins.

Every run must exit 0; otherwise the script prints the failing runs and
exits 1.  Functions are found with ``ast`` and matched to the code objects
the profiler sees by file and first line (a decorated function starts at
its first decorator).  Lambdas and comprehensions are not listed.

An unreached function is not always dead.  These matrices find no theorem
violation, so paths taken only on a violation show up here and stay: for
one, ``formats.reproducer_record``, which writes a violation's reproducer.
The same goes for error paths, dunder methods that only tests call, and
library functions kept for callers outside the CLI: ``ParameterIdeal.split``
is the paper's Q(alpha).  Code that only tests call lives in
``tests/conftest.py``, as the oracles do.

It takes 10-15 s on a 2-core machine, so the test suite does not run
it.  Stdlib only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "hilbclose"

# (name, ring record, ideal generators)
INSTANCES = [
    ("num-3-5-7", {"dim": 1, "generators": [[3], [5], [7]]}, [[6]]),
    ("nat", {"dim": 1, "generators": [[1]]}, [[3]]),
    ("free3", {"dim": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     [[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ("remark", {"dim": 2, "generators": [[1, 0], [1, 1], [0, 2], [0, 3]]},
     [[1, 0], [0, 2]]),
    ("free2", {"dim": 2, "generators": [[1, 0], [0, 1]]}, [[2, 0], [0, 3]]),
    ("veronese", {"dim": 2, "generators": [[2, 0], [1, 1], [0, 2]]}, [[2, 0], [0, 2]]),
]
CHARS = ([], ["--char", "2"], ["--char", "3"])
FUZZ = (
    ["--seed", "42", "--count", "100", "--n-max", "8"],
    ["--seed", "7", "--count", "40", "--max-coord", "10", "--char", "2"],
    ["--seed", "7", "--count", "12", "--char", "2"],
    ["--seed", "11", "--count", "60", "--max-coord", "4", "--char", "3"],
)
EXAMPLES = ("remark-s2", "free-x2y3", "free-maximal")


def command_matrix(workdir):
    """The argument lists of every run; input files go into ``workdir``."""
    def write(name, obj):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    runs = []
    corpus = []
    for name, ring, gens in INSTANCES:
        ideal = {"generators": gens, "ordered": True}
        ring_path = write(name + ".ring.json", ring)
        ideal_path = write(name + ".ideal.json", ideal)
        corpus.append({"id": name, "ring": ring, "ideal": ideal})
        for fmt in ("json", "csv", "table"):
            for char in CHARS:
                runs.append(["analyze", "--ring", ring_path, "--ideal", ideal_path,
                             "--report", fmt] + char)
    corpus_path = write("corpus.json", {"instances": corpus})
    runs += [["verify", "--corpus", corpus_path] + char for char in CHARS[:2]]
    runs += [["fuzz"] + args for args in FUZZ]
    runs += [["example", name] for name in EXAMPLES]
    return runs


def package_functions():
    """(file, first line) -> (qualified name, line count) for every def."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    out[str(path), first] = (name, child.end_lineno - first + 1)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")

        visit(tree, path.stem + ".")
    return out


def trace(runs):
    """Run every argument list through ``hilbclose.cli.main`` under the
    profiler; the set of (file, first line) called, and the failed runs."""
    sys.path.insert(0, str(SRC))
    from hilbclose.cli import main

    prefix = str(PACKAGE) + os.sep
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                called.add((code.co_filename, code.co_firstlineno))

    failed = []
    for argv in runs:
        sink = io.StringIO()
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        finally:
            sys.setprofile(None)
        if code != 0:
            failed.append((code, argv))
    return called, failed


def main():
    with tempfile.TemporaryDirectory() as workdir:
        runs = command_matrix(workdir)
        called, failed = trace(runs)
    for code, argv in failed:
        print("exit %d: hilbclose %s" % (code, " ".join(argv)))
    if failed:
        return 1
    funcs = package_functions()
    unreached = sorted((where, funcs[where]) for where in funcs.keys() - called)
    total = 0
    for (path, line), (name, count) in unreached:
        print("%-48s %s:%d  %d lines" % (name, os.path.basename(path), line, count))
        total += count
    print("%d runs; %d of %d functions unreached, %d lines"
          % (len(runs), len(unreached), len(funcs), total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
