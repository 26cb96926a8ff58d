"""Every function in src/mmdim runs under some command.

A function that no command runs is an API kept for the tests alone: it costs
reading and upkeep, and a refactor must carry it along.  A child process
installs `sys.setprofile` before it imports `mmdim.cli`, so calls made at
import time count too, then runs the command matrix of tests/corpus.py
in process, the matrix whose outputs tests/pins.json pins: build, verify,
profile and validate on every spec of the corpus, estimates, every refusal,
and --help.  The test writes the matrix's input files before the child
starts, so only the commands' own calls count.  The child reports every code
object of src/mmdim it entered.

Each `def` in src/mmdim (methods, properties and nested functions included)
must be among them, or in ALLOWED with its reason.  A code object starts at
its def's line, or at its first decorator's line.  Classes leave no profile
event (building a NamedTuple runs no code of its own), so each class name
must instead be referenced somewhere in the package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import corpus
import mmdim

SRC = Path(mmdim.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# Definitions no command enters, kept on purpose, with the reason.
ALLOWED = {
    "constructions.py:Block.horseshoe": "bench/tracing.py reads it to count the built blocks",
}

CHILD = r"""
import json, os, sys

entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(record)
import corpus

corpus.outputs(sys.argv[1])
sys.setprofile(None)
src = os.path.dirname(sys.modules["mmdim"].__file__)
print(json.dumps(sorted({(os.path.relpath(code.co_filename, src), code.co_firstlineno, code.co_name)
                         for code in entered
                         if os.path.dirname(code.co_filename) == src})))
"""


def entered_code(tmp_path) -> set[tuple[str, int, str]]:
    """(file, first line, name) of every src/mmdim code object the matrix enters."""
    corpus.write_inputs(str(tmp_path))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(TESTS)])}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {tuple(code) for code in json.loads(proc.stdout)}


def definitions():
    """(qualified name, file, node) of every def and class in src/mmdim."""
    def walk(file, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}{child.name}", file, child
                yield from walk(file, child, f"{prefix}{child.name}.")
            else:
                yield from walk(file, child, prefix)

    for path in sorted(SRC.glob("*.py")):
        yield from walk(path.name, ast.parse(path.read_text()), "")


def unentered(entered: set[tuple[str, int, str]]) -> set[str]:
    """`file:qualname` of every def whose code object the matrix never entered."""
    missed = set()
    for qualname, file, node in definitions():
        if isinstance(node, ast.ClassDef):
            continue
        lines = {node.lineno, *(d.lineno for d in node.decorator_list[:1])}
        if not any((file, line, node.name) in entered for line in lines):
            missed.add(f"{file}:{qualname}")
    return missed


def unreferenced_classes() -> set[str]:
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    used = {sub.id if isinstance(sub, ast.Name) else sub.attr
            for tree in trees for sub in ast.walk(tree)
            if isinstance(sub, (ast.Name, ast.Attribute))}
    return {f"{file}:{qualname}" for qualname, file, node in definitions()
            if isinstance(node, ast.ClassDef) and node.name not in used}


def test_every_function_runs_under_a_command(tmp_path):
    missed = unentered(entered_code(tmp_path))
    assert sorted(missed - ALLOWED.keys()) == [], "no command enters these"
    # an allowance the matrix enters, or that outlived its def, would hide a
    # later unused function
    assert sorted(ALLOWED.keys() - missed) == []


def test_every_class_is_referenced():
    assert sorted(unreferenced_classes()) == []
