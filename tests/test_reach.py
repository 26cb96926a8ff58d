"""Every function in src/mmdim runs under some command.

A function that no command runs is an API kept for the tests alone: it costs
reading and upkeep, and a refactor must carry it along.  A child process
installs `sys.setprofile` before it imports `mmdim.cli`, so calls made at
import time count too, then runs a fixed corpus of commands through
`main(argv, standalone_mode=False)`: build, validate, verify and profile on
every kind of spec, the benchmark's estimates, the error cases, and --help.
It reports every code object of src/mmdim it entered.

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

import mmdim

SRC = Path(mmdim.__file__).resolve().parent

# Definitions no command enters, kept on purpose, with the reason.
ALLOWED = {
    "constructions.py:Block.horseshoe": "bench/tracing.py reads it to count the built blocks",
}

SPECS = {
    "square": {"kind": "geometric", "n": 2, "B": "1", "r": "1", "kMax": 3},
    "cube": {"kind": "geometric", "n": 3, "B": "1", "r": "1", "kMax": 2},
    "quadratic": {"kind": "quadratic", "n": 2, "B": "1", "kMax": 3},
    "sparse": {"kind": "sparse", "n": 2, "B": "1", "r": "1", "kMax": 4},
    "sparse_quadratic": {"kind": "sparse", "n": 2, "B": "1", "kMax": 4},
    "two_block": {"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 30},
    "two_block_1_2": {"kind": "two_block", "n": 2, "alpha": "1", "beta": "2", "kMax": 4},
    "two_block_0_1": {"kind": "two_block", "n": 2, "alpha": "0", "beta": "1", "kMax": 4},
    "identity": {"kind": "identity", "n": 2},
}

# Arguments after the command name; {name} is a built system file, {spec_name}
# a spec file, {out} a scratch output path.
CORPUS = [
    *(["build", f"{{spec_{name}}}", "-o", f"{{{name}}}"] for name in SPECS),
    *(["verify", f"{{{name}}}"] for name in SPECS),
    # validate on the kMax 30 two-block system takes half a minute; the small
    # two-block systems take the same path
    *(["validate", f"{{{name}}}"] for name in SPECS if name != "two_block"),
    *(["profile", f"{{{name}}}", "--kmax", "30", "-o", "{out}"] for name in SPECS),
    # the benchmark's estimates
    ["estimate", "{square}", "--k", "1", "--m", "3", "-o", "{out}"],
    ["estimate", "{cube}", "--k", "1", "--m", "2", "--eps", "3/10", "-o", "{out}"],
    # the error cases
    ["estimate", "{square}", "--k", "2", "--m", "4"],
    ["estimate", "{square}", "--k", "9"],
    ["estimate", "{square}", "--k", "1", "--eps", "abc"],
    ["estimate", "{square}", "--k", "1", "--eps", "-1"],
    ["estimate", "{two_block}", "--k", "1"],
    ["estimate", "{sparse}", "--k", "2"],
    ["verify", "{missing}"],
    ["verify", "{bad_json}"],
    ["build", "{bad_json}", "-o", "{out}"],
    ["profile", "{square}", "--kmax", "31"],
    ["build", "{spec_square}", "-o", "{no_dir}"],
    ["--help"],
    *([command, "--help"] for command in ("build", "validate", "profile", "estimate", "verify")),
]

CHILD = r"""
import contextlib, io, json, os, sys

entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(record)
from mmdim.cli import main

root, corpus, specs = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
paths = {"out": os.path.join(root, "out"), "missing": os.path.join(root, "missing.json"),
         "bad_json": os.path.join(root, "bad.json"),
         "no_dir": os.path.join(root, "no-such-dir", "out")}
with open(paths["bad_json"], "w") as fh:
    fh.write("{")
for name, spec in specs.items():
    paths["spec_" + name] = os.path.join(root, name + ".json")
    paths[name] = os.path.join(root, name + ".system.json")
    with open(paths["spec_" + name], "w") as fh:
        json.dump(spec, fh)
for argv in corpus:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main([arg.format_map(paths) for arg in argv], standalone_mode=False)
        except SystemExit:
            pass
sys.setprofile(None)
src = os.path.dirname(sys.modules["mmdim"].__file__)
print(json.dumps(sorted({(os.path.relpath(code.co_filename, src), code.co_firstlineno, code.co_name)
                         for code in entered
                         if os.path.dirname(code.co_filename) == src})))
"""


def entered_code(tmp_path) -> set[tuple[str, int, str]]:
    """(file, first line, name) of every src/mmdim code object the corpus enters."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), json.dumps(CORPUS), json.dumps(SPECS)],
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
    """`file:qualname` of every def whose code object the corpus never entered."""
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
    # an allowance the corpus enters, or that outlived its def, would hide a
    # later unused function
    assert sorted(ALLOWED.keys() - missed) == []


def test_every_class_is_referenced():
    assert sorted(unreferenced_classes()) == []
