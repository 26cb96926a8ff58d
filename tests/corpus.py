"""The one corpus of specs and commands, and the pins of what the commands print.

`SPECS` names every spec the tests build, with the exact (liminf, limsup)
that `verify` prints for it.  `matrix()` turns it into command lines:
`build`, `verify` (default and `--kmax 1`), `profile` (default and
`--kmax 30`) and `validate` on every spec; `estimate --k 1 --m 2` on every
stacked spec, the benchmark's `greedy_square` and `coarse_cube` estimates,
and the same two blocks at an `--eps` below and at their own; and the
refusals: specs `build` refuses, tampered, float-typed, format /2, /3 and
/4, and invalid-JSON files, a missing file, an out-of-range `--kmax`,
refused estimates, unwritable `-o` paths, and every `--help`.
`write_inputs(root)` writes the files those lines read, and `outputs(root)`
runs the lines in order, in process, and returns each line's pin: the
SHA-256 of its stdout, of its stderr and of the file it writes at `-o`, if
it writes one, and its exit code.  Each line names its files under
`{root}`, and the run's root is written `{root}` in stdout and stderr too
before they are hashed, so no pin depends on where the run took place.

`tests/pins.json` holds the pins.  `tests/test_golden.py` runs the matrix
and requires every pin, and `tests/test_reach.py` runs the same matrix under
`sys.setprofile`.  A change that means to alter an output re-pins with

    PYTHONPATH=src python tests/corpus.py

which rewrites `tests/pins.json` and prints each line whose pin changed,
with the parts that changed.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

from mmdim.cli import main
from mmdim.specfile import SystemSpec, build_system, canonical_dumps, system_to_jsonable

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

# name -> (spec, (liminf, limsup) as verify prints them)
SPECS = {
    "square": ({"kind": "geometric", "n": 2, "B": "1", "r": "1", "kMax": 3}, ("1", "1")),
    "geometric_r2": ({"kind": "geometric", "n": 2, "B": "1", "r": "2", "kMax": 3},
                     ("2/3", "2/3")),
    "cube": ({"kind": "geometric", "n": 3, "B": "1", "r": "1", "kMax": 2}, ("3/2", "3/2")),
    "geometric_n3_r2": ({"kind": "geometric", "n": 3, "B": "1", "r": "2", "kMax": 3},
                        ("1", "1")),
    # r (n - 2) > 2: f∘f on every odd strip would outgrow the rows' rate here
    "geometric_n3_r3": ({"kind": "geometric", "n": 3, "B": "1", "r": "3", "kMax": 3},
                        ("3/4", "3/4")),
    "geometric_n4_r2": ({"kind": "geometric", "n": 4, "B": "1", "r": "2", "kMax": 2},
                        ("4/3", "4/3")),
    "quadratic": ({"kind": "quadratic", "n": 2, "B": "1", "kMax": 3}, ("2", "2")),
    "quadratic_4": ({"kind": "quadratic", "n": 2, "B": "1", "kMax": 4}, ("2", "2")),
    "quadratic_30": ({"kind": "quadratic", "n": 2, "B": "1", "kMax": 30}, ("2", "2")),
    "quadratic_n3": ({"kind": "quadratic", "n": 3, "B": "1", "kMax": 4}, ("3", "3")),
    "sparse": ({"kind": "sparse", "n": 2, "B": "1", "r": "1", "kMax": 4}, ("0", "1")),
    "sparse_5": ({"kind": "sparse", "n": 2, "B": "1", "r": "1", "kMax": 5}, ("0", "1")),
    "sparse_quadratic": ({"kind": "sparse", "n": 2, "B": "1", "kMax": 4}, ("0", "2")),
    "two_block": ({"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 30},
                  ("2/3", "1")),
    "two_block_5": ({"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 5},
                    ("2/3", "1")),
    "two_block_1_2": ({"kind": "two_block", "n": 2, "alpha": "1", "beta": "2", "kMax": 4},
                      ("1", "2")),
    "two_block_1_3": ({"kind": "two_block", "n": 3, "alpha": "1", "beta": "3", "kMax": 4},
                      ("1", "3")),
    # alpha = beta: both halves are one system
    "shared": ({"kind": "two_block", "n": 2, "alpha": "1/2", "beta": "1/2", "kMax": 4},
               ("1/2", "1/2")),
    # alpha = 0: the lower half is the sparse beta system, the upper the identity
    "zero_lower": ({"kind": "two_block", "n": 2, "alpha": "0", "beta": "1", "kMax": 4},
                   ("0", "1")),
    "zero_lower_8": ({"kind": "two_block", "n": 2, "alpha": "0", "beta": "1", "kMax": 8},
                     ("0", "1")),
    # alpha = beta = 0: both halves are the identity
    "zero_both": ({"kind": "two_block", "n": 2, "alpha": "0", "beta": "0", "kMax": 4},
                  ("0", "0")),
    "identity": ({"kind": "identity", "n": 2}, ("0", "0")),
}


def spec_path(name: str) -> str:
    return f"{{root}}/{name}.json"


def system_path(name: str) -> str:
    return f"{{root}}/{name}.system.json"


def build_line(name: str) -> str:
    return f"build {spec_path(name)} -o {system_path(name)}"


def _validated(spec: dict) -> bool:
    """Whether the matrix runs `validate` on the spec's file: not when a block
    k <= kMax has L^(n-1) = 3^(k (n-1)) above 729 pieces, which validate takes
    seconds to re-derive in exact rationals (CI validates the kMax 30 two-block
    file)."""
    return 3 ** (spec.get("kMax", 0) * (spec["n"] - 1)) <= 729


# specs `build` refuses; no message names a path
REFUSED_SPECS = {
    # 3^(k r) is irrational at some k
    "r_5_3": {"kind": "geometric", "n": 2, "B": "1", "r": "5/3", "kMax": 3},
    # no room for the 1/10 enlargements at r = 1
    "b_9_5": {"kind": "geometric", "n": 2, "B": "9/5", "r": "1", "kMax": 3},
    # the dense upper half's rate 2/(3/4) - 1 = 5/3, which alpha sets
    "two_block_3_4": {"kind": "two_block", "n": 2, "alpha": "3/4", "beta": "1", "kMax": 3},
    # the dense upper half's rate, which alpha sets, is past the digit cap
    "two_block_tiny_alpha": {"kind": "two_block", "n": 2, "alpha": "1/10000000000000000000",
                             "beta": "1", "kMax": 3},
}
# system files every command that reads one refuses: the square's with a
# block's side changed, with the spec's n a float, with format /2, /3 or /4,
# and not JSON
BAD_SYSTEMS = ["tampered", "float_typed", "format_2", "format_3", "format_4", "invalid"]


def matrix() -> list[str]:
    """Every command line of the corpus, `build` lines first, since the
    lines after them read the files they write."""
    lines = [build_line(name) for name in SPECS]
    for name, (spec, _) in SPECS.items():
        system = system_path(name)
        lines += [f"verify {system}", f"verify {system} --kmax 1",
                  f"profile {system}", f"profile {system} --kmax 30"]
        if _validated(spec):
            lines.append(f"validate {system}")
    lines += [f"estimate {system_path(name)} --k 1 --m 2"  # on each stacked spec
              for name, (spec, _) in SPECS.items()
              if spec["kind"] in ("geometric", "quadratic", "sparse")]
    square, out = system_path("square"), "{root}/no-such-dir/out"
    lines += [
        # the benchmark's greedy_square and coarse_cube estimates, and the
        # same blocks below and at their own eps (1/15), where the counts decide
        f"estimate {square} --k 1 --m 3",
        f"estimate {system_path('cube')} --k 1 --m 2 --eps 3/10",
        f"estimate {square} --k 1 --m 3 --eps 1/20",
        f"estimate {system_path('cube')} --k 1 --m 2 --eps 1/15",
        # an inactive block, whose row has rate 0
        f"estimate {system_path('sparse')} --k 2",
        # refused estimates: over the cylinder budget, past kMax, a bad or
        # negative --eps, and systems that are not stacked
        f"estimate {square} --k 2 --m 4",
        f"estimate {square} --k 9",
        f"estimate {square} --k 1 --eps abc",
        f"estimate {square} --k 1 --eps -1",
        f"estimate {system_path('two_block')} --k 1",
        f"estimate {system_path('identity')} --k 1",
        "verify {root}/missing.json",
        "build {root}/missing.json -o {root}/missing.system.json",
        "build {root}/invalid.system.json -o {root}/invalid.out.json",
        *map(build_line, REFUSED_SPECS),
        *(f"{command} {system_path(name)}{args}" for name in BAD_SYSTEMS
          for command, args in (("verify", ""), ("profile", ""), ("validate", ""),
                                ("estimate", " --k 1"))),
        f"build {spec_path('square')} -o {out}",
        f"profile {square} -o {out}",
        f"estimate {square} --k 1 --m 2 -o {out}",
        "--help",
        *(f"{command} --help" for command in ("build", "validate", "profile", "estimate",
                                              "verify")),
    ]
    return lines


def write_inputs(root: str) -> None:
    """Write every file the matrix reads, but for those its `build` lines write."""
    files = {spec_path(name): spec for name, (spec, _) in SPECS.items()}
    files.update({spec_path(name): spec for name, spec in REFUSED_SPECS.items()})
    spec = SystemSpec.from_jsonable(SPECS["square"][0])
    system = system_to_jsonable(build_system(spec), spec)
    tampered, float_typed = copy.deepcopy(system), copy.deepcopy(system)
    tampered["systems"][0]["blocks"][2]["side"] = "1/81"
    float_typed["spec"]["n"] = 2.0
    files.update({system_path("tampered"): tampered,
                  system_path("float_typed"): float_typed,
                  system_path("format_2"): dict(system, format="mmdim-system/2"),
                  system_path("format_3"): dict(system, format="mmdim-system/3"),
                  system_path("format_4"): dict(system, format="mmdim-system/4")})
    for path, data in files.items():
        Path(path.format(root=root)).write_text(canonical_dumps(data))
    Path(system_path("invalid").format(root=root)).write_text("{")


def run(argv: list[str]) -> SimpleNamespace:
    """Run `mmdim ARGV` in process: main(argv, standalone_mode=False).

    Returns exit_code, stdout, stderr and output (stdout then stderr).  A
    usage error or --help ends in SystemExit, whose code is the exit code;
    any other exception propagates, so a traceback fails the caller.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                           output=out.getvalue() + err.getvalue())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(root: str) -> dict[str, dict]:
    """Run the matrix on the files `write_inputs(root)` wrote: line -> pin."""
    def digest(text: str) -> str:
        return sha256(text.replace(root, "{root}").encode())

    pins = {}
    for line in matrix():
        argv = [arg.format(root=root) for arg in line.split(" ")]
        result = run(argv)
        pin = {"stdout": digest(result.stdout), "stderr": digest(result.stderr),
               "exit": result.exit_code}
        if "-o" in argv and os.path.isfile(out := argv[argv.index("-o") + 1]):
            pin["file"] = sha256(Path(out).read_bytes())
        pins[line] = pin
    return pins


def read_pins() -> dict[str, dict]:
    return json.loads(PINS_PATH.read_text())


def repin() -> None:
    """Rewrite the pins from a fresh run, printing each line whose pin changed."""
    old = read_pins() if PINS_PATH.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        write_inputs(root)
        new = outputs(root)
    for line in [*new, *(line for line in old if line not in new)]:
        was, now = old.get(line, {}), new.get(line, {})
        changed = [part for part in ("stdout", "stderr", "file", "exit")
                   if was.get(part) != now.get(part)]
        if changed:
            state = "new" if not was else "gone" if not now else ", ".join(changed)
            print(f"{line}  ({state})")
    # one pin a line, in matrix order, so a re-pin's diff names its lines
    PINS_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(line)}: {json.dumps(pin, sort_keys=True)}"
        for line, pin in new.items()) + "\n}\n")


if __name__ == "__main__":
    repin()
