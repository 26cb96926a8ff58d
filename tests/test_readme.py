"""README's code runs as shown: the *Library quick tour* block prints what the
comments beside its prints say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import mmdim

SRC = Path(mmdim.__file__).resolve().parent
README = SRC.parents[1] / "README.md"

# each print's value, as the comment beside it begins; "..." ends a prefix
QUICK_TOUR_PRINTS = ["0.948...", "(Fraction(1, 1), Fraction(1, 1))", "729"]


def quick_tour() -> str:
    """The first python block after README's *Library quick tour* heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_quick_tour_prints_what_its_comments_say():
    block = quick_tour()
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert len(comments) == len(QUICK_TOUR_PRINTS)
    for comment, value in zip(comments, QUICK_TOUR_PRINTS):
        assert comment.startswith(value), comment
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(QUICK_TOUR_PRINTS)
    for line, value in zip(printed, QUICK_TOUR_PRINTS):
        if value.endswith("..."):
            assert line.startswith(value[:-3]), line
        else:
            assert line == value
