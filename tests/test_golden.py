"""Golden outputs: every line of the corpus's command matrix (tests/corpus.py)
prints the bytes tests/pins.json pins for it.

A refactor that keeps the checker's behaviour keeps every pin; a change that
means to alter an output re-pins with `PYTHONPATH=src python tests/corpus.py`,
which names each line whose pin changed.
"""

import pytest

import corpus

PINS = corpus.read_pins()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("corpus"))
    corpus.write_inputs(root)
    return corpus.outputs(root)


def test_every_matrix_line_has_one_pin():
    lines = corpus.matrix()
    assert len(lines) == len(set(lines)) >= 150
    assert sorted(set(lines) - PINS.keys()) == [], "lines with no pin"
    assert sorted(PINS.keys() - set(lines)) == [], "pins of no line"


@pytest.mark.parametrize("line", corpus.matrix())
def test_output_bytes_are_pinned(outputs, line):
    assert outputs[line] == PINS.get(line)
