"""Horseshoes are built on first use: equality with eager construction, file
bytes, and which commands construct which blocks."""

import hashlib
import json

import pytest
from click.testing import CliRunner

import mmdim.constructions as constructions
from mmdim.cli import main
from mmdim.constructions import StackedSystem, TwoBlockSystem, UnmaterializedBlockError
from mmdim.horseshoe import build_horseshoe
from mmdim.specfile import (
    SpecFileError,
    SystemSpec,
    build_system,
    canonical_dumps,
    load_system,
    system_to_jsonable,
    write_json,
)
from mmdim.symbolic import rate_profile

# SHA-256 of each spec's system file as written when every materializable
# horseshoe was constructed up front; lazy geometry must not change a byte.
SPECS = {
    "geometric": (
        {"kind": "geometric", "n": 2, "B": "1", "r": "1", "kMax": 3},
        "97db24e0addb84318934bb20a29012996f8556659f872fcf30a60debeccdb9e1",
    ),
    "quadratic": (
        {"kind": "quadratic", "n": 2, "B": "1", "kMax": 4},
        "7b243e86dbdd90da1c1e1684f822951097f1c1573ee512caedf89b3d1b6be56a",
    ),
    "sparse": (
        {"kind": "sparse", "n": 2, "B": "1", "r": "1", "kMax": 5},
        "7e9ce5cee072f7921da29cbb254339ed1fcd0483ae2ffc50742b4df725c5f996",
    ),
    "override": (
        {"kind": "geometric", "n": 3, "B": "1", "r": "2", "kMax": 3,
         "legScheduleOverride": {"2": 5}},
        "1e9b2e29da488b97ff9a43f24bd442c74c63fd8834bf54c79f8c9146c0b5e0d2",
    ),
    "two_block": (
        {"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 5},
        "f8b2c42cf894199bb22ba311b614a7891eb25673a1de9a9288ab2f1130a9d161",
    ),
    "two_block_identity": (
        {"kind": "two_block", "n": 2, "alpha": "0", "beta": "1", "kMax": 8},
        "2b09b6bb5a02ab999ef1f45431077ee7ddc45503f4d0afd4174dacc61b245328",
    ),
}

TWO_BLOCK_30 = {"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 30}
TWO_BLOCK_30_SHA256 = "bc00e5840f7476defb1da02bf81c45d14d088305473ec2b65bbd3b3537aa8183"


def stacked_halves(system):
    if isinstance(system, TwoBlockSystem):
        return [h for h in (system.lower, system.upper) if isinstance(h, StackedSystem)]
    return [system]


@pytest.fixture()
def build_calls(monkeypatch):
    """Record (cube, L) of every horseshoe that `constructions` builds."""
    calls = []

    def counting(cube, L, n=None):
        calls.append((cube, L))
        return build_horseshoe(cube, L, n)

    monkeypatch.setattr(constructions, "build_horseshoe", counting)
    return calls


@pytest.mark.parametrize("name", sorted(SPECS))
def test_lazy_horseshoe_equals_eager_build(name):
    spec = SystemSpec.from_jsonable(SPECS[name][0])
    system = build_system(spec)
    materialized = 0
    for half in stacked_halves(system):
        for block in half.blocks:
            if not block.materialized:
                with pytest.raises(UnmaterializedBlockError):
                    block.geometry()
                continue
            materialized += 1
            assert block.horseshoe is None
            h = block.geometry()
            assert h == build_horseshoe(block.cube, block.L, half.n)
            assert block.geometry() is h and block.horseshoe is h
    assert materialized > 0


def test_cache_takes_no_part_in_equality():
    spec = SystemSpec.from_jsonable(SPECS["geometric"][0])
    built, fresh = build_system(spec), build_system(spec)
    built.block(1).geometry()
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_build_output_is_byte_identical(name, build_calls):
    data, digest = SPECS[name]
    spec = SystemSpec.from_jsonable(data)
    text = canonical_dumps(system_to_jsonable(build_system(spec), spec))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert build_calls == []


def test_two_block_kmax_30_loads_and_profiles_without_geometry(build_calls):
    spec = SystemSpec.from_jsonable(TWO_BLOCK_30)
    text = canonical_dumps(system_to_jsonable(build_system(spec), spec))
    assert hashlib.sha256(text.encode()).hexdigest() == TWO_BLOCK_30_SHA256
    _, system = load_system(json.loads(text))
    rate_profile(system, range(1, 31))
    assert build_calls == []
    assert sum(b.materialized for h in stacked_halves(system) for b in h.blocks) == 12


def test_estimate_builds_only_the_block_it_measures(build_calls, tmp_path):
    spec = SystemSpec.from_jsonable(SPECS["geometric"][0])
    path = tmp_path / "sys.json"
    write_json(path, system_to_jsonable(build_system(spec), spec))
    result = CliRunner().invoke(main, ["estimate", str(path), "--k", "1", "--m", "2"])
    assert result.exit_code == 0, result.stderr
    assert [L for _, L in build_calls] == [3]


def test_tampered_assignment_of_unbuilt_block_is_rejected(build_calls):
    spec = SystemSpec.from_jsonable(SPECS["geometric"][0])
    payload = system_to_jsonable(build_system(spec), spec)
    assignment = payload["system"]["blocks"][2]["assignment"]
    assignment[0], assignment[-1] = assignment[-1], assignment[0]
    with pytest.raises(SpecFileError, match="does not match"):
        load_system(payload)
    assert build_calls == []
