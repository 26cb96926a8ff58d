"""Horseshoes are built only when asked for: equality with eager
construction, file bytes, and which commands construct which blocks."""

import hashlib
import json
from fractions import Fraction

import pytest

from mmdim.constructions import UnmaterializedBlockError
from mmdim.horseshoe import build_horseshoe
from mmdim.specfile import (
    SpecFileError,
    SystemSpec,
    build_system,
    canonical_dumps,
    load_system,
    system_to_jsonable,
)
from mmdim.symbolic import rate_profile

import corpus

# SHA-256 of each corpus spec's system file in format /2.  Each digest is
# that of the file written when every materializable horseshoe was
# constructed up front, in format /1, with "format" set to /2 and every
# "assignment" key deleted; lazy geometry must not change a byte.  Format /3
# drops what the spec or the block index fixes, and `as_format_2` puts it
# back, so a /3 file that turns into the pinned /2 bytes stores the same
# values.
FORMAT_2 = {
    "square": "673bdb6aead610bd54f183a1a1fcea8d8641f1a52e0d20a5b9aae4a0b6b993e3",
    "quadratic_4": "9fc4a4f3e48e77d6124e4a92329ca084daa7c290fac48a9aab10f5d0427be57c",
    "sparse_5": "8f2847388610368c1f4931ced24ab7aa7b55dc7b4bdcd802bb20d91ec027ce6a",
    # unchanged by the removal of leg overrides: it is the digest of the same
    # spec built while the spec format still took "legScheduleOverride"
    "geometric_n3_r2": "d686757d541dd91ad4225eca0a551aaf652e915d2cd58410f12d78b60c5efd4f",
    "two_block_5": "8d1f36273f5d76c623703bc4e96a923bc95ab169e6fc48ce4f12cfa5a3f8c14d",
    "zero_lower_8": "5f79552658124188ea95cc70dee4f2eb188f1a629f2e2371bc1c56714b14e6d5",
    "two_block": "362a6121acfb5d37f53a185b6805584c20ea0737b96803f08cd5c5257d3ecd68",
}

# SHA-256 of every corpus spec's system file in format /3, as its `build`
# line pinned it before format /4.  Format /4 stores each distinct part once
# and names no corner, and `as_format_3` restates the /3 layout, so a /4 file
# that turns into these bytes stores the same values.
FORMAT_3 = {
    "square": "5125ce4d817367d9db87ab76c4eaf07f5e0b30bd0b06145d70ada3ff43117e96",
    "geometric_r2": "4fccb7e35ee0126f959b59e2f1df0666bbd7dad79c88a8ac7992c3fbc4dd883e",
    "cube": "5946d74dcabf1ba3a492939cbeecabae6d47bf7ec7ea0a6e0d7ed69e6b944635",
    "geometric_n3_r2": "15c431cd0621d3caf4085a46518ae04257be3836d91dd54cf301bc1e8783c9eb",
    "quadratic": "b653eb7b9b2f636497a0553a4547f330cf089996851fa9c89dca85e2f69f4279",
    "quadratic_4": "a638d71ed45af80197e45281c3764c4ed5dbcb0209fb52e97d29755c6674964c",
    "quadratic_30": "d02e7b845085cbd19091e55316cae6b951518ca0c0ba79e5871919b39590a6ed",
    "quadratic_n3": "e1452c817cb43224a8d6bab18893d3a0cb6da877a7adb2e50c663034b1ea275d",
    "sparse": "168aee3e98b3c5b51d03d02b8001016d4ac33f85ffb87f493d9839ff1b0f839c",
    "sparse_5": "550ced0710471dd2bcfe821a05620c3f4c7dbbb8b4206ad77f56351355f8ab53",
    "sparse_quadratic": "2513e563a84444a41436039aa0217ad8b95a06c554e19d979314c683b4b9f3c8",
    "two_block": "0fceefae1e8d4ed9b537cc70df3f1894805e49b1789855cccf920fd3a31c1ac6",
    "two_block_5": "3f0f5d8453c33c7d5854edeaed521e52808aee640a4b3f5ade90bacd504b6f11",
    "two_block_1_2": "51dbb661886ede8592e50d479e446cb35b7253d6033e78969a5982d6783f026b",
    "two_block_1_3": "c0ed15076a65a005fffa839b1fa3efd887f743b68e3d15c112f83c7cbea65896",
    "shared": "bf8784b7df7e931cba755e14a5a423543a40bb092cebbbcfa9eb7e1f876d57c2",
    "zero_lower": "ec98dcd229e040f1ee5aa23d61df697318e78827fde7cb4e8882278b6499930c",
    "zero_lower_8": "32911e6268fa2cec01e4dcbc284312bfa2fb79f138e41bb727c35cce8d9ff6f3",
    "zero_both": "c69e7adba20a2f5bd67582ceb29d00849d9fbbd18c839c92d4d02c7e2d86427d",
    "identity": "9d1453a67c4443c168b257304cfe8c90a475f58b83eeb38d532026db95a2451b",
}


# SHA-256 of every corpus spec's system file in format /4, as its `build`
# line last pinned it.  Format /5 stores no block's k, its list position, and
# no eps, which the schedule derives from the side, and `as_format_4` puts
# both back, so a /5 file that turns into these bytes stores the same values.
# The /5 file's own digest is its `build` line's pin.
FORMAT_4 = {
    "square": "7abe4f4bd337c01b56bdc7f0e44deb21e0e77a9db0c4afe7f97e8147ba9e77a1",
    "geometric_r2": "1282ff850ecfc5f64b94174b1a4c7ebd3503a2c25ca741476ad7e3b95f489404",
    "cube": "07b223abb772d5f07a269522e726da919c9259fb9d862571cf9733b764aec5a0",
    "geometric_n3_r2": "f6e7e388b785cbf49a9fc02863e413a1b5e6dfedd6bd5c73c683e0e44ef55b1e",
    "quadratic": "cf1e827569e30302ed2410ef8aa84940b627da1c085fc30b41f9c9c9b7a19cf2",
    "quadratic_4": "dbb849e54c205dacf12cd286ecb2cd1a8512426b2b0598c308cd8db6e29b694c",
    "quadratic_30": "18ae7d92ba7713a2d159d99b0cd0dec2cef73ef47904146b1d56b0186b8f566e",
    "quadratic_n3": "4c0cda7f8f9cffca67b65073a199bf93f868e99554327ebadd77d1071c48004e",
    "sparse": "1b4c2925ba0c532691f1377cbb51101fab7c62406a72155d86405eaccab413fe",
    "sparse_5": "a1d4fc7aa925922916b1b50d62de86fbe39bc892b586ac3b1a2f8178cb8ad27d",
    "sparse_quadratic": "60012a5337b7ef22db53a72eff23bda0026a1afbdcf822a2c5df40c6e9ff4ed8",
    "two_block": "e0df94ecc9c19765476aca1471eac3ab627ba77ed1908c237dcf92dfeb9a6a32",
    "two_block_5": "391cfe9f8b661cb731071adf8bd3662926001d0a381bac02a7589493c509d556",
    "two_block_1_2": "a9127e679c5fb38c73a42f43397edd474a85c40f6b6a204383f5053105273c55",
    "two_block_1_3": "28b21009f8e4d55f4265811002b8f93764d8653a3c27f7c8965fde7b22d97d43",
    "shared": "86734bb5ce05bc178ced41bc9dd36548d743d13af3108c2fff59bce3debd0f02",
    "zero_lower": "8e213832dbda00ce9d0465033415c8840e71a7086783122716cbb7c5b4c6ff93",
    "zero_lower_8": "559f263423fc1dfdd87db58705542cc6666510fbdc0036a3eac2f9363dff47f2",
    "zero_both": "73573ae4eeed9cd2f16250be10a46a005592d15ce3186c2be807c7413a1c78fb",
    "identity": "8e3a9c0a0f6d27e715b4a2994c06f95269167e0b2fc18264c7a1fda303224102",
}


def spec_of(name: str) -> SystemSpec:
    return SystemSpec.from_jsonable(corpus.SPECS[name][0])


def as_format_4(payload: dict) -> dict:
    """The format /4 file of a format /5 payload.

    /4 also stored each block's k, its position in the list counted from 1,
    and its eps = side / (2 3^k - 1).
    """
    def restate(system: dict) -> dict:
        return dict(system, blocks=[
            dict(block, k=k, eps=str(Fraction(block["side"]) / (2 * 3 ** k - 1)))
            for k, block in enumerate(system["blocks"], 1)
        ])

    return dict(payload, format="mmdim-system/4",
                systems=[restate(system) for system in payload["systems"]])


def as_format_3(payload: dict) -> dict:
    """The format /3 file of a format /4 payload.

    /3 stored one system under "system": a stacked part's payload with its
    "kind", the identity's kind alone, and for a two_block spec its "lower"
    and "upper" corners, each a part's payload or the identity.  A two_block
    spec's parts are its lower corner's, then its upper corner's, and a
    corner whose target is 0 has none; as alpha <= beta, only the upper one
    can lack a part while the lower has one.
    """
    systems = [dict(system, kind="stacked") for system in payload["systems"]]
    parts = [systems[i] for i in payload["parts"]] + [{"kind": "identity"}] * 2
    if payload["spec"]["kind"] == "two_block":
        system = {"kind": "two-block", "lower": parts[0], "upper": parts[1]}
    else:
        system = parts[0]
    return {"format": "mmdim-system/3", "spec": payload["spec"], "system": system}


def as_format_2(payload: dict) -> dict:
    """The format /2 file of a format /3 payload.

    /2 also stored the spec's n at every level, its kMax in each stacked half
    and in a two_block system, its alpha and beta in a two_block system, the
    geometry budget in each stacked half, and per block L = 3^k and whether
    the block is materialized: active with L^(n-1) at most the budget.
    """
    spec = payload["spec"]
    n = spec["n"]

    def restate(system: dict) -> dict:
        out = dict(system, n=n)
        if system["kind"] == "stacked":
            out.update(kMax=spec["kMax"], geometryBudget=100000, blocks=[
                dict(block, L=3 ** block["k"],
                     materialized=block["active"] and 3 ** (block["k"] * (n - 1)) <= 100000)
                for block in system["blocks"]
            ])
        elif system["kind"] == "two-block":
            out.update(kMax=spec["kMax"], alpha=spec["alpha"], beta=spec["beta"],
                       lower=restate(system["lower"]), upper=restate(system["upper"]))
        return out

    return dict(payload, format="mmdim-system/2", system=restate(payload["system"]))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stacked_halves(system):
    return [part for _, part in system.parts]


# the kMax 30 two-block blocks reach L = 3^10, which take seconds to build
@pytest.mark.parametrize("name", sorted(FORMAT_2.keys() - {"two_block"}))
def test_lazy_horseshoe_equals_eager_build(name, build_calls):
    system = build_system(spec_of(name))
    assert build_calls == []
    materialized = 0
    for half in stacked_halves(system):
        for block in half.blocks:
            if not block.materialized:
                with pytest.raises(UnmaterializedBlockError):
                    block.geometry()
                continue
            materialized += 1
            assert block.geometry() == build_horseshoe(block.cube, block.L)
    assert materialized > 0
    # one build per call, and none for a block that has no horseshoe
    assert len(build_calls) == materialized


@pytest.mark.parametrize("name", sorted(FORMAT_4))
def test_build_output_is_byte_identical(name, build_calls):
    spec = spec_of(name)
    payload = system_to_jsonable(build_system(spec), spec)
    pin = corpus.read_pins()[corpus.build_line(name)]
    format_4 = as_format_4(payload)
    text, text_4 = canonical_dumps(payload), canonical_dumps(format_4)
    format_3 = canonical_dumps(as_format_3(format_4))
    assert sha256(text) == pin["file"]
    assert sha256(text_4) == FORMAT_4[name]
    assert sha256(format_3) == FORMAT_3[name]
    assert len(text) <= len(text_4) <= len(format_3)
    if name in FORMAT_2:
        assert sha256(canonical_dumps(as_format_2(as_format_3(format_4)))) == FORMAT_2[name]
    assert build_calls == []


@pytest.mark.parametrize("name", sorted(FORMAT_4))
def test_each_block_stores_its_cube_and_activity_alone(name):
    spec = spec_of(name)
    payload = system_to_jsonable(build_system(spec), spec)
    blocks = [block for system in payload["systems"] for block in system["blocks"]]
    assert [block.keys() for block in blocks] == [{"anchor", "side", "active"}] * len(blocks)


def test_equal_targets_store_their_one_system_once():
    spec = spec_of("shared")
    payload = system_to_jsonable(build_system(spec), spec)
    assert payload["parts"] == [0, 0] and len(payload["systems"]) == 1
    # format /3 stored it twice, in 912 bytes, 383 of them repeated
    assert len(canonical_dumps(payload)) <= 912 - 383


def test_two_block_kmax_30_loads_and_profiles_without_geometry(build_calls):
    spec = spec_of("two_block")
    payload = system_to_jsonable(build_system(spec), spec)
    text = canonical_dumps(payload)
    assert len(text) == 4758  # 6,979 bytes in format /4 and 7,033 in /3
    assert sha256(canonical_dumps(as_format_4(payload))) == FORMAT_4["two_block"]
    _, system = load_system(json.loads(text))
    rate_profile(system, range(1, 31))
    assert build_calls == []
    assert sum(b.materialized for h in stacked_halves(system) for b in h.blocks) == 12


def test_estimate_builds_only_the_block_it_measures(cli, build_calls, tmp_path):
    spec = spec_of("square")
    path = tmp_path / "sys.json"
    path.write_text(canonical_dumps(system_to_jsonable(build_system(spec), spec)))
    result = cli(["estimate", str(path), "--k", "1", "--m", "2"])
    assert result.exit_code == 0, result.stderr
    assert [L for _, L in build_calls] == [3]


@pytest.mark.parametrize("name", ["square", "sparse_5", "two_block_5", "zero_lower_8"])
def test_validate_builds_each_materialized_block_once(name, cli, build_calls, tmp_path):
    spec = spec_of(name)
    system = build_system(spec)
    path = tmp_path / "sys.json"
    path.write_text(canonical_dumps(system_to_jsonable(system, spec)))
    result = cli(["validate", str(path)])
    assert result.exit_code == 0, result.stderr
    expected = [(b.cube, b.L) for h in stacked_halves(system) for b in h.blocks if b.materialized]
    assert build_calls == expected


def test_tampered_unbuilt_block_is_rejected(build_calls):
    spec = spec_of("square")
    payload = system_to_jsonable(build_system(spec), spec)
    payload["systems"][0]["blocks"][2]["side"] = "1/81"
    with pytest.raises(SpecFileError, match="does not match"):
        load_system(payload)
    assert build_calls == []
