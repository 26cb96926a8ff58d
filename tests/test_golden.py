"""Golden outputs: SHA-256 of stdout and stderr, and the exit code, of the
symbolic, brute-force and validate commands at default settings.

A refactor that keeps the checker's behaviour keeps these bytes; a change
that means to alter an output updates the digest it names.
"""

import hashlib

import pytest

from mmdim.specfile import write_json

SPECS = {
    "square": {"kind": "geometric", "n": 2, "B": "1", "r": "1", "kMax": 3},
    "cube": {"kind": "geometric", "n": 3, "B": "1", "r": "1", "kMax": 2},
    "quadratic": {"kind": "quadratic", "n": 2, "B": "1", "kMax": 3},
    "sparse": {"kind": "sparse", "n": 2, "B": "1", "r": "1", "kMax": 4},
    "two_block": {"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 30},
}

# (system, arguments after the system path) -> (stdout, stderr, exit code)
GOLDEN = {
    ("square", "profile --kmax 30"): (
        "b69f30d925630ff82688a4c34e3aeccf71d759050eaaebd90fcf5c0fae062e00",
        "8d11aed2687883667191c2671ca11f2860f5030db11418e4341b8d754aaffbd1",
        0,
    ),
    ("square", "verify"): (
        "2a485c327848d096df2c75f0f6fd471e7e85239eefd8e051ef0be43360d3feb4",
        "390e4c7c581154000ebe8e892917899d806e42a6ffaa4078e356c4f472bd32fb",
        0,
    ),
    ("quadratic", "profile --kmax 30"): (
        "7ae578b2945a2e9bbc5b989f6cce193177483da940f566fc582f766e5af2a9b6",
        "9f925957672cabe83140f382420d3e8260a39712d27e0d6bc22284499b2bfadf",
        0,
    ),
    ("quadratic", "verify"): (
        "f8a53efa20702837df2ba8d581ee06d20326b499afcacaf1b11f87c5dd4c0990",
        "da255654653f99bf64ef34fa8d264fff6520482e35d614edea8c5382c7f6f09a",
        1,
    ),
    ("sparse", "profile --kmax 30"): (
        "809158579971c1de7d1242c815c5cff7f39f3527a1552fbc3e44e1b2a2665f49",
        "e68dbe04288bcf0c850c173a6a62d3d623a8145190d3e6479800a878f2ced7a2",
        0,
    ),
    ("sparse", "verify"): (
        "2eaec1255ae7275a81ba1a506ad32c7e7cc2870081d12eaeeed38289b9d472f5",
        "7b6b1b05cade32f1e99c69b27a86becc5c798e3c8afb6a0d5b94da3eaa135d8c",
        0,
    ),
    ("two_block", "profile --kmax 30"): (
        "de2b632347e9a0b7703d21e0a576673584c5dee26b069163867abd51af6dd269",
        "135882a0a45d9a52a3bdb582ae0a2d99ab782583bc48a66faa025b08fd160fb6",
        0,
    ),
    ("two_block", "verify"): (
        "ef062d885c0d3df4f8f6887ed6a4d05e40bdacf728fa96ca89deb759fbd7efbb",
        "08a78747a550e245f97223e7f8f987435f6bf6e6bf462fb3cc49841f85e0fd01",
        0,
    ),
    ("square", "estimate --k 1 --m 3"): (
        "ad7946c72bb8413c8cdf5d81d8bdd8da029b00430f20fe1d303e1c82d08477d1",
        "47d1f989282f6992797113e596672aa7386871f930f00eb374bc75ade2df5beb",
        0,
    ),
    ("square", "validate"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "49c698890d8eb738177c7342f9597e804ff115443e4b157dc3b7d5d50cf1fc4b",
        0,
    ),
    ("cube", "validate"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "96314676df1d84d2e214aa296a812b215f2dd23e95a3a0162b776d5db82d31b1",
        0,
    ),
    ("sparse", "validate"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b3001bdf04833fab7b1143524630d53931f1e79d765502e16338e6b01ed1525d",
        0,
    ),
    ("cube", "estimate --k 1 --m 2 --eps 3/10"): (
        "ef44137bcfb8c4880e6b36447f55b1a6296dc3b9c2755c72ebd1638035a7f605",
        "64d1b7753992c686d8024bac579b5525395a1e4b8898e39b45bfde1e5108a197",
        0,
    ),
}


@pytest.fixture(scope="module")
def systems(tmp_path_factory, cli):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for name, spec in SPECS.items():
        spec_path, system_path = root / f"{name}.json", root / f"{name}.system.json"
        write_json(spec_path, spec)
        result = cli(["build", str(spec_path), "-o", str(system_path)])
        assert result.exit_code == 0, result.output
        out[name] = str(system_path)
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("system,args", sorted(GOLDEN))
def test_output_bytes_are_pinned(cli, systems, system, args):
    command, *rest = args.split()
    result = cli([command, systems[system], *rest])
    got = (sha256(result.stdout), sha256(result.stderr), result.exit_code)
    assert got == GOLDEN[system, args], result.output
