"""Golden outputs: SHA-256 of stdout and stderr, and the exit code, of the
symbolic, brute-force and validate commands, and of `build`'s refusals; and
SHA-256 of each file `build` writes.

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
    # alpha = beta: both halves are one system
    "shared": {"kind": "two_block", "n": 2, "alpha": "1/2", "beta": "1/2", "kMax": 4},
    # alpha = 0: the lower half is the sparse beta system, the upper the identity
    "zero_lower": {"kind": "two_block", "n": 2, "alpha": "0", "beta": "1", "kMax": 4},
    # alpha = beta = 0: both halves are the identity
    "zero_both": {"kind": "two_block", "n": 2, "alpha": "0", "beta": "0", "kMax": 4},
    "identity": {"kind": "identity", "n": 2},
}

# (system, arguments after the system path) -> (stdout, stderr, exit code)
GOLDEN = {
    ("square", "profile --kmax 30"): (
        "b69f30d925630ff82688a4c34e3aeccf71d759050eaaebd90fcf5c0fae062e00",
        "8f0eb11b76054c3d489bb9971ac12419ff3c6b8d6670592453f31606fe2f75b4",
        0,
    ),
    ("square", "verify"): (
        "1bc661ccf36b7371697b22b49391e176d59ce5df9eec4a97d78afb19f55f730e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    ("quadratic", "profile --kmax 30"): (
        "7ae578b2945a2e9bbc5b989f6cce193177483da940f566fc582f766e5af2a9b6",
        "204859da6d0071c54315c466920c0ab172025a9b30a13d38f3205723127ae997",
        0,
    ),
    ("quadratic", "verify"): (
        "37db0270fd08e3263e09cf67f6a15bdd4cd01c0eb6cee23b942785baa3681441",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    ("sparse", "profile --kmax 30"): (
        "809158579971c1de7d1242c815c5cff7f39f3527a1552fbc3e44e1b2a2665f49",
        "f9d52533e4fcffdc010afef700b76b04464ebce0c36d7b915904ad896f66f62f",
        0,
    ),
    ("sparse", "verify"): (
        "6a25f7be6f9ae504625f7fe78681e83a67195615b17f0dd072dbd9fb87c51418",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    ("two_block", "profile --kmax 30"): (
        "de2b632347e9a0b7703d21e0a576673584c5dee26b069163867abd51af6dd269",
        "d1409e4004ac832ae7b45f6b17c5a20395675f4ef424ee870f8036993b977b07",
        0,
    ),
    ("two_block", "verify"): (
        "48770f64d9d56ebd0a5f8f9ccb31625180a17f6beab808551ddec0f29da31310",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
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
        "615dc9f08c8922be1d366307d4aa1891f10c8b38e54d1200c1a8a6d6b82f9241",
        0,
    ),
    ("square", "verify --kmax 1"): (
        "1bc661ccf36b7371697b22b49391e176d59ce5df9eec4a97d78afb19f55f730e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    ("shared", "validate"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c0f4f3366ef41f8488fea1044119b487ef23f38fbe75da80051be45e1bf21813",
        0,
    ),
    ("shared", "profile --kmax 30"): (
        "ffaffe71abe5fbbebdefcca1f5d892f6be20e87bcf0634844df4a7b371923b64",
        "f8e96af5a250674d0d0736c29b8d0e8882a4e34e095651eeeaa5bb46573a1703",
        0,
    ),
    ("zero_lower", "validate"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5c3352b6808e383f6ebf9af279d293420a57f2e5533503326d92bf9ba8ecd1a1",
        0,
    ),
    ("zero_lower", "profile --kmax 30"): (
        "809158579971c1de7d1242c815c5cff7f39f3527a1552fbc3e44e1b2a2665f49",
        "f9d52533e4fcffdc010afef700b76b04464ebce0c36d7b915904ad896f66f62f",
        0,
    ),
    ("identity", "profile --kmax 30"): (
        "26c290e81cf3d0692c55c701de6d0e1579ec0be8dccff80172cbeab393829bfc",
        "80c86d2dbc614c3737746230cbf4c91670a0ae4aaece204d7f3e5527c8fc06df",
        0,
    ),
    ("shared", "verify"): (
        "ba5fd48ea9f0d82ca1faa550ce879ed5fc4f4cbc2d13eae607f3f0b4e696d76a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    ("zero_lower", "verify"): (
        "6a25f7be6f9ae504625f7fe78681e83a67195615b17f0dd072dbd9fb87c51418",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    ("identity", "verify"): (
        "39efb83c2cd79031c9eb2d0b900246f6455b5974327280edbce1bfb94f2f90d8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    ("zero_both", "verify"): (
        "39efb83c2cd79031c9eb2d0b900246f6455b5974327280edbce1bfb94f2f90d8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
    ),
    ("zero_both", "profile --kmax 30"): (
        "26c290e81cf3d0692c55c701de6d0e1579ec0be8dccff80172cbeab393829bfc",
        "80c86d2dbc614c3737746230cbf4c91670a0ae4aaece204d7f3e5527c8fc06df",
        0,
    ),
    ("identity", "validate"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f8a0c5eff36c5162492ba1155cbe7ed6ee8483add57f561a2910551f9eea6810",
        0,
    ),
    ("zero_both", "validate"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f8a0c5eff36c5162492ba1155cbe7ed6ee8483add57f561a2910551f9eea6810",
        0,
    ),
    ("identity", "estimate --k 1"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c031698d4ad015acf05c32404199080f09ae42d728e7adc53447464d206c823f",
        2,
    ),
    ("two_block", "estimate --k 1"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "21cd44fa8b8cd752020269663eb399a54c3dc686efaf90c8c24f4f3be30ae5c8",
        2,
    ),
}

# `build`'s file for each SPECS entry -> SHA-256 of its bytes
BUILT = {
    "square": "5125ce4d817367d9db87ab76c4eaf07f5e0b30bd0b06145d70ada3ff43117e96",
    "cube": "5946d74dcabf1ba3a492939cbeecabae6d47bf7ec7ea0a6e0d7ed69e6b944635",
    "quadratic": "b653eb7b9b2f636497a0553a4547f330cf089996851fa9c89dca85e2f69f4279",
    "sparse": "168aee3e98b3c5b51d03d02b8001016d4ac33f85ffb87f493d9839ff1b0f839c",
    "two_block": "0fceefae1e8d4ed9b537cc70df3f1894805e49b1789855cccf920fd3a31c1ac6",
    "shared": "bf8784b7df7e931cba755e14a5a423543a40bb092cebbbcfa9eb7e1f876d57c2",
    "zero_lower": "ec98dcd229e040f1ee5aa23d61df697318e78827fde7cb4e8882278b6499930c",
    "zero_both": "c69e7adba20a2f5bd67582ceb29d00849d9fbbd18c839c92d4d02c7e2d86427d",
    "identity": "9d1453a67c4443c168b257304cfe8c90a475f58b83eeb38d532026db95a2451b",
}

# `build` on a spec it refuses -> (spec, (stdout, stderr, exit code)); no
# message names a path
REFUSED = {
    # 3^(k r) is irrational at some k
    "geometric r=5/3": (
        {"kind": "geometric", "n": 2, "B": "1", "r": "5/3", "kMax": 3},
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "e0514ffe6e2d62da3669783d6091ded3c9e4bf5d472636569110f405288a9eac", 2),
    ),
    # no room for the 1/10 enlargements at r = 1
    "geometric B=9/5": (
        {"kind": "geometric", "n": 2, "B": "9/5", "r": "1", "kMax": 3},
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "8b8f38c35afaf5084d8214d6c03fe29e0b427a3b6e508ea22ca573f34ee285ae", 2),
    ),
    # the lower half's rate 2/(3/4) - 1 = 5/3
    "two_block 3/4..1": (
        {"kind": "two_block", "n": 2, "alpha": "3/4", "beta": "1", "kMax": 3},
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "e0514ffe6e2d62da3669783d6091ded3c9e4bf5d472636569110f405288a9eac", 2),
    ),
    # the lower half's rate is past the digit cap
    "two_block alpha=1/10^19": (
        {"kind": "two_block", "n": 2, "alpha": "1/10000000000000000000", "beta": "1",
         "kMax": 3},
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "3696110669fffe355b06f79bc111f0e86e7291d5a9ab44155bd1728de86a8aca", 2),
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


@pytest.mark.parametrize("name", sorted(SPECS))
def test_built_file_bytes_are_pinned(systems, name):
    with open(systems[name], "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == BUILT[name]


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refusal_bytes_are_pinned(cli, tmp_path, name):
    spec, golden = REFUSED[name]
    spec_path, system_path = tmp_path / "spec.json", tmp_path / "system.json"
    write_json(spec_path, spec)
    result = cli(["build", str(spec_path), "-o", str(system_path)])
    got = (sha256(result.stdout), sha256(result.stderr), result.exit_code)
    assert got == golden, result.output
    assert not system_path.exists()
