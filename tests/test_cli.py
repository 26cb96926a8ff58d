"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import gc
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mmdim
from mmdim import cli as cli_module, estimators, specfile, symbolic, validation
from mmdim.cli import main
from mmdim.constructions import ACTIVE_ALL, ACTIVE_SELF_POWERS, Schedule
from mmdim.specfile import (
    PROFILE_COLUMNS,
    SpecFileError,
    build_system,
    canonical_dumps,
    load_system,
    read_json,
    system_to_jsonable,
)
from corpus import SPECS
from oracles import argparse_parser
from test_lazy_geometry import as_format_2, as_format_3, as_format_4

F = Fraction


@pytest.fixture()
def tmp_spec(tmp_path):
    def make(name="spec.json", **fields):
        path = tmp_path / name
        path.write_text(canonical_dumps(fields))
        return str(path)

    return make


@pytest.fixture()
def geometric_file(cli, tmp_spec, tmp_path):
    spec = tmp_spec(kind="geometric", n=2, B="1", r="1", kMax=3)
    out = str(tmp_path / "system.json")
    result = cli(["build", spec, "-o", out])
    assert result.exit_code == 0, result.stdout + result.stderr
    return out


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestBuild:
    def test_writes_canonical_system(self, cli, tmp_spec, tmp_path):
        spec = tmp_spec(kind="geometric", n=2, B="1", r="1", kMax=3)
        out = str(tmp_path / "sys.json")
        result = cli(["build", spec, "-o", out])
        assert result.exit_code == 0
        assert f"wrote {out}" in result.stderr
        data = read_json(out)
        assert data["format"] == "mmdim-system/5"
        assert data["parts"] == [0]
        assert [set(system) for system in data["systems"]] == [{"schedule", "blocks"}]
        assert [set(b) for b in data["systems"][0]["blocks"]] == [
            {"anchor", "side", "active"}
        ] * 3

    def test_idempotent_and_loader_round_trips(self, cli, tmp_spec, tmp_path):
        spec = tmp_spec(kind="geometric", n=2, B="1", r="1", kMax=3)
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert cli(["build", spec, "-o", out1]).exit_code == 0
        assert cli(["build", spec, "-o", out2]).exit_code == 0
        bytes1 = open(out1, "rb").read()
        assert bytes1 == open(out2, "rb").read()
        loaded_spec, system = load_system(read_json(out1))
        assert canonical_dumps(system_to_jsonable(system, loaded_spec)).encode() == bytes1

    def test_two_block_build(self, cli, tmp_spec, tmp_path):
        spec = tmp_spec(kind="two_block", n=2, alpha="2/3", beta="1", kMax=5)
        out = str(tmp_path / "two.json")
        assert cli(["build", spec, "-o", out]).exit_code == 0
        data = read_json(out)
        assert data["parts"] == [0, 1]
        assert [system["schedule"]["active"] for system in data["systems"]] == [
            "self-powers", "all"]

    @pytest.mark.parametrize(
        "fields,needle",
        [
            (dict(kind="quadratic", n=2, B="1", r="1", kMax=3), "no rate r"),
            (dict(kind="geometric", n=2, r="1", kMax=3), "'B'"),
            (dict(kind="geometric", n=2, B="1", r="1", kMax=3, shape="round"), "shape"),
            (dict(kind="geometric", n=2, B="1", r="0", kMax=3), "r > 0"),
            (dict(kind="geometric", n=2, B="5", r="1", kMax=3), "B <= 3"),
            # 3^(k r) is irrational at some k: the schedule refuses r = 5/3,
            # and the two-block half that alpha = 3/4 asks for
            (dict(kind="geometric", n=2, B="1", r="5/3", kMax=3),
             "cannot place cubes with irrational sides (non-integer r)"),
            (dict(kind="two_block", n=2, alpha="3/4", beta="1", kMax=3),
             "cannot place cubes with irrational sides (non-integer r)"),
            # every block has L_k = 3^k; no field sets a leg count
            (dict(kind="geometric", n=2, B="1", r="2", kMax=2,
                  legScheduleOverride={"2": 5}), "'legScheduleOverride' do not apply"),
        ],
    )
    def test_bad_spec_exits_2_naming_problem(
        self, cli, tmp_spec, tmp_path, fields, needle
    ):
        spec = tmp_spec(**fields)
        result = cli(["build", spec, "-o", str(tmp_path / "x.json")])
        assert result.exit_code == 2
        assert needle in result.stderr

    def test_unparseable_json_exits_2(self, cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        result = cli(["build", str(bad), "-o", str(tmp_path / "x.json")])
        assert result.exit_code == 2
        assert "not valid JSON" in result.stderr

    @pytest.mark.parametrize("opener", ["[", '{"a":'])
    def test_deeply_nested_json_exits_2(self, cli, tmp_path, opener):
        # the decoder recurses once per level and overflows the stack
        deep = tmp_path / "deep.json"
        deep.write_text(opener * 200_000)
        for args in (["build", str(deep), "-o", str(tmp_path / "x.json")],
                     ["verify", str(deep)]):
            result = cli(args)
            assert result.exit_code == 2, result.output
            assert "nested too deeply" in result.stderr

    @pytest.mark.parametrize(
        "fields,needle",
        [
            (dict(kMax=5000), "kMax"),
            (dict(kMax=100000), "kMax"),
            (dict(r="30000000"), "rate r"),
            (dict(B="1e10000000"), "'B'"),
            (dict(B="1e-5000"), "'B'"),
        ],
    )
    def test_oversized_spec_fails_fast(self, cli, tmp_spec, geometric_file, fields, needle):
        data = dict(kind="geometric", n=2, B="1", r="1", kMax=3) | fields
        stored = read_json(geometric_file)
        stored["spec"] = data
        Path(geometric_file).write_text(canonical_dumps(stored))
        for args in (["build", tmp_spec(**data), "-o", geometric_file + ".out"],
                     ["verify", geometric_file]):
            t0 = time.perf_counter()
            result = cli(args)
            assert time.perf_counter() - t0 < 2.0
            assert result.exit_code == 2, result.output
            assert needle in result.stderr

    @pytest.mark.parametrize("version", ["2", "5"])
    @pytest.mark.parametrize("command", ["verify", "profile", "estimate", "validate"])
    def test_a_stored_leg_override_exits_2(self, cli, tmp_spec, tmp_path, command, version):
        # the file of this spec with block 2 at L = 5: the spec and the
        # schedule name the override, and in the format /2 that earlier
        # versions wrote block 2 stores L and eps = side / (2 L - 1) too
        fields = dict(kind="geometric", n=3, B="1", r="2", kMax=3)
        out = str(tmp_path / "override.json")
        assert cli(["build", tmp_spec(**fields), "-o", out]).exit_code == 0
        data = read_json(out)
        if version == "2":
            data = as_format_2(as_format_3(as_format_4(data)))
            data["system"]["blocks"][1].update(L=5, eps="1/729")
        system = data["system"] if version == "2" else data["systems"][0]
        data["spec"]["legScheduleOverride"] = {"2": 5}
        system["schedule"]["legScheduleOverride"] = {"2": 5}
        Path(out).write_text(canonical_dumps(data))
        if version == "2":
            digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
            assert digest == "dc8cf8456131cab3cd893d9e5548d0bd9bffa8dcfb42364d14a4655b3e7002cf"
            needles = ["'mmdim-system/2'", "run `mmdim build` on the spec stored under its 'spec' key"]
        else:
            needles = ["'legScheduleOverride' do not apply"]
        args = [command, out] + (["--k", "2", "--m", "2"] if command == "estimate" else [])
        result = cli(args)
        assert result.exit_code == 2, result.output
        for needle in needles:
            assert needle in result.stderr
        assert result.stdout == ""


class TestValidate:
    def test_geometric_system_passes(self, cli, geometric_file):
        result = cli(["validate", geometric_file])
        assert result.exit_code == 0
        for k, L in [(1, 3), (2, 9), (3, 27)]:
            assert f"block k={k} (L={L}): 10/10 checks ok" in result.stderr

    def test_two_block_validates_both_halves(self, cli, tmp_spec, tmp_path):
        spec = tmp_spec(kind="two_block", n=2, alpha="1/2", beta="1", kMax=4)
        out = str(tmp_path / "two.json")
        cli(["build", spec, "-o", out])
        result = cli(["validate", out])
        assert result.exit_code == 0
        # sparse half materializes k in {1, 4}; dense half k = 1..4
        assert result.stderr.count("checks ok") == 6

    def test_two_block_lines_name_their_half(self, cli, tmp_spec, tmp_path, monkeypatch):
        # a failure in the dense half's block 1 cannot be read as the sparse half's
        spec = tmp_spec(kind="two_block", n=2, alpha="1/2", beta="1", kMax=4)
        out = str(tmp_path / "two.json")
        assert cli(["build", spec, "-o", out]).exit_code == 0
        real, calls = validation.validate_horseshoe, []

        def third_fails(h):
            checks = real(h)
            calls.append(h)
            if len(calls) == 3:
                checks = checks[:-1] + (checks[-1]._replace(passed=False, detail="mutated"),)
            return checks

        monkeypatch.setattr(validation, "validate_horseshoe", third_fails)
        result = cli(["validate", out])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            "lower half: block k=1 (L=3): 10/10 checks ok",
            "lower half: block k=4 (L=81): 10/10 checks ok",
            "upper half: block k=1 (L=3): 9/10 checks FAILED",
            "  FAIL corner (b,...,b,a) is fixed: mutated",
            "upper half: block k=2 (L=9): 10/10 checks ok",
            "upper half: block k=3 (L=27): 10/10 checks ok",
            "upper half: block k=4 (L=81): 10/10 checks ok",
        ]

    def test_a_shared_half_is_checked_once(self, cli, tmp_spec, tmp_path):
        # alpha = beta puts one system in both corners
        spec = tmp_spec(kind="two_block", n=2, alpha="1", beta="1", kMax=3)
        out = str(tmp_path / "two.json")
        assert cli(["build", spec, "-o", out]).exit_code == 0
        result = cli(["validate", out])
        assert result.exit_code == 0
        assert result.stderr.splitlines() == [
            f"both halves: block k={k} (L={3 ** k}): 10/10 checks ok" for k in (1, 2, 3)]

    def test_identity_has_nothing_to_check(self, cli, tmp_spec, tmp_path):
        spec = tmp_spec(kind="identity", n=2)
        out = str(tmp_path / "id.json")
        cli(["build", spec, "-o", out])
        result = cli(["validate", out])
        assert result.exit_code == 0
        assert "no materialized blocks" in result.stderr

    def test_tampered_file_is_rejected(self, cli, geometric_file):
        data = read_json(geometric_file)
        data["systems"][0]["blocks"][0]["side"] = "1/4"
        Path(geometric_file).write_text(canonical_dumps(data))
        result = cli(["validate", geometric_file])
        assert result.exit_code == 2
        assert "does not match" in result.stderr

    @pytest.mark.parametrize("level, key, value", [
        ("system", "geometryBudget", 100000),
        ("system", "geometryBudget", 8),
        ("block", "L", 3),
        ("block", "materialized", True),
        ("system", "n", 2),
        ("system", "kMax", 3),
        ("system", "kind", "stacked"),
        ("block", "k", 1),
        ("block", "eps", "1/15"),
    ])
    def test_a_restated_derived_field_is_rejected(self, cli, geometric_file, level, key, value):
        # the spec, the schedule and the block index fix these; a file stating
        # one, even at the value format /2, /3 or /4 stored, is not a rebuild
        data = read_json(geometric_file)
        system = data["systems"][0]
        target = system["blocks"][0] if level == "block" else system
        target[key] = value
        Path(geometric_file).write_text(canonical_dumps(data))
        for args in (["verify", geometric_file], ["validate", geometric_file],
                     ["estimate", geometric_file, "--k", "1"]):
            result = cli(args)
            assert result.exit_code == 2, result.output
            assert "does not match its spec rebuild" in result.stderr

    @pytest.mark.parametrize("version", ["1", "2", "3", "4"])
    def test_historic_file_exits_2_with_rebuild_hint(self, cli, geometric_file, version):
        data = as_format_4(read_json(geometric_file))
        if version != "4":
            data = as_format_3(data)
        if version in ("1", "2"):
            data = as_format_2(data)
        data["format"] = f"mmdim-system/{version}"
        if version == "1":
            data["system"]["blocks"][0]["assignment"] = [[1, [5]], [3, [3]], [5, [1]]]
        with pytest.raises(SpecFileError, match="mmdim build"):
            load_system(data)
        Path(geometric_file).write_text(canonical_dumps(data))
        for command in ("validate", "profile", "verify"):
            t0 = time.perf_counter()
            result = cli([command, geometric_file])
            assert time.perf_counter() - t0 < 2.0
            assert result.exit_code == 2, result.output
            assert f"'mmdim-system/{version}'" in result.stderr
            assert "run `mmdim build` on the spec stored under its 'spec' key" in result.stderr
            assert "Traceback" not in result.output


class TestProfile:
    def test_default_kmax(self, cli, geometric_file):
        result = cli(["profile", geometric_file])
        assert result.exit_code == 0
        rows = parse_csv(result.stdout)
        assert len(rows) == 24
        assert list(rows[0]) == list(PROFILE_COLUMNS)
        assert all(r["source"] == "symbolic" for r in rows)
        assert result.stderr == "limits: liminf = 1 (target 1), limsup = 1 (target 1)\n"

    def test_output_file(self, cli, geometric_file, tmp_path):
        out = str(tmp_path / "profile.csv")
        result = cli(["profile", geometric_file, "--kmax", "6", "-o", out])
        assert result.exit_code == 0
        rows = parse_csv(open(out).read())
        assert [r["k"] for r in rows] == [str(k) for k in range(1, 7)]

    def test_small_kmax_prints_the_limits(self, cli, geometric_file):
        # the limits are exact, so they need no rows to fit
        result = cli(["profile", geometric_file, "--kmax", "1"])
        assert result.exit_code == 0
        assert len(parse_csv(result.stdout)) == 1
        assert result.stderr == "limits: liminf = 1 (target 1), limsup = 1 (target 1)\n"

    @pytest.mark.parametrize("command,kmax", [("profile", "5000"), ("verify", "100000")])
    def test_oversized_kmax_fails_fast(self, cli, geometric_file, command, kmax):
        t0 = time.perf_counter()
        result = cli([command, geometric_file, "--kmax", kmax])
        assert time.perf_counter() - t0 < 2.0
        assert result.exit_code == 2, result.output
        assert "--kmax" in result.stderr and "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["profile", "verify", "estimate"])
    @pytest.mark.parametrize("precision", ["1001", "10000000"])
    def test_oversized_precision_fails_fast(self, cli, geometric_file, command, precision):
        args = [command, geometric_file, "--precision", precision]
        if command == "estimate":
            args += ["--k", "1"]
        t0 = time.perf_counter()
        result = cli(args)
        assert time.perf_counter() - t0 < 2.0
        assert result.exit_code == 2, result.output
        assert "--precision" in result.stderr and "Traceback" not in result.output

    def test_kmax_meets_the_spec_caps(self, cli, tmp_spec, tmp_path):
        spec = tmp_spec(kind="two_block", n=2, alpha="2/3", beta="1", kMax=30)
        out = str(tmp_path / "two.json")
        cli(["build", spec, "-o", out])
        result = cli(["profile", out, "--kmax", "30"])
        assert result.exit_code == 0
        assert len(parse_csv(result.stdout)) == 30
        assert cli(["verify", out, "--kmax", "30"]).exit_code == 0
        # within --kmax's range, but blocks up to 3000 would store rationals
        # of more than 4000 digits at this two_block spec's rates
        for command in ("profile", "verify"):
            result = cli([command, out, "--kmax", "3000"])
            assert result.exit_code == 2, result.output
            assert "digits" in result.stderr

    def test_two_block_ties_go_to_the_lower_half(self, cli, tmp_spec, tmp_path):
        # on 0..1 both halves are inactive off the spikes; the lower half's
        # rows carry its eps, and a tie sent to the upper (identity) half
        # would print them with empty eps columns
        spec = tmp_spec(kind="two_block", n=2, alpha="0", beta="1", kMax=4)
        out = str(tmp_path / "two.json")
        assert cli(["build", spec, "-o", out]).exit_code == 0
        result = cli(["profile", out, "--kmax", "5"])
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        assert [lines[k] for k in (2, 3, 5)] == [
            "2,1/153,0.00653594771242,0,0,0,0,symbolic",
            "3,1/1431,0.000698812019567,0,0,0,0,symbolic",
            "5,1/117855,8.48500275763e-06,0,0,0,0,symbolic",
        ]

    def test_ratios_increase(self, cli, geometric_file):
        result = cli(["profile", geometric_file, "--kmax", "12"])
        ratios = [float(r["lower_ratio"]) for r in parse_csv(result.stdout)]
        assert ratios == sorted(ratios) and ratios[-1] < 1


class TestEstimate:
    def test_block_one_counts(self, cli, geometric_file):
        result = cli(["estimate", geometric_file, "--k", "1"])
        assert result.exit_code == 0
        for m, count in [(1, 9), (2, 81), (3, 729)]:
            assert f"k=1 m={m} eps=1/15 count={count}" in result.stderr
        row = parse_csv(result.stdout)[0]
        assert row["source"] == "numeric"
        assert row["eps_exact"] == "1/15"

    def test_numeric_matches_symbolic_ratio(self, cli, geometric_file):
        est = cli(["estimate", geometric_file, "--k", "1"])
        prof = cli(["profile", geometric_file, "--kmax", "1"])
        numeric = float(parse_csv(est.stdout)[0]["lower_ratio"])
        symbolic = float(parse_csv(prof.stdout)[0]["lower_ratio"])
        assert abs(numeric - symbolic) <= 1e-9

    def test_quadratic_eps_is_the_placed_one(self, cli, tmp_spec, tmp_path):
        # B = 1 is above the packing cap: block 1's side is 500/987, not 1
        spec = tmp_spec(kind="quadratic", n=2, B="1", kMax=3)
        out = str(tmp_path / "quadratic.json")
        assert cli(["build", spec, "-o", out]).exit_code == 0
        est = cli(["estimate", out, "--k", "1"])
        assert est.exit_code == 0, est.output
        assert "k=1 m=3 eps=100/987 count=729" in est.stderr
        prof = cli(["profile", out, "--kmax", "4"])
        assert prof.exit_code == 0, prof.output
        numeric, symbolic = parse_csv(est.stdout)[0], parse_csv(prof.stdout)[0]
        assert numeric["eps_exact"] == symbolic["eps_exact"] == "100/987"
        assert abs(float(numeric["lower_ratio"]) - float(symbolic["lower_ratio"])) <= 1e-9

    def test_shortfall_at_the_blocks_own_eps_exits_1(self, cli, tmp_spec, tmp_path,
                                                     monkeypatch):
        # eps = side / (2L - 3), wider than a leg: the square keeps 9 and 54
        # of its 9 and 81 cylinder centers, and the first shortfall ends the
        # scans before the 729-seed depth and writes an error row
        monkeypatch.setattr(Schedule, "eps", lambda s, k: s.size(k) / (2 * s.legs(k) - 3))
        spec = tmp_spec(kind="geometric", n=2, B="1", r="1", kMax=3)
        out = str(tmp_path / "shrunk.json")
        assert cli(["build", spec, "-o", out]).exit_code == 0
        result = cli(["estimate", out, "--k", "1"])
        assert result.exit_code == 1, result.output
        assert result.stderr.splitlines()[-1] == "k=1 m=2 count=54 expected=81"
        assert "k=1 m=2 eps=1/9 count=54 seeds=81" in result.stderr
        assert "m=3" not in result.stderr
        assert result.stdout.splitlines()[1] == "1,1/9,,,,,,numeric"

    def test_symbolic_rate_plus_ln_3_exits_1(self, cli, geometric_file, monkeypatch):
        # the expected count is L^(n m) of the symbolic row itself, so a
        # row with n = 3 (at k = 1, a rate one ln 3 too large) expects 27 of
        # the 9 depth-1 centers
        real = estimators.rate_profile
        monkeypatch.setattr(estimators, "rate_profile", lambda system, ks: [
            b._replace(n=3) for b in real(system, ks)])
        result = cli(["estimate", geometric_file, "--k", "1"])
        assert result.exit_code == 1, result.output
        assert result.stderr.splitlines()[-1] == "k=1 m=1 count=9 expected=27"

    def test_eps_override(self, cli, geometric_file):
        # 1 of 9 and 1 of 81 kept: a probe decides nothing, so it exits 0
        result = cli(
            ["estimate", geometric_file, "--k", "1", "--m", "2", "--eps", "2"]
        )
        assert result.exit_code == 0
        assert "count=1" in result.stderr
        assert result.stderr.splitlines()[-1] == (
            "--eps 2 is a probe, not block 1's own eps: its counts decide nothing")
        row = parse_csv(result.stdout)[0]
        assert float(row["lower_rate"]) == pytest.approx(0.0, abs=1e-12)

    def test_bad_eps_exits_2(self, cli, geometric_file):
        result = cli(
            ["estimate", geometric_file, "--k", "1", "--eps", "fast"]
        )
        assert result.exit_code == 2
        assert "--eps" in result.stderr
        result = cli(
            ["estimate", geometric_file, "--k", "1", "--eps", "0/1"]
        )
        assert result.exit_code == 2

    def test_out_of_range_k_exits_2_with_error_row(self, cli, geometric_file):
        result = cli(["estimate", geometric_file, "--k", "9"])
        assert result.exit_code == 2
        rows = parse_csv(result.stdout)
        assert rows == [{col: "" for col in PROFILE_COLUMNS} | {"k": "9", "source": "numeric"}]

    def test_far_out_of_range_k_fails_fast(self, cli, geometric_file):
        # L_k = 3^k has about 48 million digits here; nothing may form it
        t0 = time.perf_counter()
        result = cli(["estimate", geometric_file, "--k", "100000000"])
        assert time.perf_counter() - t0 < 2.0
        assert result.exit_code == 2, result.output
        assert "block 100000000 is outside the file (kMax = 3)" in result.stderr

    def test_unmaterialized_k_exits_2_over_budget(self, cli, tmp_spec, tmp_path):
        # L_11 = 177,147 pieces exceed the geometry budget, and its 3^22
        # cylinders at m = 1 the cylinder budget, which refuses it first
        spec = tmp_spec(kind="geometric", n=2, B="1", r="1", kMax=11)
        path = str(tmp_path / "deep.json")
        assert cli(["build", spec, "-o", path]).exit_code == 0
        result = cli(["estimate", path, "--k", "11"])
        assert result.exit_code == 2, result.output
        assert result.stderr == ("k=11: 31381059609 cylinders at (k=11, m=1) "
                                 "exceed budget 1000000\n")
        assert result.stdout.splitlines()[1] == "11,1/62761942071,,,,,,numeric"

    def test_over_budget_depth_fails_before_any_scan(self, cli, geometric_file):
        # 9^8 cylinders at m = 4; the 531,441 at m = 3 fit the budget, so the
        # check must come before the first depth's cylinders are built
        t0 = time.perf_counter()
        result = cli(["estimate", geometric_file, "--k", "2", "--m", "4"])
        assert time.perf_counter() - t0 < 2.0
        assert result.exit_code == 2, result.output
        assert result.stdout.splitlines()[1] == "2,1/153,,,,,,numeric"
        assert result.stderr == "k=2: 43046721 cylinders at (k=2, m=4) exceed budget 1000000\n"

    def test_non_stacked_systems_exit_2(self, cli, tmp_spec, tmp_path):
        for fields in [
            dict(kind="identity", n=2),
            dict(kind="two_block", n=2, alpha="1", beta="1", kMax=2),
        ]:
            spec = tmp_spec(name=f"{fields['kind']}.json", **fields)
            out = str(tmp_path / f"{fields['kind']}-sys.json")
            cli(["build", spec, "-o", out])
            result = cli(["estimate", out, "--k", "1"])
            assert result.exit_code == 2
            assert "stacked" in result.stderr


def verify_table(liminf: tuple[str, str, str], limsup: tuple[str, str, str]) -> str:
    """The stdout of `verify`: (target, limit, verdict) for each limit."""
    rows = [f"{'quantity':<10}{'target':>12}{'limit':>12}  equal"]
    for name, (target, limit, verdict) in (("liminf", liminf), ("limsup", limsup)):
        rows.append(f"{name:<10}{target:>12}{limit:>12}  {verdict}")
    return "\n".join(rows) + "\n"


@st.composite
def buildable_specs(draw) -> dict:
    """Geometric, sparse, quadratic and two-block specs within the size caps."""
    n = draw(st.sampled_from([2, 3]))
    k_max = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["geometric", "sparse", "quadratic", "two_block"]))
    if kind == "two_block":
        values = [F(0), *(F(n, j + 1) for j in (1, 2, 3)), F(n)]
        alpha, beta = sorted(draw(st.lists(st.sampled_from(values), min_size=2, max_size=2)))
        return dict(kind=kind, n=n, alpha=str(alpha), beta=str(beta), kMax=k_max)
    if kind == "quadratic":
        B = draw(st.fractions(F(1, 12), 1, max_denominator=12))
        return dict(kind=kind, n=n, B=str(B), kMax=k_max)
    r = draw(st.integers(1, 3))
    # cap is the largest B whose blocks keep disjoint enlargements when placed
    cap = (3**r - 1) / (1 + F(1, 10) + F(1, 10 * 3**r))
    B = cap * F(draw(st.integers(1, 12)), 12)
    return dict(kind=kind, n=n, B=str(B), r=str(r), kMax=k_max)


class TestVerify:
    @settings(max_examples=100, deadline=None)
    @given(buildable_specs())
    def test_every_buildable_spec_verifies(self, cli, fields):
        with tempfile.TemporaryDirectory() as root:
            spec, system = os.path.join(root, "spec.json"), os.path.join(root, "system.json")
            Path(spec).write_text(canonical_dumps(fields))
            assert cli(["build", spec, "-o", system]).exit_code == 0
            result = cli(["verify", system])
        assert result.exit_code == 0, (fields, result.output)
        assert result.stdout.count("  yes\n") == 2

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_prints_exact_limits_equal_to_the_targets(self, cli, tmp_spec, tmp_path, name):
        fields, (lo, hi) = SPECS[name]
        out = str(tmp_path / "system.json")
        assert cli(["build", tmp_spec(**fields), "-o", out]).exit_code == 0
        result = cli(["verify", out])
        assert result.exit_code == 0, result.output
        assert result.stdout == verify_table((lo, lo, "yes"), (hi, hi, "yes"))
        assert result.stderr == ""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_takes_no_logarithm(self, cli, tmp_spec, tmp_path, monkeypatch, name):
        # the row checks and the two-block max rule compare exact rationals
        fields, (lo, hi) = SPECS[name]
        out = str(tmp_path / "system.json")
        assert cli(["build", tmp_spec(**fields), "-o", out]).exit_code == 0

        def no_ln(a):
            raise AssertionError(f"verify took ln {a}")

        monkeypatch.setattr(symbolic, "_ln", no_ln)
        result = cli(["verify", out])
        assert result.exit_code == 0, result.output
        assert result.stdout == verify_table((lo, lo, "yes"), (hi, hi, "yes"))

    def test_a_limit_off_its_target_exits_1(self, cli, geometric_file, monkeypatch):
        # the limits stay exact; only the targets they are compared with move
        monkeypatch.setattr(cli_module, "analytic_targets", lambda spec: (F(1), F(3, 2)))
        result = cli(["verify", geometric_file])
        assert result.exit_code == 1
        assert result.stdout == verify_table(("1", "1", "yes"), ("3/2", "1", "NO"))

    @pytest.mark.parametrize("name,row", [("square", ("2/3", "1", "NO")),
                                          ("cube", ("1", "3/2", "NO"))])
    def test_targets_off_the_construction_exit_1(self, cli, tmp_spec, tmp_path, monkeypatch,
                                                 name, row):
        # targets n / (a + 1) from the rows' own growth coefficient a: the
        # limits come from `_growth`, not from the targets, and stay n / a
        def shifted(spec):
            ((_, part),) = build_system(spec).parts  # a stacked spec is one part
            a, _ = symbolic._growth(part.schedule)
            return spec.n / (a + 1), spec.n / (a + 1)

        monkeypatch.setattr(cli_module, "analytic_targets", shifted)
        out = str(tmp_path / "system.json")
        assert cli(["build", tmp_spec(**SPECS[name][0]), "-o", out]).exit_code == 0
        result = cli(["verify", out])
        assert result.exit_code == 1, result.output
        assert result.stdout == verify_table(row, row)

    @pytest.mark.parametrize("command", ["verify", "profile"])
    def test_a_growth_off_the_schedule_exits_1(self, cli, geometric_file, monkeypatch, command):
        # a + 1 would hold the rows to, and take the limits from, the wrong
        # coefficient; the rows' own eps do not grow at it
        real = symbolic._growth
        monkeypatch.setattr(symbolic, "_growth", lambda schedule: (real(schedule)[0] + 1,
                                                                   real(schedule)[1]))
        result = cli([command, geometric_file])
        assert result.exit_code == 1, result.output
        assert result.stdout == ""
        assert result.stderr == (
            "k=1 |ln eps| is not 3 j ln 3 + 0 ln j + ln(1/B) + [ln(5/3), ln 2) at j=1\n")

    def test_kmax_floor(self, cli, geometric_file):
        assert cli(["verify", geometric_file, "--kmax", "0"]).exit_code == 2
        result = cli(["verify", geometric_file, "--kmax", "1"])
        assert result.exit_code == 0, result.output
        assert result.stdout == verify_table(("1", "1", "yes"), ("1", "1", "yes"))

    @pytest.mark.parametrize("command,mutant", [
        pytest.param(command, mutant, id=command + suffix)
        for mutant, suffix in (("2L - 3", ""), ("eps_2 / 7", "-eps_2 over 7"))
        for command in ("verify", "profile")])
    def test_eps_over_2l_minus_3_exits_1(self, cli, tmp_spec, tmp_path, monkeypatch, command,
                                         mutant):
        # eps_k = |E_k| / (2 L_k - 3) in the system file, the CSV and the
        # ratios: on the square |ln eps_1| falls below 2 ln 3 + ln(5/3).
        # eps_2 alone seven times smaller: every spec with a block 2 has an
        # active block 1, whose lower denominator is |ln eps_2|
        real = Schedule.eps
        monkeypatch.setattr(Schedule, "eps", {
            "2L - 3": lambda s, k: s.size(k) / (2 * s.legs(k) - 3),
            "eps_2 / 7": lambda s, k: real(s, k) / (7 if k == 2 else 1),
        }[mutant])
        if mutant == "2L - 3":
            specs = [SPECS["square"][0]]
            fault = ("k=1 |ln eps| is not 2 j ln 3 + 0 ln j + ln(1/B) + [ln(5/3), ln 2)",
                     " at j=1\n")
        else:
            # every spec with a block 2: all but the identity and zero_both,
            # which build no block, as their limsup 0 says
            specs = [fields for fields, (_, hi) in SPECS.values()
                     if fields.get("kMax", 0) >= 2 and hi != "0"]
            fault = ("k=1 lower_den is not ", " ln j + ln(1/B) + [ln(5/3), ln 2) at j=2\n")
            assert len(specs) == len(SPECS) - 2
        for i, fields in enumerate(specs):
            out = str(tmp_path / f"shrunk{i}.json")
            assert cli(["build", tmp_spec(**fields), "-o", out]).exit_code == 0
            result = cli([command, out])
            assert result.exit_code == 1, (fields, result.output)
            assert result.stdout == ""
            assert result.stderr.count("\n") == 1, (fields, result.stderr)
            assert result.stderr.startswith(fault[0]) and result.stderr.endswith(fault[1])

    @pytest.mark.parametrize("command", ["verify", "profile"])
    def test_a_rate_off_its_growth_exits_1(self, cli, geometric_file, monkeypatch, command):
        # (n - 1) k ln 3 would move every limit
        real = symbolic._stacked_bound
        monkeypatch.setattr(symbolic, "_stacked_bound", lambda sched, n, k: real(
            sched, n, k)._replace(n=n - 1))
        result = cli([command, geometric_file])
        assert result.exit_code == 1, result.output
        assert result.stdout == ""
        assert result.stderr == "k=1 rate is not 2 k ln 3\n"

    @pytest.mark.parametrize("command", ["verify", "profile"])
    def test_an_inactive_row_at_an_active_block_exits_1(self, cli, geometric_file, monkeypatch,
                                                        command):
        # block 2 of the square is active; its row taken from the sparse
        # schedule of the same sizes has rate 0, L = 1 and no eps_next
        real = symbolic._stacked_bound
        monkeypatch.setattr(symbolic, "_stacked_bound", lambda sched, n, k: real(
            sched._replace(active=ACTIVE_SELF_POWERS) if k == 2 else sched, n, k))
        result = cli([command, geometric_file])
        assert result.exit_code == 1, result.output
        assert result.stdout == ""
        assert result.stderr == "k=2 rate is not 2 k ln 3\n"

    @pytest.mark.parametrize("command", ["verify", "profile"])
    def test_an_active_row_at_an_inactive_block_exits_1(self, cli, tmp_spec, tmp_path,
                                                        monkeypatch, command):
        # block 2 of a sparse schedule lies in a gap between the self powers;
        # its row taken from the dense schedule of the same sizes has a rate
        real = symbolic._stacked_bound
        monkeypatch.setattr(symbolic, "_stacked_bound", lambda sched, n, k: real(
            sched._replace(active=ACTIVE_ALL) if k == 2 else sched, n, k))
        spec = tmp_spec(kind="sparse", n=2, B="1", r="1", kMax=4)
        out = str(tmp_path / "sparse.json")
        assert cli(["build", spec, "-o", out]).exit_code == 0
        result = cli([command, out])
        assert result.exit_code == 1, result.output
        assert result.stdout == ""
        assert result.stderr == "k=2 rate is not 0 at an inactive block\n"

    @pytest.mark.parametrize("command", ["verify", "profile"])
    def test_a_reversed_max_rule_exits_1(self, cli, tmp_spec, tmp_path, monkeypatch, command):
        # every two-block row taken from the smaller half tends to the
        # smaller half's limits, not alpha and beta.  No spec builds two
        # parts whose distinct rows tie, so the tie rule's mutant is
        # killed in process (test_symbolic's test_a_tie_sent_to_the_upper_half_is_reported)
        monkeypatch.setattr(symbolic, "_larger_half",
                            lambda rows: min(rows, key=symbolic.RateBound.lower_ratio))
        spec = tmp_spec(kind="two_block", n=2, alpha="2/3", beta="1", kMax=4)
        out = str(tmp_path / "two.json")
        assert cli(["build", spec, "-o", out]).exit_code == 0
        result = cli([command, out])
        assert result.exit_code == 1, result.output
        assert result.stdout == ""
        assert result.stderr == "k=1 two-block row is not its larger half's\n"


class TestHelp:
    def test_group_lists_commands(self, cli):
        result = cli(["--help"])
        assert result.exit_code == 0
        for cmd in ("build", "validate", "profile", "estimate", "verify"):
            assert cmd in result.output
        # the benchmark's start-up probe looks for this heading
        assert result.stdout.startswith("Usage: mmdim [--help] COMMAND")

    def test_missing_file_exits_2(self, cli):
        result = cli(["validate", "/does/not/exist.json"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "command,options",
        [
            ("build", {"-o --out": None}),
            ("validate", {}),
            ("profile", {"--kmax": "24", "-o --out": "stdout"}),
            ("estimate", {"--k": None, "--m": "3", "--eps": None, "-o --out": "stdout"}),
            ("verify", {"--kmax": "30"}),
        ],
    )
    def test_command_help_lists_every_option_with_its_default(self, cli, command, options):
        result = cli([command, "--help"])
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout.startswith(f"Usage: mmdim {command} ")
        assert ("SPEC_PATH" if command == "build" else "SYSTEM_PATH") in result.stdout
        option_lines = re.findall(r"^ {2}(-.*?)(?: {2,}|$)", result.stdout, re.MULTILINE)
        listed = [" ".join(re.findall(r"(?<![\w-])-[-\w]+", line)) for line in option_lines]
        assert listed == [*options, "--help"]
        text = " ".join(result.stdout.split())  # help lines wrap at the terminal width
        shown = [default for default in options.values() if default is not None]
        assert [f"(default: {default})" in text for default in shown] == [True] * len(shown)
        assert text.count("(default:") == len(shown)


# (arguments after `mmdim`, the name the error line must give)
BAD_ARGUMENTS = [
    (["validate"], "SYSTEM_PATH"),
    (["validate", "{missing}"], "SYSTEM_PATH"),
    (["verify", "{dir}"], "SYSTEM_PATH"),
    (["build", "{dir}", "-o", "{dir}/x.json"], "SPEC_PATH"),
    (["build", "{spec}"], "-o/--out"),
    (["build", "{spec}", "-o", "{dir}"], "-o/--out"),
    (["profile", "{system}", "-o", "{dir}"], "-o/--out"),
    (["profile", "{system}", "--kmax", "0"], "--kmax"),
    (["profile", "{system}", "--kmax", "4001"], "--kmax"),
    (["verify", "{system}", "--kmax", "0"], "--kmax"),
    (["verify", "{system}", "--tol", "0.05"], "--tol"),
    (["estimate", "{system}"], "--k"),
    (["estimate", "{system}", "--k", "0"], "--k"),
    (["estimate", "{system}", "--k", "one"], "--k"),
    (["estimate", "{system}", "--k", "1", "--m", "1"], "--m"),
    (["estimate", "{system}", "--k", "1", "--budget", "1000000"], "--budget"),
    (["estimate", "{system}", "--k", "1", "--bogus"], "--bogus"),
    (["verify", "{system}", "--kma", "30"], "--kma"),  # no abbreviations
    (["check", "{system}"], "check"),
    ([], "COMMAND"),
]


class TestUsage:
    """Bad arguments exit 2 with the usage and the argument's name on stderr."""

    @pytest.mark.parametrize("args,name", BAD_ARGUMENTS)
    def test_bad_arguments_exit_2_naming_the_argument(
        self, cli, tmp_spec, tmp_path, geometric_file, args, name
    ):
        paths = dict(missing=str(tmp_path / "missing.json"), dir=str(tmp_path),
                     spec=tmp_spec(kind="identity", n=2), system=geometric_file)
        result = cli([arg.format(**paths) for arg in args])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("Usage: mmdim")
        assert name in result.stderr.splitlines()[-1]
        assert result.stdout == ""

    def test_main_returns_the_code_when_not_standalone(
        self, cli, tmp_spec, tmp_path, capsys, monkeypatch
    ):
        quadratic = str(tmp_path / "q.system.json")
        fields = dict(kind="quadratic", n=2, B="1", kMax=3)
        assert cli(["build", tmp_spec(**fields), "-o", quadratic]).exit_code == 0
        assert main(["verify", quadratic], standalone_mode=False) == 0
        monkeypatch.setattr(cli_module, "analytic_targets", lambda spec: (F(2), F(3)))
        assert main(["verify", quadratic], standalone_mode=False) == 1
        with pytest.raises(SystemExit) as exited:
            main(["verify", quadratic])
        assert exited.value.code == 1
        assert "NO" in capsys.readouterr().out


def argparse_read(argv: list[str]):
    """The command and keyword arguments the argparse parser reads from argv."""
    args = vars(argparse_parser().parse_args(argv))
    args.pop("parser")
    return args.pop("run"), args


def read_by(parse, argv: list[str]):
    """What parse(argv) returns, or the code it exits with, with the first line
    it prints to stdout (the usage line of --help) and all it prints to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            read, code = parse(argv), None
        except SystemExit as exc:
            read, code = None, exc.code
    return read, code, out.getvalue().partition("\n")[0], err.getvalue()


class TestArgparseOracle:
    """`cli._parse` reads every argv as the argparse parser it replaced: the
    same command and keyword arguments, or the same exit code and stderr bytes,
    and the same usage line heading --help."""

    CORPUS = [
        *(args for args, _ in BAD_ARGUMENTS),
        # each command's success shapes, options before and after the positional
        ["build", "{spec}", "-o", "{out}"],
        ["build", "-o", "{out}", "{spec}"],
        ["validate", "{system}"],
        ["profile", "{system}"],
        ["profile", "--kmax", "3", "-o", "{out}", "{system}"],
        ["estimate", "{system}", "--k", "1"],
        ["estimate", "--k", "1", "--m", "2", "--eps", "1/3", "-o", "{out}", "{system}"],
        ["verify", "{system}"],
        ["verify", "--kmax", "5", "{system}"],
        # --opt=value, -oPATH, repeated options and "--"
        ["build", "{spec}", "--out={out}"],
        ["build", "{spec}", "-o{out}"],
        ["profile", "{system}", "--kmax=3", "--out", "{out}"],
        ["estimate", "{system}", "--k=2", "--m=4", "--eps=1/3", "--out={out}"],
        ["estimate", "--eps=-1/2", "--k", "1", "{system}"],
        ["verify", "{system}", "--kmax", "5", "--kmax", "7"],
        ["estimate", "--k", "1", "--k", "2", "{system}", "-o{dir}/a", "-o", "{out}"],
        ["profile", "-o{dir}", "-o", "{out}", "{system}"],  # each value is checked
        ["verify", "--", "{system}"],
        ["build", "-o", "{out}", "--", "{spec}"],
        ["verify", "--kmax", "4", "--", "{system}"],
        ["verify", "{system}", "--"],
        ["verify", "{system}", "--", "--kmax", "3"],
        ["verify", "{system}", "--kmax", "3", "--"],
        ["--", "verify", "{system}"],
        ["--"],
        # --help at each position
        ["--help"],
        ["--help", "verify"],
        ["--help", "check"],
        ["build", "--help"],
        ["build", "--help", "-o"],
        ["validate", "--help"],
        ["profile", "{system}", "--kmax", "3", "--help"],
        ["estimate", "{system}", "--k", "1", "--help"],
        ["verify", "--help", "{missing}"],
        ["verify", "{missing}", "--help"],
        ["verify", "--help=x"],
        ["--help=x"],
        # values that look like options, missing values, and stray arguments
        ["estimate", "{system}", "--k", "-1"],
        ["estimate", "{system}", "--k", "1", "--eps", "-1/2"],
        ["estimate", "{system}", "--k", "1", "--m", "x"],
        ["estimate", "{system}", "--k", "--m", "2"],
        ["verify", "{system}", "--kmax"],
        ["estimate"],
        ["profile", "{system}", "-o"],
        ["verify", "{system}", "--kma"],
        ["verify", "{system}", "{system}"],
        ["verify", "{system}", "-o", "{out}"],
        ["verify", "-x", "{system}"],
        ["estimate", "{system}", "--k", "1", "-h"],
        ["--bogus"],
        ["--bogus", "verify", "{system}"],
        ["check"],
        ["Verify", "{system}"],
    ]

    @pytest.mark.parametrize("args", CORPUS, ids=lambda args: " ".join(args) or "(none)")
    def test_reads_as_argparse_did(self, tmp_spec, tmp_path, geometric_file, monkeypatch, args):
        # argparse wraps a usage line to the terminal's width, and mmdim never
        # does; at 80 columns every usage line fits on one
        monkeypatch.setenv("COLUMNS", "80")
        paths = dict(missing=str(tmp_path / "missing.json"), dir=str(tmp_path),
                     spec=tmp_spec(kind="identity", n=2), system=geometric_file,
                     out=str(tmp_path / "out"))
        argv = [arg.format(**paths) for arg in args]
        ours, theirs = read_by(cli_module._parse, argv), read_by(argparse_read, argv)
        assert ours == theirs


class TestCollector:
    """A standalone main owns its process: it runs the command with the cyclic
    collector off and exits with every object frozen; an in-process caller
    keeps its collector as it was."""

    COMMANDS = {"success": (["verify", "{system}"], 0),
                "usage error": (["estimate", "{system}", "--k", "1", "--eps", "0"], 2)}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_standalone_main_exits_with_the_collector_off_and_frozen(
        self, geometric_file, capsys, command
    ):
        args, code = self.COMMANDS[command]
        with pytest.raises(SystemExit) as exited:
            main([arg.format(system=geometric_file) for arg in args])
        assert exited.value.code == code
        assert not gc.isenabled()
        assert gc.get_freeze_count() > 0

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_in_process_main_keeps_the_callers_collector(
        self, cli, geometric_file, command, enabled
    ):
        args, code = self.COMMANDS[command]
        (gc.enable if enabled else gc.disable)()  # after geometric_file's own run of main
        before = gc.isenabled(), gc.get_freeze_count()
        assert cli([arg.format(system=geometric_file) for arg in args]).exit_code == code
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_cyclic_garbage_does_not_grow_with_work(self, cli, tmp_spec, tmp_path):
        # the premise of turning the collector off: a command leaves it nothing,
        # at every size of work
        files = {}
        for name, fields in {"square": dict(kind="geometric", n=2, B="1", r="1", kMax=3),
                             "square1": dict(kind="geometric", n=2, B="1", r="1", kMax=1),
                             "two_block": dict(kind="two_block", n=2, alpha="2/3", beta="1",
                                               kMax=30)}.items():
            files[name] = str(tmp_path / f"{name}.system.json")
            spec = tmp_spec(f"{name}.json", **fields)
            assert cli(["build", spec, "-o", files[name]]).exit_code == 0
        pairs = [(["estimate", files["square"], "--k", "1", "--m", "2"],
                  ["estimate", files["square"], "--k", "1", "--m", "3"]),
                 (["verify", files["two_block"], "--kmax", "4"],
                  ["verify", files["two_block"], "--kmax", "30"]),
                 (["validate", files["square1"]], ["validate", files["square"]])]
        gc.disable()
        for pair in pairs:
            found = []
            for args in pair:
                gc.collect()
                assert cli(args).exit_code == 0
                found.append(gc.collect())
            assert found == [0, 0], pair


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with one line, not 1."""

    @pytest.mark.parametrize(
        "args",
        [
            ["build", "{spec}", "-o", "{out}"],
            ["profile", "{system}", "-o", "{out}"],
            ["estimate", "{system}", "--k", "1", "--m", "2", "-o", "{out}"],
        ],
    )
    def test_exits_2_with_one_line(self, cli, tmp_spec, tmp_path, geometric_file, args):
        out = str(tmp_path / "no-such-dir" / "out")
        paths = dict(spec=tmp_spec(kind="identity", n=2), system=geometric_file, out=out)
        result = cli([arg.format(**paths) for arg in args])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"cannot write {out}: No such file or directory\n"
        assert result.stdout == ""


class TestUnreadableInput:
    """An input file that exists but cannot be read is a spec error: the
    command's usage and one line naming the file, and exit 2, not a
    traceback and exit 1, which only a failed verification gives."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="no /proc/self/mem")
    @pytest.mark.parametrize("args", [["verify", "{path}"], ["build", "{path}", "-o", "{out}"]])
    def test_an_io_error_exits_2(self, cli, tmp_path, args):
        # reading a process's own memory from offset 0, which no mapping
        # covers, fails with EIO
        out = tmp_path / "out.json"
        result = cli([arg.format(path="/proc/self/mem", out=out) for arg in args])
        assert result.exit_code == 2, result.output
        usage, error = result.stderr.splitlines()
        assert usage.startswith(f"Usage: mmdim {args[0]} ")
        assert error == f"mmdim {args[0]}: error: cannot read /proc/self/mem: Input/output error"
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["build", "{spec}", "-o", "{out}"],
        ["verify", "{system}"],
        ["validate", "{system}"],
        ["profile", "{system}"],
        ["estimate", "{system}", "--k", "1"],
    ])
    def test_permission_denied_exits_2(self, cli, tmp_spec, tmp_path, geometric_file,
                                       monkeypatch, args):
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        paths = dict(spec=tmp_spec(kind="identity", n=2), system=geometric_file,
                     out=str(tmp_path / "out.json"))
        monkeypatch.setattr(specfile, "open", denied, raising=False)
        result = cli([arg.format(**paths) for arg in args])
        assert result.exit_code == 2, result.output
        path = paths["spec" if args[0] == "build" else "system"]
        assert result.stderr.splitlines()[1] == (
            f"mmdim {args[0]}: error: cannot read {path}: Permission denied")
        assert result.stdout == ""
        assert not os.path.exists(paths["out"])


class TestClosedStdout:
    """A stdout whose reader has gone is an output that cannot be written: one
    line and exit 2, not a traceback and exit 1, which only a failed
    verification gives; and the interpreter's exit reports nothing more."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "{system}"],
            ["profile", "{system}"],
            ["profile", "{system}", "--kmax", "1000"],
            ["estimate", "{system}", "--k", "1", "--m", "2"],
            ["--help"],
        ],
    )
    def test_exits_2_with_one_line(self, geometric_file, args, buffered):
        src = str(Path(mmdim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)  # closed before the child writes
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mmdim.cli",
                 *(arg.format(system=geometric_file) for arg in args)],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (2, "cannot write stdout: Broken pipe\n")


SCAN_ONLY_MODULES = {"mpmath", "mmdim.estimators"}
# only validate and estimate build a horseshoe
GEOMETRY_MODULES = {"mmdim.horseshoe", "mmdim.mapping"}


def modules_loaded_by(argv: list[str], program=("-m", "mmdim.cli")) -> set[str]:
    """Every module `python -m mmdim.cli <argv>` imports, from -X importtime."""
    src = str(Path(mmdim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-X", "importtime", *program, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.fixture(scope="class")
def loaded_modules(tmp_path_factory) -> dict[str, set[str]]:
    """The modules each of the five commands loads, on the geometric square."""
    root = tmp_path_factory.mktemp("imports")
    spec, system = str(root / "spec.json"), str(root / "system.json")
    Path(spec).write_text(canonical_dumps(dict(kind="geometric", n=2, B="1", r="1", kMax=3)))
    commands = {"build": ["build", spec, "-o", system], "verify": ["verify", system],
                "profile": ["profile", system, "--kmax", "30"], "validate": ["validate", system],
                "estimate": ["estimate", system, "--k", "1", "--m", "2"]}
    return {name: modules_loaded_by(argv) for name, argv in commands.items()}


class TestImports:
    def test_symbolic_commands_load_no_scan_layers(self, loaded_modules):
        for command in ("build", "verify", "profile"):
            loaded = loaded_modules[command]
            assert "mmdim.symbolic" in loaded, command
            assert not loaded & SCAN_ONLY_MODULES, command
        # the listing sees a module loaded inside a command
        assert "mmdim.estimators" in loaded_modules["estimate"]

    def test_only_validate_loads_the_validator(self, loaded_modules):
        # estimate builds horseshoes too, but never checks them
        assert len(loaded_modules) == 5
        for command, loaded in loaded_modules.items():
            assert ("mmdim.validation" in loaded) == (command == "validate"), command

    def test_no_command_loads_a_metrics_module(self, loaded_modules):
        # orbits_separate, the one function mmdim.metrics held, is in estimators
        assert len(loaded_modules) == 5
        for command, loaded in loaded_modules.items():
            assert "mmdim.metrics" not in loaded, command

    def test_symbolic_commands_load_no_geometry_layers(self, loaded_modules):
        # compiling horseshoe and mapping cost each symbolic command about 8 ms
        for command in ("build", "verify", "profile"):
            assert not loaded_modules[command] & GEOMETRY_MODULES, command
        for command in ("validate", "estimate"):
            assert GEOMETRY_MODULES <= loaded_modules[command], command

    def test_no_command_loads_argparse_or_csv(self, loaded_modules):
        # one table parses every command and the profile rows are joined as
        # they are: argparse, with the gettext and locale it loads, cost every
        # command 4-6 ms of CPU
        bare = modules_loaded_by([], program=("-c", "pass"))
        assert len(loaded_modules) == 5
        for command, loaded in loaded_modules.items():
            assert not (loaded - bare) & {"argparse", "gettext", "locale", "_locale", "csv",
                                          "_csv"}, command

    def test_no_command_loads_click(self, loaded_modules):
        assert len(loaded_modules) == 5
        for command, loaded in loaded_modules.items():
            assert not {m for m in loaded if m.partition(".")[0] == "click"}, command

    def test_no_command_loads_dataclasses(self, loaded_modules):
        # records are NamedTuples: dataclasses, with the inspect it imports,
        # cost every command about 30 ms of start-up
        bare = modules_loaded_by([], program=("-c", "pass"))
        for command, loaded in loaded_modules.items():
            assert "dataclasses" not in loaded, command
            assert "inspect" not in loaded - bare, command
