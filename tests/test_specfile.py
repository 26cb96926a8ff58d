"""Tests for spec parsing, canonical system files, and CSV export."""

import copy
import csv
import io
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mmdim.constructions import (
    ACTIVE_SELF_POWERS,
    UNIT,
    Chart,
    ScheduleError,
    StackedSystem,
    System,
)
from mmdim.estimators import NumericRateRow, mdim_numeric_profile
from mmdim.specfile import (
    PROFILE_COLUMNS,
    SpecFileError,
    SystemSpec,
    analytic_targets,
    build_system,
    build_two_block,
    canonical_dumps,
    load_system,
    numeric_csv_rows,
    read_json,
    spec_parts,
    symbolic_csv_rows,
    system_to_jsonable,
    write_profile_csv,
)
from mmdim.symbolic import rate_profile
from system_maps import two_block_spec, unit_system

F = Fraction

GEOMETRIC_SPEC = {"kind": "geometric", "n": 2, "B": "1", "r": "1", "kMax": 3}


class TestSystemSpecParsing:
    def test_geometric(self):
        spec = SystemSpec.from_jsonable(GEOMETRIC_SPEC)
        assert (spec.kind, spec.n, spec.B, spec.r, spec.k_max) == (
            "geometric", 2, 1, 1, 3,
        )
        assert spec.alpha is None

    def test_quadratic(self):
        spec = SystemSpec.from_jsonable({"kind": "quadratic", "n": 3, "B": "1/2", "kMax": 5})
        assert spec.B == F(1, 2) and spec.r is None

    def test_sparse_with_and_without_rate(self):
        with_r = SystemSpec.from_jsonable(
            {"kind": "sparse", "n": 2, "B": "1", "r": "2", "kMax": 4}
        )
        assert with_r.r == 2
        without = SystemSpec.from_jsonable(
            {"kind": "sparse", "n": 2, "B": "1", "kMax": 4}
        )
        assert without.r is None

    def test_two_block(self):
        spec = SystemSpec.from_jsonable(
            {"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 6}
        )
        assert (spec.alpha, spec.beta) == (F(2, 3), 1)

    def test_identity(self):
        spec = SystemSpec.from_jsonable({"kind": "identity", "n": 4})
        assert spec.k_max is None

    @pytest.mark.parametrize(
        "mutation,needle",
        [
            ({"kind": "cubic"}, "kind"),
            ({"bogus": 1}, "bogus"),
            ({"n": None}, "n"),
            ({"n": 1}, "n"),
            ({"n": True}, "n"),
            ({"B": 1}, "p/q"),
            ({"B": "one"}, "B"),
            ({"kMax": "3"}, "kMax"),
            # every block has L_k = 3^k: a leg override is refused whatever its value
            ({"legScheduleOverride": {}}, "'legScheduleOverride' do not apply"),
            ({"legScheduleOverride": {"2": 4}}, "'legScheduleOverride' do not apply"),
            ({"legScheduleOverride": {"x": 5}}, "'legScheduleOverride' do not apply"),
            ({"alpha": "1"}, "alpha"),
            ({"legScheduleOverride": {"1": 5, "01": 7}}, "'legScheduleOverride' do not apply"),
            ({"legScheduleOverride": {"2": 5}}, "'legScheduleOverride' do not apply"),
        ],
    )
    def test_rejections_name_the_field(self, mutation, needle):
        data = dict(GEOMETRIC_SPEC, **mutation)
        data = {k: v for k, v in data.items() if v is not None}
        with pytest.raises(SpecFileError, match=needle):
            SystemSpec.from_jsonable(data)

    def test_rate_on_quadratic_gets_a_hint(self):
        with pytest.raises(SpecFileError, match="no rate r"):
            SystemSpec.from_jsonable(
                {"kind": "quadratic", "n": 2, "B": "1", "r": "1", "kMax": 3}
            )

    def test_missing_required_fields(self):
        for drop in ("n", "B", "r", "kMax"):
            data = {k: v for k, v in GEOMETRIC_SPEC.items() if k != drop}
            with pytest.raises(SpecFileError, match=drop):
                SystemSpec.from_jsonable(data)

    @pytest.mark.parametrize("data,field", [  # geometric's are test_missing_required_fields'
        pytest.param(data, field, id=f"{data['kind']}-{field}")
        for data, required in (
            ({"kind": "quadratic", "n": 2, "B": "1", "kMax": 4}, ("n", "kMax", "B")),
            ({"kind": "sparse", "n": 2, "B": "1", "r": "1", "kMax": 4}, ("n", "kMax", "B")),
            ({"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 4},
             ("n", "kMax", "alpha", "beta")),
            ({"kind": "identity", "n": 2}, ("n",)),
        )
        for field in required
    ])
    def test_every_kind_names_a_missing_required_field(self, data, field):
        with pytest.raises(SpecFileError, match=f"field '{field}' is required"):
            SystemSpec.from_jsonable({k: v for k, v in data.items() if k != field})

    def test_kmax_is_no_field_of_identity(self):
        # sparse's optional r is test_sparse_with_and_without_rate's
        with pytest.raises(SpecFileError, match="'kMax' do not apply to kind 'identity'"):
            SystemSpec.from_jsonable({"kind": "identity", "n": 2, "kMax": 3})

    @pytest.mark.parametrize(
        "data,needle",
        [
            ({"n": 65}, "'n'"),
            ({"kMax": 4001}, "kMax"),
            ({"r": "4001"}, "rate r"),
            ({"kMax": 2500, "r": "3"}, "digits"),
            ({"kind": "quadratic", "r": None, "kMax": 3, "B": "1/1" + "0" * 4001}, "digits"),
            ({"kind": "quadratic", "r": None, "kMax": 4500}, "kMax"),
            ({"kind": "two_block", "B": None, "r": None, "alpha": "1/10000", "beta": "1"},
             "'alpha'"),
            ({"kind": "two_block", "B": None, "r": None, "alpha": "1/2000", "beta": "1/1000",
              "kMax": 10}, "'beta'"),
        ],
    )
    def test_sizes_that_would_blow_up_are_rejected(self, data, needle):
        data = {k: v for k, v in dict(GEOMETRIC_SPEC, **data).items() if v is not None}
        with pytest.raises(SpecFileError, match=needle):
            SystemSpec.from_jsonable(data)

    @pytest.mark.parametrize(
        "data",
        [
            GEOMETRIC_SPEC | {"kMax": 60, "B": "5/4"},
            GEOMETRIC_SPEC | {"kMax": 20, "r": "4"},
            {"kind": "quadratic", "n": 2, "B": "3/7", "kMax": 200},
            {"kind": "sparse", "n": 3, "B": "1", "kMax": 50},
            {"kind": "two_block", "n": 2, "alpha": "1/2", "beta": "2", "kMax": 40},
        ],
    )
    def test_digit_estimate_bounds_the_stored_rationals(self, data):
        from mmdim.specfile import _stored_digits

        spec = SystemSpec.from_jsonable(data)
        text = canonical_dumps(system_to_jsonable(build_system(spec), spec))
        longest = max(len(part) for part in re.findall(r"\d+", text))
        estimate = max(_stored_digits(part.B, part.r, part.k_max)
                       for _, part, _ in spec_parts(spec))
        assert longest <= estimate

    def test_non_object_rejected(self):
        with pytest.raises(SpecFileError, match="JSON object"):
            SystemSpec.from_jsonable([1, 2])

    @pytest.mark.parametrize(
        "data",
        [
            GEOMETRIC_SPEC,
            {"kind": "quadratic", "n": 2, "B": "1", "kMax": 4},
            {"kind": "sparse", "n": 2, "B": "1", "r": "1", "kMax": 9},
            {"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 6},
            {"kind": "identity", "n": 2},
        ],
    )
    def test_jsonable_round_trip(self, data):
        spec = SystemSpec.from_jsonable(data)
        assert SystemSpec.from_jsonable(spec.to_jsonable()) == spec


class TestSpecParts:
    @pytest.mark.parametrize("target, n, r", [(1, 2, 1), (1, 3, 2), (F(1, 2), 2, 3),
                                              (F(2, 3), 2, 2)])
    def test_a_target_below_n_sets_the_rate_n_over_target_minus_1(self, target, n, r):
        # alpha = beta: both corners carry the one dense system
        dense = SystemSpec("geometric", n, F(1), r, 4)
        assert [(part, field) for _, part, field in
                build_two_block(two_block_spec(target, target, n, 4))] == [
            (dense, "beta"), (dense, "alpha")]

    def test_the_full_dimension_goes_quadratic(self):
        (_, lower, _), (_, upper, _) = build_two_block(two_block_spec(1, 2, 2, 4))
        assert lower == SystemSpec("sparse", 2, F(1), None, 4)
        assert upper == SystemSpec("geometric", 2, F(1), 1, 4)
        ((_, both, _), _) = build_two_block(two_block_spec(2, 2, 2, 4))
        assert both == SystemSpec("quadratic", 2, F(1), None, 4)

    def test_corners_and_zero_targets(self):
        half = F(1, 2)
        assert [chart for chart, _, _ in build_two_block(two_block_spec(F(2, 3), 1, 2, 4))] == [
            Chart(0, half), Chart(half, half)]
        # alpha = 0: the upper corner is the identity, so no part
        ((chart, lower, field),) = build_two_block(two_block_spec(0, 1, 2, 4))
        assert (chart, lower.kind, field) == (Chart(0, half), "sparse", "beta")
        assert build_two_block(two_block_spec(0, 0, 2, 4)) == []

    def test_stacked_and_identity_specs(self):
        geometric = SystemSpec.from_jsonable(GEOMETRIC_SPEC)
        assert spec_parts(geometric) == [(UNIT, geometric, "r")]
        quadratic = SystemSpec.from_jsonable({"kind": "quadratic", "n": 2, "B": "1", "kMax": 2})
        assert spec_parts(quadratic) == [(UNIT, quadratic, None)]
        assert spec_parts(SystemSpec.from_jsonable({"kind": "identity", "n": 2})) == []


class TestBuildSystem:
    def test_kinds(self):
        ((chart, part),) = build_system(SystemSpec.from_jsonable(GEOMETRIC_SPEC)).parts
        assert chart == UNIT and isinstance(part, StackedSystem)
        ident = build_system(SystemSpec.from_jsonable({"kind": "identity", "n": 2}))
        assert ident == System(2, ())
        two = build_system(
            SystemSpec.from_jsonable(
                {"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 4}
            )
        )
        assert [chart for chart, _ in two.parts] == [Chart(0, F(1, 2)), Chart(F(1, 2), F(1, 2))]

    def test_sparse_kinds_set_activity(self):
        geo = build_system(
            SystemSpec.from_jsonable({"kind": "sparse", "n": 2, "B": "1", "r": "1", "kMax": 5})
        )
        assert geo.parts[0][1].schedule.active == ACTIVE_SELF_POWERS
        assert geo.parts[0][1].schedule.kind == "geometric"
        quad = build_system(
            SystemSpec.from_jsonable({"kind": "sparse", "n": 2, "B": "1", "kMax": 5})
        )
        assert quad.parts[0][1].schedule.kind == "quadratic"


class TestAnalyticTargets:
    def test_all_kinds(self):
        def targets(data):
            return analytic_targets(SystemSpec.from_jsonable(data))

        assert targets({"kind": "identity", "n": 3}) == (0, 0)
        assert targets({"kind": "geometric", "n": 2, "B": "1", "r": "1", "kMax": 2}) == (1, 1)
        assert targets({"kind": "geometric", "n": 3, "B": "1", "r": "2", "kMax": 2}) == (1, 1)
        assert targets({"kind": "quadratic", "n": 2, "B": "1", "kMax": 2}) == (2, 2)
        assert targets({"kind": "sparse", "n": 2, "B": "1", "r": "1", "kMax": 4}) == (0, 1)
        assert targets({"kind": "sparse", "n": 3, "B": "1", "kMax": 4}) == (0, 3)
        two = {"kind": "two_block", "n": 2, "alpha": "1/2", "beta": "1", "kMax": 4}
        assert targets(two) == (F(1, 2), 1)


class TestCanonicalJson:
    def test_dumps_form(self):
        s = canonical_dumps({"b": 1, "a": [1, 2]})
        assert s == '{"a":[1,2],"b":1}\n'

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(canonical_dumps({"z": "1/3", "a": 2}))
        assert read_json(path) == {"a": 2, "z": "1/3"}

    def test_read_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecFileError, match="not valid JSON"):
            read_json(path)


class TestLoadSystem:
    def build_payload(self, data=GEOMETRIC_SPEC):
        spec = SystemSpec.from_jsonable(data)
        return system_to_jsonable(build_system(spec), spec)

    def test_round_trip_is_byte_identical(self):
        payload = self.build_payload()
        spec, system = load_system(payload)
        assert canonical_dumps(system_to_jsonable(system, spec)) == canonical_dumps(payload)

    def test_round_trip_other_kinds(self):
        for data in [
            {"kind": "identity", "n": 3},
            {"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 4},
            {"kind": "sparse", "n": 2, "B": "1", "r": "1", "kMax": 6},
        ]:
            payload = self.build_payload(data)
            spec, system = load_system(payload)
            assert system_to_jsonable(system, spec) == payload

    def test_bad_format_rejected(self):
        payload = self.build_payload()
        payload["format"] = "mmdim-system/99"
        with pytest.raises(SpecFileError, match="format"):
            load_system(payload)

    def test_missing_sections_rejected(self):
        payload = self.build_payload()
        del payload["systems"]
        with pytest.raises(SpecFileError, match="'spec', 'parts' and 'systems'"):
            load_system(payload)
        with pytest.raises(SpecFileError, match="JSON object"):
            load_system("nope")

    def test_tampered_geometry_rejected(self):
        payload = self.build_payload()
        payload["systems"][0]["blocks"][1]["side"] = "1/7"
        with pytest.raises(SpecFileError, match="does not match"):
            load_system(payload)

    @pytest.mark.parametrize("field, value", [("parts", 0.0), ("active", 1), ("parts", False)])
    def test_values_equal_only_under_python_eq_rejected(self, field, value):
        # the one part names system 0 and block 1 stores active true; Python's
        # == takes these for them
        payload = self.build_payload()
        if field == "parts":
            payload["parts"][0] = value
        else:
            payload["systems"][0]["blocks"][0][field] = value
        with pytest.raises(SpecFileError, match="does not match"):
            load_system(payload)



class TestCsvExport:
    def test_symbolic_rows(self, geometric_system):
        rows = symbolic_csv_rows(rate_profile(unit_system(geometric_system), [1, 2]))
        assert [set(r) for r in rows] == [set(PROFILE_COLUMNS)] * 2
        first = rows[0]
        assert first["k"] == "1" and first["source"] == "symbolic"
        assert first["eps_exact"] == "1/15"
        assert first["eps_float"] == format(1 / 15, ".12g")
        assert float(first["lower_ratio"]) == pytest.approx(
            rate_profile(unit_system(geometric_system), [1])[0].lower_ratio(), abs=1e-12
        )

    def test_identity_rows_leave_eps_blank(self):
        rows = symbolic_csv_rows(rate_profile(System(2, ()), [1]))
        assert rows[0]["eps_exact"] == "" and rows[0]["eps_float"] == ""
        assert rows[0]["lower_ratio"] == "0"

    def test_numeric_rows(self, geometric_system):
        rows = numeric_csv_rows([mdim_numeric_profile(unit_system(geometric_system), 1, m_max=2)])
        assert rows[0]["source"] == "numeric"
        assert rows[0]["eps_exact"] == "1/15"
        assert float(rows[0]["lower_rate"]) > 0
        assert rows[0]["lower_rate"] == rows[0]["upper_rate"]

    def test_numeric_error_row_blanks_values(self):
        row = NumericRateRow(3, F(1, 459), {}, {}, {}, error="budget")
        out = numeric_csv_rows([row])[0]
        assert out["k"] == "3" and out["eps_exact"] == "1/459"
        assert out["lower_rate"] == out["lower_ratio"] == ""

    def test_write_profile_csv(self, geometric_system):
        buf = io.StringIO()
        rows = symbolic_csv_rows(rate_profile(unit_system(geometric_system), [1, 2, 3]))
        write_profile_csv(buf, rows)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(PROFILE_COLUMNS)
        assert len(lines) == 4
        parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert [r["k"] for r in parsed] == ["1", "2", "3"]

    def test_write_profile_csv_writes_the_csv_modules_bytes(self, geometric_system):
        # the standard library's writer is the oracle: every kind of row, an
        # identity row's and an error row's empty fields included, needs no quoting
        profile = rate_profile(unit_system(geometric_system), range(1, 31))
        rows = (symbolic_csv_rows(profile) + symbolic_csv_rows(rate_profile(System(2, ()), [1]))
                + numeric_csv_rows([mdim_numeric_profile(unit_system(geometric_system), 1, 2),
                                    NumericRateRow(3, F(1, 459), {}, {}, {}, error="budget")]))
        ours, theirs = io.StringIO(), io.StringIO()
        write_profile_csv(ours, rows)
        writer = csv.DictWriter(theirs, fieldnames=PROFILE_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        assert ours.getvalue() == theirs.getvalue()


FUZZ_SPECS = [
    GEOMETRIC_SPEC,
    {"kind": "quadratic", "n": 2, "B": "1", "kMax": 3},
    {"kind": "sparse", "n": 2, "B": "1", "r": "1", "kMax": 4},
    {"kind": "sparse", "n": 2, "B": "1/2", "kMax": 4},
    {"kind": "geometric", "n": 3, "B": "1", "r": "2", "kMax": 2},
    {"kind": "two_block", "n": 2, "alpha": "2/3", "beta": "1", "kMax": 5},
    {"kind": "two_block", "n": 2, "alpha": "0", "beta": "2", "kMax": 4},
    {"kind": "identity", "n": 2},
]
FUZZ_SYSTEMS = [
    system_to_jsonable(build_system(spec), spec)
    for spec in map(SystemSpec.from_jsonable, FUZZ_SPECS)
]
JUNK = [
    True, False, None, 0, -1, 3, 4000, 10**30, -(2**63), 1.5, [], [[[]]], {}, {"2": 5},
    "", "x", "0", "-1", "1/2", "3", "1/0", "0.25", "1e-5000", "1e10000000", "mmdim-system/1",
]


@st.composite
def mutated(draw, payloads):
    """A valid payload with one to three fields deleted or swapped for junk."""
    data = copy.deepcopy(draw(st.sampled_from(payloads)))
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, data
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        junk = copy.deepcopy(draw(st.sampled_from(JUNK)))
        if parent is None:
            data = junk
        elif draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = junk
    return data


def loads_or_rejects(parse, payload):
    t0 = time.perf_counter()
    try:
        parse(payload)
    except (SpecFileError, ScheduleError):
        pass
    assert time.perf_counter() - t0 < 2.0


class TestFuzz:
    """Every spec or system payload loads or is rejected, and quickly."""

    @settings(max_examples=300, deadline=None)
    @given(mutated(FUZZ_SPECS))
    @example(GEOMETRIC_SPEC | {"B": "1e-5000"})
    @example(GEOMETRIC_SPEC | {"B": "1e10000000"})
    def test_spec_parser(self, payload):
        loads_or_rejects(SystemSpec.from_jsonable, payload)

    @settings(max_examples=300, deadline=None)
    @given(mutated(FUZZ_SYSTEMS))
    @example(FUZZ_SYSTEMS[0] | {"spec": GEOMETRIC_SPEC | {"B": "1e-5000"}})
    def test_system_loader(self, payload):
        loads_or_rejects(load_system, payload)
