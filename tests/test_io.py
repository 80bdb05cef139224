"""Scenario JSON round-trips, schema errors, defaults, hashing, exports."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import DELETE, edit, make_scenario
from dsomarket.casestudy import ASSUMPTIONS
from dsomarket.formulation import build, decode
from dsomarket.model import Scenario
from dsomarket.scenario_io import (
    ParseError,
    ResultBundle,
    SchemaError,
    ValidationError,
    export_results,
    load_scenario,
    load_scenario_with_assumptions,
    save_scenario,
    scenario_from_dict,
    scenario_hash,
    scenario_to_dict,
)
from dsomarket.analysis import compute_revenue
from dsomarket.solver import solve_milp


def test_dict_round_trip_is_lossless(bundled):
    doc = scenario_to_dict(bundled)
    back, applied = scenario_from_dict(doc)
    assert applied == ()
    assert back == bundled


def test_file_round_trip_preserves_hash(bundled, tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(bundled, str(path), assumptions=("documented gap",))
    loaded, assumptions = load_scenario_with_assumptions(str(path))
    assert loaded == bundled
    assert "documented gap" in assumptions
    assert scenario_hash(loaded) == scenario_hash(bundled)


def test_missing_mileage_and_loads_get_defaults(bundled):
    doc = scenario_to_dict(bundled)
    del doc["wholesale"]["mil_up"]
    del doc["wholesale"]["mil_dn"]
    for bus in doc["network"]["buses"]:
        del bus["p_load"], bus["q_load"]
    del doc["regulation_signal"]["s_up"]
    scenario, applied = scenario_from_dict(doc)
    assert scenario.wholesale.mil_up[0] == pytest.approx(
        scenario.wholesale.cap_up[0] / 20.0)
    assert scenario.network.buses[0].p_load == (0.0,) * 24
    assert scenario.regulation.s_up == (1.0,) * 24
    assert any("mil_up" in msg for msg in applied)
    assert any("p_load" in msg for msg in applied)
    assert any("s_up" in msg for msg in applied)


def test_unknown_field_rejected(bundled):
    doc = scenario_to_dict(bundled)
    doc["surprise"] = 1
    with pytest.raises(SchemaError, match="unknown fields"):
        scenario_from_dict(doc)


def test_unknown_nested_field_rejected(bundled):
    doc = scenario_to_dict(bundled)
    doc["network"]["branches"][0]["length_km"] = 1.0
    with pytest.raises(SchemaError, match="unknown fields"):
        scenario_from_dict(doc)


def test_wrong_version_rejected(bundled):
    doc = scenario_to_dict(bundled)
    doc["version"] = 99
    with pytest.raises(SchemaError, match="version"):
        scenario_from_dict(doc)


def test_wrong_type_rejected(bundled):
    doc = scenario_to_dict(bundled)
    doc["wholesale"]["energy"] = "cheap"
    with pytest.raises(SchemaError, match="list of numbers"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("path, value, message", [
    (("horizon", "step_hours"), True, "horizon.step_hours must be a number"),
    (("horizon", "step_hours"), "1", "horizon.step_hours must be a number"),
    (("network", "v_substation"), True,
     "network.v_substation must be a number"),
    (("aggregators", 0, "blocks"), {},
     "aggregators[0].blocks must be a list"),
    (("aggregators", 0, "blocks"), 5, "aggregators[0].blocks must be a list"),
    (("assumptions",), [1, None], "assumptions must be a list of strings"),
    (("version",), True, "unsupported schema version True, expected 1"),
], ids=["step_hours bool", "step_hours string", "v_substation bool",
        "blocks object", "blocks number", "assumptions not strings",
        "version bool"])
def test_malformed_value_rejected(bundled, path, value, message):
    doc = scenario_to_dict(bundled)
    edit(doc, path, value)
    with pytest.raises(SchemaError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == message


class _Count(int):
    """An int subclass, as a caller building a document in code may use."""


def test_number_series_accept_subclasses_and_refuse_bools(bundled):
    # plain ints and floats take a fast path; anything else is checked
    # element by element, as before
    doc = scenario_to_dict(bundled)
    energy = doc["wholesale"]["energy"]
    plain = [float(x) for x in energy]
    energy[0], energy[1] = np.float64(energy[0]), _Count(7)
    plain[1] = 7.0
    parsed, _ = scenario_from_dict(doc)
    assert parsed.wholesale.energy == tuple(plain)
    assert all(type(x) is float for x in parsed.wholesale.energy)
    doc["wholesale"]["energy"] = [1.0, True]
    with pytest.raises(SchemaError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == "wholesale.energy must be a list of numbers"


def _key_paths(node, path=()):
    """Every key path of a document; only the first two items of a list."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node[:2])
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


MUTANTS = ("a", 5, None, [], {}, True, [1, "x"], DELETE)


def test_single_field_mutations_raise_only_schema_errors(bundled):
    """Every one-field corruption of the bundled document either parses or
    raises SchemaError: never another exception."""
    text = json.dumps(scenario_to_dict(bundled, ASSUMPTIONS))
    cases, failures = 0, []
    for path in _key_paths(json.loads(text)):
        for value in MUTANTS:
            doc = json.loads(text)
            edit(doc, path, value)
            cases += 1
            try:
                scenario, _ = scenario_from_dict(doc)
            except SchemaError:
                continue
            except Exception as exc:      # the fault this test looks for
                failures.append(f"{path} = {value!r}: {exc!r}")
                continue
            assert isinstance(scenario, Scenario)
    assert cases > 1000
    assert not failures, "\n".join(failures)


def test_bundled_hash_is_pinned(bundled):
    assert scenario_hash(bundled) == (
        "29bd8148b4fac62dbe842d8b6885923cd80886b25d1ba314483503581eb6c0d0")


def test_unknown_aggregator_type_rejected(bundled):
    doc = scenario_to_dict(bundled)
    doc["aggregators"][0]["type"] = "windmill"
    with pytest.raises(SchemaError, match="drag/esag/evcs/ddgag"):
        scenario_from_dict(doc)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "version": 1,\n  oops\n}\n')
    with pytest.raises(ParseError) as err:
        load_scenario(str(path))
    assert err.value.lineno == 3
    assert "line 3" in str(err.value)


def test_load_rejects_semantically_invalid_scenario(tmp_path):
    s = make_scenario(kinds=("esag",))
    s = replace(s, esags=(replace(s.esags[0], e_init=99.0),))
    path = tmp_path / "invalid.json"
    save_scenario(s, str(path))
    with pytest.raises(ValidationError) as err:
        load_scenario(str(path))
    assert "ESAG_INIT_OUT_OF_RANGE" in err.value.report.codes()


def test_hash_sensitive_to_prices_not_assumptions(bundled):
    base = scenario_hash(bundled)
    bumped = replace(bundled, wholesale=replace(
        bundled.wholesale,
        energy=(99.0,) + bundled.wholesale.energy[1:]))
    assert scenario_hash(bumped) != base
    # assumptions annotate the file, not the scenario content
    doc_a = scenario_to_dict(bundled)
    doc_b = scenario_to_dict(bundled, assumptions=("note",))
    a, _ = scenario_from_dict(doc_a)
    b, _ = scenario_from_dict(doc_b)
    assert scenario_hash(a) == scenario_hash(b)


@pytest.fixture(scope="module")
def solved_bundle():
    scenario = make_scenario(T=2, kinds=("ddgag", "esag"))
    problem = build(scenario)
    solution = solve_milp(problem)
    assert solution.status == "Optimal"
    schedule = decode(scenario, problem, solution.values, solution.status)
    revenue = compute_revenue(schedule, scenario)
    stats = {"status": solution.status, "objective": solution.objective,
             "nodes": solution.nodes_explored, "gap": solution.gap,
             "wall_time_s": None}
    return ResultBundle(scenario=scenario, schedule=schedule, revenue=revenue,
                        stats=stats, input_hash=scenario_hash(scenario))


def test_export_writes_expected_files(solved_bundle, tmp_path):
    out = tmp_path / "results"
    written = export_results(solved_bundle, str(out))
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["network.csv", "revenue.csv", "schedule.csv",
                     "solve.json"]
    header = (out / "schedule.csv").read_text().splitlines()[0]
    assert header == "t,entity,energy_MW,cap_up_MW,cap_dn_MW,charge_MWh,mode"
    stats = json.loads((out / "solve.json").read_text())
    assert stats["status"] == "Optimal"
    assert stats["input_hash"] == solved_bundle.input_hash
    assert stats["wall_time_s"] is None


def test_export_row_counts(solved_bundle, tmp_path):
    out = tmp_path / "results"
    export_results(solved_bundle, str(out))
    s = solved_bundle.scenario
    T = len(s.horizon)
    schedule_rows = (out / "schedule.csv").read_text().splitlines()
    n_entities = len(list(s.aggregators()))
    assert len(schedule_rows) == 1 + T * (1 + n_entities)
    network_rows = (out / "network.csv").read_text().splitlines()
    assert len(network_rows) == 1 + T * (len(s.network.branches)
                                         + len(s.network.buses))
    revenue_rows = (out / "revenue.csv").read_text().splitlines()
    assert len(revenue_rows) == 1 + n_entities + 1
    assert revenue_rows[-1].startswith("dso_wholesale,")


def test_export_is_byte_deterministic(solved_bundle, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    export_results(solved_bundle, str(a))
    export_results(solved_bundle, str(b))
    for name in ("schedule.csv", "network.csv", "revenue.csv", "solve.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_schedule_mode_column_reflects_binaries(bundled, bundled_problem,
                                                tmp_path):
    x = np.zeros(bundled_problem.num_cols)
    schedule = decode(bundled, bundled_problem, x)
    revenue = compute_revenue(schedule, bundled)
    bundle = ResultBundle(scenario=bundled, schedule=schedule,
                          revenue=revenue, stats={},
                          input_hash=scenario_hash(bundled))
    out = tmp_path / "results"
    export_results(bundle, str(out))
    lines = (out / "schedule.csv").read_text().splitlines()
    esag_lines = [l for l in lines if ",esag-1," in l]
    assert len(esag_lines) == 24
    assert all(l.endswith(",0") for l in esag_lines)      # mode column
    evcs_lines = [l for l in lines if ",evcs-1," in l]
    assert all(l.endswith(",0") for l in evcs_lines)      # enable bit
