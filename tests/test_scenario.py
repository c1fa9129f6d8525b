from __future__ import annotations

import functools
import importlib.util
import json

import pytest

from migsim.scenario import ConfigError, load_file, parse, parse_ticks, serialize

from conftest import SCENARIO_DIR, scenario_path

ROOT = SCENARIO_DIR.parent
BENCH_SCENARIO_DIR = ROOT / "bench" / "scenarios"
SHIPPED = sorted(SCENARIO_DIR.glob("*.json")) + sorted(BENCH_SCENARIO_DIR.glob("*.json"))


class TestTickSugar:
    def test_plain_ticks(self):
        assert parse_ticks(90) == 90

    def test_minutes_hours_days(self):
        assert parse_ticks("90m") == 90
        assert parse_ticks("10h") == 600
        assert parse_ticks("3d") == 4320

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_ticks("10 fortnights")
        with pytest.raises(ConfigError):
            parse_ticks(True)


@functools.cache
def _load_script(relpath: str):
    """Import a generator script without running its `main()`, which writes files."""
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(f"{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Every shipped scenario file, as the builder call that generates it.
GENERATORS = [
    ("scripts/gen_scenarios.py", "default", ()),
    ("scripts/gen_scenarios.py", "small", ()),
    ("scripts/gen_scenarios.py", "ramp_pair", ("drained",)),
    ("scripts/gen_scenarios.py", "ramp_pair", ("forced",)),
    ("scripts/gen_scenarios.py", "resurrection", ()),
    ("scripts/gen_scenarios.py", "catchall", ()),
    ("scripts/gen_scenarios.py", "mapping_bug", ()),
    ("scripts/gen_scenarios.py", "reshape", ()),
    ("scripts/gen_scenarios.py", "queue_bootstrap", ()),
    ("bench/gen_scenarios.py", "paper_default", ()),
    ("bench/gen_scenarios.py", "live_churn", (1,)),
    ("bench/gen_scenarios.py", "reshape_queue", (1,)),
]


class TestRoundTrip:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_shipped_scenarios_round_trip_byte_identical(self, path):
        text = path.read_text(encoding="utf-8")
        scenario = parse(text)
        assert serialize(scenario) == text
        assert serialize(parse(serialize(scenario))) == serialize(scenario)

    @pytest.mark.parametrize(
        "script,builder,args", GENERATORS, ids=[f"{b}{list(a) or ''}" for _, b, a in GENERATORS]
    )
    def test_generators_reproduce_shipped_files(self, script, builder, args):
        module = _load_script(script)
        scenario = getattr(module, builder)(*args)
        path = module.OUT / f"{scenario.name}.json"
        assert serialize(scenario) == path.read_text(encoding="utf-8")

    def test_generators_cover_every_shipped_file(self):
        built = set()
        for script, builder, args in GENERATORS:
            module = _load_script(script)
            built.add(module.OUT / f"{getattr(module, builder)(*args).name}.json")
        assert built == set(SHIPPED)


class TestValidation:
    def _doc(self) -> dict:
        return json.loads(scenario_path("small").read_text())

    def test_not_json(self):
        with pytest.raises(ConfigError):
            parse("not json {")

    def test_cycle_in_schema(self):
        doc = self._doc()
        doc["schema"]["types"] = [
            {"name": "a", "parents": ["b"]},
            {"name": "b", "parents": ["a"]},
        ]
        with pytest.raises(ConfigError, match="cycle"):
            parse(json.dumps(doc))

    def test_unknown_burst_type(self):
        doc = self._doc()
        doc["workload"]["bursts"] = [{"at": 5, "size": 10, "type": "ghost"}]
        with pytest.raises(ConfigError, match="burst"):
            parse(json.dumps(doc))

    def test_bad_availability(self):
        doc = self._doc()
        doc["fault"]["availability_p"] = 0.0
        with pytest.raises(ConfigError, match="fault"):
            parse(json.dumps(doc))

    def test_overlapping_outages(self):
        doc = self._doc()
        doc["fault"]["outage_windows"] = [[0, 10], [5, 15]]
        with pytest.raises(ConfigError, match="overlap"):
            parse(json.dumps(doc))

    def test_ramp_past_duration(self):
        doc = self._doc()
        doc["ramp"]["enabled"] = True
        doc["ramp"]["time"] = doc["duration"] + 1
        with pytest.raises(ConfigError, match="ramp"):
            parse(json.dumps(doc))

    def test_bug_names_unknown_rule(self):
        doc = self._doc()
        doc["bug"] = {
            "rule": "ghost_rule", "etype": "candidate", "id_mod": 2, "id_rem": 0,
            "active_from": 0, "active_until": 10,
        }
        with pytest.raises(ConfigError, match="bug"):
            parse(json.dumps(doc))

    def test_load_file(self):
        scenario = load_file(scenario_path("small"))
        assert scenario.name == "small"
        assert scenario.workload.initial_records == 500


def _full_doc() -> dict:
    """small.json plus a burst, an outage window and a bug, so every tick field
    is present; the ramp is off, so no tick value set below ends the run early."""
    doc = json.loads(scenario_path("small").read_text())
    doc["workload"]["bursts"] = [{"at": 5, "size": 10, "type": "candidate"}]
    doc["fault"]["outage_windows"] = [[0, 10]]
    doc["bug"] = {
        "rule": "candidate_rule", "etype": "candidate", "id_mod": 2, "id_rem": 0,
        "active_from": 0, "active_until": 10,
    }
    doc["ramp"]["enabled"] = False
    return doc


def _set(doc: dict, path: str, value) -> None:
    """Set a dotted document path; a list on the way means its first item."""
    *outer, last = path.split(".")
    for part in outer:
        doc = doc[part]
        if isinstance(doc, list):
            doc = doc[0]
    doc[last] = value


def _get(scenario, path: str):
    obj = scenario
    for part in path.split("."):
        obj = getattr(obj, part)
        if part == "bursts":
            obj = obj[0]
    return obj


TICK_FIELDS = [
    "duration",
    "workload.day_ticks",
    "workload.writes_until",
    "workload.bursts.at",
    "fault.stream_lag",
    "retry.backoff_base",
    "retry.backoff_cap",
    "bootstrap.at",
    "offline.interval",
    "offline.cutoff",
    "metrics.sample_interval",
    "metrics.ttc_window",
    "metrics.staleness_floor",
    "metrics.staleness_bound_override",
    "ramp.time",
    "ramp.bulk_freeze_lead",
    "ramp.freeze_timeout",
    "ramp.clearance_lead",
    "ramp.max_window_ttc",
    "bug.active_from",
    "bug.active_until",
    "bug.requeue_at",
    "toggles.settle_delay",
    "toggles.shadow_alarm_interval",
]

COUNT_FIELDS = [
    "seed",
    "workload.initial_records",
    "workload.bursts.size",
    "bootstrap.limiter_capacity",
    "retry.max_attempts",
    "retry.rate_limit",
    "ramp.max_queue_length",
    "bug.id_mod",
    "bug.id_rem",
]


class TestCodecContract:
    @pytest.mark.parametrize("path", TICK_FIELDS)
    def test_sugar_normalizes_to_ticks(self, path):
        doc = _full_doc()
        _set(doc, path, "2h")
        assert _get(parse(json.dumps(doc)), path) == 120

    @pytest.mark.parametrize("path", TICK_FIELDS)
    def test_negative_ticks_rejected(self, path):
        doc = _full_doc()
        _set(doc, path, -1)
        with pytest.raises(ConfigError) as info:
            parse(json.dumps(doc))
        assert str(info.value) == f"{path} must be >= 0"

    def test_outage_window_ends_take_sugar(self):
        doc = _full_doc()
        doc["fault"]["outage_windows"] = [["2h", "3h"]]
        assert parse(json.dumps(doc)).fault.outage_windows == ((120, 180),)

    @pytest.mark.parametrize("path", COUNT_FIELDS)
    def test_count_fields_take_no_sugar(self, path):
        doc = _full_doc()
        _set(doc, path, "2h")
        with pytest.raises(ConfigError) as info:
            parse(json.dumps(doc))
        assert str(info.value) == "invalid scenario: invalid literal for int() with base 10: '2h'"

    @pytest.mark.parametrize("bug", [None, {}])
    def test_null_or_empty_bug_means_no_bug(self, bug):
        doc = _full_doc()
        doc["bug"] = bug
        assert parse(json.dumps(doc)).bug is None

    @pytest.mark.parametrize("section", ["workload", "fault", "retry", "schema", "toggles"])
    @pytest.mark.parametrize("value", [None, [], "x"], ids=["null", "list", "string"])
    def test_section_must_be_an_object(self, section, value):
        doc = _full_doc()
        doc[section] = value
        with pytest.raises(ConfigError) as info:
            parse(json.dumps(doc))
        assert str(info.value) == f"{section}: expected an object"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("not json {", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            ("[]", "scenario must be a JSON object"),
        ],
        ids=["not-json", "not-an-object"],
    )
    def test_unreadable_text_messages(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "path,value,message",
        [
            ("workload", None, "workload: expected an object"),
            ("workload.bursts", [5], "workload.bursts: expected an object"),
            ("workload.day_ticks", "2x", "workload.day_ticks: cannot parse '2x' as ticks"),
            ("fault.outage_windows", [[0, "soon"]], "fault.outage_windows: cannot parse 'soon' as ticks"),
            ("duration", True, "duration: expected ticks, got a boolean"),
            ("workload.type_weights", [["project"]], "workload.type_weights: expected a list of 2, got ['project']"),
            ("fault.availability_p", 0.0, "fault: availability_p must be in (0, 1]"),
            ("fault.outage_windows", [[0, 10], [5, 15]], "fault: outage windows must not overlap"),
            ("retry.max_attempts", 0, "retry: max_attempts must be >= 1"),
            ("bootstrap.mode", "lazy", "bootstrap.mode: unknown mode 'lazy'"),
            ("ramp.mode", "lazy", "ramp.mode: unknown mode 'lazy'"),
            ("duration", -1, "duration must be >= 0"),
            ("ramp.bulk_freeze_lead", -1, "ramp.bulk_freeze_lead must be >= 0"),
            ("fault.outage_windows", [[-5, 10]], "fault.outage_windows must be >= 0"),
            ("metrics.sample_interval", 0, "metrics.sample_interval must be > 0"),
            ("offline.interval", 0, "offline.interval must be > 0"),
            ("bug.id_mod", 0, "bug.id_mod must be > 0"),
            ("workload.type_weights", [["ghost", 1.0]], "workload weight for unknown type 'ghost'"),
            ("workload.type_weights", [["project", -1.0]], "type weights must be >= 0"),
            ("workload.write_rate", -1.0, "workload.write_rate must be a finite number >= 0"),
            ("workload.write_rate", float("nan"), "workload.write_rate must be a finite number >= 0"),
            ("workload.read_rate", float("inf"), "workload.read_rate must be a finite number >= 0"),
            ("workload.read_rate", -0.5, "workload.read_rate must be a finite number >= 0"),
            ("workload.night_rate_factor", -1.0, "workload.night_rate_factor must be a finite number >= 0"),
            ("workload.night_rate_factor", float("inf"), "workload.night_rate_factor must be a finite number >= 0"),
            ("workload.delete_types", ["ghost"], "delete_types names unknown type 'ghost'"),
            ("workload.bursts.type", "ghost", "burst targets unknown type 'ghost'"),
            ("bug.rule", "ghost_rule", "bug names unknown rule 'ghost_rule'"),
            ("ramp.enabled", True, "ramp.time is past the end of the run"),
            ("bug", {"etype": "candidate"}, "invalid scenario: 'rule'"),
            ("workload.bursts", [{"at": 5, "size": 10}], "invalid scenario: 'type'"),
            ("schema.types", [{"parents": []}], "invalid scenario: 'name'"),
            ("schema.rules.name", "stage_rule", "schema: rule names must be unique"),
            ("ramp.mdoe", "forced", "ramp.mdoe: unknown key"),
            ("extra", 1, "extra: unknown key"),
            ("schema.typez", [], "schema.typez: unknown key"),
            ("schema.types.parnets", [], "schema.types.parnets: unknown key"),
            ("workload.bursts.sz", 2, "workload.bursts.sz: unknown key"),
        ],
    )
    def test_config_error_messages(self, path, value, message):
        doc = _full_doc()
        doc["duration"] = 100  # below small.json's ramp time, for the ramp case
        _set(doc, path, value)
        with pytest.raises(ConfigError) as info:
            parse(json.dumps(doc))
        assert str(info.value) == message
