import json
import math
import time
from dataclasses import fields, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reference_sorites import ref_degree, ref_run_scenario
from soritica.cli import main
from soritica.formulas import Atom, Implies, Index
from soritica.semantics import FALSE, HALF, TRUE, SuperVerdict, eval_super
from soritica.series import EpsSeries, parse_series
from soritica.sorites import (
    BACKENDS,
    SCENARIO_FIELDS,
    BackendUnsupported,
    ChainThroughWitness,
    ClassicalCutoff,
    ConfigError,
    FuzzyMembership,
    KleenePenumbra,
    Nonstandard,
    SoritesScenario,
    Superval,
    Witness,
    _dumps,
    barnes_check,
    doubling_analysis,
    run_conditional,
    run_induction,
    run_scenario,
    scenario_from_dict,
)

F = Fraction


def classical(cutoff=5, lo=1, hi=10):
    return SoritesScenario("classical", lo, hi, ClassicalCutoff(cutoff))


def heap(hi=1000):
    return SoritesScenario(
        "heap",
        1,
        hi,
        Nonstandard(None),
        witnesses=(Witness(parse_series("e^(-1)")),),
    )


def fuzzy_linear():
    return SoritesScenario(
        "fuzzy",
        1,
        100,
        FuzzyMembership(((1, F(1)), (100, F(0)))),
    )


class TestBarnes:
    def test_classical_sharp_boundary_violates_c3(self):
        result = barnes_check(classical())
        assert result.c1 and result.c2 and not result.c3
        assert any("witness 4" in line for line in result.evidence)

    def test_kleene_penumbra_passes(self):
        scenario = SoritesScenario("kleene", 1, 10, KleenePenumbra(4, 7))
        result = barnes_check(scenario)
        assert result.all_pass()

    def test_nonstandard_passes(self):
        result = barnes_check(heap())
        assert result.all_pass()

    def test_fuzzy_passes(self):
        result = barnes_check(fuzzy_linear())
        assert result.all_pass()

    def test_fuzzy_flip_where_s_next_crosses_an_integer(self):
        # S(n) = 1 - n/10 at threshold 2/5: S(n+1) <= 3/5 from n = 3 on, and
        # S(3) = 7/10 >= 2/5, so the first flip is 3, one before S meets 3/5.
        backend = FuzzyMembership(((0, F(1)), (10, F(0))), F(2, 5))
        result = barnes_check(SoritesScenario("fuzzy", 0, 10, backend))
        assert not result.c3
        assert result.evidence[-1].endswith("(witness 3)")

    def test_classical_interior_cutoff_always_fails_c3(self):
        for cutoff in range(2, 10):
            result = barnes_check(classical(cutoff))
            assert not result.c3
            assert result.evidence[-1].endswith(f"(witness {cutoff - 1})")


class TestInduction:
    def test_classical_step_counterexample(self):
        result = run_induction(classical())
        assert result.basis
        assert not result.step_holds
        assert result.step_counterexample == 4

    def test_nonstandard(self):
        result = run_induction(heap())
        assert result.basis
        assert result.step_holds
        assert result.step_counterexample is None
        assert any("~S(e^(-1)): True" in d for d in result.witness_details)

    def test_fuzzy_degrees(self):
        result = run_induction(fuzzy_linear())
        assert result.basis
        assert "degree of S(a_1) = 1" in result.basis_detail
        # min of max((n-1)/99, (99-n)/99): the midpoint step is weakest
        assert "49/99" in result.step_detail

    def test_superval_step_not_supertrue(self):
        scenario = SoritesScenario(
            "superval", 1, 10, Superval((2, 3, 4, 5, 6))
        )
        result = run_induction(scenario)
        assert not result.step_holds
        assert result.step_counterexample == 1


class TestConditional:
    def test_classical_chain_stops(self):
        result = run_conditional(replace(classical(), chain_length=9))
        assert not result.completed
        assert result.failing_link == 4

    def test_nonstandard_naive_chain_completes(self):
        result = run_conditional(replace(heap(), chain_length=1000))
        assert result.completed
        assert "S(a_1000) designated-true: True" in result.conclusion

    def test_chain_through_witness_refused(self):
        with pytest.raises(ChainThroughWitness):
            run_conditional(
                replace(heap(), chain_length=Witness(parse_series("e^(-1)")))
            )

    def test_fuzzy_degree_non_increasing_in_length(self):
        degrees = []
        for length in (10, 40, 70, 100):
            result = run_conditional(replace(fuzzy_linear(), chain_length=length))
            prefix = f"degree of S(a_{length}) = "
            value = result.conclusion.split(";")[0].removeprefix(prefix)
            degrees.append(F(value))
        assert degrees == sorted(degrees, reverse=True)

    def test_fuzzy_chain_weakest_at_its_last_link(self):
        # Up to the middle of the range the weakest link so far is the last.
        result = run_conditional(replace(fuzzy_linear(), chain_length=30))
        assert result.conclusion == (
            "degree of S(a_30) = 70/99; minimum link degree = 70/99"
        )

    def test_chain_outside_range(self):
        with pytest.raises(ValueError):
            run_conditional(replace(classical(), chain_length=11))


class TestDoubling:
    def test_limited_invariant(self):
        result = doubling_analysis(heap())
        assert result.invariant

    def test_cut_fails_at_half_bound(self):
        scenario = SoritesScenario(
            "cut",
            1,
            100,
            Nonstandard(parse_series("e^(-1)")),
        )
        result = doubling_analysis(scenario)
        assert not result.invariant
        assert result.witness == "1/2*e^(-1)"

    def test_unsupported_backend(self):
        with pytest.raises(BackendUnsupported):
            doubling_analysis(classical())


class TestRunScenario:
    def test_deterministic(self):
        a = run_scenario(heap())
        b = run_scenario(heap())
        assert a.to_text() == b.to_text()
        assert a.to_json() == b.to_json()

    def test_report_structure(self):
        report = run_scenario(classical())
        data = json.loads(report.to_json())
        assert data["barnes"]["c3"] is False
        assert data["induction"]["step_counterexample"] == 4
        assert data["doubling"] is None

    def test_witness_chain_recorded_as_note(self):
        scenario = SoritesScenario(
            "heap",
            1,
            100,
            Nonstandard(None),
            witnesses=(Witness(parse_series("e^(-1)")),),
            chain_length=Witness(parse_series("e^(-1)")),
        )
        report = run_scenario(scenario)
        assert report.conditional is None
        assert any("refused" in note for note in report.notes)

    def test_witness_of_a_non_series(self):
        with pytest.raises(TypeError, match="witness 5 is not an EpsSeries"):
            Witness(5)

    def test_witnesses_not_a_tuple(self):
        w = Witness(parse_series("e^(-1)"))
        with pytest.raises(TypeError, match="witnesses must be a tuple of Witness"):
            SoritesScenario("heap", 1, 100, Nonstandard(None), witnesses=[w])
        with pytest.raises(TypeError, match="witnesses must be a tuple of Witness"):
            SoritesScenario("heap", 1, 100, Nonstandard(None), witnesses=(w, 5))


class TestConfig:
    def good(self):
        return {
            "name": "demo",
            "range": [1, 10],
            "backend": {"type": "classical_cutoff", "params": {"cutoff": 5}},
        }

    def test_round_trip(self):
        scenario = scenario_from_dict(self.good())
        assert scenario.backend == ClassicalCutoff(5)
        assert scenario.lo == 1 and scenario.hi == 10

    def test_bad_backend_type_pointer(self):
        config = self.good()
        config["backend"]["type"] = "nope"
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/backend/type"

    def test_missing_field(self):
        config = self.good()
        del config["range"]
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/range"

    def test_bad_witness(self):
        config = self.good()
        config["witnesses"] = ["e"]  # infinitesimal, not unlimited
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/witnesses/0"

    @pytest.mark.parametrize("witnesses", [5, "e^-1", {"e^-1": 1}])
    def test_witnesses_not_an_array(self, witnesses):
        config = self.good()
        config["backend"] = {"type": "nonstandard", "params": {"threshold": "limited"}}
        config["witnesses"] = witnesses
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/witnesses"
        assert info.value.message == "witnesses must be an array"

    @pytest.mark.parametrize("name", [7, ["x"]])
    def test_name_not_a_string(self, name):
        config = self.good()
        config["name"] = name
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/name"
        assert info.value.message == "name must be a string"

    @pytest.mark.parametrize("name", ["a\ud800b", "\udfff", "ok \udc80"])
    def test_name_with_a_lone_surrogate(self, name):
        # Valid JSON ("a\\ud800b"), but no UTF-8 report can hold it.
        config = self.good()
        config["name"] = name
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/name"
        assert info.value.message.startswith("name holds a lone surrogate at offset ")

    def test_name_with_a_surrogate_pair(self):
        # "\\ud83d\\ude00" in JSON is one astral character, not a lone half.
        config = self.good()
        config["name"] = json.loads('"x\\ud83d\\ude00"')
        assert scenario_from_dict(config).name == "x\U0001F600"

    @pytest.mark.parametrize(
        "params",
        [
            {"points": [[1, 1], [10, "0"]]},
            {"points": [[1, "1"], [10, 0.0]]},  # 1e-400 loads as 0.0
            {"points": [[1, "1"], [10, True]]},
            {"points": [[1, "1"], [10, None]]},
            {"points": [[1, "1"], [10, ["0"]]]},
            {"points": [[1, "1"], [10, "0"]], "threshold": 0.1},
            {"points": [[1, "1"], [10, "0"]], "threshold": 1},
        ],
    )
    def test_fuzzy_numbers_refused(self, params):
        config = self.good()
        config["backend"] = {"type": "fuzzy_membership", "params": params}
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/backend/params"
        assert info.value.message.startswith("degree or threshold must be a string, got ")

    @pytest.mark.parametrize("threshold", [5, 0.5, None, False, ["limited"]])
    def test_nonstandard_threshold_number_refused(self, threshold):
        config = self.good()
        config["backend"] = {"type": "nonstandard", "params": {"threshold": threshold}}
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/backend/params"
        assert info.value.message == f"threshold must be a string, got {threshold!r}"

    def test_strings_stay_exact(self):
        # What a JSON number would have rounded away, a string keeps.
        config = self.good()
        config["backend"] = {
            "type": "fuzzy_membership",
            "params": {
                "points": [[1, "1"], [10, "1e-400"]],
                "threshold": "0.10000000000000000001",
            },
        }
        backend = scenario_from_dict(config).backend
        assert backend.points[1][1] == F(1, 10**400)
        assert backend.threshold == F(10**19 + 1, 10**20)

    @pytest.mark.parametrize(
        "path, key, pointer",
        [
            ((), "chainlength", "/chainlength"),
            ((), "witness", "/witness"),
            (("backend",), "param", "/backend/param"),
            (("backend", "params"), "cutof", "/backend/params/cutof"),
            (("backend", "params"), "a/b~c", "/backend/params/a~1b~0c"),
        ],
    )
    def test_unknown_key_refused(self, path, key, pointer):
        config = self.good()
        section = config
        for step in path:
            section = section[step]
        section[key] = 5
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == pointer
        assert info.value.message.startswith("unknown field; expected one of ")

    def test_unknown_param_of_each_backend(self):
        for backend_type, (_, *spec) in BACKENDS.items():
            config = self.good()
            config["backend"] = {
                "type": backend_type,
                "params": {**SAMPLE_PARAMS[backend_type], "thresold": "1/2"},
            }
            with pytest.raises(ConfigError) as info:
                scenario_from_dict(config)
            assert info.value.pointer == "/backend/params/thresold"
            names = ", ".join(name for name, _, _ in spec)
            assert info.value.message == f"unknown field; expected one of {names}"

    def test_chain_length_series(self):
        config = self.good()
        config["backend"] = {
            "type": "nonstandard",
            "params": {"threshold": "limited"},
        }
        config["chainLength"] = "e^(-1)"
        scenario = scenario_from_dict(config)
        assert isinstance(scenario.chain_length, Witness)

    @pytest.mark.parametrize("bad", [[True, 10], [1, False]])
    def test_boolean_range(self, bad):
        config = self.good()
        config["range"] = bad
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/range"

    def test_boolean_chain_length(self):
        config = self.good()
        config["chainLength"] = True
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/chainLength"

    @pytest.mark.parametrize("length", [0, 11, "e^(-1)"])
    def test_unusable_chain_length(self, length):
        # Outside the range, or a witness on a non-nonstandard backend.
        config = self.good()
        config["chainLength"] = length
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/chainLength"

    def test_chain_length_at_range_ends(self):
        for length in (1, 10):
            config = self.good()
            config["chainLength"] = length
            assert scenario_from_dict(config).chain_length == length

    @pytest.mark.parametrize(
        "backend",
        [
            {"type": "fuzzy_membership", "params": {"points": [[1, "1"], [10, "1/0"]]}},
            {"type": "nonstandard", "params": {"threshold": "e^(1/0)"}},
        ],
    )
    def test_zero_denominator_params(self, backend):
        config = self.good()
        config["backend"] = backend
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/backend/params"

    def test_bundled_fixtures_load(self):
        fixtures = resources.files("soritica") / "fixtures"
        for name in (
            "classical_cutoff5.json",
            "nonstandard_heap.json",
            "nonstandard_cut.json",
            "kleene_penumbra.json",
            "fuzzy_linear.json",
            "superval_2_6.json",
        ):
            config = json.loads((fixtures / name).read_text())
            run_scenario(scenario_from_dict(config))


    @pytest.mark.parametrize(
        "backend",
        [
            {"type": "classical_cutoff", "params": {"cutoff": True}},
            {"type": "classical_cutoff", "params": {"cutoff": "5"}},
            {"type": "classical_cutoff", "params": {"cutoff": 5.0}},
            {"type": "kleene_penumbra", "params": {"t1": 4, "t2": 7.5}},
            {"type": "kleene_penumbra", "params": {"t1": False, "t2": 7}},
            {"type": "superval", "params": {"cutoffs": [True, "7", 5.9]}},
            {"type": "superval", "params": {"cutoffs": [2, 6.0]}},
            {"type": "fuzzy_membership", "params": {"points": [[True, "1"], [9, "0"]]}},
            {"type": "fuzzy_membership", "params": {"points": [[1, "1"], ["9", "0"]]}},
            {"type": "fuzzy_membership", "params": {"points": [[1.5, "1"], [9, "0"]]}},
        ],
    )
    def test_non_integer_params(self, backend):
        config = self.good()
        config["backend"] = backend
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/backend/params"
        assert "expected an integer" in info.value.message


class TestWitnessesBackend:
    @pytest.mark.parametrize(
        "backend",
        [
            ClassicalCutoff(5),
            KleenePenumbra(4, 7),
            FuzzyMembership(((1, F(1)), (10, F(0)))),
            Superval((2, 6)),
        ],
    )
    def test_refused_off_nonstandard(self, backend):
        with pytest.raises(ValueError):
            SoritesScenario(
                "w", 1, 10, backend, witnesses=(Witness(parse_series("e^(-1)")),)
            )

    def test_loader_pointer(self):
        config = TestConfig().good()
        config["witnesses"] = ["e^(-1)"]
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/witnesses"
        assert info.value.message == "witnesses apply to the nonstandard backend"

    def test_empty_list_accepted(self):
        config = TestConfig().good()
        config["witnesses"] = []
        assert scenario_from_dict(config).witnesses == ()

    def test_range_reported_first(self):
        config = TestConfig().good()
        config["range"] = [10, 1]
        config["witnesses"] = ["e^(-1)"]
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/range"

    @pytest.mark.parametrize(
        "extra, pointer",
        [
            ({"range": [10, 1], "chainLength": 99}, "/range"),
            ({"witnesses": ["e^(-1)"], "chainLength": 99}, "/witnesses"),
            ({"witnesses": ["e^(-1)"], "chainLength": "e^(-1)"}, "/witnesses"),
        ],
    )
    def test_chain_length_reported_last(self, extra, pointer):
        config = {**TestConfig().good(), **extra}
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == pointer


class TestBuiltValues:
    """Values built in Python are checked where the scenario is built."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ClassicalCutoff(1.5),
            lambda: ClassicalCutoff(True),
            lambda: KleenePenumbra(2.5, 7),
            lambda: KleenePenumbra(2, F(7)),
            lambda: Superval((0.5,)),
            lambda: Superval((2, False)),
            lambda: FuzzyMembership(((0, 1.0), (10, 0.0))),
            lambda: FuzzyMembership(((0.5, F(1)), (10, F(0)))),
            lambda: FuzzyMembership(((0, F(1)), (10, True))),
            lambda: FuzzyMembership(((0, F(1)), (10, F(0))), 0.5),
            lambda: SoritesScenario("x", 0, 10.5, ClassicalCutoff(5)),
            lambda: SoritesScenario("x", False, True, ClassicalCutoff(5)),
            lambda: SoritesScenario("x", 0, 10, ClassicalCutoff(5), chain_length=99),
            lambda: SoritesScenario("x", 0, 10, ClassicalCutoff(5), chain_length=-1),
            lambda: SoritesScenario("x", 0, 10, ClassicalCutoff(5), chain_length=5.0),
            lambda: SoritesScenario("x", 0, 10, ClassicalCutoff(5), chain_length=True),
            lambda: run_conditional(replace(classical(), chain_length=True)),
            lambda: run_conditional(replace(classical(), chain_length=7.0)),
        ],
        ids=[
            "cutoff float",
            "cutoff bool",
            "penumbra float",
            "penumbra Fraction",
            "superval float",
            "superval bool",
            "fuzzy float degrees",
            "fuzzy float index",
            "fuzzy bool degree",
            "fuzzy float threshold",
            "scenario float hi",
            "scenario bool range",
            "chain length above range",
            "chain length below range",
            "chain length float",
            "chain length bool",
            "run_conditional bool",
            "run_conditional float",
        ],
    )
    def test_refused(self, build):
        with pytest.raises(ValueError):
            build()

    def test_backend_refused(self):
        # Refused where the scenario is built, not later by run_scenario.
        for backend in (5, None, ClassicalCutoff, "classical_cutoff"):
            with pytest.raises(TypeError, match="is not a Backend"):
                SoritesScenario("x", 0, 5, backend)

    def test_exact_values_accepted(self):
        backend = FuzzyMembership(((0, 1), (4, F(1, 2)), (10, 0)), F(3, 4))
        scenario = SoritesScenario("x", 0, 10, backend, chain_length=10)
        assert run_scenario(scenario).induction.basis


#: Loadable params for each backend type.
SAMPLE_PARAMS = {
    "classical_cutoff": {"cutoff": 5},
    "kleene_penumbra": {"t1": 4, "t2": 7},
    "fuzzy_membership": {"points": [[1, "1"], [10, "0"]]},
    "superval": {"cutoffs": [2, 6]},
    "nonstandard": {},
}


class TestBackendTable:
    @pytest.mark.parametrize("backend_type", [[], {}, 5, None, True])
    def test_non_string_type(self, backend_type):
        config = TestConfig().good()
        config["backend"]["type"] = backend_type
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/backend/type"
        assert info.value.message == f"unknown backend type {backend_type!r}"

    @pytest.mark.parametrize(
        "backend, missing",
        [
            ({"type": "classical_cutoff"}, "cutoff"),
            ({"type": "kleene_penumbra", "params": {"t2": 7}}, "t1"),
            ({"type": "kleene_penumbra", "params": {"t1": 4}}, "t2"),
            ({"type": "fuzzy_membership", "params": {"threshold": "1"}}, "points"),
            ({"type": "superval", "params": {}}, "cutoffs"),
        ],
    )
    def test_missing_param(self, backend, missing):
        config = TestConfig().good()
        config["backend"] = backend
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == f"/backend/params/{missing}"
        assert info.value.message == "missing required field"

    def test_defaults(self):
        config = TestConfig().good()
        config["backend"] = {"type": "nonstandard"}
        assert scenario_from_dict(config).backend == Nonstandard(None)
        config["backend"] = {
            "type": "fuzzy_membership",
            "params": {"points": [[1, "1"], [10, "0"]]},
        }
        assert scenario_from_dict(config).backend.threshold == 1

    @pytest.mark.parametrize("threshold", ["-1", "3"])
    def test_fuzzy_threshold_outside_unit_interval(self, threshold):
        config = TestConfig().good()
        config["backend"] = {
            "type": "fuzzy_membership",
            "params": {"points": [[1, "1"], [10, "0"]], "threshold": threshold},
        }
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/backend/params"
        assert info.value.message == f"threshold {threshold} must lie in [0, 1]"

    @pytest.mark.parametrize("threshold", ["0", "1/2", "1"])
    def test_fuzzy_threshold_in_unit_interval(self, threshold):
        config = TestConfig().good()
        config["backend"] = {
            "type": "fuzzy_membership",
            "params": {"points": [[1, "1"], [10, "0"]], "threshold": threshold},
        }
        assert scenario_from_dict(config).backend.threshold == Fraction(threshold)

    def test_checks_in_order(self):
        # params must be an object before the type is looked up.
        config = TestConfig().good()
        config["backend"] = {"type": "nope", "params": []}
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/backend/params"
        # A bad value is reported before a later missing param.
        config["backend"] = {"type": "kleene_penumbra", "params": {"t1": "4"}}
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(config)
        assert info.value.pointer == "/backend/params"
        assert "expected an integer" in info.value.message

    @pytest.mark.parametrize("backend_type", list(BACKENDS))
    def test_contract(self, backend_type):
        # bench/tracing.py counts these three methods by patching
        # vars(cls)[name], so each class defines them in its own body.
        cls = BACKENDS[backend_type][0]
        for name in ("truth", "designated_true", "designated_false"):
            assert name in vars(cls)
        assert cls.id == backend_type
        assert callable(cls.describe) and callable(cls.change_points)
        # The runners ask the backend, not its class, how it reports a step,
        # whether it reads unlimited indices, and what evidence and notes it adds.
        assert callable(cls.induction) and callable(cls.chain)
        assert isinstance(cls.unlimited, bool)
        assert len(cls.step_wording) == 2
        assert all(isinstance(w, str) for w in cls.step_wording)
        assert isinstance(cls.notes, tuple)
        config = TestConfig().good()
        config["backend"] = {"type": backend_type, "params": SAMPLE_PARAMS[backend_type]}
        assert isinstance(scenario_from_dict(config).backend.no_flip_evidence, tuple)
        if cls.unlimited:
            assert callable(cls.holds) and callable(cls.doubling)

    def test_five_backends(self):
        classes = {entry[0] for entry in BACKENDS.values()}
        assert classes == {
            ClassicalCutoff,
            KleenePenumbra,
            FuzzyMembership,
            Superval,
            Nonstandard,
        }

    def test_shipped_schema_is_generated(self):
        shipped = json.loads(
            (resources.files("soritica") / "fixtures" / "sorites_config.schema.json")
            .read_text(encoding="utf-8")
        )
        assert shipped["properties"]["backend"] == backend_schema()
        assert list(shipped["properties"]) == list(SCENARIO_FIELDS)
        assert shipped["additionalProperties"] is False


def backend_schema():
    """The backend section of ``sorites_config.schema.json``, from the table."""
    branches = []
    for backend_type, (_, *spec) in BACKENDS.items():
        params = {
            "type": "object",
            "properties": {name: schema for name, schema, _ in spec},
            "additionalProperties": False,
        }
        branch = {"properties": {"type": {"const": backend_type}, "params": params}}
        required = [name for name, schema, _ in spec if "default" not in schema]
        if required:
            params["required"] = required
            branch["required"] = ["params"]
        branches.append(branch)
    return {
        "type": "object",
        "required": ["type"],
        "properties": {
            "type": {"enum": list(BACKENDS)},
            "params": {"type": "object"},
        },
        "additionalProperties": False,
        "oneOf": branches,
    }


# -- the per-index runners as the oracle ------------------------------------

degrees = st.fractions(min_value=0, max_value=1, max_denominator=12)
exponents = st.sampled_from([F(-2), F(-3, 2), F(-1), F(-1, 2), F(0), F(1, 2), F(1)])
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def series_texts(draw, unlimited):
    terms = draw(st.lists(st.tuples(exponents, coefficients), max_size=3))
    if unlimited:
        lead = draw(st.sampled_from([F(-2), F(-1), F(-1, 2)]))
        terms = [t for t in terms if t[0] > lead]
        terms.append((lead, draw(coefficients.filter(bool))))
    return str(EpsSeries.from_terms(terms))


@st.composite
def configs(draw):
    """A loadable scenario config on any backend over a range of up to 10**3."""
    lo = draw(st.integers(-20, 40))
    hi = lo + draw(st.integers(1, 1000))
    near = st.integers(lo - 3, hi + 3)
    backend_type = draw(st.sampled_from(sorted(BACKENDS)))
    config = {"name": "drawn", "range": [lo, hi]}
    if backend_type == "classical_cutoff":
        params = {"cutoff": draw(near)}
    elif backend_type == "kleene_penumbra":
        t1 = draw(near)
        params = {"t1": t1, "t2": t1 + draw(st.integers(0, hi - lo))}
    elif backend_type == "fuzzy_membership":
        indices = sorted(draw(st.sets(near, min_size=2, max_size=6)))
        points = tuple((n, draw(degrees)) for n in indices)
        params = {"points": [[n, str(d)] for n, d in points]}
        # A threshold S(m) or 1 - S(m) makes the crossing land on m itself.
        m = draw(st.integers(indices[0], indices[-1]))
        level = ref_degree(points, m)
        threshold = draw(st.sampled_from([None, level, 1 - level, draw(degrees)]))
        if threshold is not None:
            params["threshold"] = str(threshold)
    elif backend_type == "superval":
        params = {"cutoffs": draw(st.lists(near, min_size=1, max_size=5))}
    else:
        params = {}
        if draw(st.booleans()):
            params["threshold"] = draw(
                st.one_of(
                    series_texts(unlimited=True),
                    series_texts(unlimited=False),
                    near.map(str),  # a sharp cut inside the range
                    # A standard part k inside the range and a tail that
                    # puts the edge of S right at or after k.
                    st.builds(
                        "{}{}".format, near, st.sampled_from([" + e", " - e^2", " + 1/2"])
                    ),
                )
            )
        config["witnesses"] = draw(st.lists(series_texts(unlimited=True), max_size=3))
    config["backend"] = {"type": backend_type, "params": params}
    lengths = [st.none(), st.integers(lo, hi)]
    if backend_type == "nonstandard":
        lengths.append(series_texts(unlimited=True))
    length = draw(st.one_of(lengths))
    if length is not None:
        config["chainLength"] = length
    return config


class TestOracle:
    @given(configs())
    @settings(max_examples=200, deadline=None)
    def test_reports_match_per_index_runners(self, config):
        scenario = scenario_from_dict(config)
        report, expected = run_scenario(scenario), ref_run_scenario(scenario)
        assert report.to_text() == expected.to_text()
        assert report.to_json() == expected.to_json()

    @pytest.mark.parametrize("sharp", ["classical", "kleene"])
    def test_a_wrong_truth_is_caught(self, sharp):
        # A truth wrong at every index, with the failing edges and
        # change_points left right.  The boundary lies past the range, so no
        # step fails either way; only a reference that decides the verdicts
        # itself, rather than asking the backend, sees the wrong basis.
        if sharp == "classical":

            class Wrong(ClassicalCutoff):
                def truth(self, n):
                    return not super().truth(n)

            right, wrong = ClassicalCutoff(20), Wrong(20)
        else:

            class Wrong(KleenePenumbra):
                def truth(self, n):
                    return {TRUE: HALF, HALF: FALSE, FALSE: TRUE}[super().truth(n)]

            right, wrong = KleenePenumbra(20, 25), Wrong(20, 25)
        for backend, agrees in ((right, True), (wrong, False)):
            scenario = SoritesScenario("sharp", 1, 10, backend)
            report, expected = run_scenario(scenario), ref_run_scenario(scenario)
            assert (report.to_text() == expected.to_text()) is agrees

    @given(st.sets(st.integers(-10, 10), min_size=2, max_size=6), st.data())
    @settings(max_examples=200)
    def test_fuzzy_pieces(self, indices, data):
        points = tuple((n, data.draw(degrees)) for n in sorted(indices))
        threshold = data.draw(degrees)
        backend = FuzzyMembership(points, threshold)
        for n in range(-12, 13):
            degree, next_degree = ref_degree(points, n), ref_degree(points, n + 1)
            assert backend.truth(n) == degree
            # The designations and the link compare integer pairs.
            assert backend.designated_true(n) == (degree >= threshold)
            assert backend.designated_false(n) == (degree <= 1 - threshold)
            assert backend.implication(n) == max(1 - degree, next_degree)
        # The link table holds the step-implication degree at every fixed
        # change point, from S(k) and S(k+1) as the breakpoints interpolate them.
        assert len(backend._links) == len(backend._fixed)
        for k, link in zip(backend._fixed, backend._links):
            assert F(*link) == max(1 - ref_degree(points, k), ref_degree(points, k + 1))

    @given(
        st.lists(st.integers(-10, 10), min_size=1, max_size=6),
        st.integers(-12, 12),
    )
    @settings(max_examples=300)
    def test_superval_closed_form(self, cutoffs, n):
        backend = Superval(tuple(cutoffs))
        atom = lambda k: Atom("S", Index(None, k))
        assert backend.truth(n) is eval_super(atom(n), cutoffs)
        step = eval_super(Implies(atom(n), atom(n + 1)), cutoffs)
        assert backend.induction(n, n + 1, ()).step_holds == (step is SuperVerdict.SUPERTRUE)


# -- the nonstandard edge in closed form -------------------------------------

bound_terms = st.lists(
    st.tuples(
        st.integers(-8, 8).map(lambda k: F(k, 2)),
        st.fractions(min_value=F(-9, 4), max_value=F(9, 4), max_denominator=4),
    ),
    max_size=3,
)


fuzzy_configs = configs().filter(lambda c: c["backend"]["type"] == "fuzzy_membership")


class TestWeakestLink:
    """The fuzzy weakest link reads the fixed points' degrees from a table."""

    @given(fuzzy_configs, st.data())
    @settings(max_examples=200, deadline=None)
    def test_is_the_least_at_the_change_points(self, config, data):
        backend = scenario_from_dict(config).backend
        lo, hi = config["range"]
        # Ends on and next to the fixed points, where an off-by-one shows.
        fixed = st.builds(int.__add__, st.sampled_from(backend._fixed), st.integers(-1, 1))
        near = st.one_of(st.integers(lo - 10, hi + 10), fixed)
        start, stop = data.draw(near), data.draw(near)
        expected = min(
            map(backend.implication, backend.change_points(start, stop)), default=1
        )
        assert backend.weakest_link(start, stop) == expected

    @given(fuzzy_configs)
    @settings(max_examples=50, deadline=None)
    def test_run_scenario_asks_for_few_links(self, config):
        scenario = scenario_from_dict(config)
        backend, calls = scenario.backend, []
        link = backend._link

        def counting(n):
            calls.append(n)
            return link(n)

        object.__setattr__(backend, "_link", counting)
        run_scenario(scenario)
        assert len(calls) <= 4


class TestNonstandardEdge:
    """``truth(n)`` is ``n < edge`` against the series comparison of ``n``."""

    @given(bound_terms)
    @settings(max_examples=300)
    def test_drawn_bounds(self, terms):
        bound = EpsSeries.from_terms(terms)
        backend = Nonstandard(bound)
        for n in range(-12, 13):
            assert backend.truth(n) == (EpsSeries.from_rational(n) < bound)

    @pytest.mark.parametrize(
        "threshold, edge, points",
        [
            ("5", 5, [-12, 4]),
            ("5 + e", 6, [-12, 5]),
            ("5 - e", 5, [-12, 4]),
            ("9/2", 5, [-12, 4]),
            ("e", 1, [-12, 0]),
            ("-e", 0, [-12, -1]),
            ("e^(-1)", math.inf, [-12]),
            ("-e^(-1)", -math.inf, [-12]),
            ("0", 0, [-12, -1]),
            ("limited", math.inf, [-12]),
        ],
    )
    def test_hand_rows(self, threshold, edge, points):
        bound = None if threshold == "limited" else parse_series(threshold)
        backend = Nonstandard(bound)
        for n in range(-12, 13):
            assert backend.truth(n) == (n < edge)
            assert backend.truth(n) == backend.holds(EpsSeries.from_rational(n))
            assert backend.induction(n, n + 1, ()).step_holds == (n + 1 != edge)
        assert backend.change_points(-12, 13) == points

    def test_bound_not_a_series(self):
        with pytest.raises(TypeError):
            Nonstandard("5")


small = st.integers(-10, 10)

#: A drawn backend of each non-fuzzy kind, its parameters in -10..10.
STEP_BACKENDS = {
    "classical": st.builds(ClassicalCutoff, small),
    "kleene": st.builds(lambda a, b: KleenePenumbra(min(a, b), max(a, b)), small, small),
    "superval": st.lists(small, min_size=1, max_size=5).map(lambda ks: Superval(tuple(ks))),
    "nonstandard": st.builds(
        Nonstandard,
        st.one_of(
            st.none(),
            small.map(EpsSeries.from_rational),
            bound_terms.map(EpsSeries.from_terms),
        ),
    ),
}


class TestChangePoints:
    """A non-fuzzy backend lists just the indices where its verdict moves or a step fails."""

    @pytest.mark.parametrize("kind", sorted(STEP_BACKENDS))
    @given(data=st.data())
    @settings(max_examples=200)
    def test_minimal(self, kind, data):
        backend = data.draw(STEP_BACKENDS[kind])
        lo, stop = data.draw(st.integers(-12, 12)), data.draw(st.integers(-12, 12))
        step_holds = lambda n: backend.induction(n, n + 1, ()).step_holds
        fails = [n for n in range(lo, stop) if not step_holds(n)]
        moves = [
            n
            for n in range(lo + 1, stop)
            if backend.truth(n) != backend.truth(n + 1) or n in fails
        ]
        assert backend.change_points(lo, stop) == ([lo, *moves] if lo < stop else [])
        # Both schemata stop at the first failing step, found index by index.
        first = fails[0] if fails else None
        assert backend.induction(lo, stop, ()).step_counterexample == first
        assert backend.chain(lo, stop).failing_link == first


class TestDerivedData:
    """What a backend derives when built is not a field of it."""

    def test_nonstandard_edge(self):
        backend = Nonstandard(parse_series("5 + e"))
        assert backend == Nonstandard(parse_series("5 + e"))
        assert hash(backend) == hash(Nonstandard(parse_series("5 + e")))
        assert repr(backend) == "Nonstandard(bound=EpsSeries(5 + e))"
        assert backend.truth(5) and not replace(backend, bound=parse_series("3")).truth(3)

    def test_fuzzy_pieces(self):
        points = ((0, F(1)), (4, F(1, 2)), (10, F(0)))
        backend = FuzzyMembership(points, F(3, 4))
        assert backend == FuzzyMembership(points, F(3, 4))
        assert hash(backend) == hash(FuzzyMembership(points, F(3, 4)))
        assert repr(backend) == f"FuzzyMembership(points={points!r}, threshold={F(3, 4)!r})"
        moved = replace(backend, points=((0, F(1)), (10, F(0))))
        assert (backend.truth(5), moved.truth(5)) == (F(5, 12), F(1, 2))
        assert [f.name for f in fields(backend)] == ["points", "threshold"]
        assert backend._links and backend._links != moved._links


# -- ranges of 10**12: change points, not indices ---------------------------

WIDE = 10**12
FLIP = (
    "adjacent flip: S(a_{0}) designated-true, S(a_{1}) designated-false (witness {0})"
)
SMOOTH = "no adjacent designated-true -> designated-false step"

#: (backend, extra config, flip evidence, induction step, conditional, doubling),
#: worked out by hand from the backend parameters.
WIDE_CASES = {
    "classical": (
        {"type": "classical_cutoff", "params": {"cutoff": 300_000_000_000}},
        {},
        FLIP.format(299_999_999_999, 300_000_000_000),
        (False, 299_999_999_999, "step fails at n=299999999999"),
        (False, 299_999_999_999, "chain stops at link 299999999999 -> 300000000000"),
        None,
    ),
    "kleene": (
        {
            "type": "kleene_penumbra",
            "params": {"t1": 300_000_000_000, "t2": 700_000_000_000},
        },
        {},
        SMOOTH,
        (False, 299_999_999_999, "step fails at n=299999999999"),
        (False, 299_999_999_999, "chain stops at link 299999999999 -> 300000000000"),
        None,
    ),
    "fuzzy": (
        # Degree 1 up to 2*10**11, then down to 0 at 10**12.  The weakest
        # link of the whole range is 1/2, where 1 - S(n) meets S(n+1) near
        # 6*10**11; a chain cut at 5*10**11 is weakest at its last link.
        {
            "type": "fuzzy_membership",
            "params": {
                "points": [[0, "1"], [200_000_000_000, "1"], [WIDE, "0"]],
                "threshold": "3/4",
            },
        },
        {"chainLength": 500_000_000_000},
        SMOOTH,
        (False, None, "minimum step-implication degree = 1/2"),
        (
            True,
            None,
            "degree of S(a_500000000000) = 5/8; minimum link degree = 5/8",
        ),
        None,
    ),
    "superval": (
        {"type": "superval", "params": {"cutoffs": [600_000_000_000, 200_000_000_000]}},
        {"chainLength": 150_000_000_000},
        SMOOTH,
        (
            False,
            199_999_999_999,
            "step instance not supertrue at n=199999999999 "
            "(some precisification cuts there)",
        ),
        (True, None, "S(a_150000000000) designated-true: True"),
        None,
    ),
    "limited": (
        {"type": "nonstandard", "params": {"threshold": "limited"}},
        {"witnesses": ["e^(-1)"]},
        "no representable adjacent flip: limited + 1 stays limited",
        (True, None, Nonstandard.step_wording[0].format(lo=0, hi=WIDE)),
        (True, None, "S(a_1000000000000) designated-true: True"),
        (True, None),
    ),
    "cut": (
        # S(n) iff n < 4*10**11 + e: the edge is 4*10**11 + 1, and the least
        # n with 2n >= 4*10**11 + e is 2*10**11 + 1.
        {"type": "nonstandard", "params": {"threshold": "400000000000 + e"}},
        {"witnesses": ["e^(-1)"]},
        FLIP.format(400_000_000_000, 400_000_000_001),
        (False, 400_000_000_000, Nonstandard.step_wording[1].format(lo=0, hi=WIDE)),
        (False, 400_000_000_000, "chain stops at link 400000000000 -> 400000000001"),
        (False, "200000000001"),
    ),
    "cut_below": (
        # S(n) iff n < 6*10**11 - e^2: the edge is 6*10**11 itself, and the
        # least n with 2n >= 6*10**11 - e^2 is 3*10**11.
        {"type": "nonstandard", "params": {"threshold": "600000000000 - e^2"}},
        {"witnesses": ["e^(-1)"]},
        FLIP.format(599_999_999_999, 600_000_000_000),
        (False, 599_999_999_999, Nonstandard.step_wording[1].format(lo=0, hi=WIDE)),
        (False, 599_999_999_999, "chain stops at link 599999999999 -> 600000000000"),
        (False, "300000000000"),
    ),
}


def wide_config(case):
    backend, extra = WIDE_CASES[case][:2]
    return {"name": f"wide_{case}", "range": [0, WIDE], "backend": backend, **extra}


class TestWideRange:
    """Ranges of 10**12 run in milliseconds; 2 s is a generous budget."""

    @pytest.mark.parametrize("case", sorted(WIDE_CASES))
    def test_range_of_10_12(self, case):
        _, _, flip, step, link, doubling = WIDE_CASES[case]
        start = time.monotonic()
        report = run_scenario(scenario_from_dict(wide_config(case)))
        elapsed = time.monotonic() - start
        assert elapsed < 2, f"{case} took {elapsed:.2f}s"
        barnes, induction = report.barnes, report.induction
        assert (barnes.c1, barnes.c2) == (True, True)
        assert barnes.c3 == (not flip.startswith("adjacent flip"))
        assert barnes.evidence[-1] == flip
        assert induction.basis
        assert (
            induction.step_holds,
            induction.step_counterexample,
            induction.step_detail,
        ) == step
        conditional = report.conditional
        assert (
            conditional.completed,
            conditional.failing_link,
            conditional.conclusion,
        ) == link
        if doubling is None:
            assert report.doubling is None
        else:
            assert (report.doubling.invariant, report.doubling.witness) == doubling

    def test_cli_run(self, capsys, tmp_path):
        path = tmp_path / "wide_cut.json"
        path.write_text(json.dumps(wide_config("cut")))
        start = time.monotonic()
        code = main(["sorites", "run", str(path)])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        assert elapsed < 2, f"the CLI run took {elapsed:.2f}s"
        assert "  witness: 200000000001" in out


# -- the JSON writer against json.dumps --------------------------------------


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


GOLDEN = Path(__file__).parent / "golden"

#: Names that every escape of the encoder meets: a quote, a backslash,
#: control characters, the line and paragraph separators, non-ASCII and
#: astral characters.
NAMES = [
    'say "heap"',
    "back\\slash",
    "\x00\x01\x08\t\n\x0b\x0c\r\x1f\x7f",
    "\u2028\u2029",
    "caf\u00e9 \u5806",
    "\U0001F600 \U00010000",
    "",
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    """``SoritesReport.to_json`` writes what ``json.dumps`` does, byte for byte."""

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
    def test_goldens(self, path):
        text = path.read_text(encoding="utf-8")
        assert _dumps(json.loads(text)) == text

    @given(configs())
    @settings(max_examples=100, deadline=None)
    def test_drawn_reports(self, config):
        report = run_scenario(scenario_from_dict(config))
        assert report.to_json() == dumps(report.to_dict())

    @pytest.mark.parametrize("name", NAMES)
    def test_names(self, name):
        config = {**TestConfig().good(), "name": name}
        report = run_scenario(scenario_from_dict(config))
        assert report.to_json() == dumps(report.to_dict())
        assert json.loads(report.to_json())["scenario"] == name

    @given(json_values)
    @settings(max_examples=300)
    def test_drawn_values(self, value):
        assert _dumps(value) == dumps(value)

    @pytest.mark.parametrize("value", [[], {}, [[]], {"a": {}}, [{}, []], 0, -(10**30)])
    def test_empty_and_ints(self, value):
        assert _dumps(value) == dumps(value)

    @pytest.mark.parametrize(
        "value", [1.5, (1, 2), {1: "x"}, {"a": {None: 1}}, ["x", b"y"], {"s": {1}}]
    )
    def test_other_types_refused(self, value):
        with pytest.raises(TypeError):
            _dumps(value)
