import json
from fractions import Fraction
from importlib import resources

import pytest

from soritica.series import parse_series
from soritica.sorites import (
    BackendUnsupported,
    ChainThroughWitness,
    ClassicalCutoff,
    ConfigError,
    FuzzyMembership,
    KleenePenumbra,
    Naive,
    Nonstandard,
    SoritesScenario,
    Superval,
    Witness,
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
        result = run_conditional(classical(), 9)
        assert not result.completed
        assert result.failing_link == 4

    def test_nonstandard_naive_chain_completes(self):
        result = run_conditional(heap(), 1000)
        assert result.completed
        assert "S(a_1000) designated-true: True" in result.conclusion

    def test_chain_through_witness_refused(self):
        with pytest.raises(ChainThroughWitness):
            run_conditional(heap(), Witness(parse_series("e^(-1)")))

    def test_fuzzy_degree_non_increasing_in_length(self):
        degrees = []
        for length in (10, 40, 70, 100):
            result = run_conditional(fuzzy_linear(), length)
            prefix = f"degree of S(a_{length}) = "
            value = result.conclusion.split(";")[0].removeprefix(prefix)
            degrees.append(F(value))
        assert degrees == sorted(degrees, reverse=True)

    def test_chain_outside_range(self):
        with pytest.raises(ValueError):
            run_conditional(classical(), 11)


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
            assert scenario_from_dict(config).chain_length == Naive(length)

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
