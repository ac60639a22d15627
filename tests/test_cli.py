import json
from importlib import resources

import pytest

from soritica.cli import main

FIXTURES = resources.files("soritica") / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNumbers:
    def test_product(self, capsys):
        code, out, _ = run(capsys, "numbers", "eval", "(2 + osl) * (3 + osl)")
        assert code == 0
        assert out.splitlines() == ["6 + o(0)", "Appreciable"]

    def test_oslash_sum(self, capsys):
        code, out, _ = run(capsys, "numbers", "eval", "osl + osl")
        assert code == 0
        assert out.splitlines()[0] == "o(0)"
        assert "NeutrixOnly(Osl)" in out

    def test_scale_identity(self, capsys):
        code, out, _ = run(capsys, "numbers", "eval", "3 * L(0)")
        assert code == 0
        assert out.splitlines()[0] == "L(0)"

    def test_oracle_flag(self, capsys):
        code, out, _ = run(
            capsys, "numbers", "eval", "(2 + osl) * (3 + osl)", "--oracle"
        )
        assert code == 0
        assert "oracle: ok" in out

    def test_syntax_error(self, capsys):
        code, _, err = run(capsys, "numbers", "eval", "2 +")
        assert code == 2
        assert "syntax error" in err

    @pytest.mark.parametrize("expr", ["1/0", "e^(1/0)", "L(1/0)"])
    def test_zero_denominator(self, capsys, expr):
        code, out, err = run(capsys, "numbers", "eval", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("syntax error: zero denominator")


class TestTables:
    def test_matches_golden(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        golden = (FIXTURES / "kleene_tables.txt").read_text()
        assert out == golden


class TestLaws:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "laws", "--seed", "42", "--n", "25")
        assert code == 0
        assert out.count("PASS") == 11
        assert "seed 42" in out

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "laws", "--seed", "7", "--n", "10")
        _, second, _ = run(capsys, "laws", "--seed", "7", "--n", "10")
        assert first == second

    def test_zero_cases_is_usage_error(self, capsys):
        code, _, err = run(capsys, "laws", "--n", "0")
        assert code == 2
        assert "--n" in err


class TestSorites:
    def test_classical_fixture(self, capsys, tmp_path):
        config = tmp_path / "classical.json"
        config.write_text((FIXTURES / "classical_cutoff5.json").read_text())
        code, out, _ = run(capsys, "sorites", "run", str(config))
        assert code == 0
        assert "counterexample at n=4" in out

    def test_nonstandard_fixture_json(self, capsys, tmp_path):
        config = tmp_path / "heap.json"
        config.write_text((FIXTURES / "nonstandard_heap.json").read_text())
        code, out, _ = run(
            capsys, "sorites", "run", str(config), "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["barnes"]["c1"] and data["barnes"]["c2"] and data["barnes"]["c3"]

    def test_config_error_pointer(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "range": [1, 10],
                    "backend": {"type": "wat"},
                }
            )
        )
        code, _, err = run(capsys, "sorites", "run", str(config))
        assert code == 2
        assert "/backend/type" in err

    def test_chain_length_outside_range(self, capsys, tmp_path):
        config = tmp_path / "long_chain.json"
        data = json.loads((FIXTURES / "classical_cutoff5.json").read_text())
        data["chainLength"] = data["range"][1] + 30
        config.write_text(json.dumps(data))
        code, out, err = run(capsys, "sorites", "run", str(config))
        assert code == 2
        assert out == ""
        assert "config error at /chainLength" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "sorites", "run", "/nonexistent.json")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        config = tmp_path / "classical.json"
        config.write_text((FIXTURES / "classical_cutoff5.json").read_text())
        out_path = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "sorites", "run", str(config), "-o", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert "counterexample at n=4" in out_path.read_text()


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestInProcessCalls:
    def test_calls_share_no_state(self, capsys):
        code, out, _ = run(
            capsys, "numbers", "eval", "--oracle", "--seed", "5", "1 + osl"
        )
        assert code == 0
        assert out.splitlines()[-1] == "oracle: ok (seed 5)"
        code, out, _ = run(capsys, "numbers", "eval", "1 + osl")
        assert code == 0
        assert out.splitlines() == ["1 + o(0)", "Appreciable"]

    def test_deep_parentheses_exit_2(self, capsys):
        code, out, err = run(
            capsys, "numbers", "eval", "(" * 3000 + "1" + ")" * 3000
        )
        assert code == 2
        assert out == ""
        assert err.startswith("syntax error: nesting deeper than")
