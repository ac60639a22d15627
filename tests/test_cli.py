import dataclasses
import json
import sys
import time
from importlib import resources

import pytest

from soritica import cli, laws
from soritica.bounds import MAX_NESTING
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

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        config = tmp_path / "huge.json"
        config.write_text(
            '{"name": "huge", "range": [0, 1], "backend": {"type":'
            ' "classical_cutoff", "params": {"cutoff": ' + "9" * 5000 + "}}}"
        )
        code, out, err = run(capsys, "sorites", "run", str(config))
        assert code == 2
        assert out == ""
        # The interpreter's own wording after "(4300" varies with its version.
        assert err.startswith("config error at /: invalid JSON: Exceeds the limit (4300")

    @pytest.mark.parametrize(
        "params",
        [
            {"points": [[0, "1"], [10, "1e-5000"]]},  # printed past the limit: a traceback
            {"points": [[0, "1"], [10, "1e-10000000"]]},  # 10**10000000: minutes
            {"points": [[0, "1"], [10, "0"]], "threshold": "1e-10000000"},
        ],
    )
    def test_fuzzy_exponent_past_the_digit_limit(self, capsys, tmp_path, params):
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({
            "name": "tiny",
            "range": [0, 10],
            "backend": {"type": "fuzzy_membership", "params": params},
        }))
        start = time.perf_counter()
        code, out, err = run(capsys, "sorites", "run", str(config))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        digits = sys.get_int_max_str_digits()
        assert err == (
            f"config error at /backend/params: degree or threshold over {digits} digits\n"
        )

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


def _failing_law(monkeypatch):
    law = dataclasses.replace(laws.LAWS[0], check=lambda instance, rng: False)
    monkeypatch.setattr(laws, "LAWS", (law,))


def _failing_oracle(monkeypatch):
    monkeypatch.setattr(cli, "mutual_membership_check", lambda *args: False)


DEEP = "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1)

#: ``(argv, exit code, stream, first line, patch)``; ``{fixtures}`` and
#: ``{bad}`` name the bundled fixtures and a config with a bad field.
#: Configs the contract runs, written to a temporary directory by name.
CONFIGS = {
    "bad": {"name": "bad", "range": [1, 10], "backend": {"type": "wat"}},
    "bad_threshold": {
        "name": "bad_threshold",
        "range": [1, 10],
        "backend": {
            "type": "fuzzy_membership",
            "params": {"points": [[1, "1"], [10, "0"]], "threshold": "-1"},
        },
    },
    "bad_witnesses": {
        "name": "bad_witnesses",
        "range": [1, 10],
        "backend": {"type": "nonstandard", "params": {"threshold": "limited"}},
        "witnesses": 5,
    },
    "bad_name": {
        "name": 7,
        "range": [1, 10],
        "backend": {"type": "classical_cutoff", "params": {"cutoff": 5}},
    },
    "unknown_field": {
        "name": "unknown_field",
        "range": [1, 10],
        "backend": {"type": "classical_cutoff", "params": {"cutoff": 5}},
        "chainlength": 5,
    },
    "unknown_param": {
        "name": "unknown_param",
        "range": [1, 10],
        "backend": {
            "type": "fuzzy_membership",
            "params": {"points": [[1, "1"], [10, "0"]], "thresold": "1/2"},
        },
    },
}

#: Files the contract reads that are not JSON text, written as these bytes.
RAW_CONFIGS = {
    "not_utf8": b"\xff\xfe",
    "deep": b"[" * 100_000,
}

CONTRACT = [
    (["numbers", "eval", "1 + osl"], 0, "out", "1 + o(0)", None),
    (["numbers", "eval", "--oracle", "1 + osl"], 0, "out", "1 + o(0)", None),
    (
        ["numbers", "eval", "1 @"],
        2,
        "err",
        "syntax error: unexpected character '@' (at offset 2)",
        None,
    ),
    (
        ["numbers", "eval", "2 + 3/0"],
        2,
        "err",
        "syntax error: zero denominator in '3/0' (at offset 4)",
        None,
    ),
    (
        ["numbers", "eval", DEEP],
        2,
        "err",
        f"syntax error: nesting deeper than {MAX_NESTING} levels"
        f" (at offset {MAX_NESTING})",
        None,
    ),
    (
        ["numbers", "eval", "1" * 5000],
        2,
        "err",
        "syntax error: numeral longer than 4300 digits (at offset 0)",
        None,
    ),
    (
        ["numbers", "eval", "--oracle", "1 + osl"],
        1,
        "out",
        "1 + o(0)",
        _failing_oracle,
    ),
    (["tables"], 0, "out", "p     ~p", None),
    (
        ["laws", "--n", "1"],
        0,
        "out",
        "soritica 0.1.0 law suite (seed 0, n 1)",
        None,
    ),
    (["laws", "--n", "0"], 2, "err", "laws: --n must be >= 1", None),
    (
        ["laws", "--n", "1"],
        1,
        "out",
        "soritica 0.1.0 law suite (seed 0, n 1)",
        _failing_law,
    ),
    (
        ["sorites", "run", "{fixtures}/classical_cutoff5.json"],
        0,
        "out",
        "scenario: classical_cutoff5",
        None,
    ),
    (
        ["sorites", "run", "{bad}"],
        2,
        "err",
        "config error at /backend/type: unknown backend type 'wat'",
        None,
    ),
    (
        ["sorites", "run", "/nonexistent.json"],
        2,
        "err",
        "cannot read config: [Errno 2] No such file or directory:"
        " '/nonexistent.json'",
        None,
    ),
    ([], 2, "err", "usage: soritica [-h] [--version] {numbers,tables,laws,sorites} ...", None),
    (
        ["numbers", "eval", "9" * 4000 + "*" + "9" * 4000],
        2,
        "err",
        "cannot print result: numeral over 4300 digits",
        None,
    ),
    (
        ["sorites", "run", "{bad_threshold}"],
        2,
        "err",
        "config error at /backend/params: threshold -1 must lie in [0, 1]",
        None,
    ),
    (
        ["sorites", "run", "{bad_witnesses}"],
        2,
        "err",
        "config error at /witnesses: witnesses must be an array",
        None,
    ),
    (
        ["sorites", "run", "{bad_name}"],
        2,
        "err",
        "config error at /name: name must be a string",
        None,
    ),
    (
        ["sorites", "run", "{unknown_field}"],
        2,
        "err",
        "config error at /chainlength: unknown field; expected one of"
        " name, range, backend, witnesses, chainLength",
        None,
    ),
    (
        ["sorites", "run", "{unknown_param}"],
        2,
        "err",
        "config error at /backend/params/thresold: unknown field;"
        " expected one of points, threshold",
        None,
    ),
    (
        [
            "sorites",
            "run",
            "{fixtures}/classical_cutoff5.json",
            "-o",
            "/nonexistent/out.txt",
        ],
        2,
        "err",
        "cannot write output: [Errno 2] No such file or directory:"
        " '/nonexistent/out.txt'",
        None,
    ),
    (
        ["sorites", "run", "{not_utf8}"],
        2,
        "err",
        "config error at /: invalid JSON: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte",
        None,
    ),
    (
        ["sorites", "run", "{deep}"],
        2,
        "err",
        "config error at /: invalid JSON: maximum recursion depth exceeded"
        " while decoding a JSON array from a unicode string",
        None,
    ),
]


@pytest.mark.parametrize("argv, code, stream, first, patch", CONTRACT)
def test_exit_code_contract(
    capsys, monkeypatch, tmp_path, argv, code, stream, first, patch
):
    paths = {}
    for name, config in CONFIGS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(config))
    for name, data in RAW_CONFIGS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(data)
    if patch is not None:
        patch(monkeypatch)
    argv = [arg.format(fixtures=FIXTURES, **paths) for arg in argv]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    text = captured.out if stream == "out" else captured.err
    assert got == code
    assert text.splitlines()[0] == first
