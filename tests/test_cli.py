import contextlib
import copy
import dataclasses
import io
import json
import random
import sys
import tempfile
import time
import types
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from soritica import cli, laws, semantics, sorites
from soritica.bounds import MAX_NESTING
from soritica.cli import main
from soritica.laws import rand_external, rand_invertible_external
from soritica.neutrix import parse_external
from soritica.series import ParseError

from reference_sampling import old_cli_oracle
from test_lexer import NUMBER_PIECES, texts

FIXTURES = resources.files("soritica") / "fixtures"
TABLES_GOLDEN = Path(__file__).parent / "golden" / "tables.txt"


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

    def test_oracle_mismatch(self, capsys, monkeypatch):
        _failing_oracle(monkeypatch)
        code, out, err = run(capsys, "numbers", "eval", "--oracle", "1 + osl")
        assert code == 1
        assert err == ""
        assert out.splitlines() == [
            "1 + o(0)",
            "Appreciable",
            "oracle: MISMATCH (seed 0)",
        ]

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
        golden = TABLES_GOLDEN.read_text()
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

    @pytest.mark.parametrize(
        "backend, message",
        [
            (
                {"type": "fuzzy_membership", "params": {"points": [[0, "1"], [10, 1e-400]]}},
                "degree or threshold must be a string, got 0.0",
            ),
            (
                {
                    "type": "fuzzy_membership",
                    "params": {"points": [[0, "1"], [10, "0"]], "threshold": 0.5},
                },
                "degree or threshold must be a string, got 0.5",
            ),
            (
                {"type": "nonstandard", "params": {"threshold": 7}},
                "threshold must be a string, got 7",
            ),
        ],
    )
    def test_numeric_degree_or_threshold(self, capsys, tmp_path, backend, message):
        # Written as JSON numbers: 1e-400 would load as 0 and print as (0, 0).
        config = tmp_path / "numbers.json"
        config.write_text(
            json.dumps({"name": "numbers", "range": [0, 10], "backend": backend})
        )
        code, out, err = run(capsys, "sorites", "run", str(config))
        assert code == 2
        assert out == ""
        assert err == f"config error at /backend/params: {message}\n"

    @pytest.mark.parametrize("output", [False, True])
    def test_name_with_a_lone_surrogate(self, capsys, tmp_path, output):
        config = tmp_path / "surrogate.json"
        config.write_text(
            '{"name": "a\\ud800b", "range": [1, 10],'
            ' "backend": {"type": "classical_cutoff", "params": {"cutoff": 5}}}'
        )
        report = tmp_path / "report.txt"
        argv = ["sorites", "run", str(config)] + (["-o", str(report)] if output else [])
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "config error at /name: name holds a lone surrogate at offset 1\n"
        assert not report.exists()

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


def _oracle_run(text, seed):
    """Exit code and last stdout line of ``numbers eval --oracle`` on ``text``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["numbers", "eval", "--oracle", "--seed", str(seed), "--", text])
    return code, out.getvalue().splitlines()[-1]


class TestOracleIsTheRoundTrip:
    """The old oracle's membership and inverse checks never decided anything.

    On every value the old check, ``reference_sampling.old_cli_oracle``,
    gives the verdict of the round trip alone and draws nothing, so the
    CLI's ``oracle:`` line is the line the old check printed.
    """

    def check(self, text, seed):
        old = old_cli_oracle(parse_external(text), seed)
        assert old.verdict == old.round_trip
        assert not old.drew
        verdict = "ok" if old.verdict else "MISMATCH"
        assert _oracle_run(text, seed) == (
            0 if old.verdict else 1,
            f"oracle: {verdict} (seed {seed})",
        )
        return old

    def test_drawn_values(self):
        rng = random.Random(26)
        inverted = 0
        for seed in range(400):
            self.check(str(rand_external(rng)), seed)
            inverted += self.check(str(rand_invertible_external(rng)), seed).inverted
        assert inverted > 200

    @settings(max_examples=300)
    @given(texts(NUMBER_PIECES), st.integers(min_value=0, max_value=2**32))
    def test_lexer_texts(self, text, seed):
        try:
            parse_external(text)
        except ParseError:
            return
        self.check(text, seed)


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


class TestDeferredImports:
    """A subcommand imports its entry point when it runs, so it calls
    whatever the module attribute holds then, as a patch or a tracer
    installed after ``soritica.cli`` was imported."""

    def test_laws(self, capsys, monkeypatch):
        calls = []

        def suite(seed, n):
            calls.append((seed, n))
            return []

        monkeypatch.setattr(laws, "run_law_suite", suite)
        code, out, _ = run(capsys, "laws", "--seed", "3", "--n", "2")
        assert code == 0
        assert calls == [(3, 2)]
        assert out.endswith("law suite (seed 3, n 2)\n")

    def test_sorites_run(self, capsys, monkeypatch):
        calls = []

        def run_scenario(scenario):
            calls.append(scenario.name)
            return types.SimpleNamespace(to_text=lambda: "patched report\n")

        monkeypatch.setattr(sorites, "run_scenario", run_scenario)
        config = str(FIXTURES / "nonstandard_heap.json")
        code, out, _ = run(capsys, "sorites", "run", config)
        assert code == 0
        assert calls == ["nonstandard_heap"]
        assert out == "patched report\n"

    def test_tables(self, capsys, monkeypatch):
        monkeypatch.setattr(semantics, "kleene_tables", lambda: "patched tables\n")
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert out == "patched tables\n"


def _failing_law(monkeypatch):
    law = dataclasses.replace(laws.LAWS[0], check=lambda instance, rng: False)
    monkeypatch.setattr(laws, "LAWS", (law,))


def _failing_oracle(monkeypatch):
    """The oracle's re-parse of the printed text gives a different number."""
    calls = []

    def parse(text):
        calls.append(text)
        return parse_external(text if len(calls) == 1 else "2")

    monkeypatch.setattr(cli, "parse_external", parse)


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


# -- numbers eval on drawn texts -----------------------------------------------

#: What stderr starts with when ``numbers eval`` exits 2: the CLI's own
#: prefixes, and argparse's usage line.
EVAL_PREFIXES = ("syntax error: ", "cannot print result: ", "usage: ")

_LIMIT = sys.get_int_max_str_digits()
NUMERALS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 99)).map("{0[0]}/{0[1]}".format),
    st.integers(_LIMIT - 1, _LIMIT + 1).map(lambda digits: "9" * digits),
    st.integers(_LIMIT - 1, _LIMIT + 1).map(lambda digits: "1/" + "7" * digits),
)
EXPONENTS = st.sampled_from(["2", "-1", "(1/2)", "(-3/4)", "0"])
SYMBOLS = st.one_of(
    NUMERALS,
    st.sampled_from(["0", "-1", "1/2", "-3/4"]).map("L({})".format),
    st.sampled_from(["0", "-1", "1/2", "-3/4"]).map("o({})".format),
    st.sampled_from(["osl", "⊘", "lim", "£", "e"]),
    EXPONENTS.map("e^{}".format),
)


@st.composite
def eval_texts(draw):
    """A text over every symbol of the number language: a chain of terms,
    nested shallow or about ``MAX_NESTING`` deep, with 0-3 characters
    inserted."""
    terms = draw(st.lists(SYMBOLS, min_size=1, max_size=5))
    ops = draw(st.lists(st.sampled_from([" + ", " - ", "*"]), min_size=len(terms)))
    text = "".join(op + term for op, term in zip(ops, terms))[len(ops[0]) :]
    if draw(st.booleans()):
        levels = draw(st.integers(0, 3))
    else:
        levels = draw(st.integers(MAX_NESTING - 1, MAX_NESTING + 1))
    openers = draw(st.lists(st.sampled_from(["(", "-"]), min_size=levels, max_size=levels))
    text = "".join(openers) + text + ")" * openers.count("(")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(list("()-^*+/ 0e@é٣"))) + text[at:]
    return text


def _eval(argv):
    """``main(argv)`` in process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2  # argparse refused the arguments
            code = "argparse"
    return code, out.getvalue(), err.getvalue()


class TestDrawnEval:
    """``numbers eval`` gives a value or a typed error, never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(eval_texts(), st.booleans(), st.booleans())
    def test_exit_contract(self, text, oracle, dashes):
        dashes = dashes or text.startswith("-")
        argv = ["numbers", "eval", *(["--oracle"] if oracle else []), *(["--"] if dashes else []), text]
        code, out, err = _eval(argv)
        assert code in (0, 1, 2, "argparse")
        if code in (2, "argparse"):
            assert err.startswith(EVAL_PREFIXES) and out == ""
        else:
            assert err == "" and len(out.splitlines()) == 2 + oracle

    def test_leading_minus_needs_dashes(self):
        code, out, err = _eval(["numbers", "eval", "-e^(-1)"])
        assert code == "argparse" and out == ""
        assert "the following arguments are required: expr" in err
        code, out, err = _eval(["numbers", "eval", "--", "-e^(-1)"])
        assert (code, out, err) == (0, "-e^(-1)\nUnlimited\n", "")


# -- sorites run, laws and tables on drawn arguments ---------------------------

#: What stderr starts with when ``sorites run`` exits 2: the CLI's own prefixes.
SORITES_PREFIXES = (
    "config error at ",
    "cannot read config: ",
    "cannot print result: ",
    "cannot write output: ",
)

#: Valid configs whose reports hold a numeral past the int-to-str digit
#: limit: a weakest-link degree with a denominator of about 63 * 10**4299,
#: and a doubling sample ``bound/2`` with a 4301-digit denominator.
PAST_THE_LIMIT = {
    "big": {
        "name": "big",
        "range": [0, 10 ** (_LIMIT - 1)],
        "backend": {
            "type": "fuzzy_membership",
            "params": {
                "points": [[0, "1/7"], [10 ** (_LIMIT - 1), "8/9"]],
                "threshold": "1/2",
            },
        },
    },
    "tiny": {
        "name": "tiny",
        "range": [0, 10],
        "backend": {"type": "nonstandard", "params": {"threshold": "1/" + "9" * _LIMIT}},
    },
}


class TestPastTheDigitLimit:
    """A report holding a numeral past the digit limit is refused whole."""

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", PAST_THE_LIMIT)
    def test_exit_2(self, tmp_path, name, fmt, to_file):
        config, output = tmp_path / "config.json", tmp_path / "report"
        config.write_text(json.dumps(PAST_THE_LIMIT[name]))
        argv = ["sorites", "run", str(config), "--format", fmt]
        code, out, err = _eval(argv + (["-o", str(output)] if to_file else []))
        assert (code, out) == (2, "")
        assert err == f"cannot print result: numeral over {_LIMIT} digits\n"
        assert not output.exists()


class Numeral(str):
    """A JSON integer written as these digits, which may pass the limit."""


def _dump(value) -> str:
    """``value`` as JSON text, each ``Numeral`` written as it is."""
    if isinstance(value, Numeral):
        return value
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dump, value)) + "]"
    return json.dumps(value)


def _near_the_limit(digits):
    """Runs of one of ``digits``, one shorter than the limit to one longer."""
    return st.tuples(st.sampled_from(digits), st.integers(_LIMIT - 1, _LIMIT + 1)).map(
        lambda drawn: drawn[0] * drawn[1]
    )


JSON_INTS = st.one_of(
    st.integers(-3, 12),
    st.tuples(st.sampled_from(["", "-"]), _near_the_limit("19")).map(
        lambda drawn: Numeral("".join(drawn))
    ),
)
JSON_STRINGS = st.one_of(
    # First, as the simplest: a report passes the digit limit only from
    # such a fraction in the right place.
    _near_the_limit("159").map("1/{}".format),
    st.sampled_from(
        ["0", "1", "1/2", "1/7", "8/9", "-1/3", "3/2", "1e-5000", "e^(-1)", "e^(-1) + 7"]
        + ["limited", "e", "x", "", "a\ud800b"]
    ),
    _near_the_limit("9"),
)
JSON_VALUES = st.one_of(
    JSON_INTS,
    JSON_STRINGS,
    st.sampled_from([None, True, 0.5, 1e300, [], {}, [[[]]], [[0, "1"], [10, "0"]]]),
)

FIXTURE_CONFIGS = [
    json.loads(path.read_text(encoding="utf-8"))
    for path in sorted(FIXTURES.iterdir(), key=lambda path: path.name)
    if path.name.endswith(".json") and path.name != "sorites_config.schema.json"
]


def _leaves(value, path=()):
    """The path of every value in ``value`` that is not an array or object."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        yield path
        return
    for key, child in children:
        yield from _leaves(child, (*path, key))


@st.composite
def sorites_configs(draw):
    """A bundled fixture with 1-3 of its leaf values swapped for drawn ones:
    half of them backend params, most for a value of the same JSON type."""
    config = copy.deepcopy(draw(st.sampled_from(FIXTURE_CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        leaves = list(_leaves(config))
        params = [path for path in leaves if path[:2] == ("backend", "params")]
        *parents, key = draw(st.sampled_from(params or leaves) | st.sampled_from(leaves))
        node = config
        for parent in parents:
            node = node[parent]
        like = {str: JSON_STRINGS, int: JSON_INTS}.get(type(node[key]), JSON_VALUES)
        drawn = draw(JSON_VALUES if draw(st.integers(0, 3)) == 3 else like)
        node[key] = copy.deepcopy(drawn)  # a drawn array or object is shared
    return config


class TestDrawnCommands:
    """``sorites run``, ``laws`` and ``tables`` give output or a typed error."""

    @settings(max_examples=300, deadline=None)
    @given(sorites_configs(), st.sampled_from(["text", "json"]), st.booleans())
    def test_sorites_run(self, config, fmt, to_file):
        with tempfile.TemporaryDirectory() as tmp:
            path, output = Path(tmp, "config.json"), Path(tmp, "report")
            path.write_text(_dump(config), encoding="utf-8")
            argv = ["sorites", "run", str(path), "--format", fmt]
            code, out, err = _eval(argv + (["-o", str(output)] if to_file else []))
            assert code in (0, 1, 2, "argparse")
            if code in (2, "argparse"):
                assert err.startswith(SORITES_PREFIXES) and out == ""
                assert not output.exists()
                return
            assert err == ""
            if to_file:
                assert out == ""
                out = output.read_text(encoding="utf-8")
            assert out.startswith("{" if fmt == "json" else "scenario: ")
            if fmt == "json":
                json.loads(out)

    @settings(max_examples=20, deadline=None)
    @given(
        st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["", "x", "1.5"])),
        st.integers(-(2**70), 2**70),
    )
    def test_laws(self, n, seed):
        code, out, err = _eval(["laws", "--seed", str(seed), "--n", n])
        assert code in (0, 1, 2, "argparse")
        if code in (2, "argparse"):
            assert err.startswith(("laws: ", "usage: ")) and out == ""
        else:
            assert err == ""
            assert out.startswith(f"soritica {cli.__version__} law suite (seed {seed}, n {n})\n")

    def test_tables(self):
        assert _eval(["tables"]) == (0, TABLES_GOLDEN.read_text(encoding="utf-8"), "")
