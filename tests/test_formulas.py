import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from soritica import semantics
from soritica._trusted import trusted
from soritica.bounds import MAX_HEIGHT, MAX_NESTING
from soritica.formulas import (
    And,
    Atom,
    Exists,
    Forall,
    FormulaSyntaxError,
    Iff,
    Implies,
    Index,
    Not,
    Or,
    PropVar,
    _PLAIN_TOKEN_RE,
    _TOKEN_RE,
    formula_to_str,
    parse_formula,
)

from reference_parsers import old_parse_formula, ref_parse_formula


class TestParsing:
    def test_implication(self):
        assert parse_formula("S(1) -> S(2)") == Implies(
            Atom("S", Index(None, 1)), Atom("S", Index(None, 2))
        )

    def test_quantifier_binds_loosest(self):
        got = parse_formula("forall n in D. S(n) -> S(n+1)")
        assert got == Forall(
            "n",
            "D",
            Implies(
                Atom("S", Index("n", 0)), Atom("S", Index("n", 1))
            ),
        )

    def test_literal_domain(self):
        got = parse_formula("exists n in 1..9. S(n) & ~S(n+1)")
        assert isinstance(got, Exists)
        assert got.domain == (1, 9)

    def test_precedence(self):
        got = parse_formula("~p & q | r -> s <-> t")
        assert got == Iff(
            Implies(Or(And(Not(PropVar("p")), PropVar("q")), PropVar("r")), PropVar("s")),
            PropVar("t"),
        )

    def test_implies_right_associative(self):
        got = parse_formula("p -> q -> r")
        assert got == Implies(PropVar("p"), Implies(PropVar("q"), PropVar("r")))

    def test_unbalanced_error_position(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula("S(1")
        assert info.value.position == 3

    def test_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p -> ")


small_ints = st.integers(min_value=-9, max_value=9)
domains = st.one_of(st.tuples(small_ints, small_ints), st.just("D"))
formulas = st.recursive(
    st.one_of(
        st.sampled_from([PropVar("p"), PropVar("q"), PropVar("r")]),
        small_ints.map(lambda n: Atom("S", Index(None, n))),
        st.builds(Index, st.sampled_from(["n", "m"]), st.integers(0, 9)).map(
            lambda index: Atom("S", index)
        ),
    ),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Implies, children, children),
        st.builds(Iff, children, children),
        st.builds(Forall, st.sampled_from(["n", "m"]), domains, children),
        st.builds(Exists, st.sampled_from(["n", "m"]), domains, children),
    ),
    max_leaves=10,
)


class TestIndex:
    def test_negative_offset_refused(self):
        with pytest.raises(ValueError, match="negative offset"):
            Index("n", -1)

    def test_literal_may_be_negative(self):
        # A literal is an index value, not an offset; evaluators take any.
        assert semantics.eval_classical(Atom("S", Index(None, -2)), cutoff=0)

    @pytest.mark.parametrize(
        "var, offset, printed",
        [
            (None, True, "S(True)"),
            (None, False, "S(False)"),
            (None, 1.5, "S(1.5)"),
            (None, "3", "S(3)"),
            ("n", True, "S(n+True)"),
            ("n n", 0, "S(n n)"),
            ("forall", 0, "S(forall)"),
            ("1n", 0, "S(1n)"),
            ("", 0, "S()"),
            (3, 1, "S(3+1)"),
        ],
    )
    def test_fields_that_do_not_print_back_refused(self, var, offset, printed):
        # Unchecked, each index prints as text that does not parse, or that
        # parses as another atom: S(True) as S on a variable named True.
        unchecked = Atom("S", trusted(Index)(var, offset))
        assert formula_to_str(unchecked) == printed
        try:
            parsed = parse_formula(printed)
        except FormulaSyntaxError:
            parsed = None
        assert parsed != unchecked
        with pytest.raises(TypeError, match="index (offset|variable) must be"):
            Index(var, offset)

    def test_printable_fields_kept(self):
        for index in (Index(None, -2), Index("n_1", 3), Index("_", 0), Index("m", 0)):
            text = formula_to_str(Atom("S", index))
            assert parse_formula(text) == Atom("S", index)

    def test_variable_offset_below_zero_refused(self):
        # Only a literal takes a sign: ``n-1`` is not an index term.
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula("S(n-1)")
        assert info.value.position == 3


P = PropVar("p")


class TestNodeFields:
    """Names and domains are checked where a node is built, as in ``Index``."""

    @pytest.mark.parametrize(
        "cls, fields",
        [
            (PropVar, ("n n",)),
            (PropVar, (3,)),
            (PropVar, ("é",)),
            (Atom, ("forall", Index(None, 1))),
            (Atom, (None, Index(None, 1))),
            (Forall, ("n n", (1, 2), P)),
            (Forall, ("n", (1.5, 2), P)),
            (Forall, ("n", (True, 2), P)),
            (Forall, ("n", [1, 2], P)),
            (Forall, ("n", (1, 2, 3), P)),
            (Exists, ("in", "D", P)),
            (Exists, ("n", "exists", P)),
        ],
    )
    def test_fields_that_do_not_print_back_refused(self, cls, fields):
        # Unchecked, each node prints as something other than text that
        # parses back as it: PropVar(3) prints as the int 3.
        unchecked = trusted(cls)(*fields)
        printed = formula_to_str(unchecked)
        try:
            parsed = parse_formula(printed)
        except (FormulaSyntaxError, TypeError):
            parsed = None
        assert parsed != unchecked
        with pytest.raises(TypeError, match="must be a name"):
            cls(*fields)


class TestPrinting:
    @given(formulas)
    def test_round_trip(self, formula):
        assert parse_formula(formula_to_str(formula)) == formula

    def test_quantifier_round_trip(self):
        text = "forall n in 1..9. S(n) -> S(n+1)"
        formula = parse_formula(text)
        assert formula_to_str(formula) == text
        assert parse_formula(formula_to_str(formula)) == formula

    def test_negative_domain_bounds(self):
        text = "forall n in -3..3. exists m in -9..-4. S(n) | S(m)"
        formula = parse_formula(text)
        assert formula.domain == (-3, 3)
        assert formula.body.domain == (-9, -4)
        assert formula_to_str(formula) == text

    @pytest.mark.parametrize(
        "text, position, message",
        [
            ("forall n in -x..3. p", 13, "expected a finite domain"),
            ("forall n in 1..-. p", 16, "expected the domain upper bound"),
            ("forall n in 1..q. p", 15, "expected the domain upper bound"),
        ],
    )
    def test_domain_bound_errors(self, text, position, message):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(text)
        assert (info.value.position, info.value.message) == (position, message)


class TestNestingLimit:
    @pytest.mark.parametrize(
        "open_, close, levels",
        [("~", "", 1), ("(", ")", 1), ("~(", ")", 2), ("forall n in 1..2. ", "", 1)],
    )
    def test_at_and_past_the_limit(self, open_, close, levels):
        repeats = MAX_NESTING // levels
        text = open_ * repeats + "S(n)" + close * repeats
        formula = parse_formula(text)
        assert parse_formula(formula_to_str(formula)) == formula
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(open_ * repeats + "~S(n)" + close * repeats)
        assert info.value.position == len(open_) * repeats
        assert info.value.message.startswith("nesting deeper than")

    def test_thousands_of_negations(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula("~" * 5000 + "p")
        assert info.value.position == MAX_NESTING

    def test_siblings_do_not_add_up(self):
        text = " & ".join(["(~p)"] * (2 * MAX_NESTING))
        assert formula_to_str(parse_formula(text)).count("~p") == 2 * MAX_NESTING


CONNECTIVES = ["->", "&", "|", "<->"]


def chain(op, operands):
    return f" {op} ".join(["p"] * operands)


class TestHeightLimit:
    @pytest.mark.parametrize("op", CONNECTIVES)
    def test_long_chain_is_a_syntax_error(self, op):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(chain(op, 10**4))
        assert info.value.message == f"formula taller than {MAX_HEIGHT} levels"

    @pytest.mark.parametrize("op", CONNECTIVES)
    def test_chain_at_the_bound(self, op):
        text = chain(op, MAX_HEIGHT)
        formula = parse_formula(text)
        assert formula_to_str(formula) == text
        assert parse_formula(formula_to_str(formula)) == formula
        assert semantics.collect_variables(formula) == ("p",)
        assert semantics.eval_classical(formula, propvars={"p": True})
        assert semantics.eval_k3(formula, propvars={"p": 1}) == 1
        assert semantics.eval_fuzzy(formula, propvars={"p": 1}) == 1
        assert (
            semantics.eval_super(formula, [1, 2], propvars={"p": True})
            is semantics.SuperVerdict.SUPERTRUE
        )

    @pytest.mark.parametrize(
        # The node past the bound is the root: the last '&' of the left
        # fold, the first '->' of the right fold.
        "op, find",
        [("&", str.rindex), ("->", str.index)],
    )
    def test_offset_of_the_crossing_node(self, op, find):
        text = chain(op, MAX_HEIGHT + 1)
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(text)
        assert info.value.position == find(text, op)

    @pytest.mark.parametrize(
        "prefix, position", [("~", 0), ("forall n in 1..2. ", 0)]
    )
    def test_prefix_node_crossing(self, prefix, position):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(prefix + "(" + chain("&", MAX_HEIGHT) + ")")
        assert info.value.position == position

    def test_syntax_error_reported_before_height(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(chain("&", 10**4) + " )")
        assert info.value.message == "unexpected token ')'"


class TestLongNumerals:
    @pytest.mark.parametrize(
        "text, position",
        [("S(" + "1" * 5000 + ")", 2), ("exists n in 1.." + "9" * 5000 + ". S(n)", 15)],
    )
    def test_typed_error_at_the_literal(self, text, position):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(text)
        assert info.value.position == position
        assert info.value.message.startswith("numeral longer than")


def parsed(text):
    """The tree ``parse_formula`` gives, or its error's message and offset."""
    try:
        return parse_formula(text)
    except FormulaSyntaxError as error:
        return error.message, error.position


def reference_parsed(parse, text):
    try:
        return parse(text)
    except FormulaSyntaxError as error:
        return error.message, error.position


S3, SN1 = Atom("S", Index(None, 3)), Atom("S", Index("n", 1))
LONG = "9" * 5000


class TestAtomTokens:
    """An atom written without spaces is one token, and parses to the tree
    and the error it gave as its parts."""

    @pytest.mark.parametrize(
        "text, want",
        [
            ("forall(3)", ("expected a quantifier variable", 6)),
            ("S(in)", ("expected an index term", 2)),
            ("S(in+1)", ("expected an index term", 2)),
            ("in(n+1)", ("expected a formula", 0)),
            ("S(n+1) & forall(2)", ("expected a formula", 9)),
            ("S(n+" + LONG + ")", ("numeral longer than 4300 digits", 4)),
            ("S(" + LONG + ") | p", ("numeral longer than 4300 digits", 2)),
            ("S(S(3))", ("expected ')'", 3)),
            ("p S(3)", ("unexpected token 'S'", 2)),
            ("forall S(3) in 1..2. p", ("expected 'in'", 8)),
            ("~" * 5000 + "S(1)", (f"nesting deeper than {MAX_NESTING} levels", 100)),
            ("S (3)", S3),
            ("S( n + 1 )", SN1),
            ("S(n +1)", SN1),
            ("S(-2)", Atom("S", Index(None, -2))),
            ("S(007)", Atom("S", Index(None, 7))),
            ("S(n+0)", Atom("S", Index("n", 0))),
            ("S(٣)", S3),
        ],
    )
    def test_tree_or_error(self, text, want):
        assert parsed(text) == want
        assert reference_parsed(old_parse_formula, text) == want
        assert reference_parsed(ref_parse_formula, text) == want

    def test_height_error_at_the_plain_offset(self):
        text = " & ".join(["S(1)"] * (MAX_HEIGHT + 1))
        want = f"formula taller than {MAX_HEIGHT} levels", text.rindex("&")
        assert parsed(text) == want

    def test_equal_atoms_shared_within_a_parse(self):
        formula = parse_formula("S(n+1) & ~S(n+1) | S(3) -> S(3)")
        conjunction, s3 = formula.left.left, formula.left.right
        assert conjunction.left is conjunction.right.body
        assert s3 is formula.right

    def test_atoms_not_shared_across_calls(self):
        assert parse_formula("S(n+1)") is not parse_formula("S(n+1)")


class TestTrustedConstructors:
    """The parser fills node slots directly; its trees are the ones the
    public constructors build, and those still check."""

    @given(formulas)
    def test_parsed_tree_as_built(self, formula):
        parsed = parse_formula(formula_to_str(formula))
        assert parsed == formula
        assert hash(parsed) == hash(formula)
        assert repr(parsed) == repr(formula)

    @pytest.mark.parametrize(
        "text, built",
        [
            (
                "forall n in 1..9. S(n) & ~S(n+1)",
                Forall(
                    "n",
                    (1, 9),
                    And(Atom("S", Index("n", 0)), Not(Atom("S", Index("n", 1)))),
                ),
            ),
            (
                "exists m in D. (p <-> S (-2)) | q -> r",
                Exists(
                    "m",
                    "D",
                    Implies(
                        Or(Iff(PropVar("p"), Atom("S", Index(None, -2))), PropVar("q")),
                        PropVar("r"),
                    ),
                ),
            ),
        ],
    )
    def test_every_node_class(self, text, built):
        for parse in (parse_formula, old_parse_formula):
            parsed = parse(text)
            assert (parsed, hash(parsed), repr(parsed)) == (built, hash(built), repr(built))

    def test_nodes_have_slots_and_stay_frozen(self):
        formula = parse_formula("~S(n+1) & p")
        for node in (formula, formula.left, formula.left.body, formula.left.body.index):
            assert not hasattr(node, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            formula.left = PropVar("q")

    def test_public_index_still_checks(self):
        with pytest.raises(ValueError, match="negative offset"):
            Index("n", -1)
        assert parse_formula("S(n+0)").index == Index("n", 0)


_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
#: The token patterns as they were with the operators tried last.
OLD_PLAIN_TOKEN_RE = re.compile(r"\d+" rf"|{_NAME}" r"|<->|->|\.\.|[~&|().+,-]")
OLD_TOKEN_RE = re.compile(
    rf"{_NAME}\((?:\d+|{_NAME}(?:\+\d+)?)\)|" + OLD_PLAIN_TOKEN_RE.pattern
)
#: Every character of the grammar, stray ones (a non-ASCII digit among
#: them), and whitespace.
TOKEN_CHARS = st.sampled_from(list("Sn_p09+-<>~&|().,=@é٣ \t") + ["->", "<->", "..", "S(n+1)"])


class TestTokenOrder:
    """Trying the operators first lexes every text as before."""

    @settings(max_examples=300)
    @given(st.one_of(formulas.map(formula_to_str), st.lists(TOKEN_CHARS, max_size=40).map("".join)))
    def test_same_tokens(self, text):
        for new, old in ((_PLAIN_TOKEN_RE, OLD_PLAIN_TOKEN_RE), (_TOKEN_RE, OLD_TOKEN_RE)):
            assert new.findall(text) == old.findall(text)
            for pos in range(len(text)):
                match, was = new.match(text, pos), old.match(text, pos)
                assert (match and match.group()) == (was and was.group())
