"""Reference parsers that the shared precedence loop is tested against.

These are the grammars as they were written before ``Descent.parse_infix``:
one descent method per precedence level, each a loop over its own ops.
Each reference parser is the real parser with ``parse_infix`` replaced by
that descent, so the tokens, operands, heights and errors are the real
parser's and only the folding of infix chains differs.
"""

from soritica.formulas import And, Iff, Implies, Or, _Parser
from soritica.neutrix import _ExternalExprParser
from soritica.series import ExprParser


class ReferenceFormulaParser(_Parser):
    def parse_infix(self, operand, table, join):
        return self.parse_iff()

    def parse_iff(self):
        first = self.parse_implies()
        if not self.at_op("<->"):
            return first
        formula, height = first
        while self.at_op("<->"):
            token = self.advance()
            right, right_height = self.parse_implies()
            formula, height = self.node(
                token, Iff(formula, right), height, right_height
            )
        return formula, height

    def parse_implies(self):
        """``p -> q -> r`` is ``p -> (q -> r)``: read by a loop, folded right."""
        last = self.parse_or()
        if not self.at_op("->"):
            return last
        parts, ops = [last], []
        while self.at_op("->"):
            ops.append(self.advance())
            parts.append(self.parse_or())
        formula, height = parts.pop()
        while ops:
            left, left_height = parts.pop()
            formula, height = self.node(
                ops.pop(), Implies(left, formula), left_height, height
            )
        return formula, height

    def parse_or(self):
        first = self.parse_and()
        if not self.at_op("|"):
            return first
        formula, height = first
        while self.at_op("|"):
            token = self.advance()
            right, right_height = self.parse_and()
            formula, height = self.node(
                token, Or(formula, right), height, right_height
            )
        return formula, height

    def parse_and(self):
        first = self.parse_unary()
        if not self.at_op("&"):
            return first
        formula, height = first
        while self.at_op("&"):
            token = self.advance()
            right, right_height = self.parse_unary()
            formula, height = self.node(
                token, And(formula, right), height, right_height
            )
        return formula, height


class ReferenceSeriesParser(ExprParser):
    def parse_infix(self, operand, table, join):
        return self.parse_sum()

    def parse_sum(self):
        value = self.parse_product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_product(self):
        value = self.parse_factor()
        while self.at_op("*"):
            self.advance()
            value = value * self.parse_factor()
        return value


class ReferenceExternalParser(ReferenceSeriesParser, _ExternalExprParser):
    """The external-number grammar's symbols over the reference descent."""


def ref_parse_formula(text):
    return ReferenceFormulaParser(text).parse()


def ref_parse_series(text):
    return ReferenceSeriesParser(text).parse()


def ref_parse_external(text):
    return ReferenceExternalParser(text).parse()
