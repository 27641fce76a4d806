"""Recursive-descent parser for the SQL subset plus with+.

Grammar (informal)::

    statement      := with_statement | set_expr
    with_statement := WITH [RECURSIVE] cte ("," cte)* statement
    cte            := name ["(" name ("," name)* ")"] AS "(" cte_body ")"
    cte_body       := branch (branch_sep branch)* [MAXRECURSION number]
    branch_sep     := UNION ALL | UNION BY UPDATE [key_cols] | UNION
    branch         := select_core [COMPUTED BY computed (";" computed)* [";"]]
    computed       := name ["(" cols ")"] AS select_core
    set_expr       := select_core ((UNION [ALL] | EXCEPT | INTERSECT) select_core)*
    select_core    := SELECT [DISTINCT] items [FROM sources] [WHERE expr]
                      [GROUP BY exprs] [HAVING expr] [ORDER BY ...] [LIMIT n]
                      | "(" set_expr ")"
    sources        := source ("," source)*
    source         := primary (join_clause)*
    join_clause    := [LEFT|RIGHT|FULL [OUTER]|INNER|CROSS] JOIN primary [ON expr]
    primary        := name [[AS] alias] | "(" statement ")" [AS] alias

The expression grammar uses standard precedence (OR < AND < NOT <
comparison/IN/EXISTS/IS < additive < multiplicative < unary < primary).

Note a with+ subtlety: inside a CTE body, branch queries are usually
parenthesised (as in the paper's figures); the parser accepts both
parenthesised and bare select cores.
"""

from __future__ import annotations

from ..errors import ParseError
from ..expressions import (
    And,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Negate,
    Not,
    Or,
)
from .ast import (
    AnalyzeStatement,
    CommonTableExpression,
    ComputedDefinition,
    CteBranch,
    CycleClause,
    ExistsSubquery,
    InSubquery,
    JoinKind,
    JoinSource,
    OrderItem,
    ScalarSubquery,
    SearchClause,
    SelectItem,
    SelectStatement,
    SetOpKind,
    SetOperation,
    Statement,
    SubquerySource,
    TableRef,
    UnionKind,
    WindowCall,
    WithStatement,
)
from .lexer import tokenize
from .tokens import Token, TokenKind

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")

#: Deepest nesting the parser accepts.  Every statement or subquery,
#: parenthesised expression, NOT, unary sign and chained binary operator
#: opens one level.  Parsing, planning and evaluation recurse at least
#: once per level, so input nested past this depth would exhaust
#: Python's recursion limit; it raises ParseError instead.
MAX_NESTING_DEPTH = 64


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token helpers -----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def accept_keyword(self, *words: str) -> bool:
        if self.current.is_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            self.error(f"expected {word.upper()}")

    def accept_punct(self, symbol: str) -> bool:
        token = self.current
        if token.kind is TokenKind.PUNCT and token.text == symbol:
            self.advance()
            return True
        return False

    def expect_punct(self, symbol: str) -> None:
        if not self.accept_punct(symbol):
            self.error(f"expected {symbol!r}")

    def accept_operator(self, *symbols: str) -> str | None:
        token = self.current
        if token.kind is TokenKind.OPERATOR and token.text in symbols:
            self.advance()
            return token.text
        return None

    def expect_identifier(self) -> str:
        token = self.current
        if token.kind is not TokenKind.IDENTIFIER:
            self.error("expected identifier")
        self.advance()
        return token.text

    def enter(self) -> None:
        """Open one nesting level (callers close it with ``depth -= 1``;
        an error abandons the parse, so no level needs closing then)."""
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            self.error(f"nesting deeper than {MAX_NESTING_DEPTH} levels")

    def error(self, message: str) -> None:
        token = self.current
        raise ParseError(f"{message}, got {token.text or '<eof>'!r}",
                         token.line, token.column)

    # -- statements -----------------------------------------------------------

    def parse_statement(self) -> Statement:
        self.enter()
        if self.current.is_keyword("with"):
            statement = self.parse_with()
        elif self.current.is_keyword("analyze"):
            statement = self.parse_analyze()
        else:
            statement = self.parse_set_expression()
        self.depth -= 1
        return statement

    def parse_analyze(self) -> AnalyzeStatement:
        self.expect_keyword("analyze")
        table: str | None = None
        if self.current.kind is TokenKind.IDENTIFIER:
            table = self.expect_identifier()
        self.accept_punct(";")
        return AnalyzeStatement(table)

    def parse_with(self) -> WithStatement:
        self.expect_keyword("with")
        recursive = self.accept_keyword("recursive")
        ctes = [self.parse_cte()]
        while self.accept_punct(","):
            ctes.append(self.parse_cte())
        body = self.parse_set_expression()
        self.accept_punct(";")
        return WithStatement(tuple(ctes), body, recursive)

    def parse_cte(self) -> CommonTableExpression:
        name = self.expect_identifier()
        columns: tuple[str, ...] = ()
        if self.accept_punct("("):
            columns = tuple(self._parse_name_list())
            self.expect_punct(")")
        self.expect_keyword("as")
        self.expect_punct("(")
        branches = [self.parse_cte_branch()]
        union_kind = UnionKind.UNION_ALL
        update_key: tuple[str, ...] = ()
        kind_fixed = False
        while True:
            kind = self._parse_union_separator()
            if kind is None:
                break
            this_kind, this_key = kind
            if kind_fixed and this_kind is not union_kind:
                self.error("mixed union separators in one CTE body")
            union_kind = this_kind
            update_key = this_key or update_key
            kind_fixed = True
            branches.append(self.parse_cte_branch())
        maxrecursion: int | None = None
        if self.accept_keyword("maxrecursion"):
            token = self.current
            if token.kind is not TokenKind.NUMBER:
                self.error("expected number after MAXRECURSION")
            self.advance()
            maxrecursion = int(token.value)
        self.expect_punct(")")
        search_clause = self._parse_search_clause()
        cycle_clause = self._parse_cycle_clause()
        if search_clause is None:  # Oracle accepts either ordering
            search_clause = self._parse_search_clause()
        return CommonTableExpression(name, columns, tuple(branches),
                                     union_kind, update_key, maxrecursion,
                                     search_clause, cycle_clause)

    def _parse_search_clause(self) -> SearchClause | None:
        if not self.accept_keyword("search"):
            return None
        if self.accept_keyword("depth"):
            order = "depth"
        elif self.accept_keyword("breadth"):
            order = "breadth"
        else:
            self.error("expected DEPTH or BREADTH after SEARCH")
        self.expect_keyword("first")
        self.expect_keyword("by")
        by = tuple(self._parse_name_list())
        self.expect_keyword("set")
        set_column = self.expect_identifier()
        return SearchClause(order, by, set_column)

    def _parse_cycle_clause(self) -> CycleClause | None:
        if not self.accept_keyword("cycle"):
            return None
        columns = tuple(self._parse_name_list())
        self.expect_keyword("set")
        set_column = self.expect_identifier()
        self.expect_keyword("to")
        cycle_value = self._parse_clause_literal()
        self.expect_keyword("default")
        default_value = self._parse_clause_literal()
        return CycleClause(columns, set_column, cycle_value, default_value)

    def _parse_clause_literal(self):
        token = self.current
        if token.kind in (TokenKind.NUMBER, TokenKind.STRING):
            self.advance()
            return token.value
        self.error("expected literal in CYCLE clause")

    def _parse_union_separator(self) -> tuple[UnionKind, tuple[str, ...]] | None:
        if not self.current.is_keyword("union"):
            return None
        self.advance()
        if self.accept_keyword("all"):
            return UnionKind.UNION_ALL, ()
        if self.accept_keyword("by"):
            self.expect_keyword("update")
            key: tuple[str, ...] = ()
            if self.current.kind is TokenKind.IDENTIFIER:
                names = [self.expect_identifier()]
                while self.accept_punct(","):
                    names.append(self.expect_identifier())
                key = tuple(names)
            return UnionKind.UNION_BY_UPDATE, key
        return UnionKind.UNION, ()

    def parse_cte_branch(self) -> CteBranch:
        # A parenthesised branch may itself be a set expression — the paper
        # allows any set operation between the initial queries — while an
        # unparenthesised one must stop at the next branch separator.
        parenthesised = self.accept_punct("(")
        if parenthesised:
            statement = self.parse_set_expression()
        else:
            statement = self.parse_select_core()
        computed: list[ComputedDefinition] = []
        if self.accept_keyword("computed"):
            self.expect_keyword("by")
            computed.append(self.parse_computed_definition())
            while self.accept_punct(";"):
                if (self.current.kind is TokenKind.IDENTIFIER
                        and (self.peek().is_keyword("as")
                             or (self.peek().kind is TokenKind.PUNCT
                                 and self.peek().text == "("))):
                    computed.append(self.parse_computed_definition())
                else:
                    break
        if parenthesised:
            self.expect_punct(")")
        return CteBranch(statement, tuple(computed))

    def parse_computed_definition(self) -> ComputedDefinition:
        name = self.expect_identifier()
        columns: tuple[str, ...] = ()
        if self.accept_punct("("):
            columns = tuple(self._parse_name_list())
            self.expect_punct(")")
        self.expect_keyword("as")
        statement = self.parse_select_core()
        return ComputedDefinition(name, columns, statement)

    def _parse_name_list(self) -> list[str]:
        names = [self.expect_identifier()]
        while self.accept_punct(","):
            names.append(self.expect_identifier())
        return names

    def parse_set_expression(self) -> Statement:
        left = self.parse_select_core()
        while True:
            if self.current.is_keyword("union"):
                # Distinguish SQL'99 set ops from the with+ separator, which
                # is only legal inside a CTE body (handled in parse_cte).
                if self.peek().is_keyword("by"):
                    break
                self.advance()
                kind = SetOpKind.UNION_ALL if self.accept_keyword("all") \
                    else SetOpKind.UNION
            elif self.current.is_keyword("except"):
                self.advance()
                kind = SetOpKind.EXCEPT
            elif self.current.is_keyword("intersect"):
                self.advance()
                kind = SetOpKind.INTERSECT
            else:
                break
            right = self.parse_select_core()
            left = SetOperation(left, kind, right)
        return left

    def parse_select_core(self) -> Statement:
        if self.accept_punct("("):
            inner = self.parse_set_expression()
            self.expect_punct(")")
            return inner
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())
        sources: tuple = ()
        if self.accept_keyword("from"):
            source_list = [self.parse_from_source()]
            while self.accept_punct(","):
                source_list.append(self.parse_from_source())
            sources = tuple(source_list)
        where = self.parse_expression() if self.accept_keyword("where") else None
        group_by: tuple[Expression, ...] = ()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            exprs = [self.parse_expression()]
            while self.accept_punct(","):
                exprs.append(self.parse_expression())
            group_by = tuple(exprs)
        having = self.parse_expression() if self.accept_keyword("having") else None
        order_by: list[OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            while True:
                expr = self.parse_expression()
                descending = False
                if self.accept_keyword("desc"):
                    descending = True
                else:
                    self.accept_keyword("asc")
                order_by.append(OrderItem(expr, descending))
                if not self.accept_punct(","):
                    break
        limit: int | None = None
        if self.accept_keyword("limit"):
            token = self.current
            if token.kind is not TokenKind.NUMBER:
                self.error("expected number after LIMIT")
            self.advance()
            limit = int(token.value)
        return SelectStatement(tuple(items), sources, where, group_by,
                               having, tuple(order_by), limit, distinct)

    def parse_select_item(self) -> SelectItem:
        token = self.current
        if token.kind is TokenKind.OPERATOR and token.text == "*":
            self.advance()
            return SelectItem(None, star=True)
        if (token.kind is TokenKind.IDENTIFIER
                and self.peek().kind is TokenKind.PUNCT
                and self.peek().text == "."
                and self.peek(2).kind is TokenKind.OPERATOR
                and self.peek(2).text == "*"):
            qualifier = self.expect_identifier()
            self.advance()  # "."
            self.advance()  # "*"
            return SelectItem(None, star=True, star_qualifier=qualifier)
        expr = self.parse_expression()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier()
        elif self.current.kind is TokenKind.IDENTIFIER:
            alias = self.expect_identifier()
        return SelectItem(expr, alias)

    # -- FROM sources ----------------------------------------------------------

    def parse_from_source(self):
        source = self.parse_from_primary()
        while True:
            kind = self._parse_join_kind()
            if kind is None:
                return source
            right = self.parse_from_primary()
            condition = None
            if kind is not JoinKind.CROSS:
                self.expect_keyword("on")
                condition = self.parse_expression()
            source = JoinSource(source, right, kind, condition)

    def _parse_join_kind(self) -> JoinKind | None:
        if self.accept_keyword("cross"):
            self.expect_keyword("join")
            return JoinKind.CROSS
        if self.accept_keyword("inner"):
            self.expect_keyword("join")
            return JoinKind.INNER
        if self.accept_keyword("left"):
            self.accept_keyword("outer")
            self.expect_keyword("join")
            return JoinKind.LEFT
        if self.accept_keyword("right"):
            self.accept_keyword("outer")
            self.expect_keyword("join")
            return JoinKind.RIGHT
        if self.accept_keyword("full"):
            self.accept_keyword("outer")
            self.expect_keyword("join")
            return JoinKind.FULL
        if self.accept_keyword("join"):
            return JoinKind.INNER
        return None

    def parse_from_primary(self):
        if self.accept_punct("("):
            statement = self.parse_statement()
            self.expect_punct(")")
            self.accept_keyword("as")
            alias = self.expect_identifier()
            return SubquerySource(statement, alias)
        name = self.expect_identifier()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier()
        elif (self.current.kind is TokenKind.IDENTIFIER
              and not self.current.is_keyword()):
            alias = self.expect_identifier()
        return TableRef(name, alias)

    # -- expressions --------------------------------------------------------------

    def parse_expression(self) -> Expression:
        self.enter()
        expression = self.parse_or()
        self.depth -= 1
        return expression

    def parse_or(self) -> Expression:
        operands = [self.parse_and()]
        while self.accept_keyword("or"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))

    def parse_and(self) -> Expression:
        operands = [self.parse_not()]
        while self.accept_keyword("and"):
            operands.append(self.parse_not())
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def parse_not(self) -> Expression:
        if self.current.is_keyword("not") and not self.peek().is_keyword(
                "in", "exists", "like", "between"):
            self.advance()
            self.enter()
            operand = self.parse_not()
            self.depth -= 1
            return Not(operand)
        return self.parse_comparison()

    def parse_comparison(self) -> Expression:
        if self.current.is_keyword("exists") or (
                self.current.is_keyword("not") and self.peek().is_keyword("exists")):
            negated = self.accept_keyword("not")
            self.expect_keyword("exists")
            self.expect_punct("(")
            subquery = self.parse_statement()
            self.expect_punct(")")
            return ExistsSubquery(subquery, negated)
        left = self.parse_additive()
        operator = self.accept_operator(*_COMPARISONS)
        if operator:
            right = self.parse_additive()
            return BinaryOp(operator, left, right)
        if self.current.is_keyword("is"):
            self.advance()
            negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return IsNull(left, negated)
        negated = False
        if self.current.is_keyword("not") and self.peek().is_keyword(
                "in", "between"):
            self.advance()
            negated = True
        if self.accept_keyword("in"):
            return self._parse_in_tail(left, negated)
        if self.accept_keyword("between"):
            low = self.parse_additive()
            self.expect_keyword("and")
            high = self.parse_additive()
            between = And((BinaryOp(">=", left, low), BinaryOp("<=", left, high)))
            return Not(between) if negated else between
        return left

    def _parse_in_tail(self, operand: Expression, negated: bool) -> Expression:
        # The paper writes both "x not in (select ...)" and the shorthand
        # "x not in select ..." (Fig. 5); accept both.
        if self.current.is_keyword("select"):
            subquery = self.parse_select_core()
            return InSubquery(operand, subquery, negated)
        self.expect_punct("(")
        if self.current.is_keyword("select", "with"):
            subquery = self.parse_statement()
            self.expect_punct(")")
            return InSubquery(operand, subquery, negated)
        items = [self.parse_expression()]
        while self.accept_punct(","):
            items.append(self.parse_expression())
        self.expect_punct(")")
        return InList(operand, tuple(items), negated)

    def parse_additive(self) -> Expression:
        # Each chained operator nests the left operand one level deeper.
        left = self.parse_multiplicative()
        opened = self.depth
        while True:
            operator = self.accept_operator("+", "-", "||")
            if not operator:
                self.depth = opened
                return left
            self.enter()
            right = self.parse_multiplicative()
            left = BinaryOp(operator, left, right)

    def parse_multiplicative(self) -> Expression:
        left = self.parse_unary()
        opened = self.depth
        while True:
            operator = self.accept_operator("*", "/", "%")
            if not operator:
                self.depth = opened
                return left
            self.enter()
            right = self.parse_unary()
            left = BinaryOp(operator, left, right)

    def parse_unary(self) -> Expression:
        for sign in ("-", "+"):
            if self.accept_operator(sign):
                self.enter()
                operand = self.parse_unary()
                self.depth -= 1
                return Negate(operand) if sign == "-" else operand
        return self.parse_primary()

    def parse_primary(self) -> Expression:
        token = self.current
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return Literal(token.value)
        if token.kind is TokenKind.STRING:
            self.advance()
            return Literal(token.value)
        if token.is_keyword("null"):
            self.advance()
            return Literal(None)
        if token.is_keyword("true"):
            self.advance()
            return Literal(True)
        if token.is_keyword("false"):
            self.advance()
            return Literal(False)
        if token.is_keyword("case"):
            return self._parse_case()
        if self.accept_punct("("):
            if self.current.is_keyword("select", "with"):
                subquery = self.parse_statement()
                self.expect_punct(")")
                return ScalarSubquery(subquery)
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        if token.kind is TokenKind.IDENTIFIER:
            name = self.expect_identifier()
            if self.accept_punct("."):
                column = self.expect_identifier()
                return ColumnRef(column, name)
            if self.current.kind is TokenKind.PUNCT and self.current.text == "(":
                return self._parse_function_call(name)
            return ColumnRef(name)
        self.error("expected expression")
        raise AssertionError  # pragma: no cover - error() raises

    def _parse_case(self) -> Expression:
        self.expect_keyword("case")
        branches: list[tuple[Expression, Expression]] = []
        while self.accept_keyword("when"):
            condition = self.parse_expression()
            self.expect_keyword("then")
            result = self.parse_expression()
            branches.append((condition, result))
        default = None
        if self.accept_keyword("else"):
            default = self.parse_expression()
        self.expect_keyword("end")
        if not branches:
            self.error("CASE requires at least one WHEN branch")
        return CaseWhen(tuple(branches), default)

    def _parse_function_call(self, name: str) -> Expression:
        self.expect_punct("(")
        args: list[Expression] = []
        if not (self.current.kind is TokenKind.PUNCT and self.current.text == ")"):
            if self.current.kind is TokenKind.OPERATOR and self.current.text == "*":
                # count(*)
                self.advance()
            else:
                args.append(self.parse_expression())
                while self.accept_punct(","):
                    args.append(self.parse_expression())
        self.expect_punct(")")
        if self.current.is_keyword("over"):
            self.advance()
            self.expect_punct("(")
            self.expect_keyword("partition")
            self.expect_keyword("by")
            partition = [self.parse_expression()]
            while self.accept_punct(","):
                partition.append(self.parse_expression())
            self.expect_punct(")")
            argument = args[0] if args else None
            return WindowCall(name.lower(), argument, tuple(partition))
        return FunctionCall(name, tuple(args))


def parse_statement(text: str) -> Statement:
    """Parse a complete statement; trailing semicolons are tolerated."""
    parser = _Parser(text)
    statement = parser.parse_statement()
    parser.accept_punct(";")
    if parser.current.kind is not TokenKind.EOF:
        parser.error("unexpected trailing input")
    return statement


def parse_expression(text: str) -> Expression:
    """Parse a standalone scalar/boolean expression (used by tests)."""
    parser = _Parser(text)
    expression = parser.parse_expression()
    if parser.current.kind is not TokenKind.EOF:
        parser.error("unexpected trailing input")
    return expression
