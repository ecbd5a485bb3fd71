"""Front half of the pass pipeline: pre-typecheck AST folding.

The compile pipeline is *preprocess → parse → fold/prune → typecheck →
lower → IR passes → execute*.  This module is the fold/prune stage: a
purely syntactic literal-folding and static-branch-pruning walk that
runs before the checker — the same early folding a mobile GLSL
compiler performs, which is what lets ``#ifdef``-style constant guards
hide ill-typed dead code from diagnostics.

Everything it can prove is proved again, more strongly, by the
abstract-execution fold pass in :mod:`repro.glsl.ir.passes`, which
works on typed registers with the real float model.  The AST walk is
kept (and kept *here*, as part of the IR pipeline) only for the two
things the IR pass cannot do:

* pruning branches **before** type checking, so statically-dead code
  is never diagnosed;
* shrinking the AST the lowerer has to visit.

Scalar semantics match GLSL ES 1.00: int/int division truncates
toward zero, division by a literal zero is left for the runtime's
defined-as-zero behaviour, int32 overflow is left unfolded, and
mixed int/float arithmetic (a type error) is left for the checker.
"""

from __future__ import annotations

from typing import Optional

from .. import ast_nodes as ast


def fold_unit(unit: ast.TranslationUnit) -> ast.TranslationUnit:
    """Fold constants and prune static branches in place."""
    for decl in unit.declarations:
        if isinstance(decl, ast.FunctionDef) and decl.body is not None:
            decl.body = fold_stmt(decl.body)
        elif isinstance(decl, ast.GlobalDecl):
            for declarator in decl.declarators:
                if declarator.initializer is not None:
                    declarator.initializer = fold_expr(declarator.initializer)
                if declarator.array_size is not None:
                    declarator.array_size = fold_expr(declarator.array_size)
    return unit


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
def fold_stmt(stmt: ast.Stmt) -> ast.Stmt:
    if isinstance(stmt, ast.CompoundStmt):
        stmt.statements = [fold_stmt(s) for s in stmt.statements]
        return stmt
    if isinstance(stmt, ast.DeclStmt):
        for declarator in stmt.declarators:
            if declarator.initializer is not None:
                declarator.initializer = fold_expr(declarator.initializer)
            if declarator.array_size is not None:
                declarator.array_size = fold_expr(declarator.array_size)
        return stmt
    if isinstance(stmt, ast.ExprStmt):
        stmt.expr = fold_expr(stmt.expr)
        return stmt
    if isinstance(stmt, ast.IfStmt):
        stmt.condition = fold_expr(stmt.condition)
        stmt.then_branch = fold_stmt(stmt.then_branch)
        if stmt.else_branch is not None:
            stmt.else_branch = fold_stmt(stmt.else_branch)
        if isinstance(stmt.condition, ast.BoolLiteral):
            if stmt.condition.value:
                return stmt.then_branch
            if stmt.else_branch is not None:
                return stmt.else_branch
            return ast.CompoundStmt(line=stmt.line)
        return stmt
    if isinstance(stmt, ast.ForStmt):
        if stmt.init is not None:
            stmt.init = fold_stmt(stmt.init)
        if stmt.condition is not None:
            stmt.condition = fold_expr(stmt.condition)
        if stmt.update is not None:
            stmt.update = fold_expr(stmt.update)
        stmt.body = fold_stmt(stmt.body)
        return stmt
    if isinstance(stmt, ast.WhileStmt):
        stmt.condition = fold_expr(stmt.condition)
        stmt.body = fold_stmt(stmt.body)
        # while(false) never executes.
        if isinstance(stmt.condition, ast.BoolLiteral) and not stmt.condition.value:
            return ast.CompoundStmt(line=stmt.line)
        return stmt
    if isinstance(stmt, ast.DoWhileStmt):
        stmt.body = fold_stmt(stmt.body)
        stmt.condition = fold_expr(stmt.condition)
        return stmt
    if isinstance(stmt, ast.ReturnStmt):
        if stmt.value is not None:
            stmt.value = fold_expr(stmt.value)
        return stmt
    return stmt


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
def literal_value(expr: ast.Expr):
    if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.BoolLiteral)):
        return expr.value
    return None


def make_literal(value, template: ast.Expr) -> Optional[ast.Expr]:
    line = template.line
    if isinstance(value, bool):
        return ast.BoolLiteral(value=value, line=line)
    if isinstance(value, int):
        if not -(2**31) <= value < 2**31:
            return None  # would overflow int32: leave unfolded
        return ast.IntLiteral(value=value, line=line)
    if isinstance(value, float):
        return ast.FloatLiteral(value=value, line=line)
    return None


def fold_expr(expr: ast.Expr) -> ast.Expr:
    if isinstance(expr, ast.UnaryOp):
        expr.operand = fold_expr(expr.operand)
        value = literal_value(expr.operand)
        if value is not None:
            if expr.op == "-" and not isinstance(value, bool):
                folded = make_literal(-value, expr)
                if folded is not None:
                    return folded
            if expr.op == "+" and not isinstance(value, bool):
                return expr.operand
            if expr.op == "!" and isinstance(value, bool):
                return ast.BoolLiteral(value=not value, line=expr.line)
        return expr

    if isinstance(expr, ast.BinaryOp):
        expr.left = fold_expr(expr.left)
        expr.right = fold_expr(expr.right)
        left = literal_value(expr.left)
        right = literal_value(expr.right)
        if left is None or right is None:
            return expr
        folded = fold_binary(expr.op, left, right, expr)
        return folded if folded is not None else expr

    if isinstance(expr, ast.Conditional):
        expr.condition = fold_expr(expr.condition)
        expr.if_true = fold_expr(expr.if_true)
        expr.if_false = fold_expr(expr.if_false)
        condition = literal_value(expr.condition)
        if isinstance(condition, bool):
            return expr.if_true if condition else expr.if_false
        return expr

    if isinstance(expr, ast.Assignment):
        expr.value = fold_expr(expr.value)
        # Target subexpressions (indices) can fold too.
        expr.target = fold_expr(expr.target)
        return expr

    if isinstance(expr, ast.Call):
        expr.args = [fold_expr(a) for a in expr.args]
        return expr

    if isinstance(expr, ast.FieldAccess):
        expr.base = fold_expr(expr.base)
        return expr

    if isinstance(expr, ast.IndexAccess):
        expr.base = fold_expr(expr.base)
        expr.index = fold_expr(expr.index)
        return expr

    if isinstance(expr, ast.CommaExpr):
        expr.left = fold_expr(expr.left)
        expr.right = fold_expr(expr.right)
        return expr

    return expr


def fold_binary(op: str, left, right, template: ast.Expr) -> Optional[ast.Expr]:
    left_is_bool = isinstance(left, bool)
    right_is_bool = isinstance(right, bool)

    if op in ("&&", "||", "^^"):
        if not (left_is_bool and right_is_bool):
            return None
        value = {
            "&&": left and right,
            "||": left or right,
            "^^": left != right,
        }[op]
        return ast.BoolLiteral(value=bool(value), line=template.line)

    if left_is_bool or right_is_bool:
        if op in ("==", "!="):
            if left_is_bool and right_is_bool:
                value = (left == right) if op == "==" else (left != right)
                return ast.BoolLiteral(value=value, line=template.line)
        return None

    # Numeric operands: GLSL forbids mixing int and float — leave such
    # (ill-typed) expressions for the checker's diagnostics.
    if isinstance(left, int) != isinstance(right, int):
        return None

    if op in ("==", "!=", "<", ">", "<=", ">="):
        value = {
            "==": left == right,
            "!=": left != right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }[op]
        return ast.BoolLiteral(value=value, line=template.line)

    if op == "+":
        return make_literal(left + right, template)
    if op == "-":
        return make_literal(left - right, template)
    if op == "*":
        return make_literal(left * right, template)
    if op == "/":
        if right == 0:
            return None  # runtime defines this; don't fold
        if isinstance(left, int):
            return make_literal(int(left / right), template)
        return make_literal(left / right, template)
    return None
