"""Vectorised (SIMT) interpreter for type-checked GLSL ES 1.00 shaders.

The interpreter executes a shader for all vertices/fragments of a draw
call at once, mirroring the lock-step warp execution of the VideoCore
IV's QPUs: each GLSL variable holds a batched numpy array (see
:mod:`repro.glsl.values`) and divergent control flow is handled with
per-lane execution masks.

Divergence model
----------------
``self.exec_mask`` is the set of lanes executing the current statement.
Lanes leave it through four "kill" channels and rejoin at well-defined
points:

* ``return``   — recorded per function frame; lanes rejoin at the call
  site,
* ``break``    — recorded per loop frame; lanes rejoin after the loop,
* ``continue`` — recorded per loop frame; lanes rejoin at the next
  iteration,
* ``discard``  — recorded globally; lanes never rejoin (the fragment
  is dropped).

``&&``/``||`` short-circuit per lane: the right operand only executes
on lanes the left operand did not decide, matching the spec's
sequencing guarantees.

Precision and cost accounting
-----------------------------
All float arithmetic is filtered through a *float model* (see
:mod:`repro.gles2.precision`) so device-accurate reduced precision can
be simulated, and every operation reports to an optional counter sink
(:mod:`repro.perf.counters`) that the performance model consumes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from . import ast_nodes as ast
from . import builtins as bi
from .errors import GlslLimitError, GlslRuntimeError
from .typecheck import CheckedShader, mangle
from .types import BOOL, FLOAT, INT, BaseType, GlslType, TypeKind
from .values import (
    INT_DTYPE,
    Value,
    assign_masked,
    batch_of,
    broadcast_lanes,
    flatten_components,
    masked_blend,
    zeros_for,
)

#: Iteration safety cap (far above anything a GLSL ES Appendix-A
#: conformant shader can express).
DEFAULT_MAX_LOOP_ITERATIONS = 65536

#: Relational operators (shared with the IR fold pass).
COMPARE_FUNCS = {
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
}


class _ExactModel:
    """Fallback float model: float64, no rounding — used when the
    caller does not supply one."""

    dtype = np.float64
    name = "exact"

    def quantize(self, data: np.ndarray, category: str = "alu") -> np.ndarray:
        return data

    def quantize_is_cast(self, category: str = "alu") -> bool:
        return True


class _LoopFrame:
    """Masks for one active loop."""

    def __init__(self, n: int):
        self.broken = np.zeros(n, dtype=bool)
        self.continued = np.zeros(n, dtype=bool)
        #: Lanes whose loop condition went false (left the loop).
        self.exited = np.zeros(n, dtype=bool)

    def dead(self) -> np.ndarray:
        return self.broken | self.continued | self.exited


class _FunctionFrame:
    """Activation record for one (inlined) function invocation."""

    def __init__(self, n: int, return_type: GlslType, float_dtype):
        self.scopes: List[Dict[str, Value]] = [{}]
        self.returned = np.zeros(n, dtype=bool)
        self.loops: List[_LoopFrame] = []
        if return_type.is_void():
            self.return_value: Optional[Value] = None
        else:
            self.return_value = zeros_for(return_type, 1, float_dtype)


class Interpreter:
    """Executes one compiled shader stage.

    Parameters
    ----------
    checked:
        The type-checked shader.
    float_model:
        Object with ``dtype`` and ``quantize(data, category)`` — models
        the device's float precision (defaults to exact float64).
    counters:
        Optional op-counter sink with ``add(category, count)``.
    max_loop_iterations:
        Safety cap for loop execution.
    """

    def __init__(
        self,
        checked: CheckedShader,
        float_model=None,
        counters=None,
        max_loop_iterations: int = DEFAULT_MAX_LOOP_ITERATIONS,
    ):
        self.checked = checked
        self.fmodel = float_model or _ExactModel()
        self.counters = counters
        self.max_loop_iterations = max_loop_iterations
        # Runtime state (reset per execution).
        self.n = 0
        self.exec_mask: np.ndarray = np.ones(1, dtype=bool)
        self.discarded: np.ndarray = np.zeros(1, dtype=bool)
        self.globals_env: Dict[str, Value] = {}
        self.frames: List[_FunctionFrame] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(self, n: int, presets: Dict[str, Value],
                count_globals: bool = True) -> Dict[str, Value]:
        """Run ``main()`` over a batch of ``n`` lanes.

        ``presets`` seeds global variables (attributes, uniforms,
        varyings, gl_FragCoord, ...).  Returns the final global
        environment; the caller extracts outputs (gl_Position,
        varyings, gl_FragColor) and the discard mask is available as
        :attr:`discarded`.

        Global initializers run once per ``execute`` call at batch
        width 1, so a caller splitting one draw into several batches
        (fragment tiling) would tally them once per tile instead of
        once per draw; such callers pass ``count_globals=False`` on
        every batch but the first to keep the merged counters equal to
        a monolithic run.
        """
        self.n = n
        self.exec_mask = np.ones(n, dtype=bool)
        self.discarded = np.zeros(n, dtype=bool)
        self.globals_env = {}
        self.frames = []

        saved_counters = self.counters
        if not count_globals:
            self.counters = None
        try:
            for name, symbol in self.checked.globals.items():
                if name in presets:
                    self.globals_env[name] = presets[name]
                elif symbol.type.is_sampler():
                    self.globals_env[name] = Value(symbol.type)
                elif symbol.initializer is not None:
                    self.globals_env[name] = self._materialize_global_init(symbol)
                else:
                    self.globals_env[name] = zeros_for(symbol.type, 1, self.fmodel.dtype)
        finally:
            self.counters = saved_counters
        for name, value in presets.items():
            self.globals_env.setdefault(name, value)

        main = self.checked.functions.get("main()")
        if main is None or main.body is None:
            raise GlslRuntimeError("shader has no main() body")
        self._call(main, [])
        return self.globals_env

    def _materialize_global_init(self, symbol) -> Value:
        saved_mask = self.exec_mask
        self.exec_mask = np.ones(1, dtype=bool)
        frame = _FunctionFrame(1, symbol.type, self.fmodel.dtype)
        self.frames.append(frame)
        try:
            value = self.eval(symbol.initializer)
        finally:
            self.frames.pop()
            self.exec_mask = saved_mask
        return value

    # ------------------------------------------------------------------
    # Mask plumbing
    # ------------------------------------------------------------------
    def _live(self) -> np.ndarray:
        mask = ~self.discarded
        if self.frames:
            frame = self.frames[-1]
            mask = mask & ~frame.returned
            for loop in frame.loops:
                mask = mask & ~loop.dead()
        return mask

    def _count(self, category: str, per_lane_ops: int = 1) -> None:
        if self.counters is not None and per_lane_ops:
            lanes = int(self.exec_mask.sum())
            if lanes:
                self.counters.add(category, lanes * per_lane_ops)

    def _broadcast_mask(self, data: np.ndarray) -> np.ndarray:
        """A bool (N,) lane mask from possibly batch-1 bool data."""
        if data.shape[0] == self.n:
            return data.astype(bool, copy=False)
        return np.broadcast_to(data, (self.n,)).astype(bool, copy=False)

    # ------------------------------------------------------------------
    # Variable lookup
    # ------------------------------------------------------------------
    def _lookup(self, name: str) -> Value:
        if self.frames:
            for scope in reversed(self.frames[-1].scopes):
                if name in scope:
                    return scope[name]
        value = self.globals_env.get(name)
        if value is None:
            raise GlslRuntimeError(f"unbound variable '{name}'")
        return value

    def _declare(self, name: str, value: Value) -> None:
        self.frames[-1].scopes[-1][name] = value

    # ------------------------------------------------------------------
    # Function invocation
    # ------------------------------------------------------------------
    def _call(self, func: ast.FunctionDef, args: List[Value],
              arg_exprs: Optional[List[ast.Expr]] = None) -> Optional[Value]:
        if len(self.frames) > 64:
            raise GlslLimitError("function call nesting too deep")
        frame = _FunctionFrame(self.n, func.resolved_return_type, self.fmodel.dtype)
        outgoing = []  # (param index, lvalue ref) for out/inout copy-back
        caller_mask = self.exec_mask.copy()

        # Resolve out/inout references in the caller's context first.
        refs: Dict[int, "_LValueRef"] = {}
        for i, param in enumerate(func.params):
            if param.direction in ("out", "inout") and arg_exprs is not None:
                refs[i] = self._resolve_lvalue(arg_exprs[i])
                outgoing.append(i)

        self.frames.append(frame)
        try:
            for param, arg in zip(func.params, args):
                if not param.name:
                    continue
                if param.direction == "out":
                    local = zeros_for(param.resolved_type, 1, self.fmodel.dtype)
                else:
                    local = arg.clone()
                self._declare(param.name, local)
            for stmt in func.body.statements:
                self.exec_stmt(stmt)
                if not self.exec_mask.any():
                    break
            result = frame.return_value
        finally:
            self.frames.pop()
            self.exec_mask = caller_mask & self._live()

        # Copy out/inout parameters back under the caller's mask.
        for i in outgoing:
            local = frame.scopes[0][func.params[i].name]
            refs[i].write(local, self.exec_mask)
        return result

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def exec_stmt(self, stmt: ast.Stmt) -> None:
        if not self.exec_mask.any():
            return
        if isinstance(stmt, ast.CompoundStmt):
            if self.frames:
                self.frames[-1].scopes.append({})
            try:
                for inner in stmt.statements:
                    self.exec_stmt(inner)
                    if not self.exec_mask.any():
                        break
            finally:
                if self.frames:
                    self.frames[-1].scopes.pop()
        elif isinstance(stmt, ast.DeclStmt):
            self._exec_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self._exec_if(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._exec_for(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._exec_loop(None, stmt.condition, None, stmt.body, pretest=True)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._exec_loop(None, stmt.condition, None, stmt.body, pretest=False)
        elif isinstance(stmt, ast.ReturnStmt):
            frame = self.frames[-1]
            if stmt.value is not None:
                value = self.eval(stmt.value)
                assign_masked(frame.return_value, value, self.exec_mask)
            frame.returned |= self.exec_mask
            self.exec_mask = self.exec_mask & ~frame.returned
        elif isinstance(stmt, ast.BreakStmt):
            loop = self.frames[-1].loops[-1]
            loop.broken |= self.exec_mask
            self.exec_mask = self.exec_mask & ~loop.broken
        elif isinstance(stmt, ast.ContinueStmt):
            loop = self.frames[-1].loops[-1]
            loop.continued |= self.exec_mask
            self.exec_mask = self.exec_mask & ~loop.continued
        elif isinstance(stmt, ast.DiscardStmt):
            self.discarded |= self.exec_mask
            self.exec_mask = self.exec_mask & ~self.discarded
        else:
            raise GlslRuntimeError(f"unhandled statement {type(stmt).__name__}")

    def _exec_decl(self, stmt: ast.DeclStmt) -> None:
        for declarator in stmt.declarators:
            storage = zeros_for(declarator.resolved_type, 1, self.fmodel.dtype)
            if declarator.initializer is not None:
                value = self.eval(declarator.initializer)
                assign_masked(storage, value, self.exec_mask)
            self._declare(declarator.name, storage)

    def _exec_if(self, stmt: ast.IfStmt) -> None:
        region = self.exec_mask
        cond = self._broadcast_mask(self.eval(stmt.condition).data)
        then_mask = region & cond & self._live()
        if then_mask.any():
            self.exec_mask = then_mask
            self.exec_stmt(stmt.then_branch)
        if stmt.else_branch is not None:
            else_mask = region & ~cond & self._live()
            if else_mask.any():
                self.exec_mask = else_mask
                self.exec_stmt(stmt.else_branch)
        self.exec_mask = region & self._live()

    def _exec_for(self, stmt: ast.ForStmt) -> None:
        if self.frames:
            self.frames[-1].scopes.append({})
        try:
            if stmt.init is not None:
                self.exec_stmt(stmt.init)
            self._exec_loop(None, stmt.condition, stmt.update, stmt.body, pretest=True)
        finally:
            if self.frames:
                self.frames[-1].scopes.pop()

    def _exec_loop(
        self,
        init,
        condition: Optional[ast.Expr],
        update: Optional[ast.Expr],
        body: ast.Stmt,
        pretest: bool,
    ) -> None:
        region = self.exec_mask.copy()
        frame = self.frames[-1]
        loop = _LoopFrame(self.n)
        frame.loops.append(loop)
        iterations = 0
        try:
            while True:
                self.exec_mask = region & self._live()
                if not self.exec_mask.any():
                    break
                if condition is not None and (pretest or iterations > 0):
                    cond = self._broadcast_mask(self.eval(condition).data)
                    loop.exited |= self.exec_mask & ~cond
                    self.exec_mask = self.exec_mask & cond
                    if not self.exec_mask.any():
                        break
                self.exec_stmt(body)
                # continue-lanes rejoin for the update expression.
                loop.continued[:] = False
                self.exec_mask = region & self._live()
                if update is not None and self.exec_mask.any():
                    self.eval(update)
                iterations += 1
                if iterations > self.max_loop_iterations:
                    raise GlslLimitError(
                        f"loop exceeded {self.max_loop_iterations} iterations"
                    )
        finally:
            frame.loops.pop()
        self.exec_mask = region & self._live()

    # ==================================================================
    # Expressions
    # ==================================================================
    def eval(self, expr: ast.Expr) -> Value:
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise GlslRuntimeError(f"unhandled expression {type(expr).__name__}")
        return method(self, expr)

    # -- literals -------------------------------------------------------
    def _eval_int(self, expr: ast.IntLiteral) -> Value:
        return Value(INT, np.array([expr.value], dtype=INT_DTYPE))

    def _eval_float(self, expr: ast.FloatLiteral) -> Value:
        return Value(FLOAT, np.array([expr.value], dtype=self.fmodel.dtype))

    def _eval_bool(self, expr: ast.BoolLiteral) -> Value:
        return Value(BOOL, np.array([expr.value], dtype=bool))

    def _eval_ident(self, expr: ast.Identifier) -> Value:
        return self._lookup(expr.name)

    # -- unary ----------------------------------------------------------
    def _eval_unary(self, expr: ast.UnaryOp) -> Value:
        operand = self.eval(expr.operand)
        if expr.op == "+":
            return operand
        if expr.op == "-":
            data = -operand.data
            if operand.type.is_float_based():
                data = self.fmodel.quantize(data)
            self._count("alu", operand.type.component_count())
            return Value(operand.type, data)
        if expr.op == "!":
            self._count("alu")
            return Value(BOOL, ~operand.data)
        raise GlslRuntimeError(f"unhandled unary operator '{expr.op}'")

    def _eval_incdec(self, expr) -> Value:
        ref = self._resolve_lvalue(expr.operand)
        old = ref.read()
        # Capture the array before the write: for a plain variable,
        # `old` IS the storage object and the write replaces its
        # `.data` — the old array itself stays intact.
        old_data = old.data
        one = np.asarray(1, dtype=old_data.dtype)
        delta = one if expr.op == "++" else -one
        new_data = old_data + delta
        if old.type.is_float_based():
            new_data = self.fmodel.quantize(new_data)
        self._count("alu", old.type.component_count())
        new = Value(old.type, new_data)
        ref.write(new, self.exec_mask)
        if isinstance(expr, ast.PrefixIncDec):
            return new
        return Value(old.type, old_data.copy())

    # -- binary ---------------------------------------------------------
    def _eval_binary(self, expr: ast.BinaryOp) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._eval_shortcircuit(expr)
        left = self.eval(expr.left)
        if op == "^^":
            right = self.eval(expr.right)
            self._count("alu")
            return Value(BOOL, left.data ^ right.data)
        right = self.eval(expr.right)
        if op in ("==", "!="):
            return self._eval_equality(op, left, right)
        if op in COMPARE_FUNCS:
            self._count("alu")
            return Value(BOOL, COMPARE_FUNCS[op](left.data, right.data))
        return self._eval_arith(op, left, right, expr.resolved_type)

    def _eval_shortcircuit(self, expr: ast.BinaryOp) -> Value:
        left = self.eval(expr.left)
        left_mask = self._broadcast_mask(left.data)
        saved = self.exec_mask
        rhs_mask = saved & (left_mask if expr.op == "&&" else ~left_mask)
        result = left_mask.copy()
        if rhs_mask.any():
            self.exec_mask = rhs_mask
            try:
                right = self.eval(expr.right)
            finally:
                self.exec_mask = saved
            right_mask = self._broadcast_mask(right.data)
            if expr.op == "&&":
                # Lanes that evaluated the rhs take left&&right; the
                # rest keep the left value (false, or don't-care).
                result = left_mask & (right_mask | ~rhs_mask)
            else:
                result = left_mask | (right_mask & rhs_mask)
        self._count("alu")
        return Value(BOOL, result)

    def _eval_equality(self, op: str, left: Value, right: Value) -> Value:
        data = self._equal_data(left, right)
        if op == "!=":
            data = ~data
        self._count("alu", left.type.component_count() if left.data is not None else 1)
        return Value(BOOL, data)

    def _equal_data(self, left: Value, right: Value) -> np.ndarray:
        if left.fields is not None:
            n = batch_of(left, right)
            acc = np.ones(n if n > 1 else 1, dtype=bool)
            for key in left.fields:
                acc = acc & self._equal_data(left.fields[key], right.fields[key])
            return acc
        eq = left.data == right.data
        axes = tuple(range(1, eq.ndim))
        if axes:
            eq = np.all(eq, axis=axes)
        return eq

    def _eval_arith(self, op: str, left: Value, right: Value, result_type: GlslType) -> Value:
        ltype, rtype = left.type, right.type
        a, b = left.data, right.data
        flops = result_type.component_count()

        # Linear-algebra products accumulate in ascending component
        # order (a.x*b.x + a.y*b.y + ...), the same order as dot() and
        # the scalar reference interpreter — keeping every path in the
        # conformance harness bit-identical.
        if op == "*" and ltype.is_matrix() and rtype.is_matrix():
            k = ltype.size
            # result[n,c,r] = sum_i a[n,i,r] * b[n,c,i]
            data = a[:, 0, :][:, None, :] * b[:, :, 0][:, :, None]
            for i in range(1, k):
                data = data + a[:, i, :][:, None, :] * b[:, :, i][:, :, None]
            flops = result_type.component_count() * ltype.size
        elif op == "*" and ltype.is_matrix() and rtype.is_vector():
            k = ltype.size
            # result[n,r] = sum_c a[n,c,r] * b[n,c]
            data = a[:, 0, :] * b[:, 0][:, None]
            for c in range(1, k):
                data = data + a[:, c, :] * b[:, c][:, None]
            flops = result_type.component_count() * ltype.size
        elif op == "*" and ltype.is_vector() and rtype.is_matrix():
            k = rtype.size
            # result[n,c] = sum_r a[n,r] * b[n,c,r]
            data = a[:, 0][:, None] * b[:, :, 0]
            for r in range(1, k):
                data = data + a[:, r][:, None] * b[:, :, r]
            flops = result_type.component_count() * rtype.size
        else:
            a, b = self._align_operands(left, right)
            with np.errstate(over="ignore", invalid="ignore"):
                if op == "+":
                    data = a + b
                elif op == "-":
                    data = a - b
                elif op == "*":
                    data = a * b
                elif op == "/":
                    data = self._divide(a, b, result_type)
                else:
                    raise GlslRuntimeError(
                        f"unhandled arithmetic operator '{op}'"
                    )

        if result_type.is_float_based():
            data = self.fmodel.quantize(data)
        elif result_type.is_int_based() and data.dtype != INT_DTYPE:
            data = data.astype(INT_DTYPE)
        self._count("alu", flops)
        return Value(result_type, data)

    @staticmethod
    def _align_operands(left: Value, right: Value):
        """Reshape scalar operands so they broadcast against vectors
        and matrices."""
        a, b = left.data, right.data
        if a.ndim < b.ndim:
            a = a.reshape(a.shape + (1,) * (b.ndim - a.ndim))
        elif b.ndim < a.ndim:
            b = b.reshape(b.shape + (1,) * (a.ndim - b.ndim))
        return a, b

    @staticmethod
    def _divide(a: np.ndarray, b: np.ndarray, result_type: GlslType) -> np.ndarray:
        if result_type.is_int_based():
            # C-style truncation toward zero; divide-by-zero yields 0
            # (the GL spec leaves it undefined).
            with np.errstate(divide="ignore", invalid="ignore"):
                quotient = np.where(b != 0, a / np.where(b == 0, 1, b), 0.0)
            return np.trunc(quotient).astype(INT_DTYPE)
        with np.errstate(divide="ignore", invalid="ignore"):
            return a / b

    # -- assignment -----------------------------------------------------
    def _eval_assignment(self, expr: ast.Assignment) -> Value:
        ref = self._resolve_lvalue(expr.target)
        value = self.eval(expr.value)
        if expr.op != "=":
            old = ref.read()
            value = self._eval_arith(expr.op[0], old, value, expr.resolved_type)
        ref.write(value, self.exec_mask)
        return value

    # -- conditional ----------------------------------------------------
    def _eval_conditional(self, expr: ast.Conditional) -> Value:
        cond = self._broadcast_mask(self.eval(expr.condition).data)
        saved = self.exec_mask
        true_mask = saved & cond
        false_mask = saved & ~cond

        # Uniform fast path.
        if not false_mask.any():
            return self.eval(expr.if_true)
        if not true_mask.any():
            return self.eval(expr.if_false)

        self.exec_mask = true_mask
        try:
            v_true = self.eval(expr.if_true)
        finally:
            self.exec_mask = saved
        self.exec_mask = false_mask
        try:
            v_false = self.eval(expr.if_false)
        finally:
            self.exec_mask = saved

        return self._blend(v_true, v_false, cond)

    def _blend(self, v_true: Value, v_false: Value, cond: np.ndarray) -> Value:
        if v_true.fields is not None:
            return Value(
                v_true.type,
                fields={
                    k: self._blend(v_true.fields[k], v_false.fields[k], cond)
                    for k in v_true.fields
                },
            )
        data = masked_blend(v_false.data, v_true.data, cond)
        return Value(v_true.type, data)

    # -- comma ----------------------------------------------------------
    def _eval_comma(self, expr: ast.CommaExpr) -> Value:
        self.eval(expr.left)
        return self.eval(expr.right)

    # -- calls ----------------------------------------------------------
    def _eval_call(self, expr: ast.Call) -> Value:
        if expr.is_constructor:
            return self._eval_constructor(expr)
        if expr.is_builtin:
            return self._eval_builtin(expr)
        func = self.checked.functions.get(expr.resolved_signature)
        if func is None or func.body is None:
            raise GlslRuntimeError(
                f"call to undefined function '{expr.resolved_signature}'"
            )
        args = [self.eval(a) for a in expr.args]
        result = self._call(func, args, arg_exprs=expr.args)
        if result is None:
            return Value(expr.resolved_type)
        return result

    def _eval_builtin(self, expr: ast.Call) -> Value:
        overload = bi.OVERLOADS_BY_KEY[expr.resolved_signature]
        args = [self.eval(a) for a in expr.args]
        return self._apply_builtin(overload, args, expr.resolved_type)

    def _apply_builtin(self, overload, args: List[Value], out_type: GlslType) -> Value:
        """Apply one builtin overload to already-evaluated argument
        Values (shared with the IR fold pass)."""
        if overload.name in bi.TEXTURE_BUILTINS:
            return self._eval_texture(overload, args, out_type)

        n = batch_of(*args) if args else 1
        datas = []
        for arg in args:
            data = arg.data
            if data.shape[0] not in (1, n):
                raise GlslRuntimeError("builtin argument batch mismatch")
            datas.append(data)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            result = overload.impl(*datas)
        result = np.asarray(result)
        if out_type.is_float_based():
            result = self.fmodel.quantize(result.astype(self.fmodel.dtype), overload.category)
        elif out_type.is_int_based():
            result = result.astype(INT_DTYPE)
        elif out_type.is_bool_based():
            result = result.astype(bool)
        self._count(overload.category, out_type.component_count())
        return Value(out_type, result)

    def _eval_texture(self, overload, args: List[Value], out_type: GlslType) -> Value:
        sampler = args[0].sampler
        coords = args[1].data.astype(np.float64)
        if sampler is None:
            # Unbound sampler = texture object 0 = incomplete texture:
            # GL defines the sample as opaque black.
            n = coords.shape[0]
            texels = np.zeros((n, 4), dtype=self.fmodel.dtype)
            texels[:, 3] = 1.0
            self._count("tex")
            return Value(out_type, texels)
        if overload.impl == "texture2DProj3":
            coords = coords[:, :2] / coords[:, 2:3]
        elif overload.impl == "texture2DProj4":
            coords = coords[:, :2] / coords[:, 3:4]
        elif overload.impl == "textureCube":
            texels = sampler.sample_cube(coords)
            self._count("tex")
            return Value(out_type, self.fmodel.quantize(
                texels.astype(self.fmodel.dtype), "tex"))
        texels = sampler.sample(coords[:, 0], coords[:, 1])
        self._count("tex")
        return Value(out_type, self.fmodel.quantize(
            texels.astype(self.fmodel.dtype), "tex"))

    # -- constructors ----------------------------------------------------
    def _eval_constructor(self, expr: ast.Call) -> Value:
        target = expr.constructed_type
        args = [self.eval(a) for a in expr.args]
        return self._construct(target, args)

    def _construct(self, target: GlslType, args: List[Value]) -> Value:
        """Apply a constructor to already-evaluated argument Values
        (shared with the IR fold pass)."""
        if target.is_struct():
            fields = {}
            for (fname, __), arg in zip(target.fields, args):
                fields[fname] = arg.clone()
            return Value(target, fields=fields)

        self._count("alu", target.component_count())
        if target.is_scalar():
            return Value(target, self._convert_base(
                args[0].data.reshape(args[0].data.shape[0], -1)[:, 0],
                target.base,
            ))
        if target.is_vector():
            if len(args) == 1 and args[0].type.is_scalar():
                n = args[0].batch
                splat = np.repeat(
                    self._convert_base(args[0].data, target.base)[:, None],
                    target.size,
                    axis=1,
                )
                return Value(target, splat)
            flat = flatten_components(args)[:, : target.size]
            return Value(target, self._convert_base(flat, target.base))
        if target.is_matrix():
            k = target.size
            if len(args) == 1 and args[0].type.is_scalar():
                n = args[0].batch
                data = np.zeros((n, k, k), dtype=self.fmodel.dtype)
                diag = self._convert_base(args[0].data, BaseType.FLOAT)
                for i in range(k):
                    data[:, i, i] = diag
                return Value(target, data)
            flat = self._convert_base(flatten_components(args), BaseType.FLOAT)
            n = flat.shape[0]
            return Value(target, flat.reshape(n, k, k))
        raise GlslRuntimeError(f"cannot construct {target}")

    def _convert_base(self, data: np.ndarray, base: str) -> np.ndarray:
        if base == BaseType.FLOAT:
            if data.dtype == bool:
                return data.astype(self.fmodel.dtype)
            return data.astype(self.fmodel.dtype)
        if base == BaseType.INT:
            if data.dtype == bool:
                return data.astype(INT_DTYPE)
            # float -> int truncates toward zero (spec §5.4.1).
            return np.trunc(data).astype(INT_DTYPE) if np.issubdtype(
                data.dtype, np.floating
            ) else data.astype(INT_DTYPE)
        # bool: zero -> false, nonzero -> true.
        return data != 0

    # -- field access / swizzle / index -----------------------------------
    def _eval_field(self, expr: ast.FieldAccess) -> Value:
        base = self.eval(expr.base)
        if base.fields is not None:
            return base.fields[expr.field_name]
        indices = expr.swizzle
        if len(indices) == 1:
            return Value(expr.resolved_type, base.data[:, indices[0]])
        return Value(expr.resolved_type, base.data[:, list(indices)])

    def _eval_index(self, expr: ast.IndexAccess) -> Value:
        base = self.eval(expr.base)
        index = self.eval(expr.index)
        return self._index_value(base, index, expr.resolved_type)

    def _index_value(self, base: Value, index: Value, out_type: GlslType) -> Value:
        idx = index.data
        if base.fields is not None:
            # Array of structs: require a uniform index.
            unique = np.unique(idx[self.exec_mask[: idx.shape[0]]] if idx.shape[0] == self.n else idx)
            if unique.size > 1:
                raise GlslRuntimeError(
                    "dynamic indexing of struct arrays requires a uniform index"
                )
            return base.fields[str(int(unique[0]) if unique.size else 0)]
        data = base.data
        n = max(data.shape[0], idx.shape[0])
        if data.shape[0] != n:
            data = np.broadcast_to(data, (n,) + data.shape[1:])
        if idx.shape[0] != n:
            idx = np.broadcast_to(idx, (n,))
        idx = np.clip(idx, 0, data.shape[1] - 1)
        if np.all(idx == idx.flat[0]):
            return Value(out_type, data[:, int(idx.flat[0])].copy())
        expand = idx.reshape((n,) + (1,) * (data.ndim - 1))
        expand = np.broadcast_to(expand, (n, 1) + data.shape[2:])
        gathered = np.take_along_axis(data, expand, axis=1)[:, 0]
        return Value(out_type, gathered)

    # ==================================================================
    # L-values
    # ==================================================================
    def _resolve_lvalue(self, expr: ast.Expr) -> "_LValueRef":
        if isinstance(expr, ast.Identifier):
            return _VarRef(self, self._lookup(expr.name))
        if isinstance(expr, ast.FieldAccess):
            parent = self._resolve_lvalue(expr.base)
            if expr.swizzle is not None:
                return _SwizzleRef(self, parent, expr.swizzle, expr.resolved_type)
            return _FieldRef(self, parent, expr.field_name)
        if isinstance(expr, ast.IndexAccess):
            parent = self._resolve_lvalue(expr.base)
            index = self.eval(expr.index)
            return _IndexRef(self, parent, index.data, expr.resolved_type)
        raise GlslRuntimeError("expression is not an l-value")

    _DISPATCH: Dict[type, Callable] = {}


Interpreter._DISPATCH = {
    ast.IntLiteral: Interpreter._eval_int,
    ast.FloatLiteral: Interpreter._eval_float,
    ast.BoolLiteral: Interpreter._eval_bool,
    ast.Identifier: Interpreter._eval_ident,
    ast.UnaryOp: Interpreter._eval_unary,
    ast.PrefixIncDec: Interpreter._eval_incdec,
    ast.PostfixIncDec: Interpreter._eval_incdec,
    ast.BinaryOp: Interpreter._eval_binary,
    ast.Assignment: Interpreter._eval_assignment,
    ast.Conditional: Interpreter._eval_conditional,
    ast.Call: Interpreter._eval_call,
    ast.FieldAccess: Interpreter._eval_field,
    ast.IndexAccess: Interpreter._eval_index,
    ast.CommaExpr: Interpreter._eval_comma,
}


# ======================================================================
# L-value reference objects
# ======================================================================
class _LValueRef:
    """A resolved assignment destination.  ``read`` returns the current
    value; ``write`` performs a masked store."""

    def read(self) -> Value:
        raise NotImplementedError

    def write(self, value: Value, mask: np.ndarray) -> None:
        raise NotImplementedError


class _VarRef(_LValueRef):
    def __init__(self, interp: Interpreter, storage: Value):
        self.interp = interp
        self.storage = storage

    def read(self) -> Value:
        return self.storage

    def write(self, value: Value, mask: np.ndarray) -> None:
        assign_masked(self.storage, value, mask)


class _FieldRef(_LValueRef):
    def __init__(self, interp: Interpreter, parent: _LValueRef, name: str):
        self.interp = interp
        self.parent = parent
        self.name = name

    def read(self) -> Value:
        return self.parent.read().fields[self.name]

    def write(self, value: Value, mask: np.ndarray) -> None:
        assign_masked(self.parent.read().fields[self.name], value, mask)


class _SwizzleRef(_LValueRef):
    def __init__(self, interp, parent: _LValueRef, indices, out_type: GlslType):
        self.interp = interp
        self.parent = parent
        self.indices = indices
        self.out_type = out_type
        if len(set(indices)) != len(indices):
            raise GlslRuntimeError("cannot write through a swizzle with "
                                   "repeated components")

    def read(self) -> Value:
        base = self.parent.read()
        if len(self.indices) == 1:
            return Value(self.out_type, base.data[:, self.indices[0]])
        return Value(self.out_type, base.data[:, list(self.indices)])

    def write(self, value: Value, mask: np.ndarray) -> None:
        base = self.parent.read()
        n = max(base.data.shape[0], value.data.shape[0], mask.shape[0])
        data = broadcast_lanes(base.data, n).copy()
        incoming = value.data
        if incoming.shape[0] != n:
            incoming = np.broadcast_to(incoming, (n,) + incoming.shape[1:])
        if len(self.indices) == 1:
            col = data[:, self.indices[0]]
            data[:, self.indices[0]] = np.where(mask, incoming, col)
        else:
            for slot, component in enumerate(self.indices):
                col = data[:, component]
                data[:, component] = np.where(mask, incoming[:, slot], col)
        self.parent.write(Value(base.type, data), np.ones(n, dtype=bool))


class _IndexRef(_LValueRef):
    def __init__(self, interp, parent: _LValueRef, index_data: np.ndarray,
                 out_type: GlslType):
        self.interp = interp
        self.parent = parent
        self.index = index_data
        self.out_type = out_type

    def read(self) -> Value:
        base = self.parent.read()
        return self.interp._index_value(
            base, Value(INT, self.index), self.out_type
        )

    def write(self, value: Value, mask: np.ndarray) -> None:
        base = self.parent.read()
        if base.fields is not None:
            unique = np.unique(self.index)
            if unique.size > 1:
                raise GlslRuntimeError(
                    "dynamic store to a struct array requires a uniform index"
                )
            assign_masked(base.fields[str(int(unique[0]))], value, mask)
            return
        n = max(base.data.shape[0], value.data.shape[0], mask.shape[0],
                self.index.shape[0])
        data = broadcast_lanes(base.data, n).copy()
        idx = self.index
        if idx.shape[0] != n:
            idx = np.broadcast_to(idx, (n,))
        idx = np.clip(idx, 0, data.shape[1] - 1)
        incoming = value.data
        if incoming.shape[0] != n:
            incoming = np.broadcast_to(incoming, (n,) + incoming.shape[1:])
        if np.all(idx == idx.flat[0]):
            slot = int(idx.flat[0])
            current = data[:, slot]
            data[:, slot] = masked_blend(current, incoming, mask)
        else:
            expand = idx.reshape((n, 1) + (1,) * (data.ndim - 2))
            expand = np.broadcast_to(expand, (n, 1) + data.shape[2:])
            current = np.take_along_axis(data, expand, axis=1)[:, 0]
            blended = masked_blend(current, incoming, mask)
            np.put_along_axis(data, expand, blended[:, None], axis=1)
        self.parent.write(Value(base.type, data), np.ones(n, dtype=bool))


def compile_shader(source: str, stage: str) -> CheckedShader:
    """Convenience: preprocess, parse and type-check a shader."""
    from .parser import parse
    from .preprocessor import preprocess

    preprocessed = preprocess(source)
    unit = parse(preprocessed.source)
    from .typecheck import check

    return check(unit, stage)
