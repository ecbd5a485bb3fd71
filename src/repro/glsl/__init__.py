"""GLSL ES 1.00 front end and vectorised interpreter.

The shading-language substrate of the reproduction: a lexer,
preprocessor, recursive-descent parser, type checker enforcing the
GLSL ES 1.00 rules (no implicit conversions, reserved operators, no
recursion) and a SIMT-style interpreter that executes shaders over
whole vertex/fragment batches using numpy.

Quick use::

    from repro.glsl import compile_shader, Interpreter
    checked = compile_shader(source, stage="fragment")
    interp = Interpreter(checked)
    env = interp.execute(n, presets)
"""

from .errors import (
    GlslError,
    GlslLimitError,
    GlslPreprocessorError,
    GlslRuntimeError,
    GlslSyntaxError,
    GlslTypeError,
)
from .interp import Interpreter, compile_shader
from .printer import print_expr, print_stmt, print_unit
from .scalar_ref import FragmentDiscarded, ScalarInterpreter, python_value
from .typecheck import CheckedShader, ShaderStage, check
from .types import GlslType

__all__ = [
    "GlslError",
    "GlslSyntaxError",
    "GlslPreprocessorError",
    "GlslTypeError",
    "GlslRuntimeError",
    "GlslLimitError",
    "Interpreter",
    "ScalarInterpreter",
    "FragmentDiscarded",
    "python_value",
    "compile_shader",
    "CheckedShader",
    "ShaderStage",
    "check",
    "GlslType",
    "print_unit",
    "print_stmt",
    "print_expr",
]
