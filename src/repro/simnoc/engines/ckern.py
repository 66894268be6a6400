"""The C rung: the kernel twin emitted as C99 and compiled on demand.

The one compiled kernel rung (:mod:`repro.simnoc.engines.jit`): it needs
nothing but a C compiler, which CI runners and any host with a build
toolchain already have.  This
module holds no sweep of its own: :func:`source` reads
``advance_plain`` / ``advance_vc`` out of
:mod:`repro.simnoc.engines.kernels` with :mod:`ast` and prints them as two
C functions, so changing the sweep means editing the twin and nothing
else.  :func:`load_library` compiles that text with whatever
``cc``/``gcc``/``clang`` is on PATH (``-O2 -fPIC -shared``, **never**
``-ffast-math`` — token buckets must do bit-identical IEEE double
arithmetic), caches the shared object under ``~/.cache/repro-jit/`` keyed
by a hash of the emitted text, the resolved compiler and the flags (an
edited twin, another ``CC`` or another flag is a new key —
:func:`library_path`), and binds the two functions via :mod:`ctypes`.
Importing this module emits nothing.

The accepted Python subset is exactly what the twin is written in:

* parameters are the :data:`~repro.simnoc.engines.flat_kernel.ARG_FIELDS`
  arrays (``int64_t*``; ``double*`` for ``FLOAT_FIELDS``); a local is an
  int64, a double or a truth value, and keeps that type throughout;
  module-level ``int`` constants are inlined;
* statements: assignment to a name or ``array[index]``, augmented
  assignment, ``for name in range(stop)`` / ``range(start, stop)``,
  ``while``, ``if``/``elif``/``else``, ``break``, ``continue``, bare
  ``return``, and ``scratch = np.empty(n, np.int64)`` at function level;
* expressions: ``+ - *`` and one comparison over two operands of one
  numeric type; ``% << & |`` on int64 (C's ``%``: equal to Python's on the
  non-negative values the twin applies it to); unary ``-``; ``not`` /
  ``and`` / ``or`` over truth values; ``a if test else b``.

Anything else, or a twin whose source cannot be read, raises
:class:`BackendUnavailable` naming the function and line — as do a missing
compiler, a failed build and a failed load — and the vector engine runs
the interpreted sweep.
"""

from __future__ import annotations

import ast
import ctypes
import hashlib
import inspect
import os
import shutil
import subprocess
import tempfile
import textwrap
from pathlib import Path

import numpy as np

from repro.simnoc.engines import kernels
from repro.simnoc.engines.flat_kernel import ARG_DTYPES, ARG_FIELDS, FLOAT_FIELDS


class BackendUnavailable(RuntimeError):
    """This kernel backend cannot run here (unsupported twin, no compiler...)."""


#: Compiler invocations so far (cache misses only); the warm-up test pins it.
compile_events = 0

_INT, _DOUBLE, _TRUTH = "int64_t", "double", "int"
_SCALARS = (_INT, _DOUBLE, _TRUTH)
#: Python operator -> (C symbol, operand types); both operands share a type.
_OPERATORS = {
    ast.Add: ("+", (_INT, _DOUBLE)),
    ast.Sub: ("-", (_INT, _DOUBLE)),
    ast.Mult: ("*", (_INT, _DOUBLE)),
    ast.Mod: ("%", (_INT,)),
    ast.LShift: ("<<", (_INT,)),
    ast.BitAnd: ("&", (_INT,)),
    ast.BitOr: ("|", (_INT,)),
    ast.Lt: ("<", (_INT, _DOUBLE)),
    ast.LtE: ("<=", (_INT, _DOUBLE)),
    ast.Gt: (">", (_INT, _DOUBLE)),
    ast.GtE: (">=", (_INT, _DOUBLE)),
    ast.Eq: ("==", (_INT, _DOUBLE)),
    ast.NotEq: ("!=", (_INT, _DOUBLE)),
}
_COMPOUND = (ast.BinOp, ast.BoolOp, ast.Compare, ast.IfExp, ast.UnaryOp)


class _Emitter:
    """Prints one twin function as C; the module docstring lists the subset."""

    def __init__(self, fn) -> None:
        self.name = fn.__name__
        try:
            lines, self.first_line = inspect.getsourcelines(fn)
        except (OSError, TypeError) as exc:
            raise BackendUnavailable(
                f"cannot read the source of kernels.{self.name}: {exc}"
            ) from exc
        self.tree = ast.parse(textwrap.dedent("".join(lines))).body[0]
        self.constants = fn.__globals__
        #: name -> C type, parameters first; locals join as they are assigned.
        self.types = {
            name: (_DOUBLE if name in FLOAT_FIELDS else _INT) + "*"
            for name in ARG_FIELDS
        }
        self.lines: list[str] = []
        self.loops = 0

    def fail(self, node: ast.AST, what: str):
        raise BackendUnavailable(
            f"cannot emit C for kernels.{self.name}, line "
            f"{self.first_line + node.lineno - 1}: {what}"
        )

    # -- expressions: (C text, C type) ---------------------------------
    def expr(self, node: ast.expr, *allowed: str) -> tuple[str, str]:
        """Render ``node``, whose type must be one of ``allowed``."""
        text, ctype = self.untyped(node)
        if ctype not in allowed:
            expected = " or ".join(allowed)
            self.fail(node, f"`{ast.unparse(node)}` is {ctype}, expected {expected}")
        return text, ctype

    def operand(self, node: ast.expr, *allowed: str) -> tuple[str, str]:
        text, ctype = self.expr(node, *allowed)
        return (f"({text})" if isinstance(node, _COMPOUND) else text), ctype

    def untyped(self, node: ast.expr) -> tuple[str, str]:
        match node:
            case ast.Constant(value=bool(value)):
                return str(int(value)), _TRUTH
            case ast.Constant(value=int(value)):
                return f"INT64_C({value})", _INT
            case ast.Constant(value=float(value)):
                return repr(value), _DOUBLE
            case ast.Name(id=name) if name in self.types:
                return name, self.types[name]
            case ast.Name(id=name) if type(self.constants.get(name)) is int:
                return f"INT64_C({self.constants[name]})", _INT
            case ast.Name(id=name):
                self.fail(node, f"unknown name {name!r}")
            case ast.Subscript(value=ast.Name() as array, slice=index):
                text, ctype = self.untyped(array)
                if ctype.endswith("*"):
                    return f"{text}[{self.expr(index, _INT)[0]}]", ctype[:-1]
            case ast.UnaryOp(op=ast.Not(), operand=inner):
                return "!" + self.operand(inner, _TRUTH)[0], _TRUTH
            case ast.UnaryOp(op=ast.USub(), operand=inner):
                text, ctype = self.operand(inner, _INT, _DOUBLE)
                return "-" + text, ctype
            case (
                ast.BinOp(left=left, op=op, right=right)
                | ast.Compare(left=left, ops=[op], comparators=[right])
            ) if type(op) in _OPERATORS:
                symbol, numeric = _OPERATORS[type(op)]
                text, ctype = self.operand(left, *numeric)
                text = f"{text} {symbol} {self.operand(right, ctype)[0]}"
                return text, (_TRUTH if isinstance(node, ast.Compare) else ctype)
            case ast.BoolOp(op=op, values=values):
                symbol = " && " if isinstance(op, ast.And) else " || "
                return symbol.join(self.operand(v, _TRUTH)[0] for v in values), _TRUTH
            case ast.IfExp(test=test, body=body, orelse=orelse):
                text, ctype = self.operand(body, *_SCALARS)
                other, _ = self.operand(orelse, ctype)
                return f"{self.operand(test, _TRUTH)[0]} ? {text} : {other}", ctype
        self.fail(node, f"unsupported expression `{ast.unparse(node)}`")

    # -- statements ----------------------------------------------------
    def target(self, node: ast.expr, ctype: str | None) -> tuple[str, str]:
        """An assignment's left side; ``ctype`` declares a name not yet seen
        (but no ``_name``: those are the loop counters printed below)."""
        if isinstance(node, ast.Name) and ctype and not node.id.startswith("_"):
            self.types.setdefault(node.id, ctype)
        text, declared = self.expr(node, *_SCALARS)
        if ctype not in (None, declared):
            self.fail(node, f"`{text}` is {declared} and is assigned {ctype}")
        return text, declared

    def block(self, body: list[ast.stmt], depth: int) -> None:
        def emit(text: str) -> None:
            self.lines.append("    " * depth + text)

        for node in body:
            match node:
                case ast.Expr(value=ast.Constant()):
                    pass  # the docstring
                case ast.Assign(
                    targets=[ast.Name(id=name)], value=ast.Call(args=[size, _]) as call
                ) if (
                    depth == 1
                    and name not in self.types
                    and ast.unparse(call) == f"np.empty({ast.unparse(size)}, np.int64)"
                ):
                    text, _ = self.operand(size, _INT)
                    self.types[name] = _INT + "*"
                    emit(f"int64_t {name}[{text} > 0 ? {text} : 1];")
                case ast.Assign(targets=[target], value=value):
                    text, ctype = self.expr(value, *_SCALARS)
                    emit(f"{self.target(target, ctype)[0]} = {text};")
                case ast.AugAssign(target=target, op=op, value=value) if (
                    type(op) in _OPERATORS
                ):
                    symbol, numeric = _OPERATORS[type(op)]
                    text, ctype = self.target(target, None)
                    if ctype not in numeric:
                        self.fail(node, f"`{symbol}=` does not apply to {ctype}")
                    emit(f"{text} {symbol}= {self.expr(value, ctype)[0]};")
                case ast.For(
                    target=target,
                    iter=ast.Call(
                        func=ast.Name(id="range"), args=[*starts, stop], keywords=[]
                    ),
                    orelse=[],
                ) if len(starts) < 2:
                    # Python reads the bounds once and owns the counter.
                    lo = self.expr(starts[0], _INT)[0] if starts else "0"
                    hi = self.expr(stop, _INT)[0]
                    k, n = f"_k{self.loops}", f"_n{self.loops}"
                    self.loops += 1
                    emit(f"for (int64_t {k} = {lo}, {n} = {hi}; {k} < {n}; ++{k}) {{")
                    emit(f"    {self.target(target, _INT)[0]} = {k};")
                    self.block(node.body, depth + 1)
                    emit("}")
                case ast.While(test=test, orelse=[]) | ast.If(test=test):
                    keyword = "while" if isinstance(node, ast.While) else "if"
                    emit(f"{keyword} ({self.expr(test, _TRUTH)[0]}) {{")
                    self.block(node.body, depth + 1)
                    if node.orelse:
                        emit("} else {")
                        self.block(node.orelse, depth + 1)
                    emit("}")
                case ast.Break() | ast.Continue():
                    emit("break;" if isinstance(node, ast.Break) else "continue;")
                case ast.Return(value=None):
                    emit("return;")
                case _:
                    line = ast.unparse(node).splitlines()[0]
                    self.fail(node, f"unsupported statement `{line}`")

    def render(self) -> str:
        if ast.unparse(self.tree.args) != ", ".join(ARG_FIELDS):
            self.fail(self.tree, "parameters differ from flat_kernel.ARG_FIELDS")
        self.block(self.tree.body, 1)
        read = {n.id for n in ast.walk(self.tree) if isinstance(n, ast.Name)}
        params = ",\n    ".join(f"{self.types[name]} {name}" for name in ARG_FIELDS)
        head = [f"void {self.name}(\n    {params})", "{"]
        head += [f"    (void){name};" for name in ARG_FIELDS if name not in read]
        # Python locals are function-scoped, so every declaration is hoisted.
        scalars = [(n, t) for n, t in self.types.items() if not t.endswith("*")]
        head += [f"    {ctype} {name} = 0;" for name, ctype in scalars]
        return "\n".join(head + self.lines + ["}"])


def source() -> str:
    """The C translation unit, emitted afresh: both twin functions.

    Raises:
        BackendUnavailable: twin source unreadable or outside the subset.
    """
    head = "/* Emitted from repro.simnoc.engines.kernels: edit the twin, not this. */"
    functions = (kernels.advance_plain, kernels.advance_vc)
    bodies = (_Emitter(fn).render() for fn in functions)
    return "\n\n".join((head + "\n#include <stdint.h>", *bodies)) + "\n"


#: What every build passes the compiler, and so part of the cache key.
CFLAGS = ("-O2", "-fPIC", "-shared")


def _find_compiler() -> str | None:
    """The resolved path of ``$CC``, else of the first of cc/gcc/clang."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        resolved = candidate and shutil.which(candidate)
        if resolved:
            return resolved
    return None


def library_path(text: str, compiler: str, flags: tuple[str, ...] = CFLAGS) -> Path:
    """Where ``text`` built by ``compiler`` with ``flags`` is cached: all three
    are in the digest, so one compiler's object never answers for another's."""
    key = "\0".join((text, compiler, *flags))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    cache = Path(os.environ.get("REPRO_JIT_CACHE") or Path.home() / ".cache/repro-jit")
    return cache / f"simnoc_kernels_{digest}.so"


def _build_library(text: str, compiler: str, so_path: Path) -> None:
    """Compile ``text`` and publish it, atomically, at ``so_path``."""
    global compile_events
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=so_path.parent) as tmp:
            c_path = Path(tmp) / "kernels.c"
            c_path.write_text(text)
            tmp_so = Path(tmp) / "kernels.so"
            cmd = [compiler, *CFLAGS, "-o", str(tmp_so), str(c_path)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                raise BackendUnavailable(
                    f"{compiler} failed ({proc.returncode}): "
                    f"{proc.stderr.strip()[:500]}"
                )
            compile_events += 1
            # Atomic publish: concurrent builders race harmlessly.
            os.replace(tmp_so, so_path)
    except OSError as exc:
        raise BackendUnavailable(f"cannot build kernel library: {exc}") from exc


def load_library() -> ctypes.CDLL:
    """Emit, compile (cache miss only) and load the kernel shared object.

    A cached entry that will not load (truncated write, wrong arch) is
    built over, once: left alone it pins the host to the interpreted rung.
    ``advance_plain`` / ``advance_vc`` of the returned library take the
    :data:`ARG_FIELDS` arrays and refuse one of the wrong dtype or layout.

    Raises:
        BackendUnavailable: the twin cannot be emitted, no compiler on
            PATH, compile error, or the freshly built object fails to load.
    """
    text = source()
    compiler = _find_compiler()
    if compiler is None:
        raise BackendUnavailable("no C compiler (cc/gcc/clang) on PATH")
    so_path = library_path(text, compiler)
    for fresh in (not so_path.exists(), True):
        if fresh:
            _build_library(text, compiler, so_path)
        try:
            lib = ctypes.CDLL(str(so_path))
            break
        except OSError as exc:
            if fresh:
                raise BackendUnavailable(f"cannot load {so_path}: {exc}") from exc

    argtypes = [np.ctypeslib.ndpointer(d, flags="C_CONTIGUOUS") for d in ARG_DTYPES]
    for function in (lib.advance_plain, lib.advance_vc):
        function.argtypes = argtypes
        function.restype = None
    return lib
