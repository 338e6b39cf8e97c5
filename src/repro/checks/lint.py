"""AST-based static analysis enforcing the simulator's contracts.

The simulator's correctness rests on two properties that ordinary
linters cannot check:

*Determinism.*  Every random draw must flow through the seeded stream
machinery in :mod:`repro.util.rng` (or the verifiable PRS built on it).
A single ``import random`` or ``np.random.default_rng()`` call anywhere
else silently breaks bit-for-bit reproducibility.  The same goes for
wall-clock reads (``time.time()``): simulation time is the integer slot
clock, never the host clock.

*Slot-exactness.*  Slot timestamps are integers.  Mixing float literals
into slot arithmetic (``slot + 0.5``) or comparing slots against float
literals (``slot == 3.0``) re-introduces the floating-point event-time
bugs the integer clock exists to prevent.

The pass also enforces two general hygiene rules (mutable default
arguments, bare ``except:``) and requires type annotations on every
public function in ``core/``, ``mac/``, ``sim/`` and ``obs/`` — the
modules whose interfaces the engine and detector contract on.

Wall-clock reads have their own allowlist: only ``obs/profile.py`` (the
throughput profiler) may touch the host clock.  ``util/rng.py`` stays
exempt from the RNG rules but *not* from RPR003 — seeding from the
clock would be exactly the determinism bug the rule exists to prevent.
``tests/test_checks_lint.py`` proves the allowlist exact: every module
that reads the clock is on it, and every module on it reads the clock.

Rules
-----

==========  ============================================================
``RPR001``  ``import random`` outside ``util/rng.py``
``RPR002``  ``numpy.random`` / ``np.random`` use outside ``util/rng.py``
``RPR003``  wall-clock read (``time.time`` etc.) outside the allowlist
            (``obs/profile.py``)
``RPR101``  float literal in slot arithmetic (``+ - // %``)
``RPR102``  ``==`` / ``!=`` between a slot value and a float literal
``RPR201``  mutable default argument
``RPR202``  bare ``except:``
``RPR301``  public function in ``core/``/``mac/``/``sim/``/``obs/``
            missing type annotations
``RPR401``  module-level ``*cache*`` assignment in a module that never
            references ``register_cache_reset`` (``util/caches.py`` is
            the registry itself and exempt)
==========  ============================================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class LintRule:
    """One static rule: a stable code plus a human description."""

    code: str
    summary: str


RULES: Tuple[LintRule, ...] = (
    LintRule("RPR001", "import of the stdlib `random` module outside util/rng.py"),
    LintRule("RPR002", "use of numpy.random outside util/rng.py"),
    LintRule(
        "RPR003",
        "wall-clock read (time.time & friends) outside the obs/profile.py allowlist",
    ),
    LintRule("RPR101", "float literal in slot arithmetic (+ - // %)"),
    LintRule("RPR102", "==/!= comparison between a slot value and a float literal"),
    LintRule("RPR201", "mutable default argument"),
    LintRule("RPR202", "bare except: clause"),
    LintRule("RPR301", "public function in core/, mac/ or sim/ missing annotations"),
    LintRule(
        "RPR401",
        "module-level cache without a reset hook registered via "
        "repro.util.caches.register_cache_reset",
    ),
)

RULE_CODES: Tuple[str, ...] = tuple(rule.code for rule in RULES)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


#: Files allowed to touch numpy.random / the stdlib random module.
_DETERMINISM_EXEMPT_SUFFIXES: Tuple[str, ...] = ("util/rng.py",)

#: Files allowed to read the host clock (RPR003).  Exactly the
#: throughput profiler — a test asserts this list matches reality.
WALL_CLOCK_ALLOWLIST: Tuple[str, ...] = ("obs/profile.py",)

#: Package subtrees whose public functions must be fully annotated.
_ANNOTATION_SCOPES: Tuple[str, ...] = (
    "core",
    "experiments",
    "geometry",
    "mac",
    "obs",
    "phy",
    "serve",
    "sim",
)

#: Module-level names treated as process-global caches (RPR401).
_CACHE_NAME = re.compile(r"cache", re.IGNORECASE)

#: The cache-reset registry itself, exempt from RPR401.
_CACHE_REGISTRY_SUFFIXES: Tuple[str, ...] = ("util/caches.py",)

#: Identifiers that denote integer slot timestamps or slot counts.
_SLOT_NAME = re.compile(r"(?:^|_)slots?$")

#: Dotted call targets that read the host clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

#: Ops in which a float literal poisons integer slot math.
_INTEGER_SLOT_OPS = (ast.Add, ast.Sub, ast.FloorDiv, ast.Mod)

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


def _normalized(path: str) -> str:
    return path.replace("\\", "/")


def _determinism_exempt(path: str) -> bool:
    norm = _normalized(path)
    return any(norm.endswith(suffix) for suffix in _DETERMINISM_EXEMPT_SUFFIXES)


def _wall_clock_exempt(path: str) -> bool:
    norm = _normalized(path)
    return any(norm.endswith(suffix) for suffix in WALL_CLOCK_ALLOWLIST)


def _annotation_scope(path: str) -> bool:
    """True if ``path`` lies in a subtree whose API must be annotated.

    The scope is recognized purely from the path string (``.../repro/
    core/...`` etc. or a bare ``core/...`` prefix) so tests can lint
    in-memory sources under synthetic paths.
    """
    parts = _normalized(path).split("/")
    if "repro" in parts:
        parts = parts[parts.index("repro") + 1 :]
    return bool(parts) and parts[0] in _ANNOTATION_SCOPES


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return True
    # A negated float literal (-0.5) parses as UnaryOp(USub, Constant).
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


def _mentions_slot(node: ast.AST) -> bool:
    """True if any identifier inside ``node`` names a slot quantity."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _SLOT_NAME.search(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _SLOT_NAME.search(sub.attr):
            return True
    return False


class _LintVisitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        self._exempt = _determinism_exempt(path)
        self._clock_exempt = _wall_clock_exempt(path)
        self._annotations_required = _annotation_scope(path)
        # Stack of "class" / "function" markers for nesting decisions.
        self._scope: List[str] = []

    # -- plumbing ----------------------------------------------------------

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )

    # -- determinism (RPR001-003) -----------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        if not self._exempt:
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "random":
                    self._add(
                        node,
                        "RPR001",
                        "import of stdlib `random`: draw from a seeded "
                        "repro.util.rng.RngStream instead",
                    )
                if alias.name == "numpy.random" or alias.name.startswith(
                    "numpy.random."
                ):
                    self._add(
                        node,
                        "RPR002",
                        "import of numpy.random: only util/rng.py may touch "
                        "numpy's RNG machinery",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if (
            not self._clock_exempt
            and node.level == 0
            and node.module == "time"
            and any(
                alias.name in ("time", "time_ns", "monotonic", "perf_counter")
                for alias in node.names
            )
        ):
            self._add(
                node,
                "RPR003",
                "import of a wall-clock reader: simulation time is the "
                "integer slot clock",
            )
        if not self._exempt and node.level == 0 and node.module is not None:
            if node.module == "random" or node.module.startswith("random."):
                self._add(
                    node,
                    "RPR001",
                    "import from stdlib `random`: draw from a seeded "
                    "repro.util.rng.RngStream instead",
                )
            if node.module == "numpy.random" or node.module.startswith(
                "numpy.random."
            ):
                self._add(
                    node,
                    "RPR002",
                    "import from numpy.random: only util/rng.py may touch "
                    "numpy's RNG machinery",
                )
            if node.module == "numpy" and any(
                alias.name == "random" for alias in node.names
            ):
                self._add(
                    node,
                    "RPR002",
                    "import of numpy.random: only util/rng.py may touch "
                    "numpy's RNG machinery",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            not self._exempt
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            self._add(
                node,
                "RPR002",
                f"use of {node.value.id}.random: only util/rng.py may touch "
                "numpy's RNG machinery",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if not self._clock_exempt:
            dotted = _dotted_name(node.func)
            if dotted is not None and dotted in _WALL_CLOCK_CALLS:
                self._add(
                    node,
                    "RPR003",
                    f"wall-clock read {dotted}(): simulation time is the "
                    "integer slot clock",
                )
        self.generic_visit(node)

    # -- slot-exactness (RPR101-102) --------------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, _INTEGER_SLOT_OPS):
            pairs = ((node.left, node.right), (node.right, node.left))
            for literal, other in pairs:
                if _is_float_literal(literal) and _mentions_slot(other):
                    self._add(
                        node,
                        "RPR101",
                        "float literal in slot arithmetic: slot timestamps "
                        "are integers (convert explicitly at the boundary)",
                    )
                    break
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if (
            isinstance(node.op, _INTEGER_SLOT_OPS)
            and _mentions_slot(node.target)
            and _is_float_literal(node.value)
        ):
            self._add(
                node,
                "RPR101",
                "float literal in slot arithmetic: slot timestamps are "
                "integers (convert explicitly at the boundary)",
            )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for literal, other in ((left, right), (right, left)):
                if _is_float_literal(literal) and _mentions_slot(other):
                    self._add(
                        node,
                        "RPR102",
                        "==/!= between a slot value and a float literal: "
                        "slot comparisons must stay integral",
                    )
                    break
        self.generic_visit(node)

    # -- hygiene (RPR201-202) ---------------------------------------------

    def _check_defaults(self, node: ast.AST, args: ast.arguments) -> None:
        for default in (*args.defaults, *args.kw_defaults):
            if default is None:
                continue
            mutable = isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CONSTRUCTORS
                and not default.args
                and not default.keywords
            )
            if mutable:
                self._add(
                    default,
                    "RPR201",
                    "mutable default argument: use None and create the "
                    "object inside the function",
                )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(
                node,
                "RPR202",
                "bare except: catches SystemExit/KeyboardInterrupt; name "
                "the exceptions you can actually handle",
            )
        self.generic_visit(node)

    # -- annotations (RPR301) ---------------------------------------------

    def _check_annotations(self, node: _FunctionNode) -> None:
        """Require annotations on a public function's signature."""
        name = node.name
        if name.startswith("_"):
            return  # private helpers and dunders are exempt
        if "function" in self._scope:
            return  # nested functions are implementation detail
        in_class = bool(self._scope) and self._scope[-1] == "class"
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        if in_class and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        missing: List[str] = []
        for arg in (*positional, *args.kwonlyargs):
            if arg.annotation is None:
                missing.append(arg.arg)
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if node.returns is None:
            missing.append("return")
        if missing:
            self._add(
                node,
                "RPR301",
                f"public function {name}() missing type annotations "
                f"({', '.join(missing)})",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: _FunctionNode) -> None:
        self._check_defaults(node, node.args)
        if self._annotations_required:
            self._check_annotations(node)
        self._scope.append("function")
        self.generic_visit(node)
        self._scope.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append("class")
        self.generic_visit(node)
        self._scope.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node, node.args)
        self._scope.append("function")
        self.generic_visit(node)
        self._scope.pop()


def _cache_registry_exempt(path: str) -> bool:
    norm = _normalized(path)
    return any(norm.endswith(suffix) for suffix in _CACHE_REGISTRY_SUFFIXES)


def _module_cache_findings(tree: ast.Module, path: str) -> List[Finding]:
    """RPR401: module-level caches must register a reset hook.

    A module-global named ``*cache*`` survives across tests unless it is
    rewound; any module assigning one must reference
    ``register_cache_reset`` somewhere (imports count), which the
    autouse test fixture then drives via ``reset_all_caches()``.
    """
    if _cache_registry_exempt(path):
        return []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "register_cache_reset":
            return []
        if isinstance(node, ast.Attribute) and node.attr == "register_cache_reset":
            return []
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            alias.name == "register_cache_reset" for alias in node.names
        ):
            return []
    findings: List[Finding] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            # ALL_CAPS names are constants by convention, not caches.
            if _CACHE_NAME.search(target.id) and not target.id.isupper():
                findings.append(
                    Finding(
                        path=path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        code="RPR401",
                        message=(
                            f"module-level cache `{target.id}` has no reset "
                            "hook: register one with repro.util.caches."
                            "register_cache_reset so the test suite can "
                            "rewind it"
                        ),
                    )
                )
    return findings


def lint_source(
    source: str, path: str, select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint one source string as if it lived at ``path``.

    ``path`` drives the path-scoped rules (determinism exemptions, the
    annotation requirement), so callers can lint synthetic sources.
    ``select`` restricts the returned findings to the given rule codes.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                code="RPR000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    visitor = _LintVisitor(path)
    visitor.visit(tree)
    findings = visitor.findings + _module_cache_findings(tree, path)
    if select is not None:
        wanted = frozenset(select)
        findings = [f for f in findings if f.code in wanted]
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated .py file list."""
    seen = set()
    result: List[Path] = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        else:
            candidates = [root]
        for candidate in candidates:
            parts = candidate.parts
            if any(p.startswith(".") or p.endswith(".egg-info") for p in parts):
                continue
            if "__pycache__" in parts:
                continue
            key = str(candidate)
            if key not in seen:
                seen.add(key)
                result.append(candidate)
    return result


def lint_paths(
    paths: Iterable[str], select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint every Python file under the given files/directories."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_source(path.read_text(), str(path), select=select))
    return findings
