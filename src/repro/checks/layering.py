"""Deep pass 3 — architectural layering enforcement (rules RPR7xx).

The package layering is a DAG the reproduction's determinism and
auditability guarantees lean on: detectors judge senders *only* through
what a real monitor could observe, and the observation plane never
feeds back into the simulation.  Those properties are invisible to unit
tests — a single convenience import can quietly destroy them — so this
pass checks the declared DAG on every run:

.. code-block:: text

    util < geometry/traffic < phy/topology < mac < faults < sim
         < obs/checks < core < experiments < analysis/serve < cli

* **RPR701** — a module imports from a *higher* layer (module scope;
  ``if TYPE_CHECKING:`` imports and lazy function-scoped imports of
  the cross-cutting planes ``repro.obs``/``repro.checks`` are allowed,
  since those exist to be pluggable from anywhere).
* **RPR702** — ``repro.core`` (detectors/verdicts) touches a private
  attribute of the Medium.  Detectors must consume the public
  observation API; reaching into ``medium._*`` would grant them
  channel-state omniscience the paper's monitor does not have.
* **RPR703** — ``repro.obs`` (the observation plane) assigns to or
  mutates simulation state (``engine``/``medium``/``network``/
  ``mac``).  Observers are read-only by contract; a writing observer
  makes metrics collection perturb the run it measures.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.checks.index import ModuleInfo, ProjectIndex
from repro.checks.lint import Finding

#: Package -> layer rank.  Imports must flow from higher ranks to
#: lower ones; same-rank packages may import each other.
LAYER_RANKS: Dict[str, int] = {
    "repro.util": 0,
    "repro.geometry": 1,
    "repro.traffic": 1,
    "repro.phy": 2,
    "repro.topology": 2,
    "repro.mac": 3,
    "repro.faults": 4,
    "repro.sim": 5,
    "repro.obs": 6,
    "repro.checks": 6,
    "repro.core": 7,
    "repro.experiments": 8,
    "repro.analysis": 9,
    "repro.serve": 9,
    "repro.cli": 10,
}

#: Cross-cutting planes: importable from any layer, but only lazily
#: (function scope) when the importer sits below them.
CROSS_CUTTING = ("repro.obs", "repro.checks")

#: Names conventionally bound to live simulation state.
_SIM_STATE_NAMES = frozenset({"engine", "medium", "network", "mac", "sim"})


def layer_of(module_name: str) -> Optional[int]:
    """Layer rank of a dotted module name (None when outside the DAG)."""
    parts = module_name.split(".")
    for depth in (2, 1):
        prefix = ".".join(parts[:depth])
        if prefix in LAYER_RANKS:
            return LAYER_RANKS[prefix]
    if module_name == "repro" or module_name.startswith("repro."):
        # repro/__init__ and any future top-level module: treat like cli.
        return LAYER_RANKS["repro.cli"] if module_name != "repro" else None
    return None


def _package_of(module_name: str) -> str:
    parts = module_name.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else module_name


def _receiver_name(node: ast.expr) -> Optional[str]:
    """`medium` for ``medium.x`` and ``self.medium.x`` receivers."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self":
            return node.attr
    return None


class LayeringPass:
    """Runs the RPR7xx layering analysis over a project index."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.findings: List[Finding] = []

    def _add(self, module: ModuleInfo, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=module.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )

    # -- RPR701 ------------------------------------------------------------

    def _check_import_dag(self) -> None:
        for mod_name in sorted(self.index.modules):
            module = self.index.modules[mod_name]
            src_rank = layer_of(mod_name)
            if src_rank is None:
                continue
            src_pkg = _package_of(mod_name)
            for edge in module.import_edges:
                if edge.type_checking:
                    continue
                dst_rank = layer_of(edge.target)
                if dst_rank is None or dst_rank <= src_rank:
                    continue
                dst_pkg = _package_of(edge.target)
                if dst_pkg == src_pkg:
                    continue
                if dst_pkg in CROSS_CUTTING and edge.scope == "function":
                    continue  # lazy plug-in of a cross-cutting plane
                self._add(
                    module,
                    _EdgeNode(edge.lineno, edge.col),
                    "RPR701",
                    f"layering violation: {src_pkg} (layer {src_rank}) "
                    f"imports {edge.target} ({dst_pkg} is layer "
                    f"{dst_rank}); dependencies must flow "
                    "util -> geometry/traffic -> phy/topology -> mac -> "
                    "faults -> sim -> obs/checks -> core -> experiments -> "
                    "analysis -> cli",
                )

    # -- RPR702 ------------------------------------------------------------

    def _check_medium_privates(self) -> None:
        for mod_name in sorted(self.index.modules):
            if not mod_name.startswith("repro.core"):
                continue
            module = self.index.modules[mod_name]
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Attribute):
                    continue
                if not node.attr.startswith("_") or node.attr.startswith("__"):
                    continue
                receiver = _receiver_name(node.value)
                if receiver == "medium":
                    self._add(
                        module,
                        node,
                        "RPR702",
                        f"detector code reads Medium internals "
                        f"(medium.{node.attr}); monitors may only use the "
                        "public observation API — private channel state is "
                        "omniscience the paper's monitor does not have",
                    )

    # -- RPR703 ------------------------------------------------------------

    def _check_obs_read_only(self) -> None:
        for mod_name in sorted(self.index.modules):
            if not mod_name.startswith("repro.obs"):
                continue
            module = self.index.modules[mod_name]
            for node in ast.walk(module.tree):
                targets: List[ast.expr] = []
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        list(node.targets)
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                elif isinstance(node, ast.Delete):
                    targets = list(node.targets)
                for target in targets:
                    base = target
                    if isinstance(base, ast.Subscript):
                        base = base.value
                    if not isinstance(base, ast.Attribute):
                        continue
                    receiver = _receiver_name(base.value)
                    if receiver in _SIM_STATE_NAMES:
                        self._add(
                            module,
                            node,
                            "RPR703",
                            f"observation-plane code writes simulation state "
                            f"({receiver}.{base.attr}); repro.obs is "
                            "read-only by contract — a writing observer "
                            "perturbs the run it measures",
                        )

    # -- entry -------------------------------------------------------------

    def run(self) -> List[Finding]:
        self._check_import_dag()
        self._check_medium_privates()
        self._check_obs_read_only()
        return sorted(
            self.findings, key=lambda f: (f.path, f.line, f.col, f.code)
        )


class _EdgeNode:
    """Minimal location carrier for import-edge findings."""

    def __init__(self, lineno: int, col_offset: int) -> None:
        self.lineno = lineno
        self.col_offset = col_offset
