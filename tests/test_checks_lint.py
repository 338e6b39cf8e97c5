"""Tests for the repo-native static analysis pass (repro.checks.lint).

Every rule gets a positive fixture (violating source that must be
flagged) and a negative fixture (compliant source that must pass).
Paths are synthetic: the linter scopes rules by path, so a fixture
"located" at repro/core/x.py exercises the core-package rules without
touching the real tree.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.checks import lint_paths, lint_source
from repro.checks.layering import LAYER_RANKS
from repro.checks.lint import (
    _ANNOTATION_SCOPES,
    RULES,
    WALL_CLOCK_ALLOWLIST,
    iter_python_files,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def codes(source, path="repro/core/fixture.py", select=None):
    src = textwrap.dedent(source)
    return [f.code for f in lint_source(src, path, select=select)]


# -- RPR001: stdlib random ---------------------------------------------------


def test_import_random_flagged():
    assert "RPR001" in codes("import random\n")


def test_from_random_import_flagged():
    assert "RPR001" in codes("from random import randint\n")


def test_import_random_allowed_in_rng_module():
    assert codes("import random\n", path="repro/util/rng.py") == []


def test_unrelated_import_clean():
    assert codes("import heapq\nimport itertools\n") == []


# -- RPR002: unseeded numpy randomness ---------------------------------------


def test_np_random_attribute_flagged():
    found = codes(
        """
        import numpy as np

        def draw() -> float:
            return np.random.default_rng().uniform()
        """
    )
    assert "RPR002" in found


def test_numpy_random_import_flagged():
    assert "RPR002" in codes("from numpy.random import default_rng\n")


def test_numpy_random_allowed_in_rng_module():
    src = "import numpy as np\nx = np.random.PCG64(7)\n"
    assert codes(src, path="repro/util/rng.py") == []


def test_seeded_stream_usage_clean():
    found = codes(
        """
        from repro.util.rng import RngStream

        def draw(stream: RngStream) -> float:
            return stream.uniform()
        """
    )
    assert found == []


# -- RPR003: wall-clock time -------------------------------------------------


@pytest.mark.parametrize(
    "call",
    ["time.time()", "time.monotonic()", "time.perf_counter()"],
)
def test_wall_clock_calls_flagged(call):
    assert "RPR003" in codes(f"import time\nt = {call}\n")


def test_datetime_now_flagged():
    assert "RPR003" in codes("import datetime\nd = datetime.datetime.now()\n")


def test_time_module_for_sleep_clean():
    # Only the wall-clock readers are banned, not the module itself.
    assert codes("import time\ntime.sleep(0.1)\n") == []


# -- RPR101: float literals in slot arithmetic -------------------------------


def test_float_added_to_slot_flagged():
    found = codes(
        """
        def bump(slot: int) -> int:
            return slot + 1.0
        """
    )
    assert "RPR101" in found


def test_float_augmented_assign_flagged():
    found = codes(
        """
        def bump(end_slot: int) -> int:
            end_slot += 0.5
            return end_slot
        """
    )
    assert "RPR101" in found


def test_int_slot_arithmetic_clean():
    found = codes(
        """
        def bump(slot: int, difs_slots: int) -> int:
            return slot + difs_slots + 1
        """
    )
    assert found == []


def test_slot_time_us_is_not_slotlike():
    # slot_time_us is a duration in microseconds — floats are fine.
    found = codes(
        """
        def scale(slot_time_us: float) -> float:
            return slot_time_us + 0.5
        """
    )
    assert found == []


def test_unit_conversion_multiply_clean():
    # Mult/Div convert between units; only additive slot math is integer.
    found = codes(
        """
        def to_seconds(slot: int) -> float:
            return slot * 20.0 / 1e6
        """
    )
    assert found == []


# -- RPR102: float equality on slot timestamps -------------------------------


def test_float_eq_slot_flagged():
    found = codes(
        """
        def check(start_slot: int) -> bool:
            return start_slot == 5.0
        """
    )
    assert "RPR102" in found


def test_float_neq_slot_flagged():
    found = codes(
        """
        def check(slot: int) -> bool:
            return 3.0 != slot
        """
    )
    assert "RPR102" in found


def test_int_eq_slot_clean():
    found = codes(
        """
        def check(slot: int) -> bool:
            return slot == 5
        """
    )
    assert found == []


# -- RPR201: mutable default arguments ---------------------------------------


def test_mutable_list_default_flagged():
    found = codes(
        """
        def collect(items: list = []) -> list:
            return items
        """
    )
    assert "RPR201" in found


def test_mutable_call_default_flagged():
    found = codes(
        """
        def collect(items: dict = dict()) -> dict:
            return items
        """
    )
    assert "RPR201" in found


def test_none_default_clean():
    found = codes(
        """
        from typing import Optional


        def collect(items: Optional[list] = None) -> list:
            return items or []
        """
    )
    assert found == []


# -- RPR202: bare except -----------------------------------------------------


def test_bare_except_flagged():
    found = codes(
        """
        def guarded() -> int:
            try:
                return 1
            except:
                return 0
        """
    )
    assert "RPR202" in found


def test_typed_except_clean():
    found = codes(
        """
        def guarded() -> int:
            try:
                return 1
            except ValueError:
                return 0
        """
    )
    assert found == []


# -- RPR301: missing annotations on public functions -------------------------


def test_unannotated_public_function_flagged():
    assert "RPR301" in codes("def area(radius):\n    return radius\n")


def test_missing_return_annotation_flagged():
    assert "RPR301" in codes("def area(radius: float):\n    return radius\n")


def test_annotated_public_function_clean():
    src = "def area(radius: float) -> float:\n    return radius\n"
    assert codes(src) == []


def test_private_function_exempt():
    assert codes("def _helper(x):\n    return x\n") == []


def test_self_and_cls_exempt():
    src = textwrap.dedent(
        """
        class Thing:
            def area(self) -> float:
                return 1.0

            @classmethod
            def build(cls) -> "Thing":
                return cls()
        """
    )
    assert codes(src) == []


def test_annotation_rule_scoped_to_simulation_packages():
    src = "def helper(x):\n    return x\n"
    assert "RPR301" in codes(src, path="repro/mac/helper.py")
    assert "RPR301" in codes(src, path="repro/sim/helper.py")
    assert "RPR301" in codes(src, path="repro/serve/helper.py")
    assert "RPR301" in codes(src, path="repro/experiments/helper.py")
    assert codes(src, path="repro/analysis/helper.py") == []
    assert codes(src, path="repro/cli.py") == []


def test_package_tables_match_the_source_tree():
    """Every LAYER_RANKS key and RPR301 scope names a real package (or,
    for ``repro.cli``, module), and every package has a layer rank, so
    adding or deleting a package cannot leave either table stale."""
    root = Path(SRC) / "repro"
    packages = {path.parent.name for path in root.glob("*/__init__.py")}
    modules = {path.stem for path in root.glob("*.py")} - {"__init__"}
    ranked = {name.split(".", 1)[1] for name in LAYER_RANKS}
    assert ranked <= packages | modules
    assert packages <= ranked
    assert set(_ANNOTATION_SCOPES) <= packages


# -- machinery ---------------------------------------------------------------


def test_syntax_error_reported_not_raised():
    found = lint_source("def broken(:\n", "repro/core/broken.py")
    assert [f.code for f in found] == ["RPR000"]


def test_select_filters_codes():
    src = "import random\n\n\ndef f(x):\n    return x\n"
    assert codes(src, select=["RPR001"]) == ["RPR001"]


def test_finding_render_format():
    (finding,) = lint_source("import random\n", "repro/core/f.py")
    rendered = finding.render()
    assert rendered.startswith("repro/core/f.py:1:")
    assert "RPR001" in rendered


def test_rule_catalogue_is_documented():
    assert len(RULES) >= 8
    assert len({rule.code for rule in RULES}) == len(RULES)
    for rule in RULES:
        assert rule.summary


def test_iter_python_files_skips_caches(tmp_path):
    (tmp_path / "keep.py").write_text("x = 1\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "skip.py").write_text("x = 1\n")
    egg = tmp_path / "pkg.egg-info"
    egg.mkdir()
    (egg / "skip.py").write_text("x = 1\n")
    names = [path.name for path in iter_python_files([str(tmp_path)])]
    assert names == ["keep.py"]


def test_repo_source_tree_is_clean():
    assert lint_paths([SRC]) == []


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    env_cmd = [sys.executable, "-m", "repro.checks"]
    ok = subprocess.run(
        env_cmd + [str(clean)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert ok.returncode == 0
    fail = subprocess.run(
        env_cmd + [str(bad)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert fail.returncode == 1
    assert "RPR001" in fail.stdout


def test_cli_rejects_unknown_select_code(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    result = subprocess.run(
        [sys.executable, "-m", "repro.checks", str(target), "--select", "NOPE"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 2
    assert "unknown rule code" in result.stderr


def test_cli_rejects_missing_path(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro.checks", str(tmp_path / "absent.py")],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 2
    assert "no such file or directory" in result.stderr


# -- RPR003 allowlist (repro.obs.profile) ------------------------------------


def test_wall_clock_allowlist_is_exactly_the_profiler():
    assert WALL_CLOCK_ALLOWLIST == ("obs/profile.py",)


def test_profile_module_is_clock_exempt():
    src = "import time\nt = time.perf_counter()\n"
    assert codes(src, path="repro/obs/profile.py") == []
    assert "RPR003" in codes(src, path="repro/obs/listener.py")


def test_time_import_flagged_outside_allowlist():
    src = "from time import perf_counter\n"
    assert "RPR003" in codes(src, path="repro/obs/listener.py")
    assert codes(src, path="repro/obs/profile.py") == []


def test_rng_module_is_not_clock_exempt():
    # util/rng.py is exempt from the RNG rules but NOT from RPR003.
    src = "import time\nt = time.time()\n"
    assert "RPR003" in codes(src, path="repro/util/rng.py")


def test_wall_clock_allowlist_matches_the_tree():
    """The allowlist is exact: lint every real source file under a
    surrogate non-exempt path; the files that then offend RPR003 must
    be precisely the allowlisted ones (so the profiler truly reads the
    clock, and nothing else in src/ does)."""
    offenders = set()
    for path in iter_python_files([SRC]):
        source = path.read_text(encoding="utf-8")
        found = lint_source(
            source, "unexempt/surrogate.py", select=["RPR003"]
        )
        if found:
            rel = path.relative_to(Path(SRC) / "repro").as_posix()
            offenders.add(rel)
    assert offenders == set(WALL_CLOCK_ALLOWLIST)


def test_annotation_rule_covers_obs():
    src = "def helper(x):\n    return x\n"
    assert "RPR301" in codes(src, path="repro/obs/helper.py")


# -- the shared observation plane stays inside the lint scope ------------------


def test_annotation_rule_covers_observatory_module():
    src = "def helper(x):\n    return x\n"
    assert "RPR301" in codes(src, path="repro/core/observatory.py")


def test_observatory_module_is_lint_clean():
    """The real observatory source passes every rule under its real path
    (it lives in repro/core, the strictest scope)."""
    path = Path(SRC) / "repro" / "core" / "observatory.py"
    source = path.read_text(encoding="utf-8")
    assert lint_source(source, "repro/core/observatory.py") == []


# -- RPR401: module-level caches must register a reset hook -------------------


def test_unregistered_module_cache_flagged():
    assert "RPR401" in codes("_model_cache = {}\n")


def test_annotated_module_cache_flagged():
    assert "RPR401" in codes("_result_cache: dict = {}\n")


def test_registered_module_cache_passes():
    src = """\
    from repro.util.caches import register_cache_reset

    _model_cache = {}

    @register_cache_reset
    def reset_model_cache():
        _model_cache.clear()
    """
    assert "RPR401" not in codes(src)


def test_register_reference_via_attribute_passes():
    src = """\
    import repro.util.caches

    _model_cache = {}
    repro.util.caches.register_cache_reset(_model_cache.clear)
    """
    assert "RPR401" not in codes(src)


def test_cache_registry_module_exempt_from_rpr401():
    src = "_hooks_cache = []\n"
    assert codes(src, path="repro/util/caches.py", select=["RPR401"]) == []


def test_all_caps_cache_constant_not_flagged():
    # ALL_CAPS names are constants by convention, not mutable caches.
    assert "RPR401" not in codes("CACHE_DIR_ENV = 'X'\n")


def test_function_local_cache_not_flagged():
    src = """\
    def lookup():
        local_cache = {}
        return local_cache
    """
    assert "RPR401" not in codes(src)


def test_every_source_cache_has_a_registered_reset():
    """RPR401 over the real tree: every module-level cache in src/
    registers a reset hook (the shared-state footgun stays fixed)."""
    assert lint_paths([SRC], select=["RPR401"]) == []
