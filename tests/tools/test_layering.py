"""The layering lint: the tree is clean and the lint can actually see.

The second half matters as much as the first: a lint that silently
fails to resolve relative or function-level imports would report the
tree clean forever, so the detection machinery gets its own tests.
"""

import importlib.util
import os
import textwrap

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
TOOL_PATH = os.path.abspath(
    os.path.join(REPO_ROOT, "tools", "check_layering.py"))

spec = importlib.util.spec_from_file_location("check_layering", TOOL_PATH)
check_layering = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_layering)


class TestRepoIsClean:
    def test_no_violations_in_src(self):
        assert check_layering.check() == []


class TestResolution:
    def test_relative_import_resolution(self):
        resolve = check_layering._resolve_relative
        assert resolve("repro.graph.model", 1, "topologies") == \
            "repro.graph.topologies"
        assert resolve("repro.graph.model", 2, "ir") == "repro.ir"
        assert resolve("repro.graph.model", 2, "") == "repro"

    def test_prefix_matching_is_component_wise(self):
        matches = check_layering._matches
        assert matches("repro.cli", "repro.cli")
        assert matches("repro.cli.main", "repro.cli")
        assert not matches("repro.client", "repro.cli")


class TestDetection:
    def _imports_of(self, tmp_path, module, source):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(source))
        return {name for _line, name in
                check_layering._imports(str(path), module)}

    def test_sees_function_level_and_relative_imports(self, tmp_path):
        found = self._imports_of(tmp_path, "repro.graph.transform", """\
            from ..skeleton import deadlock

            def late():
                from repro.cli import main
                import repro.lid.elaborate
            """)
        assert "repro.skeleton" in found
        assert "repro.skeleton.deadlock" in found
        assert "repro.cli.main" in found
        assert "repro.lid.elaborate" in found

    def test_from_dot_import_submodule(self, tmp_path):
        # "from . import skeleton" pulls in the sibling submodule.
        found = self._imports_of(tmp_path, "repro.graph.model",
                                 "from .. import skeleton\n")
        assert "repro.skeleton" in found


class TestCodegenRule:
    """codegen may consume repro.ir and repro.exec.cache — nothing else
    from the layers around it; the lint must catch a deliberate slip."""

    def _violations(self, tmp_path, source):
        path = tmp_path / "codegen.py"
        path.write_text(textwrap.dedent(source))
        return check_layering.check_file(str(path),
                                         "repro.skeleton.codegen")

    def test_allowed_imports_are_clean(self, tmp_path):
        assert self._violations(tmp_path, """\
            from ..ir import LoweredSystem
            from .sim import SkeletonSim
            from repro.exec.cache import ResultCache
            """) == []

    def test_lid_import_is_flagged(self, tmp_path):
        found = self._violations(tmp_path, """\
            def late():
                from repro.lid.variant import DEFAULT_VARIANT
            """)
        assert len(found) >= 1
        assert "repro.lid" in found[0]

    def test_exec_outside_cache_is_flagged(self, tmp_path):
        found = self._violations(tmp_path,
                                 "from repro.exec.pool import "
                                 "map_deterministic\n")
        assert found and "repro.exec" in found[0]

    def test_shipped_codegen_module_is_clean(self):
        src = os.path.join(REPO_ROOT, "src", "repro", "skeleton",
                           "codegen.py")
        assert check_layering.check_file(
            src, "repro.skeleton.codegen") == []


class TestKernelRule:
    """The kernel knows components and signals, not the protocol."""

    def _violations(self, tmp_path, source):
        path = tmp_path / "scheduler.py"
        path.write_text(textwrap.dedent(source))
        return check_layering.check_file(str(path),
                                         "repro.kernel.scheduler")

    def test_errors_and_obs_allowed(self, tmp_path):
        assert self._violations(tmp_path, """\
            from typing import TYPE_CHECKING
            from ..errors import ConvergenceError
            if TYPE_CHECKING:
                from ..obs import Telemetry
            """) == []

    def test_lid_import_is_flagged(self, tmp_path):
        found = self._violations(tmp_path, """\
            def late():
                from ..lid.relay import RelayStation
            """)
        assert found and "repro.lid" in found[0]


class TestThirdPartyRule:
    """The runtime is stdlib-only: numpy and networkx are test oracles,
    and only ``SystemGraph.to_networkx`` may import networkx, lazily."""

    def _violations(self, tmp_path, module, source):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(source))
        return check_layering.check_file(str(path), module)

    def test_lazy_numpy_import_is_flagged(self, tmp_path):
        found = self._violations(tmp_path, "repro.skeleton.backend", """\
            def fire_counts():
                import numpy as np
            """)
        assert found and "numpy" in found[0]

    def test_networkx_from_import_is_flagged(self, tmp_path):
        found = self._violations(tmp_path, "repro.analysis.throughput",
                                 "from networkx import node_disjoint_paths\n")
        assert found and "networkx" in found[0]

    def test_module_level_networkx_in_model_is_flagged(self, tmp_path):
        found = self._violations(tmp_path, "repro.graph.model",
                                 "import networkx as nx\n")
        assert found and "networkx" in found[0]

    def test_to_networkx_may_import_networkx_lazily(self, tmp_path):
        assert self._violations(tmp_path, "repro.graph.model", """\
            class SystemGraph:
                def to_networkx(self):
                    import networkx as nx
            """) == []

    def test_exemption_covers_networkx_only(self, tmp_path):
        found = self._violations(tmp_path, "repro.graph.model", """\
            class SystemGraph:
                def to_networkx(self):
                    import numpy
            """)
        assert found and "numpy" in found[0]
