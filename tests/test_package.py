"""Package-level hygiene: exports, errors, version, start-up imports."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.kernel",
    "repro.lid",
    "repro.pearls",
    "repro.graph",
    "repro.analysis",
    "repro.skeleton",
    "repro.verify",
    "repro.rtl",
    "repro.bench",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_symbols_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_sorted_for_readability(self, package):
        module = importlib.import_module(package)
        exported = list(getattr(module, "__all__", []))
        assert exported == sorted(exported), package

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name

    def test_catchable_as_family(self):
        from repro.errors import ReproError, StructuralError

        with pytest.raises(ReproError):
            raise StructuralError("x")

    def test_verification_error_carries_counterexample(self):
        from repro.errors import VerificationError

        err = VerificationError("boom", counterexample=["t0", "t1"])
        assert err.counterexample == ["t0", "t1"]

    def test_combinational_loop_is_structural(self):
        from repro.errors import CombinationalLoopError, StructuralError

        assert issubclass(CombinationalLoopError, StructuralError)


class TestDocstrings:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_packages_documented(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_core_classes_documented(self):
        from repro import (
            HalfRelayStation,
            LidSystem,
            RelayStation,
            Shell,
            Simulator,
            Token,
        )

        for cls in (LidSystem, Shell, RelayStation, HalfRelayStation,
                    Simulator, Token):
            assert cls.__doc__ and len(cls.__doc__.strip()) > 20


#: Refuses numpy and networkx, as an interpreter without them would.
_REFUSE_THIRD_PARTY = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "networkx"):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, Refuse())
"""


def _run_python(code, **kwargs):
    src = pathlib.Path(__file__).parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True, **kwargs)


class TestStartupImports:
    """The runtime is stdlib-only: numpy and networkx are test oracles
    (the ``test`` extra), never imported by a command."""

    def test_cli_import_leaves_numpy_unloaded(self):
        proc = _run_python(
            "import sys, repro.cli; print('numpy' in sys.modules)",
            timeout=60)
        assert proc.stdout.strip() == "False"

    def test_commands_run_without_numpy_or_networkx(self, tmp_path):
        commands = [
            ["analyze", "figure1"],
            ["analyze", "loopy:shells=5", "--seed", "3"],
            ["deadlock", "figure2"],
            ["liveness", "figure2"],
            ["inject", "--smoke", "--seed", "7", "--no-cache",
             "--format", "json", "-o", str(tmp_path / "lid.json")],
            ["inject", "--engine", "skeleton", "--topology",
             "figure2:relays=2", "--faults", "stop,void,payload",
             "--cycles", "120", "--exhaustive", "--window", "10:18",
             "--no-cache", "--format", "json",
             "-o", str(tmp_path / "skeleton.json")],
            ["inject", "--engine", "skeleton", "--topology",
             "gals-ring:rates=1+1/2,shells=2", "--faults", "cdc,stop",
             "--cycles", "100", "--samples", "24", "--seed", "7",
             "--no-cache", "--format", "json",
             "-o", str(tmp_path / "gals.json")],
            ["series", "backpressure", "-o", str(tmp_path / "series.csv")],
        ]
        proc = _run_python(_REFUSE_THIRD_PARTY + f"""
from repro.cli import main
codes = []
for argv in {commands!r}:
    try:
        codes.append(main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
print("exit codes:", codes)
""", timeout=600)
        codes = proc.stdout.strip().splitlines()[-1]
        # Every command gives its verdict: figure2 is live, so deadlock
        # and liveness exit 0 like the rest; a missing module would
        # raise instead.
        assert codes == "exit codes: [0, 0, 0, 0, 0, 0, 0, 0]", \
            proc.stdout + proc.stderr
