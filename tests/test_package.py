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


class TestStartupImports:
    def test_cli_import_leaves_numpy_unloaded(self):
        """numpy loads lazily, inside the batch accessors: importing the
        CLI (and so analyze, deadlock, liveness, series and LID
        campaigns) never pays for it."""
        src = pathlib.Path(__file__).parent.parent / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   p for p in (str(src), os.environ.get("PYTHONPATH"))
                   if p)}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60,
            check=True)
        assert proc.stdout.strip() == "False"
