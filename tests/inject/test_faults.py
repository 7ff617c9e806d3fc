"""Fault vocabulary: specs, class resolution, deterministic lists."""

import hashlib
import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import InjectionError
from repro.graph import figure2, parse_topology, ring
from repro.inject import (
    ALL_KINDS,
    FAULT_CLASSES,
    FaultSpec,
    STATE_KINDS,
    WIRE_KINDS,
    enumerate_targets,
    generate_faults,
    resolve_classes,
)
from repro.inject import faults as faults_module
from repro.inject.faults import FaultUniverse


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InjectionError, match="unknown fault kind"):
            FaultSpec("gamma-ray", "c", 0)

    def test_negative_cycle_rejected(self):
        with pytest.raises(InjectionError, match="cycle must be >= 0"):
            FaultSpec("stop-glitch", "c", -1)

    def test_negative_duration_rejected(self):
        with pytest.raises(InjectionError, match="duration must be >= 0"):
            FaultSpec("stop-glitch", "c", 0, duration=-1)

    def test_phase_split(self):
        for kind in WIRE_KINDS:
            assert FaultSpec(kind, "c", 0).phase == "wire"
        for kind in STATE_KINDS:
            assert FaultSpec(kind, "c", 0).phase == "state"

    def test_stuck_active_to_end(self):
        spec = FaultSpec("stop-stuck-1", "c", 5, duration=0)
        assert spec.stuck
        assert not spec.active(4)
        assert spec.active(5) and spec.active(10_000)

    def test_windowed_active(self):
        spec = FaultSpec("stop-glitch", "c", 5, duration=2)
        assert [spec.active(c) for c in range(4, 8)] == [
            False, True, True, False]

    def test_label_stable(self):
        assert FaultSpec("stop-glitch", "a->b#1", 7).label() == \
            "stop-glitch@a->b#1@c7"
        assert FaultSpec("stop-stuck-1", "a->b#1", 7, 0).label() == \
            "stop-stuck-1@a->b#1@c7stuck"
        assert FaultSpec("payload", "a->b#1", 7, 3).label() == \
            "payload@a->b#1@c7+3"


class TestResolveClasses:
    def test_class_expansion(self):
        assert resolve_classes(["stop"]) == FAULT_CLASSES["stop"]

    def test_concrete_kind_passthrough(self):
        assert resolve_classes(["payload"]) == ("payload",)
        assert resolve_classes(["relay-drop"]) == ("relay-drop",)

    def test_dedup_preserves_order(self):
        kinds = resolve_classes(["stop", "stop-glitch", "void"])
        assert kinds == FAULT_CLASSES["stop"] + FAULT_CLASSES["void"]

    def test_unknown_class_rejected(self):
        with pytest.raises(InjectionError, match="unknown fault class"):
            resolve_classes(["cosmic"])

    def test_every_class_maps_to_known_kinds(self):
        for kinds in FAULT_CLASSES.values():
            assert set(kinds) <= set(ALL_KINDS)


class TestEnumerateTargets:
    def test_figure2_targets(self):
        targets = enumerate_targets(figure2())
        assert targets.shells == ("S0", "S1")
        assert len(targets.channels) == 5
        # Both ring stations are full (two-register) stations.
        assert targets.full_relays == targets.relays

    def test_half_relays_excluded_from_duplicate(self):
        graph = ring(2, relays_per_arc=[["full"], ["half"]])
        targets = enumerate_targets(graph)
        assert set(targets.full_relays) < set(targets.relays)


class TestGenerateFaults:
    def test_sampled_list_deterministic(self):
        a = generate_faults(figure2(), cycles=50, samples=16, seed=3)
        b = generate_faults(figure2(), cycles=50, samples=16, seed=3)
        assert a == b
        assert len(a) == 16

    def test_seed_changes_sample(self):
        a = generate_faults(figure2(), cycles=50, samples=16, seed=3)
        b = generate_faults(figure2(), cycles=50, samples=16, seed=4)
        assert a != b

    def test_exhaustive_window(self):
        faults = generate_faults(
            figure2(), classes=("stop-glitch",), cycles=50,
            window=(10, 12), exhaustive=True)
        # 5 channels x 2 cycles, stable order.
        assert len(faults) == 10
        assert all(f.kind == "stop-glitch" for f in faults)
        assert {f.cycle for f in faults} == {10, 11}

    def test_stuck_kinds_get_zero_duration(self):
        faults = generate_faults(
            figure2(), classes=("stop", "delayed-stop"), cycles=20,
            exhaustive=True)
        for fault in faults:
            if "stuck" in fault.kind or fault.kind == "delayed-stop":
                assert fault.duration == 0
            else:
                assert fault.duration == 1

    def test_bad_window_rejected(self):
        with pytest.raises(InjectionError, match="bad cycle window"):
            generate_faults(figure2(), cycles=50, window=(40, 60))

    def test_empty_classes_rejected(self):
        with pytest.raises(InjectionError, match="no fault kinds"):
            generate_faults(figure2(), classes=())

    def test_sample_larger_than_universe_returns_universe(self):
        faults = generate_faults(
            figure2(), classes=("stop-glitch",), cycles=50,
            window=(0, 2), samples=10_000)
        assert len(faults) == 10


def _reference_faults(graph, targets, *, classes, cycles, window=None,
                      exhaustive=False, samples=64, seed=0):
    """The fault list as a fully built universe (the original algorithm).

    Kept as the differential oracle: the indexed universe must
    reproduce this list element for element, sampled draws included.
    """
    kinds = resolve_classes(classes)
    lo, hi = window if window is not None else (0, cycles)
    per_kind = {
        "relay-drop": targets.relays,
        "relay-duplicate": targets.full_relays,
        "shell-corrupt": targets.shells,
    }
    universe = []
    for kind in kinds:
        duration = 0 if ("stuck" in kind or kind == "delayed-stop") else 1
        if kind in WIRE_KINDS:
            kind_targets = targets.channels
        elif kind.startswith("bridge-"):
            kind_targets = targets.bridges
        else:
            kind_targets = per_kind[kind]
        for target in kind_targets:
            for cycle in range(lo, hi):
                universe.append(FaultSpec(kind, target, cycle, duration))
    if not universe:
        raise InjectionError(
            f"no injectable targets for classes {list(classes)} in "
            f"{graph.name!r}")
    if exhaustive:
        return universe
    rng = random.Random(seed)
    if samples >= len(universe):
        return universe
    return rng.sample(universe, samples)


FAMILIES = [
    "figure2", "ring:shells=3,relays=1", "tree:depth=2", "dag:shells=4",
    "loopy:shells=3", "butterfly:lanes=2", "pipeline:stages=3",
    "gals-ring:rates=1+1/2,shells=2", "gals-chain:rates=1+1/2+1/3",
]
CLASS_MIXES = [
    ("stop", "void"),
    ("payload", "drop", "duplicate"),
    ("shell", "phantom", "delayed-stop"),
    ("cdc",),
    ("cdc", "stop", "drop"),
    tuple(sorted(FAULT_CLASSES)),
]
WINDOWS = [None, (17, 18), (5, 45)]


class TestFaultUniverseDifferential:
    """The indexed universe against the materialized reference."""

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_matches_materialized_reference(self, spec, monkeypatch):
        graph = parse_topology(spec, seed=1)
        targets = enumerate_targets(graph)
        # Elaborate once: both sides resolve the same target names.
        monkeypatch.setattr(faults_module, "enumerate_targets",
                            lambda g, variant=None: targets)
        checked = 0
        for classes in CLASS_MIXES:
            for window in WINDOWS:
                for seed in (0, 7):
                    for mode in (dict(samples=16), dict(samples=10_000),
                                 dict(exhaustive=True)):
                        kwargs = dict(classes=classes, cycles=60,
                                      window=window, seed=seed, **mode)
                        try:
                            expected = _reference_faults(graph, targets,
                                                         **kwargs)
                        except InjectionError as exc:
                            with pytest.raises(InjectionError) as err:
                                generate_faults(graph, **kwargs)
                            assert str(err.value) == str(exc)
                            continue
                        assert generate_faults(graph, **kwargs) == \
                            expected, (classes, window, seed, mode)
                        checked += 1
        assert checked > 0


class TestFaultUniverseSequence:
    BLOCKS = [("stop-glitch", 1, ("a", "b")),
              ("relay-duplicate", 1, ()),
              ("stop-stuck-1", 0, ("c",))]

    def _universe(self):
        return FaultUniverse(self.BLOCKS, 10, 13)

    def test_len_skips_empty_blocks(self):
        assert len(self._universe()) == (2 + 0 + 1) * 3

    def test_order_is_kind_target_cycle(self):
        labels = [f.label() for f in self._universe()]
        assert labels == [
            "stop-glitch@a@c10", "stop-glitch@a@c11", "stop-glitch@a@c12",
            "stop-glitch@b@c10", "stop-glitch@b@c11", "stop-glitch@b@c12",
            "stop-stuck-1@c@c10stuck", "stop-stuck-1@c@c11stuck",
            "stop-stuck-1@c@c12stuck",
        ]

    def test_indexing_matches_iteration(self):
        universe = self._universe()
        assert [universe[i] for i in range(len(universe))] == list(universe)

    def test_negative_indices(self):
        universe = self._universe()
        assert universe[-1] == FaultSpec("stop-stuck-1", "c", 12, 0)
        assert universe[-len(universe)] == FaultSpec("stop-glitch", "a", 10)

    def test_index_error_past_either_end(self):
        universe = self._universe()
        with pytest.raises(IndexError):
            universe[len(universe)]
        with pytest.raises(IndexError):
            universe[-len(universe) - 1]


#: sha256 of the newline-joined fault labels, recorded from the
#: materialized-universe implementation.  A change here means sampled
#: campaigns no longer reproduce earlier reports.
PINNED_SAMPLES = [
    ("tree:depth=3", dict(classes=("stop", "void", "payload", "drop"),
                          cycles=400, samples=64, seed=7),
     "ea48ce89d636c1d8cc529544c12950e955e4d965ebf8a22c09ff12fd5ba95a09"),
    ("butterfly:lanes=4", dict(classes=("stop", "void"), cycles=400,
                               samples=64, seed=21),
     "5ce5dafc342588fd03dd834dd62a247bfb98550f12773ce560a750583918fba3"),
    ("dag:shells=5", dict(classes=("stop", "void", "phantom", "shell",
                                   "duplicate"),
                          cycles=400, samples=48, seed=3),
     "0d6a0e3fce9c6b77cb56a29da8e2a098ace3043d37264c36fb1c381f02a72f74"),
    ("gals-ring:rates=1+1/2,shells=2",
     dict(classes=("cdc", "stop", "drop"), cycles=800, samples=64, seed=5),
     "4ace67523126f09eb8f49b8c1763181ace8c491dcb4f712d92bf28ce276b0b89"),
]


@pytest.mark.parametrize("spec,kwargs,digest", PINNED_SAMPLES,
                         ids=[p[0] for p in PINNED_SAMPLES])
def test_sampled_fault_list_digest_pinned(spec, kwargs, digest):
    graph = parse_topology(spec, seed=kwargs["seed"])
    faults = generate_faults(graph, **kwargs)
    labels = "\n".join(f.label() for f in faults).encode()
    assert hashlib.sha256(labels).hexdigest() == digest


GOLDEN_REPORT = Path(__file__).parent / "data" / "sampled-tree3-seed7.json"


def test_sampled_skeleton_report_matches_golden(tmp_path):
    """The committed report CI also ``cmp``s against (same argv)."""
    out = tmp_path / "report.json"
    assert main(["inject", "--engine", "skeleton", "--topology",
                 "tree:depth=3", "--cycles", "400", "--samples", "64",
                 "--faults", "stop,void,payload,drop", "--seed", "7",
                 "--format", "json", "-o", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_REPORT.read_bytes()


EXHAUSTIVE_REPORT = (Path(__file__).parent / "data"
                     / "exhaustive-pipeline3-w60.json")


@pytest.mark.parametrize("backend", ["auto", "scalar"])
def test_exhaustive_window_report_matches_golden(tmp_path, backend):
    """An exhaustive window over sink stop, source void, sink payload
    and relay-drop faults: 24 experiments covering four verdicts and
    every skipped-entry shape, rendered from the report templates.
    CI ``cmp``s the same argv."""
    out = tmp_path / "report.json"
    assert main(["inject", "--engine", "skeleton", "--backend", backend,
                 "--topology", "pipeline:stages=3", "--cycles", "200",
                 "--exhaustive", "--window", "60:64",
                 "--faults", "stop,void,payload,drop", "--seed", "5",
                 "--format", "json", "-o", str(out)]) == 0
    assert out.read_bytes() == EXHAUSTIVE_REPORT.read_bytes()
