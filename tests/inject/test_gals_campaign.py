"""CDC fault campaigns on GALS topologies.

Bridge overflow/underflow faults ride the skeleton campaign's batch as
occupancy pokes; the report contract (byte-reproducible JSON, backend
parity, deterministic fault lists) extends unchanged to mixed-rate
graphs, and the token-level LID engine refuses them with a pointer to
the skeleton path.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import InjectionError
from repro.graph import parse_topology
from repro.inject import run_campaign, skeleton_campaign
from repro.inject.faults import (
    BRIDGE_KINDS,
    FAULT_CLASSES,
    FaultSpec,
    enumerate_targets,
    generate_faults,
)

RING = "gals-ring:rates=1+1/2,shells=2,depth=2"
CHAIN = "gals-chain:rates=1+1/2"


class TestGalsTargets:
    def test_enumerates_bridges_from_lowering(self):
        targets = enumerate_targets(parse_topology(CHAIN))
        assert targets.bridges == ("S0_0->S1_0.bridge",)
        assert targets.shells == ("S0_0", "S1_0")
        # Boundary hops only: the source's first hop, the sink's last.
        assert all("->" in name for name in targets.channels)

    def test_single_clock_has_no_bridges(self):
        targets = enumerate_targets(parse_topology("figure2:relays=1"))
        assert targets.bridges == ()

    def test_cdc_class_resolves(self):
        assert FAULT_CLASSES["cdc"] == BRIDGE_KINDS

    def test_generate_cdc_faults(self):
        graph = parse_topology(RING)
        faults = generate_faults(graph, classes=("cdc",), cycles=50,
                                 exhaustive=True)
        assert faults
        assert {f.kind for f in faults} == set(BRIDGE_KINDS)
        assert all(f.target.endswith(".bridge") for f in faults)

    def test_cdc_on_single_clock_graph_is_empty(self):
        graph = parse_topology("figure2:relays=1")
        with pytest.raises(InjectionError):
            generate_faults(graph, classes=("cdc",), cycles=50)


class TestGalsSkeletonCampaign:
    def test_byte_reproducible(self):
        graph = parse_topology(RING)
        kwargs = dict(classes=("cdc", "stop"), cycles=100, samples=16,
                      seed=7)
        first = skeleton_campaign(graph, **kwargs)
        second = skeleton_campaign(graph, **kwargs)
        assert first.to_json() == second.to_json()

    def test_backend_parity_scalar_vs_vectorized(self):
        """The default (bit-plane batch) backend equals scalar bytes."""
        graph = parse_topology(RING)
        kwargs = dict(classes=("cdc",), cycles=100, samples=12, seed=1)
        auto = skeleton_campaign(graph, **kwargs)
        scalar = skeleton_campaign(graph, backend="scalar", **kwargs)
        assert auto.to_json() == scalar.to_json()

    def test_overflow_perturbs_ring(self):
        """A phantom token in a loop changes activity durably."""
        graph = parse_topology(RING)
        spec = FaultSpec("bridge-overflow", "S1_1->S0_0.bridge", 10)
        report = skeleton_campaign(graph, faults=[spec], cycles=100)
        (result,) = report.results
        assert result.verdict == "timeout"
        assert "diverged" in result.detail

    def test_absorbed_nudge_is_masked(self):
        """Overflow on a full bridge clamps to a no-op (the chain's
        bridge alternates occupancy 1, 2 and is full after cycle 2)."""
        graph = parse_topology(CHAIN)
        spec = FaultSpec("bridge-overflow", "S0_0->S1_0.bridge", 2)
        report = skeleton_campaign(graph, faults=[spec], cycles=80)
        (result,) = report.results
        assert result.verdict == "masked"

    def test_unknown_bridge_is_skipped(self):
        graph = parse_topology(CHAIN)
        spec = FaultSpec("bridge-overflow", "no-such.bridge", 5)
        report = skeleton_campaign(graph, faults=[spec], cycles=50)
        assert not report.results
        assert len(report.skipped) == 1
        assert "no bridge named" in report.skipped[0]["reason"]

    def test_boundary_control_faults_still_run(self):
        """Non-CDC classes resolve through the lowering's hop names."""
        graph = parse_topology(CHAIN)
        report = skeleton_campaign(graph, classes=("stop",), cycles=80,
                                   samples=8, seed=2)
        assert report.results
        assert {r.verdict for r in report.results} \
            <= {"masked", "deadlock", "timeout", "detected"}

    def test_bitsim_backend_runs_cdc_campaign(self):
        graph = parse_topology(RING)
        kwargs = dict(classes=("cdc", "stop"), cycles=100, exhaustive=True,
                      window=(10, 20))
        bitsim = skeleton_campaign(graph, backend="bitsim", **kwargs)
        scalar = skeleton_campaign(graph, backend="scalar", **kwargs)
        assert bitsim.backend == "bitsim"
        assert {r.spec.kind for r in bitsim.results} >= set(BRIDGE_KINDS)
        assert bitsim.to_json() == scalar.to_json()


class TestLidEngineGuard:
    def test_run_campaign_refuses_gals(self):
        graph = parse_topology(RING)
        with pytest.raises(InjectionError) as err:
            run_campaign(graph, cycles=50)
        message = str(err.value)
        assert "single-clock" in message
        assert "skeleton" in message


EXHAUSTIVE_REPORT = (Path(__file__).parent / "data"
                     / "exhaustive-gals-ring-w40.json")


@pytest.mark.parametrize("backend", ["auto", "scalar"])
def test_exhaustive_window_report_matches_golden(tmp_path, backend):
    """An exhaustive window of sink stop, source void and bridge faults
    on a mixed-rate ring: the bit-plane engine skips the periodic tail
    of this batch (docs/bitsim.md), and its bytes must equal the scalar
    reference's and the committed report, which an engine that stepped
    every cycle wrote.  CI ``cmp``s the same argv."""
    out = tmp_path / "report.json"
    assert main(["inject", "--engine", "skeleton", "--backend", backend,
                 "--topology", "gals-ring:rates=1+1/2", "--cycles", "600",
                 "--exhaustive", "--window", "40:64",
                 "--faults", "stop,void,cdc", "--seed", "3",
                 "--format", "json", "-o", str(out)]) == 0
    assert out.read_bytes() == EXHAUSTIVE_REPORT.read_bytes()
