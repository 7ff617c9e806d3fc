"""Bit-parallel fault campaigns: byte-identity and verdict coverage.

The bitsim backend's contract with ``skeleton_campaign`` is stronger
than verdict agreement: the rendered :class:`CampaignReport` JSON must
be **byte-identical** to the scalar backend's (schema v2 keeps backend
provenance in the opt-in execution header, outside the default
payload), including when the fault list is wider than a 64-bit machine
word — the whole list still runs as one batch with one golden plane.

The suite also pins that every one of the five verdict classes is
reachable through the bit-parallel path on a single topology.
"""

import json

import pytest

from repro.graph import figure2, parse_topology, pipeline
from repro.inject import FaultSpec, skeleton_campaign
from repro.lid.variant import ProtocolVariant
from repro.skeleton import SkeletonSim, backend

#: Hand-picked witnesses on pipeline(4, relays_per_hop=2); boundary
#: channels are "S3->out#11" (sink) and "src->S0#1" (source).
WITNESSES = [
    # Strict CASU: the wedged column's stops land on voids -> detected.
    FaultSpec("stop-stuck-1", "S3->out#11", 8, 0),
    # Forces the script's existing value -> masked.
    FaultSpec("stop-stuck-0", "S3->out#11", 8, 0),
    # Corrupted slot consumed at an accepting cycle -> silent-corruption.
    FaultSpec("payload", "S3->out#11", 30, 1),
    # Starves the pipeline for 8 presented slots -> timeout.
    FaultSpec("valid-stuck-0", "src->S0#1", 10, 8),
]


def _campaign(backend, *, strict=False, **overrides):
    kwargs = dict(cycles=100, faults=WITNESSES, backend=backend,
                  strict=strict, variant=ProtocolVariant.CASU)
    kwargs.update(overrides)
    return skeleton_campaign(pipeline(4, relays_per_hop=2), **kwargs)


class TestFiveVerdicts:
    """All five classes, through bit planes, equal to scalar."""

    @pytest.mark.parametrize("strict", [False, True],
                             ids=["lenient", "strict"])
    def test_verdicts_match_scalar(self, strict):
        scalar = _campaign("scalar", strict=strict)
        bitsim = _campaign("bitsim", strict=strict)
        assert bitsim.backend == "bitsim"
        assert [(r.spec.label(), r.verdict) for r in bitsim.results] \
            == [(r.spec.label(), r.verdict) for r in scalar.results]

    def test_all_five_classes_witnessed(self):
        lenient = {r.spec.label(): r.verdict
                   for r in _campaign("bitsim").results}
        strict = {r.spec.label(): r.verdict
                  for r in _campaign("bitsim", strict=True).results}
        stuck1 = "stop-stuck-1@S3->out#11@c8stuck"
        assert lenient[stuck1] == "deadlock"
        # Strict promotes the wedge: its excess stops-on-voids trip the
        # stop-shape rule before the deadlock classification is reached.
        assert strict[stuck1] == "detected"
        assert lenient["stop-stuck-0@S3->out#11@c8stuck"] == "masked"
        assert lenient["payload@S3->out#11@c30"] == "silent-corruption"
        assert lenient["valid-stuck-0@src->S0#1@c10+8"] == "timeout"
        assert set(lenient.values()) | set(strict.values()) == {
            "detected", "silent-corruption", "masked", "deadlock",
            "timeout"}

    def test_strict_is_noop_for_validity_blind_variant(self):
        """CARLONI has no stop-on-void invariant to violate."""
        lenient = _campaign("bitsim", variant=ProtocolVariant.CARLONI)
        strict = _campaign("bitsim", strict=True,
                           variant=ProtocolVariant.CARLONI)
        assert [r.verdict for r in lenient.results] \
            == [r.verdict for r in strict.results]
        assert "detected" not in {r.verdict for r in strict.results}


class TestByteIdentity:
    """to_json() bytes equal across backends, chunkings and reruns."""

    @pytest.mark.parametrize("strict", [False, True],
                             ids=["lenient", "strict"])
    def test_report_bytes_equal_scalar(self, strict):
        assert _campaign("bitsim", strict=strict).to_json() \
            == _campaign("scalar", strict=strict).to_json()

    def test_chunked_campaign_bytes_equal_all_backends(self, monkeypatch):
        """More than 63 faults (wider than a machine word) still run as
        one bit-plane batch — one golden run — and the report is
        byte-identical to the scalar backend's."""
        kwargs = dict(cycles=100, exhaustive=True, window=(0, 40),
                      classes=("stop", "void", "payload"))
        widths = []
        select = backend.select

        def counting_select(*args, **kw):
            handle = select(*args, **kw)
            widths.append((handle.name, handle.batch))
            return handle

        monkeypatch.setattr(backend, "select", counting_select)
        bitsim = skeleton_campaign(figure2(), backend="bitsim", **kwargs)
        ((name, width),) = widths
        assert name == "bitsim"
        assert width > 64, "need a fault list wider than one word"
        scalar = skeleton_campaign(figure2(), backend="scalar", **kwargs)
        assert bitsim.to_json() == scalar.to_json()

    def test_double_run_is_deterministic(self):
        first = _campaign("bitsim", strict=True).to_json()
        second = _campaign("bitsim", strict=True).to_json()
        assert first == second

    def test_schema_v2_payload_shape(self):
        report = _campaign("bitsim", strict=True)
        payload = json.loads(report.to_json())
        assert payload["schema"] == "repro-inject-campaign/v2"
        assert payload["strict"] is True
        assert "backend" not in payload
        audited = report.to_payload(execution=True)
        assert audited["execution"]["backend"] == "bitsim"


class TestSkippedCampaignBackend:
    """A campaign whose every fault is skipped runs no engine; its
    header still names the engine ``select`` resolves the request to."""

    @pytest.mark.parametrize("requested,resolved", [
        ("bitsim", "bitsim"), ("scalar", "scalar"), ("auto", "scalar")])
    def test_header_names_the_requested_engine(self, requested, resolved):
        report = skeleton_campaign(
            figure2(2), classes=("drop",), cycles=64, samples=8,
            backend=requested)
        assert report.skipped and not report.results
        assert report.backend == resolved
        assert f"engine=skeleton/{resolved}" in report.format_table()
        audited = report.to_payload(execution=True)
        assert audited["execution"]["backend"] == resolved


class TestShortRun:
    """A campaign no longer than its tail window steps exactly its
    cycles, and its tail window is the whole run (as ``_tail_fires``
    reads it on the LID engine)."""

    SPECS = ("pipeline:stages=2", "figure2", "gals-ring:rates=1+1/2")

    @staticmethod
    def _run(monkeypatch, spec, cycles, name):
        handles = []
        select = backend.select

        def capture(*args, **kwargs):
            handles.append(select(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(backend, "select", capture)
        classes = ("stop", "void", "cdc") if "gals" in spec else (
            "stop", "void")
        report = skeleton_campaign(
            parse_topology(spec), classes=classes, cycles=cycles,
            exhaustive=True, backend=name)
        (handle,) = handles
        return report, handle

    @pytest.mark.parametrize("cycles", [3, 4, 7, 8])
    @pytest.mark.parametrize("spec", SPECS)
    def test_both_backends_step_exactly_the_run(self, monkeypatch, spec,
                                                cycles):
        reports = {}
        for name in ("auto", "scalar"):
            report, handle = self._run(monkeypatch, spec, cycles, name)
            sims = handle.sims if name == "scalar" else [handle.sim]
            assert {sim.cycle for sim in sims} == {cycles}
            reports[name] = report.to_json()
        assert reports["auto"] == reports["scalar"]

    @pytest.mark.parametrize("cycles", [3, 4, 7, 8])
    def test_golden_counts_are_the_whole_run(self, cycles):
        """The verdict details quote the golden column's totals over
        exactly *cycles* cycles, checked against the scalar engine."""
        graph = pipeline(2)
        golden = SkeletonSim(graph, detect_ambiguity=False)
        for _ in range(cycles):
            golden.step()
        fires = sum(map(sum, golden.fire_history))
        accepts = sum(map(sum, golden.accept_history))
        report = skeleton_campaign(
            graph, cycles=cycles, backend="auto",
            faults=[FaultSpec("stop-stuck-1", "S1->out#4", 0, 0)])
        (result,) = report.results
        assert result.verdict == "timeout"
        assert (f"fires 2 vs {fires}, accepts 0 vs {accepts}"
                in result.detail)

    def test_deadlock_needs_a_silent_tail(self):
        """With a run of at most eight cycles the tail window is the
        whole run, so a column that fired at all is not deadlocked;
        past it the same fault reads deadlock."""
        fault = FaultSpec("stop-stuck-1", "S1->out#4", 0, 0)
        verdicts = {cycles: skeleton_campaign(
            pipeline(2), cycles=cycles, faults=[fault],
            backend="auto").results[0].verdict for cycles in (8, 12)}
        assert verdicts == {8: "timeout", 12: "deadlock"}
