"""Pinned parity: payload faults on boundary channels, both engines.

A payload fault corrupts data without touching valid/stop wires, so it
is control-transparent: the skeleton engine classifies it from the
golden column's acceptance history (a sink that consumes during the
fault window consumed a corrupted token).  The pinned contract is
*verdict* parity with the token-level LID engine, which actually
corrupts the payload and diffs the sink stream — and backend parity
between the scalar and bit-plane skeleton engines, which routes the
boundary payload path through ``select()`` rather than a scalar-only
fallback.
"""

from collections import Counter

from repro.graph import figure2, pipeline
from repro.inject import run_campaign, skeleton_campaign
from repro.lid.variant import ProtocolVariant

PARAMS = dict(variant=ProtocolVariant.CASU, classes=("payload",),
              cycles=64, window=(0, 16), exhaustive=True, seed=7)


def _verdicts(report):
    return {(r.spec.kind, r.spec.target, r.spec.cycle): r.verdict
            for r in report.results}


class TestPayloadVerdictParity:
    def test_lid_and_skeleton_agree_on_figure2(self):
        lid = run_campaign(figure2(), **PARAMS)
        skel = skeleton_campaign(figure2(), **PARAMS)
        lid_verdicts = _verdicts(lid)
        skel_verdicts = _verdicts(skel)
        # The skeleton classifies sink-boundary payload faults; every
        # one of them must agree with the token-level engine.
        assert skel_verdicts, "no payload fault was classified"
        mismatches = {
            key: (lid_verdicts[key], verdict)
            for key, verdict in skel_verdicts.items()
            if lid_verdicts[key] != verdict
        }
        assert not mismatches

    def test_both_silent_corruption_and_masked_occur(self):
        # figure2's sink accepts on some but not all of the window's
        # cycles, so the parity above is exercised on both verdicts.
        skel = skeleton_campaign(figure2(), **PARAMS)
        counts = Counter(r.verdict for r in skel.results)
        assert counts["silent-corruption"] > 0
        assert counts["masked"] > 0

    def test_source_boundary_payload_still_skipped(self):
        skel = skeleton_campaign(figure2(), **PARAMS)
        assert skel.skipped
        classified_targets = {r.spec.target for r in skel.results}
        skipped_targets = {s["fault"]["target"] for s in skel.skipped}
        assert classified_targets.isdisjoint(skipped_targets)

    def test_scalar_and_vectorized_backends_agree(self):
        """Scalar vs the batch (bit-plane) backend."""
        scalar = skeleton_campaign(figure2(), backend="scalar", **PARAMS)
        vector = skeleton_campaign(figure2(), backend="bitsim",
                                   **PARAMS)
        assert _verdicts(scalar) == _verdicts(vector)
        assert scalar.counts() == vector.counts()

    def test_parity_on_a_pipeline_too(self):
        graph = pipeline(3, relays_per_hop=1)
        lid = run_campaign(graph, **PARAMS)
        skel = skeleton_campaign(graph, **PARAMS)
        lid_verdicts = _verdicts(lid)
        for key, verdict in _verdicts(skel).items():
            assert lid_verdicts[key] == verdict
