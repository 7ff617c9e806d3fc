"""Manifest validation and canonical-identity tests."""

import json
import re
from pathlib import Path

import pytest

from repro.serve import Manifest, ManifestError

SERVING_DOC = Path(__file__).parents[2] / "docs" / "serving.md"


def _documented_manifests():
    """Every JSON object in a ``json`` block of docs/serving.md; objects
    are separated by blank lines."""
    blocks = re.findall(r"```json\n(.*?)```",
                        SERVING_DOC.read_text(encoding="utf-8"), re.S)
    return [json.loads(chunk) for block in blocks
            for chunk in block.split("\n\n") if chunk.strip()]


class TestValidation:
    def test_defaults_mirror_cli(self):
        m = Manifest.from_dict({"kind": "campaign"})
        assert m.topology == "feedback"
        assert m.variant == "casu"
        assert m.engine == "lid" and m.backend == "auto"
        assert m.faults == ("stop", "void")
        assert m.cycles == 200 and m.samples == 64
        assert m.window is None and not m.exhaustive and not m.strict
        assert m.format == "json"

    def test_smoke_pins_cycles_and_samples(self):
        m = Manifest.from_dict({"kind": "campaign", "smoke": True})
        assert (m.cycles, m.samples, m.exhaustive) == (64, 12, False)

    def test_smoke_conflicts_with_cycles(self):
        with pytest.raises(ManifestError, match="smoke fixes"):
            Manifest.from_dict({"kind": "campaign", "smoke": True,
                                "cycles": 100})

    @pytest.mark.parametrize("payload,fragment", [
        (None, "JSON object"),
        ({}, "kind"),
        ({"kind": "nope"}, "kind"),
        ({"kind": "campaign", "topology": "moebius"},
         "unknown topology"),
        ({"kind": "campaign", "variant": "x"}, "variant"),
        ({"kind": "campaign", "engine": "x"}, "engine"),
        ({"kind": "campaign", "backend": "x"}, "backend"),
        ({"kind": "campaign", "faults": "bogus"}, "fault"),
        ({"kind": "campaign", "faults": ""}, "faults"),
        ({"kind": "campaign", "cycles": 0}, "cycles"),
        ({"kind": "campaign", "cycles": "ten"}, "integer"),
        ({"kind": "campaign", "samples": -1}, "samples"),
        ({"kind": "campaign", "window": [5]}, "window"),
        ({"kind": "campaign", "window": [30, 10]}, "window"),
        ({"kind": "campaign", "window": [0, 999]}, "window"),
        ({"kind": "campaign", "window": "abc"}, "window"),
        ({"kind": "campaign", "format": "xml"}, "format"),
        ({"kind": "campaign", "strict": "yes"}, "boolean"),
        ({"kind": "campaign", "max_cycles": 5}, "unknown manifest"),
        ({"kind": "deadlock", "max_cycles": 0}, "max_cycles"),
        ({"kind": "deadlock", "cycles": 10}, "unknown manifest"),
        ({"kind": "series"}, "which"),
        ({"kind": "series", "which": "nope"}, "which"),
        ({"kind": "campaign", "backend": "vectorized"},
         "backend must be one of auto, scalar, bitsim, got 'vectorized'"),
        ({"kind": "campaign", "backend": "codegen"},
         "backend must be one of auto, scalar, bitsim, got 'codegen'"),
        ({"kind": "deadlock", "deadlock_backend": "scalar"},
         "unknown manifest field"),
    ])
    def test_rejects(self, payload, fragment):
        with pytest.raises(ManifestError, match=fragment):
            Manifest.from_dict(payload)

    def test_window_string_and_list_agree(self):
        a = Manifest.from_dict({"kind": "campaign", "window": "10:20"})
        b = Manifest.from_dict({"kind": "campaign", "window": [10, 20]})
        assert a.window == b.window == (10, 20)

    def test_faults_string_and_list_agree(self):
        a = Manifest.from_dict({"kind": "campaign",
                                "faults": "stop, void"})
        b = Manifest.from_dict({"kind": "campaign",
                                "faults": ["stop", "void"]})
        assert a.faults == b.faults == ("stop", "void")

    def test_round_trip(self):
        m = Manifest.from_dict({"kind": "campaign", "smoke": True,
                                "format": "table", "seed": 7})
        assert Manifest.from_dict(m.to_dict()) == m
        d = Manifest.from_dict({"kind": "deadlock",
                                "topology": "ring:shells=3"})
        assert Manifest.from_dict(d.to_dict()) == d


class TestDocumentedManifests:
    def test_serving_doc_has_one_of_each_kind(self):
        kinds = {m["kind"] for m in _documented_manifests()}
        assert kinds == {"campaign", "deadlock", "series"}

    @pytest.mark.parametrize("manifest", _documented_manifests(),
                             ids=lambda m: json.dumps(m, sort_keys=True))
    def test_validates(self, manifest):
        Manifest.from_dict(manifest)


class TestIdentity:
    def test_params_match_cli_ledger_dict(self):
        """The canonical params dict must be key-for-key what the CLI
        writes into inject-campaign ledger records."""
        m = Manifest.from_dict({"kind": "campaign", "smoke": True})
        assert m.params() == {
            "engine": "lid", "backend": "auto", "cycles": 64,
            "samples": 12, "seed": 0, "classes": ["stop", "void"],
            "exhaustive": False, "window": None, "strict": False,
        }

    def test_deadlock_params(self):
        m = Manifest.from_dict({"kind": "deadlock", "seed": 3})
        assert m.params() == {"max_cycles": 10_000, "seed": 3}

    def test_span_matches_ledger_span_id(self):
        from repro.obs import span_id

        m = Manifest.from_dict({"kind": "campaign", "smoke": True})
        fp = "f" * 64
        assert m.span(fp) == span_id("inject-campaign", fp, "casu",
                                     m.params())

    def test_stream_does_not_change_identity(self):
        a = Manifest.from_dict({"kind": "campaign", "smoke": True})
        b = Manifest.from_dict({"kind": "campaign", "smoke": True,
                                "stream": True})
        assert a.params() == b.params()
        assert a.span("f" * 64) == b.span("f" * 64)
