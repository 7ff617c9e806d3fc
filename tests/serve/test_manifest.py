"""Manifest validation and canonical-identity tests."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro import cli
from repro.serve import Manifest, ManifestError

SERVING_DOC = Path(__file__).parents[2] / "docs" / "serving.md"

#: The bare command of each kind, and the fields its positional
#: argument sets.
BARE_COMMANDS = {
    "campaign": (["inject"], {}),
    "deadlock": (["deadlock", "figure2"], {"topology": "figure2"}),
    "series": (["series", "loop"], {"which": "loop"}),
}

#: ``span("f" * 64)`` of manifests covering every field of the three
#: kinds.  ``params()`` feeds every span and ledger run id, so these
#: literals must not move.
PINNED_SPANS = [
    ({"kind": "campaign"}, "081f203a1a4e"),
    ({"kind": "campaign", "smoke": True}, "8df501aee772"),
    ({"kind": "campaign", "topology": "ring:shells=3,relays=2", "seed": 7,
      "variant": "carloni", "engine": "skeleton", "backend": "scalar",
      "faults": "stop,void,payload", "cycles": 120, "samples": 16,
      "window": [10, 18], "strict": True, "format": "table"},
     "cfd39eda224e"),
    ({"kind": "campaign", "engine": "skeleton", "backend": "bitsim",
      "exhaustive": True, "window": "10:20", "cycles": 60},
     "abedd7587c1c"),
    ({"kind": "campaign", "topology": "gals-ring:rates=1+1/2,shells=2",
      "engine": "skeleton", "faults": ["cdc", "stop"], "seed": 3,
      "stream": True}, "4d3a23010440"),
    ({"kind": "campaign", "smoke": True, "format": "table", "seed": 11,
      "strict": True}, "733a955dc195"),
    ({"kind": "deadlock"}, "0f682ad831ee"),
    ({"kind": "deadlock", "topology": "ring:shells=2,relays=0",
      "variant": "carloni", "seed": 5, "max_cycles": 500},
     "1553c9d39d87"),
    ({"kind": "deadlock", "topology": "dag:shells=5", "seed": 9,
      "stream": True}, "c2649d666236"),
    ({"kind": "series", "which": "loop"}, "cce17ea5ee7b"),
    ({"kind": "series", "which": "backpressure", "stream": True},
     "0feff65348d1"),
]


def _cli_manifest(argv, kind):
    """The manifest ``repro-lid`` builds for *argv*, without running it."""
    parser, _sub = cli._build_parser(argv[0])
    return Manifest.from_dict(cli._manifest_fields(parser.parse_args(argv),
                                                   kind))


def _documented_manifests():
    """Every JSON object in a ``json`` block of docs/serving.md; objects
    are separated by blank lines."""
    blocks = re.findall(r"```json\n(.*?)```",
                        SERVING_DOC.read_text(encoding="utf-8"), re.S)
    return [json.loads(chunk) for block in blocks
            for chunk in block.split("\n\n") if chunk.strip()]


class TestValidation:
    def test_defaults_mirror_cli(self):
        """A bare command builds the manifest of the bare kind, field
        for field, but for ``format`` (``table`` on the command line)."""
        for kind, (argv, positional) in BARE_COMMANDS.items():
            via_cli = _cli_manifest(argv, kind)
            direct = Manifest.from_dict({"kind": kind, **positional})
            assert dataclasses.replace(via_cli, format="json") == direct
        assert _cli_manifest(["inject"], "campaign").format == "table"

    @pytest.mark.parametrize("kind,dest", [
        ("campaign", "engine"), ("campaign", "backend"),
        ("campaign", "format"), ("campaign", "variant"),
        ("deadlock", "variant"), ("series", "which"),
    ])
    def test_cli_choices_are_the_manifest_values(self, kind, dest):
        argv, positional = BARE_COMMANDS[kind]
        _parser, sub = cli._build_parser(argv[0])
        (action,) = [action for action in sub.choices[argv[0]]._actions
                     if action.dest == dest]
        offered = [str(choice) for choice in action.choices]
        for value in offered:
            Manifest.from_dict({"kind": kind, **positional, dest: value})
        with pytest.raises(ManifestError) as rejected:
            Manifest.from_dict({"kind": kind, **positional, dest: "x"})
        listed = re.search(r"one of (.*), got", str(rejected.value))
        assert sorted(listed.group(1).split(", ")) == sorted(offered)

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
        ({"kind": "campaign", "smoke": 0}, "boolean"),
        ({"kind": "campaign", "smoke": []}, "boolean"),
        ({"kind": "campaign", "smoke": None}, "boolean"),
        ({"kind": "series", "which": ["loop"]}, "which"),
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

    @pytest.mark.parametrize("payload,span", PINNED_SPANS,
                             ids=lambda v: v if isinstance(v, str) else None)
    def test_span_is_pinned(self, payload, span):
        assert Manifest.from_dict(payload).span("f" * 64) == span

    def test_stream_does_not_change_identity(self):
        a = Manifest.from_dict({"kind": "campaign", "smoke": True})
        b = Manifest.from_dict({"kind": "campaign", "smoke": True,
                                "stream": True})
        assert a.params() == b.params()
        assert a.span("f" * 64) == b.span("f" * 64)
