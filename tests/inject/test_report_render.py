"""Campaign report rendering: the templates against ``json.dumps``.

:meth:`CampaignReport.to_json` renders each experiment and skipped
entry from a template instead of running ``json.dumps(...,
indent=2)``'s pure-Python encoder over the whole payload.  Its
contract is the old text, byte for byte: these tests hold it to
``json.dumps(report.to_payload(...), indent=2, sort_keys=True) +
"\\n"`` on campaigns of every engine and family, on edge-case reports
and on hand-built values of every JSON kind, and they show that the
comparison catches a mutated template.
"""

import enum
import json

import pytest

from repro.graph import figure2, parse_topology
from repro.inject import FaultSpec, run_campaign, skeleton_campaign
from repro.inject import campaign
from repro.inject.campaign import CampaignReport, ExperimentResult

from ..skeleton.test_backend_conformance import _graph_matrix
from ..skeleton.test_gals import GALS_SPECS


def _oracle(report, execution):
    return json.dumps(report.to_payload(execution=execution), indent=2,
                      sort_keys=True) + "\n"


def _renders_like_json(report):
    return all(report.to_json(execution=execution)
               == _oracle(report, execution)
               for execution in (False, True))


def _assert_renders_like_json(report):
    for execution in (False, True):
        assert report.to_json(execution=execution) \
            == _oracle(report, execution), execution


MATRIX = _graph_matrix()


@pytest.mark.parametrize("graph", MATRIX, ids=[g.name for g in MATRIX])
def test_skeleton_campaigns(graph):
    report = skeleton_campaign(
        graph, classes=("stop", "void", "payload", "drop",
                        "delayed-stop"),
        cycles=64, samples=40, seed=3)
    assert len(report.results) + len(report.skipped) == 40
    _assert_renders_like_json(report)


@pytest.mark.parametrize("graph", MATRIX, ids=[g.name for g in MATRIX])
def test_lid_campaigns(graph):
    report = run_campaign(graph, classes=("stop", "void", "payload"),
                          cycles=40, samples=6, seed=5)
    assert len(report.results) == 6 and not report.skipped
    _assert_renders_like_json(report)


def test_gals_cdc_campaign():
    graph = parse_topology(GALS_SPECS[1])
    report = skeleton_campaign(graph, classes=("cdc", "stop", "void"),
                               cycles=120, samples=48, seed=2)
    assert {r.spec.kind for r in report.results} >= {
        "bridge-overflow", "bridge-underflow"}
    _assert_renders_like_json(report)


def test_exhaustive_window_with_every_kind():
    report = skeleton_campaign(
        figure2(), classes=("stop", "void", "payload", "phantom",
                            "delayed-stop", "drop", "shell"),
        cycles=80, window=(30, 36), exhaustive=True, strict=True)
    _assert_renders_like_json(report)


class TestEdgeReports:
    def test_everything_skipped(self):
        report = skeleton_campaign(figure2(), classes=("drop",),
                                   cycles=40, samples=6, seed=1)
        assert not report.results and report.skipped
        _assert_renders_like_json(report)

    def test_nothing_skipped(self):
        graph = figure2()
        sink = campaign.endpoint_scripts(graph, campaign.DEFAULT_VARIANT)
        channel = next(iter(sink[0]))
        report = skeleton_campaign(
            graph, cycles=40,
            faults=[FaultSpec("stop-glitch", channel, 10),
                    FaultSpec("stop-stuck-1", channel, 12, 0)])
        assert report.results and not report.skipped
        _assert_renders_like_json(report)

    def test_no_results_and_nothing_skipped(self):
        report = _hand_built([], [])
        assert report.to_json().count("[]") >= 2
        _assert_renders_like_json(report)


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 7


class Label(str):
    """A str subclass: json writes it as a string, not via repr."""


VALUES = [
    None, True, False, 0, -3, 2 ** 70, 1.5, float("inf"),
    float("-inf"), "é\n\"", (1, "two", None), [1, [2.5, [True]]],
    {"b": {"d": [1, {"e": None}], "c": ()}, "a": "x"}, {}, [],
    Level.HIGH, Label("sub"),
]

DETAILS = [
    "plain", "", "non-ASCII: é ü 漢字 \U0001F600",
    "control: \x00\x01\x1f\x7f tab\t cr\r nl\n",
    "quotes \" and backslash \\ and slash /", "lone surrogate \ud800",
    "  ",
]


def _hand_built(results, skipped, **overrides):
    kwargs = dict(
        topology="hand:é\x02", variant="casu", engine="skeleton",
        backend="scalar", cycles=90, seed=-1, classes=("payload", "é"),
        exhaustive=False, samples=3, window=(4, 9), strict=True,
        results=results, skipped=skipped,
        execution={"backend": "scalar", "jobs": 2, "workers": 1,
                   "cache": {"hits": 0, "misses": 3}})
    kwargs.update(overrides)
    return CampaignReport(**kwargs)


def _value_results():
    results = []
    for i, value in enumerate(VALUES):
        spec = FaultSpec("payload", f"t{i}->é", i, i % 2, value)
        detail = DETAILS[i % len(DETAILS)]
        results.append(ExperimentResult(
            spec, campaign.VERDICTS[i % len(campaign.VERDICTS)], detail,
            bool(i % 2), i))
    return results


def _value_skipped():
    skipped = []
    for i, value in enumerate(VALUES):
        spec = FaultSpec("relay-drop", f"r{i}\n", 2 * i, 1, value)
        skipped.append({"fault": spec.to_dict(), "label": spec.label(),
                        "reason": DETAILS[-1 - i % len(DETAILS)]})
    return skipped


class TestHandBuiltValues:
    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_each_fault_value(self, value):
        spec = FaultSpec("payload", "a->b", 5, 1, value)
        report = _hand_built(
            [ExperimentResult(spec, "masked", "d", False, 0)],
            [{"fault": spec.to_dict(), "label": spec.label(),
              "reason": "r"}])
        _assert_renders_like_json(report)

    def test_every_value_and_detail(self):
        _assert_renders_like_json(
            _hand_built(_value_results(), _value_skipped()))

    def test_fields_of_other_types(self):
        """Non-template field types take the json.dumps path, per field."""
        spec = FaultSpec(Label("payload"), Label("a->b"), True, Level.LOW)
        results = [ExperimentResult(spec, Label("masked"), 1.0, 1, 2.0),
                   ExperimentResult(spec, "timeout", ["list"], None, -1)]
        report = _hand_built(results, [], window=None, execution=None)
        _assert_renders_like_json(report)

    def test_skipped_entries_off_the_template(self):
        spec = FaultSpec("relay-drop", "r", 1)
        skipped = [
            {"fault": spec.to_dict(), "label": "l", "reason": "r",
             "extra": [1, 2]},
            {"label": "no fault"},
            {"fault": "not a dict", "label": "l", "reason": "r"},
            {"fault": {"kind": "k"}, "label": "l", "reason": "r"},
            {"fault": spec.to_dict(), "label": 3, "reason": None},
        ]
        _assert_renders_like_json(_hand_built([], skipped))


class TestTheComparisonCatchesMutations:
    """A broken template must not pass as equal to ``json.dumps``."""

    REPORT = staticmethod(
        lambda: _hand_built(_value_results(), _value_skipped()))

    def test_unmutated_passes(self):
        assert _renders_like_json(self.REPORT())

    def test_a_dropped_experiment_key(self, monkeypatch):
        # ``%.0s`` consumes the field and writes nothing: the key is
        # gone and the template still formats.
        monkeypatch.setattr(
            campaign, "_EXPERIMENT_TEMPLATE",
            campaign._EXPERIMENT_TEMPLATE.replace(
                '      "fired": %s,\n', "%.0s"))
        assert not _renders_like_json(self.REPORT())

    def test_a_dropped_skipped_key(self, monkeypatch):
        monkeypatch.setattr(
            campaign, "_SKIPPED_TEMPLATE",
            campaign._SKIPPED_TEMPLATE.replace(
                '      "reason": %s\n', "%.0s"))
        assert not _renders_like_json(self.REPORT())

    def test_an_unescaped_string(self, monkeypatch):
        monkeypatch.setattr(campaign, "_encode_str",
                            lambda text: '"' + text + '"')
        assert not _renders_like_json(self.REPORT())
