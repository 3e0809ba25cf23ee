"""The json route of ``cli.render`` against its reference.

``cli.render(command, report, "json")`` fills the scalars of a report into a
layout cached per report shape; the reference it must equal byte for byte is
``json.dumps(report, indent=2) + "\\n"``, whatever the report holds.
"""

import json
import math
import string

import hypothesis.strategies as st
import pytest
from hypothesis import given

from hyper_rsp import cli, protocols
from hyper_rsp.states import ProtocolKind, TargetParams

from conftest import MEMO_TARGETS, protocol_kinds, target_params


def reference(report) -> str:
    return json.dumps(report, indent=2) + "\n"


def assert_renders_as_reference(command: str, report) -> None:
    assert cli.render(command, report, "json") == reference(report)


#: Targets on an axis, and with a β of -0.0 that the report must keep signed.
EDGE_TARGETS = MEMO_TARGETS[1:] + (
    TargetParams(1.0, 0.0, 1.0, 0.0, 1.0, 0.0),
    TargetParams(0.0, -1.0, 0.0, 1.0, -1.0, 0.0),
    TargetParams(1.0, -0.0, 1.0, -0.0, 1.0, -0.0),
    TargetParams(-1.0, -0.0, 0.6, -0.8, 0.28, -0.96),
)


@given(kind=protocol_kinds, params=target_params())
def test_verify_reports_at_random_targets(kind, params):
    assert_renders_as_reference("verify", cli.verify_report(kind, params))


@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("params", EDGE_TARGETS)
def test_verify_reports_at_axis_and_signed_zero_targets(kind, params):
    report = cli.verify_report(kind, params)
    assert_renders_as_reference("verify", report)
    if params.beta0 == 0.0 and math.copysign(1.0, params.beta0) < 0:
        assert '"beta0": -0.0' in cli.render("verify", report, "json")


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_failing_verify_report(monkeypatch, kind):
    protocols.outcome_registry(kind)  # the table, built before the patch
    # An unreachable fidelity bar fails every branch.
    monkeypatch.setattr(protocols, "FIDELITY_TOL", -1e-9)
    report = cli.verify_report(kind, MEMO_TARGETS[0])
    assert report["first_failure"] is not None
    assert_renders_as_reference("verify", report)


@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("eta_d", [0.0, 0.8, 1.0])
def test_sample_reports(kind, eta_d):
    report = cli.sample_report(kind, MEMO_TARGETS[0], eta_d, 2000, 5)
    if eta_d == 0.0:
        assert report["stats"]["mean_fidelity_on_detected"] is None
    assert_renders_as_reference("sample", report)


def test_efficiency_report():
    assert_renders_as_reference("efficiency", cli.efficiency_report())


#: Reports that no command builds: every kind of value json writes.
SYNTHETIC = (
    {},
    [],
    (),
    {"a": {}, "b": [], "c": (), "d": [[], {}, [[]], {"e": {}}]},
    {"tuple": (1, (2.5, "x"), ()), "list of tuples": [(), (None,), ((),)]},
    {"quote": 'say "hi"', "backslash": "a\\b\\", "unit separator": "a\x1fb\x1f"},
    {"non-ASCII": "β = −0 · ψ⟩ 日本 \U0001f600", "controls": "\t\n\r\x00\x7f"},
    {"printable": string.printable, "marker text": "\\u001f \"\\u001f\""},
    {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0.0": -0.0, "0.0": 0.0},
    {"bools": [True, False], "none": None, "ints": [0, -1, 2**70, -(2**70)]},
    {1: "int key", 2.5: "float key", True: "bool key", None: "None key"},
    {"\x1f": "a key equal to the marker", "x": ["\x1f"]},
    "a bare string",
    -0.0,
    None,
    [1, [2, [3, [4, {"deep": [5.0, {"deeper": ()}]}]]]],
)


@pytest.mark.parametrize("report", SYNTHETIC, ids=range(len(SYNTHETIC)))
def test_synthetic_reports(report):
    assert_renders_as_reference("verify", report)


def test_keys_that_compare_equal_keep_their_own_text():
    """1, 1.0 and True are one dict key and so are 0.0 and -0.0, but json
    prints each its own way; each keeps its text after the others."""
    for key in (1, True, 1.0, 0, False, 0.0, -0.0, None, "None", "true", "1"):
        assert_renders_as_reference("verify", {key: [key]})


def test_a_value_that_holds_itself_raises_as_json_does():
    loop = {"a": []}
    loop["a"].append(loop)
    for render in (reference, lambda report: cli.render("verify", report, "json")):
        with pytest.raises(ValueError, match="Circular reference detected"):
            render(loop)


json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(alphabet=st.characters(), max_size=8))
json_keys = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(json_keys, inner, max_size=4)),
    max_leaves=24,
)


@given(json_values)
def test_any_json_value(value):
    assert_renders_as_reference("sample", value)


def test_one_layout_per_report_shape():
    """Every verify report of a protocol has one shape, so 50 random targets of
    each protocol build two layouts, and every render fills them right."""
    cli._layout.cache_clear()
    for seed in range(50):
        params = cli.random_params(seed)
        for kind in ProtocolKind:
            assert_renders_as_reference("verify", cli.verify_report(kind, params))
    info = cli._layout.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert info.hits == 98
