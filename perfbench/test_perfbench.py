"""The benchmark's own checks: bad output counts as failed, traced counts are exact.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_program()
tracing, workloads = run.tracing, run.workloads

PARAMS = (0.6, 0.8, 0.28, 0.96, -0.8, 0.6)
OTHER = (0.8, 0.6, 0.28, 0.96, -0.8, 0.6)


def _corrupt(text: str, edit) -> str:
    report = json.loads(text)
    edit(report)
    return json.dumps(report)


@pytest.mark.parametrize("kind", workloads.PROTOCOLS)
def test_verify_report_of_the_target_passes(kind):
    op = workloads.verify_op(kind, PARAMS)
    assert op.check(op.run()) == []


def _set_probability(r):
    r["branches"][0]["probability"] = 0.3


def _set_fidelity(r):
    r["branches"][1]["fidelity_post"] = 0.999


def _set_all_pass(r):
    r["all_pass"] = False


def _flip_state(r):
    r["branches"][2]["bob_state_post"] = r["branches"][2]["bob_state_post"][::-1]


def _drop_branch(r):
    r["branches"].pop()


@pytest.mark.parametrize("edit", [_set_probability, _set_fidelity, _set_all_pass,
                                  _flip_state, _drop_branch])
@pytest.mark.parametrize("kind", workloads.PROTOCOLS)
def test_corrupted_verify_report_fails(kind, edit):
    op = workloads.verify_op(kind, PARAMS)
    code, text = op.run()
    assert op.check((code, _corrupt(text, edit))) != []


@pytest.mark.parametrize("kind", workloads.PROTOCOLS)
def test_report_for_a_wrong_target_fails(kind):
    code, text = workloads.verify_op(kind, OTHER).run()
    assert workloads.check_verify(kind, PARAMS, (code, text)) != []


@pytest.mark.parametrize("kind", workloads.PROTOCOLS)
def test_nonzero_exit_fails(kind):
    op = workloads.verify_op(kind, PARAMS)
    _, text = op.run()
    assert op.check((1, text)) != []


def test_sample_report_checks_detection_and_fidelity():
    op = workloads.sample_bulk_op("pf", PARAMS, seed=3)
    code, text = op.run()
    assert op.check((code, text)) == []

    def shift_detected(r):
        r["stats"]["detected"] += 10_000
        r["stats"]["success_rate"] = round(r["stats"]["detected"] / r["stats"]["trials"], 12)

    def lower_fidelity(r):
        r["stats"]["mean_fidelity_on_detected"] = 0.5

    for edit in (shift_detected, lower_fidelity):
        assert op.check((code, _corrupt(text, edit))) != []


def test_sweep_accepts_zero_detection_and_rejects_stray_clicks():
    nothing = workloads.sample_sweep_op("tb", PARAMS, 0.0, seed=5)
    stats = nothing.run()
    assert stats.detected == 0 and nothing.check(stats) == []
    assert workloads.check_sample_stats("tb", 0.0, stats.trials, 5, _with(stats, detected=1)) != []


def _with(stats, **changes):
    from dataclasses import replace

    fields = {"success_rate": changes.get("detected", stats.detected) / stats.trials}
    fields.update(changes)
    return replace(stats, **fields)


def test_crosscheck_rejects_deviation_and_defect():
    assert workloads.check_crosscheck((0.0, True, [0.0])) == []
    assert workloads.check_crosscheck((1e-6, True, [0.0])) != []
    assert workloads.check_crosscheck((0.0, True, [1e-9])) != []
    assert workloads.check_crosscheck((0.0, False, [0.0])) != []


def test_corrupted_output_is_counted_as_failed(monkeypatch):
    from hyper_rsp import cli

    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        print("not json")
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    records = run.closed_loop("verify-random", seed=1, seconds=0.05)
    assert records and all(r.problems for r in records)


def _traced_counts(workload: str, seed: int, pairs: int):
    tracer = tracing.Tracer()
    problems = []
    for pair in islice(workloads.op_pairs(workload, seed), pairs):
        with tracer.installed():
            for op in pair:
                expected = workloads.expected_counts(workload, op.protocol, op.trials)
                problems += run.run_op(op, tracer, expected)[1]
    totals = {name: (entry["calls"], entry["value"]) for name, entry in tracer.totals.items()}
    return totals, problems


@pytest.mark.parametrize("workload", ["verify-random", "sample-sweep", "dense-crosscheck"])
def test_traced_counts_are_exact_and_repeat(workload):
    first, problems = _traced_counts(workload, seed=11, pairs=3)
    assert problems == []
    second, _ = _traced_counts(workload, seed=11, pairs=3)
    assert first == second


def test_tracer_restores_every_lookup_site():
    from hyper_rsp import cli, elements, protocols, runtime, states

    before = (cli.run_protocol, runtime.run_protocol, protocols.fidelity,
              elements.Element.__dict__["apply"], states.StateVector.__dict__["build"])
    with tracing.Tracer().installed():
        assert cli.run_protocol is not before[0]
        assert runtime.run_protocol is not before[1]
    after = (cli.run_protocol, runtime.run_protocol, protocols.fidelity,
             elements.Element.__dict__["apply"], states.StateVector.__dict__["build"])
    assert after == before


def test_efficiency_is_exact():
    assert workloads.check_efficiency() == []


def test_tail_is_the_nearest_rank_percentile():
    value, info = run.tail([float(i) for i in range(200)], 95)
    assert value == 189.0 and info == {"percentile": 95, "samples": 200, "beyond": 10}
