"""The work one traced benchmark pass does, pinned.

One pass of each verify workload at seed 7 runs under the benchmark's own
tracer (bench/spans.py), and the per-layer work counts it derives must stay
as they are: trig evaluations, form candidates tried and forms found,
residue-table bytes, calls per prime of each layer, and verify's
checks_run.  A change that does more or less work per prime has to update
these figures and say so; a change that only moves code must leave them.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402
from qrsums import cli  # noqa: E402

SEED = 7

PINNED = {
    "verify-float": {
        "analytic.trig_evals": 456040,
        "classnum.b_tried": 16072,
        "classnum.forms_found": 368,
        "residues.table_bytes": 91392,
        "residues.calls_per_prime": 1.0,
        "sums.calls_per_prime": 7.0,
        "classnum.calls_per_prime": 1.0,
        "verify.checks_run": 438,
    },
    "verify-exact": {
        "classnum.b_tried": 156096,
        "classnum.forms_found": 2045,
        "residues.calls_per_prime": 1.0,
        "sums.calls_per_prime": 4.0,
        "classnum.calls_per_prime": 1.0,
        "verify.checks_run": 517,
    },
}


def traced_pass(workload: str) -> dict[str, float]:
    plan = workloads.make_plan(workload, SEED)
    tracer = spans.Tracer()
    out = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(out):
        tracer.begin_pass()
        rc = tracer.span("main", "cli", cli.main)(plan.commands[0])
    assert rc == 0, out.getvalue()
    fields = workloads.parse_fields(out.getvalue())
    assert fields["result"] == "PASS"
    metrics = spans.pass_metrics(tracer.passes[0], plan.bands[0])
    metrics["verify.checks_run"] = int(fields["checks_run"])
    return metrics


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_work_counts_pinned(workload):
    metrics = traced_pass(workload)
    assert {name: metrics[name] for name in PINNED[workload]} == PINNED[workload]
