"""Tests of the benchmark itself: python -m pytest -q bench"""

import contextlib
import io
import json
import random

import pytest

import calibrate
import noisy
import reference
import run
import tracing
import workloads
from knotcalc import cli


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_jobs(workload):
    first = workloads.dump(workloads.make_jobs(workload, 7))
    assert first == workloads.dump(workloads.make_jobs(workload, 7))
    assert first != workloads.dump(workloads.make_jobs(workload, 8))


def test_jobs_stay_inside_their_band():
    for workload in ("deep-staircase", "wide-product"):
        lo, hi = workloads.BANDS[workload]
        for job in workloads.make_jobs(workload, 3):
            assert lo <= job.expect["size"] <= hi
    with pytest.raises(ValueError, match="outside"):
        workloads._inv_job("deep-staircase", "Cable(T(2,5);6,7) - T(6,7)")


def test_checker_accepts_right_and_rejects_corrupted_inv():
    recipe = "T(3,4) - T(2,5) + T(2,3)"
    want = {"kind": "inv", **reference.expected_invariants(recipe)}
    code, out = _cli(["inv", "--expr", recipe, "--json"])
    assert reference.check(want, code, out) is None

    bad = json.loads(out)
    bad["phi"]["1"] = bad["phi"].get("1", 0) + 1
    assert "phi" in reference.check(want, 0, json.dumps(bad))
    assert "exit status" in reference.check(want, 1, out)


def test_checker_rejects_wrong_cmp_sign_and_rep():
    assert reference.check({"kind": "cmp", "order": "<"}, 0, "<\n") is None
    assert "cmp" in reference.check({"kind": "cmp", "order": "<"}, 0, ">\n")
    assert "rep" in reference.check({"kind": "rep", "rep": [1, -1]}, 0, "2,-2\n")


def test_reference_order_is_the_unusual_order():
    assert reference.order((-1,), (-2,)) == "<"
    assert reference.order((2,), (1,)) == "<"
    assert reference.order((1, -2), (1, -2, 0)) == "~"
    assert reference.order((), (-3, 3)) == ">"


def test_calibration_scales_each_sample_by_the_loops_near_it():
    ref = calibrate.REFERENCE_S
    loops = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    # each sample is divided by the median of the loops within two places
    assert calibrate.scaled([1.0] * 6, loops) == [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]
    assert calibrate.loop() > 0


def test_noisy_file_has_the_hidden_representative(tmp_path):
    hidden = (2, -1, 1, -2)
    path = tmp_path / "a.cx"
    path.write_text(noisy.noisy_complex(random.Random(1), hidden, 61))
    code, out = _cli(["rep", str(path)])
    assert reference.check({"kind": "rep", "rep": list(hidden)}, code, out) is None


def test_traced_self_times_account_for_the_job_wall_time():
    original = cli.run
    recipe = "Cable(D;3,7) - T(3,7)"
    job = workloads.Job(("inv", "--expr", recipe, "--json"),
                        {"kind": "inv", **reference.expected_invariants(recipe)})
    tracer = tracing.Tracer().install()
    try:
        wall, problem = run.run_job(cli, job, list(job.argv))
    finally:
        tracer.remove()
    assert cli.run is original
    assert problem is None

    layers = tracing.layer_metrics(tracer.spans, 0, tracer.counts)
    traced = sum(layers[k] for k in tracing.SELF_TIME_METRICS)
    assert traced <= wall < traced * 1.05 + 0.002
    assert layers["cli.self_s"] > 0
    assert layers["localequiv.rep_calls"] == 1
    assert layers["gf2.solve_calls"] >= layers["localequiv.candidates"]
    assert layers["standard.build_calls"] > 0 and layers["algebra.tensor_gens"] > 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    tracer = tracing.Tracer()
    names = list(tracing.layer_metrics(tracer.spans, 0, tracer.counts))
    names += ["trace.overhead_ratio", "trace.untraced_pass_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run._layer_unit(name) for name in names
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
