"""Tests of the benchmark itself (not of the package).

Run from the repository root:

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import homleap  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IN_PROCESS = {
    "pure_fresh": workloads.PureFresh,
    "pure_repeat": workloads.PureRepeat,
    "imperfect_channels": workloads.ImperfectChannels,
}


def _invoke(workload, trace, seconds="0.3", cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.GENERATORS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench_run.PER_LAYER


@pytest.mark.parametrize("workload", list(inputs.GENERATORS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = _invoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    record = json.loads(lines[-2])["record"]
    assert record["requests"] == result["attempted"]
    assert len(record["inputs_sha256"]) == 64
    assert 0 < record["first_block_requests"] <= record["requests"]


@pytest.mark.parametrize("name", list(IN_PROCESS))
def test_traced_self_times_sum_to_traced_wall_time(name):
    workload = IN_PROCESS[name](homleap, bench_run._thread_env())
    result = workload.run(seed=3, seconds=0.3, trace=True)
    stats = result.trace["stats"]
    wall = stats[tracing.ROOT]["total_s"]
    assert stats[tracing.ROOT]["calls"] == len(result.traced)
    assert math.isclose(math.fsum(s["self_s"] for s in stats.values()), wall, rel_tol=1e-9)
    assert wall <= math.fsum(result.traced)
    # every span is reported; rational calls also count inside closedform.distribution
    metrics = bench_run.layer_metrics(result)
    reported = math.fsum(
        value for key, value in metrics.items()
        if key.endswith(".self_ms") and key != "closedform.distribution.rational.self_ms"
    )
    assert math.isclose(reported, metrics["trace.wall_ms"], rel_tol=1e-9)


def _namespace_snapshot():
    snap = {}
    for key, module in list(sys.modules.items()):
        if key == "homleap" or key.startswith("homleap."):
            snap[key] = dict(vars(module))
    for cls in (homleap.DeltaDistribution, homleap.JointCountDistribution):
        snap[cls.__name__] = dict(vars(cls))
    return snap


def test_remove_restores_every_original_object():
    import homleap.cli  # noqa: F401  (the CLI namespace is patched too)

    before = _namespace_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    assert homleap.distribution is not before["homleap"]["distribution"]
    assert homleap.channels.amplitude_expansion.__wrapped__ is before["homleap.closedform"]["amplitude_expansion"]
    assert homleap.walk.wigner_d_column.__wrapped__ is before["homleap.walk"]["wigner_d_column"]
    tracer.remove()
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    for key, names in before.items():
        for name, value in names.items():
            assert after[key][name] is value, f"{key}.{name} not restored"


def test_wrapper_counts_exactly_the_column_cache_misses():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pair, bs = homleap.FockPair(40, 0), homleap.BeamSplitter(0.123456789)
        for _ in range(3):
            tracer.span(tracing.ROOT, homleap.distribution, pair, bs)
    finally:
        tracer.remove()
    assert tracer.stats["walk.wigner_d_column"].calls == 1
    assert tracer.stats["walk.rotation_probabilities"].calls == 3


def test_known_bad_inputs_are_counted_and_do_not_stop_the_run(monkeypatch):
    bad = [
        ("dist", 30, 0, 1e-22),   # the closed form overflows
        ("dist", 200, -200, 0.1),  # the stitched recurrence is far off
        ("dist", 4, 2, 0.3),      # a good request
    ]
    monkeypatch.setattr(inputs, "blocks", lambda name, seed: iter([bad] * 1000))
    result = workloads.PureFresh(homleap, bench_run._thread_env()).run(seed=0, seconds=0.05, trace=False)
    checker = result.checker
    assert checker.raised >= 1 and checker.wrong >= 1
    assert checker.checked == len(result.latencies) > 3
    assert checker.failed < len(result.latencies)
    assert not bench_run.is_correct(checker, len(result.latencies))


def test_one_wrong_output_makes_the_run_incorrect():
    workload = workloads.PureFresh(homleap, {})
    checker = oracle.Checker()
    good = ("dist", 6, -2, 0.3)
    output = homleap.distribution(homleap.FockPair(6, -2), homleap.BeamSplitter(0.3)).probs
    checker.guarded(good, workload.check, checker, good, output)
    assert bench_run.is_correct(checker, 1)
    checker.guarded(good, workload.check, checker, good, output[::-1])
    assert checker.wrong == 1
    assert not bench_run.is_correct(checker, 2)
    assert not bench_run.is_correct(oracle.Checker(), 1)  # an unchecked request


def test_defect_probe_checks_every_probe():
    checker = bench_run.defect_probe(homleap)
    assert checker.checked == len(inputs.DEFECT_PROBES)
    assert 0 <= checker.failed <= len(inputs.DEFECT_PROBES)


def test_a_package_that_returns_wrong_columns_is_reported_incorrect():
    # a copy of the checkout whose distribution() returns each column mirrored
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(BENCH, tmp / "bench", ignore=ignore)
        shutil.copytree(ROOT / "src", tmp / "src", ignore=ignore)
        with open(tmp / "src" / "homleap" / "__init__.py", "a") as handle:
            handle.write(
                "\n_distribution = distribution\n\n"
                "def distribution(pair, bs, *args, **kwargs):\n"
                "    out = _distribution(pair, bs, *args, **kwargs)\n"
                "    return DeltaDistribution(out.total, out.probs[::-1])\n"
            )
        proc = _invoke("pure_fresh", 0, cwd=tmp)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0


def test_known_bad_command_is_a_failure(monkeypatch):
    bad = ("dist", "--s", "30", "--delta=0", "--r", "1e-22")  # the closed form overflows
    refused = ("dist", "--s", "4", "--delta=1", "--r", "0.3")  # off the lattice: exit 2
    good = ("dist", "--s", "4", "--delta=2", "--r", "0.3")
    monkeypatch.setattr(inputs, "blocks", lambda name, seed: iter([[bad, refused, good]] * 1000))
    result = workloads.CliCommands(homleap, bench_run._thread_env()).run(seed=0, seconds=0.05, trace=False)
    checker = result.checker
    assert checker.raised >= 1 and checker.wrong >= 1
    assert checker.checked == len(result.latencies) and len(result.latencies) % 3 == 0
    assert checker.failed == 2 * len(result.latencies) // 3
    assert not bench_run.is_correct(checker, len(result.latencies))


def test_oracle_accepts_exact_and_rejects_perturbed_output():
    from fractions import Fraction

    pair = homleap.FockPair(6, -2)
    exact = homleap.distribution(pair, homleap.BeamSplitter.exact(Fraction(1, 5)), homleap.RATIONAL)
    probs = [float(p) for p in exact.probs]
    checker = oracle.Checker()
    assert checker.pure(6, -2, 0.2, probs) is None
    probs[0] += 1e-6
    probs[1] -= 1e-6
    assert checker.pure(6, -2, 0.2, probs) is not None


def test_moment_laws_of_the_channel_oracle_match_the_package():
    bs = homleap.BeamSplitter(0.3)
    joint = homleap.apply_detector_loss(
        homleap.mixed_distribution(homleap.MixedFockSource(4, 0.7), homleap.MixedFockSource(3, 0.9), bs),
        homleap.Detector(efficiency=0.8),
    )
    assert oracle.Checker().joint(joint.entries, 7, *oracle.mixed_moments(4, 3, 0.3, 0.7, 0.9, 0.8)) is None
    dist = homleap.decohere_distribution(homleap.FockPair.from_modes(4, 3), homleap.DistinguishabilityAngle(0.7), bs)
    assert oracle.Checker().decohered(4, 3, 0.3, 0.7, dist.probs, None) is None


@pytest.mark.parametrize("workload", list(inputs.GENERATORS))
def test_same_seed_same_inputs(workload):
    def digest(seed, count=500):
        d = inputs.Digest()
        stream = inputs.requests(workload, seed)
        for _ in range(count):
            d.add(next(stream))
        return d.hexdigest()

    assert digest(9) == digest(9)
    assert digest(9) != digest(10)


def test_runs_of_one_seed_share_the_first_block_digest_and_peak_rss():
    def run(seconds):
        workload = workloads.PureFresh(homleap, bench_run._thread_env())
        workload.rss_blocks = 2
        return workload.run(seed=4, seconds=seconds, trace=False)

    short, longer = run(0.6), run(2.0)
    assert len(short.host) == len(short.latencies)  # one host-loop time per request
    assert short.digest.count < longer.digest.count
    assert short.digest.hexdigest() != longer.digest.hexdigest()
    assert (short.digest.prefix, short.digest.prefix_count) == (longer.digest.prefix, longer.digest.prefix_count)
    # the reported peak is taken after the same blocks, however long the run
    assert abs(short.peak_rss_kb - longer.peak_rss_kb) <= 0.02 * longer.peak_rss_kb
    assert longer.extra["peak_rss_end_mb"] * 1024 >= longer.peak_rss_kb


def test_times_are_scaled_to_the_reference_host_speed():
    ref = hostspeed.REFERENCE_S
    run = workloads.Run()
    run.latencies.extend([0.001, 0.002, 0.003])
    run.host.extend([ref, 2 * ref, ref])  # the second block ran at half speed
    run.peak_rss_kb = 2048
    values, detail = bench_run.end_to_end(run, 0.5, 50.0)
    assert values["latency_p50_ms"] == pytest.approx(1.0)
    assert values["throughput_rps"] == pytest.approx(3 / 0.005)
    assert values["peak_rss_mb"] == 2.0
    assert detail["unscaled"]["latency_p50_ms"] == pytest.approx(2.0)
    assert detail["unscaled"]["throughput_rps"] == pytest.approx(3 / 0.006)


def test_fresh_stream_covers_both_float_routes_and_both_edges():
    stream = inputs.requests("pure_fresh", 1)
    sample = [next(stream) for _ in range(600)]
    totals = [req[1] for req in sample]
    assert min(totals) <= inputs.CLOSED_FORM_MAX < 100 < max(totals) <= inputs.S_MAX_FRESH
    assert any(abs(req[2]) == req[1] for req in sample)
    closed = [req[3] for req in sample if req[1] <= inputs.CLOSED_FORM_MAX]
    assert min(closed) < 2 * inputs.R_EDGE and max(closed) > 1 - 2 * inputs.R_EDGE
    low, high = inputs.RECURRENCE_R
    assert all(low <= req[3] <= high for req in sample if req[1] > inputs.CLOSED_FORM_MAX)


def test_fails_without_the_package_source():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", Path(tmp))
        proc = _invoke("pure_fresh", 0, cwd=Path(tmp))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
