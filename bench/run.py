"""Benchmark of the homleap package: one workload per invocation.

Run from the root of a source checkout:

    python3 bench/run.py --workload pure_fresh --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the checkout, never from an
installed copy.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
is a separate run that reports the per-layer metrics from spans around the
package's public functions.  Every output is checked outside the timed
spans; requests that raised or returned a wrong result are counted in
``failed``, and ``correct`` is false unless every request was checked and
none failed.  The last line of standard output is one JSON object; the line
before it is a JSON record of the inputs digest, environment, sample
counts, failure examples and, for cli_commands, the figure fingerprints.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo
import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

PROBE = (
    "import time; t = time.perf_counter(); import homleap; "
    "print(repr(time.perf_counter() - t))"
)

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; filled from the tracer's totals in layer_metrics
PER_LAYER = {}
for _span in (
    "walk.wigner_d_column",
    "walk.wigner_d",
    "walk.rotation_probabilities",
    "walk.evolved_distribution",
    "states.DeltaDistribution",
    "states.JointCountDistribution",
    "closedform.distribution",
    "closedform.prob_delta_out",
    "closedform.amplitude_expansion",
    "channels.mixed_distribution",
    "channels.apply_detector_loss",
    "channels.decohere_distribution",
    "channels.eta_solve",
    "metrics.visibility_fock",
    "metrics.nonclassical_mask",
    "metrics.moments",
    "cli.main",
    "cli.sweep",
):
    PER_LAYER[f"{_span}.calls"] = "count"
    PER_LAYER[f"{_span}.self_ms"] = "ms"
PER_LAYER.update(
    {
        "walk.wigner_d_column.ns_per_site": "ns",
        "walk.column_cache.hit_ratio": "ratio",
        "closedform.distribution.rational.self_ms": "ms",
        "closedform.raised": "count",
        "channels.expansions_per_request": "count",
        "cli.main.exit_nonzero": "count",
        "cli.sweep.overlap": "ratio",
        "request.self_ms": "ms",
        "check.raised": "count",
        "check.wrong": "count",
        "check.max_err": "prob",
        "check.fail_frac": "ratio",
        "trace.requests": "count",
        "trace.wall_ms": "ms",
        "trace.overhead_frac": "ratio",
        "defect_probe.failed": "count",
    }
)


def _thread_env():
    """Pin library thread pools so a run uses one client thread at a time."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env["HOMLEAP_WORKERS"] = str(envinfo.nproc())
    env["PYTHONPATH"] = str(SRC)
    return env


def _setup_probe(env):
    """(seconds of ``import homleap`` in a fresh interpreter, host-loop seconds just before)."""
    host_s = hostspeed.probe()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise SystemExit(f"import homleap failed in a fresh interpreter:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]), host_s


def _import_package():
    sys.path.insert(0, str(SRC))
    import homleap

    where = Path(homleap.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"homleap imported from {where}, not from {SRC}")
    return homleap


def _percentile(values, pct):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(run, setup_s, tail_pct):
    """The end-to-end values, and the raw values and sample counts behind them.

    Each request's latency is scaled to the reference host speed by the
    host-speed loop timed next after it (``hostspeed.scale``), and every
    time is taken over all the requests of the run.
    """
    raw = run.latencies
    lat = [hostspeed.scale(x, h) for x, h in zip(raw, run.host)]
    tail = _percentile(lat, tail_pct)
    values = {
        "setup_s": setup_s,
        "throughput_rps": len(lat) / math.fsum(lat),
        "latency_p50_ms": _percentile(lat, 50.0) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": run.peak_rss_kb / 1024.0,
    }
    detail = {
        "latency_tail_pct": tail_pct,
        "samples": len(lat),
        "samples_beyond_tail": sum(1 for x in lat if x > tail),
        "unscaled": {
            "throughput_rps": len(raw) / math.fsum(raw),
            "latency_p50_ms": _percentile(raw, 50.0) * 1e3,
            "latency_tail_ms": _percentile(raw, tail_pct) * 1e3,
        },
        "host_loop_ms": {
            "min": min(run.host) * 1e3,
            "median": statistics.median(run.host) * 1e3,
            "max": max(run.host) * 1e3,
        },
    }
    return values, detail


def layer_metrics(run):
    stats = run.trace["stats"]
    counters = run.trace["counters"]

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    out = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = stat(span, "calls")
        elif field == "self_ms":
            out[metric] = stat(span, "self_s") * 1e3
    # a rational call is a closedform.distribution call with its own span name
    rational = "closedform.distribution.rational"
    out["closedform.distribution.calls"] += stat(rational, "calls")
    out["closedform.distribution.self_ms"] += stat(rational, "self_s") * 1e3
    sites = stat("walk.wigner_d_column", "work")
    out["walk.wigner_d_column.ns_per_site"] = (
        stat("walk.wigner_d_column", "self_s") * 1e9 / sites if sites else 0.0
    )
    lookups = stat("walk.rotation_probabilities", "calls") + stat("walk.wigner_d", "calls")
    misses = stat("walk.wigner_d_column", "calls")
    out["walk.column_cache.hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
    out["closedform.raised"] = counters.get("closedform.raised", 0)
    requests = len(run.traced)
    out["channels.expansions_per_request"] = (
        counters.get("channels.expansions", 0) / requests if requests else 0.0
    )
    out["cli.main.exit_nonzero"] = counters.get("cli.exit_nonzero", 0)
    sweep_total = stat("cli.sweep", "total_s")
    out["cli.sweep.overlap"] = (
        (stat("cli.sweep", "children_s") / sweep_total) if sweep_total else 0.0
    )
    checker = run.checker
    out["check.raised"] = checker.raised
    out["check.wrong"] = checker.wrong
    out["check.max_err"] = checker.max_err
    out["check.fail_frac"] = checker.failed / max(1, len(run.latencies))
    out["trace.requests"] = requests
    out["trace.wall_ms"] = stat("request", "total_s") * 1e3
    traced, untraced = run.compare["traced"], run.compare["untraced"]
    out["trace.overhead_frac"] = (
        statistics.fmean(traced) / statistics.fmean(untraced) - 1 if traced and untraced else 0.0
    )
    return out


def is_correct(checker, attempted) -> bool:
    """Every attempted request was checked and none failed."""
    return checker.checked == attempted and checker.failed == 0


def defect_probe(hl):
    """Run the known-bad requests of ``inputs.DEFECT_PROBES`` once, untimed.

    Returns the checker; its ``failed`` count falls as ROADMAP item 1 is fixed.
    """
    import inputs
    import oracle

    checker = oracle.Checker()
    checker.evolve_left = len(inputs.DEFECT_PROBES)
    for request in inputs.DEFECT_PROBES:
        total, delta, r = request
        try:
            output = hl.distribution(hl.FockPair(total, delta), hl.BeamSplitter(r)).probs
        except Exception as exc:
            checker.record_raised(request, f"{type(exc).__name__}: {exc}")
            continue
        checker.guarded(request, checker.pure, total, delta, r, output)
    return checker


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pure_fresh", "pure_repeat", "imperfect_channels", "cli_commands"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "homleap" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'homleap'}; run from a homleap checkout",
              file=sys.stderr)
        return 2
    env = _thread_env()
    os.environ.update(env)
    trace = bool(args.trace)
    probes = []

    def probe():
        # setup is timed once before the run and once after each sub-run
        if not trace:
            probes.append(_setup_probe(env))

    probe()

    hl = _import_package()
    import workloads  # imports numpy, so only once the thread settings are in place

    workload = {
        "pure_fresh": workloads.PureFresh,
        "pure_repeat": workloads.PureRepeat,
        "imperfect_channels": workloads.ImperfectChannels,
        "cli_commands": workloads.CliCommands,
    }[args.workload](hl, env)
    started = time.perf_counter()
    run = workload.run(args.seed, args.seconds, trace, probe)
    wall = time.perf_counter() - started

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": run.digest.hexdigest(),
        "requests": run.digest.count,
        "first_block_sha256": run.digest.prefix,
        "first_block_requests": run.digest.prefix_count,
        "run_wall_s": wall,
        "check": run.checker.summary(),
        "env": envinfo.fingerprint(ROOT),
    }
    if trace:
        values = layer_metrics(run)
        probe_checker = defect_probe(hl)
        values["defect_probe.failed"] = probe_checker.failed
        record["defect_probe"] = probe_checker.summary()
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in values.items()}
    else:
        setup_s = statistics.median(hostspeed.scale(t, h) for t, h in probes)
        setup_s += hostspeed.scale(run.warm_s, run.warm_host_s)
        values, detail = end_to_end(run, setup_s, workload.tail_pct)
        record.update(detail, setup_probes_s=probes, warmup_s=run.warm_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    record.update(run.extra)
    print(json.dumps({"record": record}, sort_keys=True))
    attempted = len(run.latencies)
    result = {
        "correct": is_correct(run.checker, attempted),
        "attempted": attempted,
        "failed": run.checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
