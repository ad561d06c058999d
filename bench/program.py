"""The measured process of the in-process workloads.

    python3 bench/program.py WORKLOAD TRACE PROBE_EVERY_S

It imports ``homleap`` (from ``PYTHONPATH``), fills the package's caches
where the workload has a warm-up, then serves blocks of requests sent by
``workloads.py`` as pickled messages on standard input and answers each
request with (seconds, output as plain data, error text) on standard
output, as soon as it returns, and with its peak RSS after each block.
CLI commands run through ``homleap.cli.main`` with the package's caches
emptied first, so each starts as cold as in a fresh process.
The benchmark's generator, oracle and verdicts live in the other process,
so the peak RSS this process reports is the package's own.

Messages in: ``("block", requests, traced_flags)`` and ``("end",)``.
Messages out: ``("ready", warm_s, host_s, warm_outputs)``, one result per
request with the time of the host-speed loop (``hostspeed.probe``) when it
ran right after that request, else None, then after each block the peak
RSS in KiB, and at the end the trace snapshot or None.
"""
from __future__ import annotations

import contextlib
import io
import os
import pickle
import resource
import sys
import time

import hostspeed
import inputs
import tracing


def pure_fresh(hl, request):
    _, total, delta, r = request
    return hl.distribution(hl.FockPair(total, delta), hl.BeamSplitter(r))


def pure_repeat(hl, request):
    pair = hl.FockPair(request[1], request[2])
    bs = hl.BeamSplitter(request[3])
    if request[0] == "dist":
        return hl.distribution(pair, bs)
    return hl.prob_delta_out(pair, bs, request[4])


def imperfect_channels(hl, request):
    kind, cap_k, cap_l, r = request[:4]
    bs = hl.BeamSplitter(r)
    if kind == "decohere":
        pair = hl.FockPair.from_modes(cap_k, cap_l)
        return hl.decohere_distribution(pair, hl.DistinguishabilityAngle(request[4]), bs)
    if kind == "mixed_common":
        eta_a = eta_b = request[4]
    elif kind == "mixed_unequal":
        eta_a, eta_b = request[4], request[5]
    elif request[5]:  # joint purity target
        eta_a = eta_b = hl.eta_for_joint_purity(cap_k, cap_l, request[4])
    else:
        eta_a = hl.eta_for_purity(cap_k, request[4]) if cap_k else 1.0
        eta_b = hl.eta_for_purity(cap_l, request[4]) if cap_l else 1.0
    joint = hl.mixed_distribution(
        hl.MixedFockSource(cap_k, eta_a), hl.MixedFockSource(cap_l, eta_b), bs
    )
    if kind == "mixed_common" and request[5] < 1.0:
        joint = hl.apply_detector_loss(joint, hl.Detector(efficiency=request[5]))
    return (eta_a, eta_b), joint


def cli_commands(hl, request):
    """One command through ``homleap.cli.main``: its exit code and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hl.cli.main(list(request))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


EXECUTE = {
    "pure_fresh": pure_fresh,
    "pure_repeat": pure_repeat,
    "imperfect_channels": imperfect_channels,
    "cli_commands": cli_commands,
}


def clear_package_caches():
    """Empty every cache of the package's modules, so a command starts cold as
    it would in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "homleap" or name.startswith("homleap."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def warm_up(hl, workload):
    """Program outputs computed before timing starts; the repeat workload fills the cache."""
    if workload == "cli_commands":
        import homleap.cli  # noqa: F401  (hl.cli)
    if workload != "pure_repeat":
        return {}
    return {
        key: hl.distribution(hl.FockPair(key[0], key[1]), hl.BeamSplitter(key[2]))
        for key in inputs.repeat_working_set()
    }


def export(output):
    """The output as plain data: probabilities, a (p, q) map with the etas, a
    number, or a command's exit code and printed text."""
    if isinstance(output, dict):
        return output
    if isinstance(output, tuple):
        etas, joint = output
        return etas, dict(joint.entries)
    probs = getattr(output, "probs", None)
    return output if probs is None else probs


def peak_rss_kb() -> int:
    """High-water RSS of this process's own memory, in KiB.

    On Linux ``ru_maxrss`` also counts the RSS of the process that started
    this one (it is carried across exec), so VmHWM is read where /proc has it.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_one(hl, execute, request, tracer):
    """(seconds, output, error text) of one request; tracer is None when untraced."""
    error = None
    output = None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        if tracer is not None:
            output = tracer.span(tracing.ROOT, execute, hl, request)
        else:
            output = execute(hl, request)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.remove()
    return elapsed, output, error


def serve(workload, trace, probe_every_s, reader, writer):
    import homleap as hl

    def send(message):
        pickle.dump(message, writer, protocol=pickle.HIGHEST_PROTOCOL)
        writer.flush()

    execute = EXECUTE[workload]
    cold = workload == "cli_commands"
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    warm = warm_up(hl, workload)
    warm_s = time.perf_counter() - start
    send(("ready", warm_s, hostspeed.probe(), {key: export(value) for key, value in warm.items()}))
    del warm
    while True:
        message = pickle.load(reader)
        if message[0] == "end":
            break
        _, requests, traced_flags = message
        since_probe = 0.0
        for position, (request, traced) in enumerate(zip(requests, traced_flags)):
            if cold:
                clear_package_caches()
            elapsed, output, error = run_one(hl, execute, request, tracer if traced else None)
            # the host-speed loop runs after every probe_every_s of requests
            # and after the last request of a block
            since_probe += elapsed
            host_s = None
            if since_probe >= probe_every_s or position == len(requests) - 1:
                host_s = hostspeed.probe()
                since_probe = 0.0
            send((elapsed, None if error else export(output), error, host_s))
            del output
        send(peak_rss_kb())
    send(tracer.snapshot() if tracer is not None else None)


def main(argv):
    workload, trace, probe_every_s = argv[0], argv[1] == "1", float(argv[2])
    # the protocol owns the original stdout; anything the package prints goes to stderr
    writer = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    with writer, os.fdopen(0, "rb") as reader:
        serve(workload, trace, probe_every_s, reader, writer)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
