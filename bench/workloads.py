"""The four workloads: how a request is sent, timed, traced and checked.

Every workload is a closed loop with one client: one request runs at a
time, and the next block of requests is sent once the last block has
returned and been checked.  The requests run in a separate measured
process (``program.py``), so the benchmark's own generator and oracle are
neither timed nor part of the measured peak RSS.  A run ends once the
timed request spans add up to the requested number of seconds, rounded up
to whole input blocks.  In a traced run every other request is traced, so
the run also measures what tracing costs (``trace.overhead_frac``).
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np

import hostspeed
import inputs
import oracle
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class Run:
    """What one run measured, before it is turned into metrics."""

    def __init__(self):
        # seconds per request; a compact array, so memory does not grow much
        # with the number of requests a run completes
        self.latencies = array("d")
        self.traced = []  # seconds, traced requests
        # like-for-like traced and untraced latencies that price the tracing
        self.compare = {"traced": [], "untraced": []}
        self.checker = oracle.Checker()
        self.digest = inputs.Digest()
        self.trace = tracing.empty()
        self.warm_s = 0.0
        # seconds of the host-speed loop timed next after each request, one
        # entry per request
        self.host = array("d")
        self.warm_host_s = hostspeed.REFERENCE_S
        self.peak_rss_kb = 0
        self.extra = {}


class Program:
    """The measured process of an in-process run (``program.py``).

    Requests go to it a block at a time; its answers are read as each
    request returns, so it holds one output at a time.  The benchmark checks
    a block while the program waits for the next one.
    """

    def __init__(self, workload: str, trace: bool, probe_every_s: float, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "program.py"), workload, str(int(trace)),
             repr(probe_every_s)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        _, self.warm_s, self.warm_host_s, self.warm_outputs = self._recv()

    def _recv(self):
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise RuntimeError(f"the measured process ended with code {self.proc.wait()}") from None

    def _send(self, message):
        pickle.dump(message, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()

    def run_block(self, requests, traced_flags):
        """[(seconds, output, error text, host-loop seconds)] for each request,
        in order, and the peak RSS in KiB of the measured process so far.

        Each request gets the time of the first host-speed loop run at or
        after its end; the program runs one after the last request."""
        self._send(("block", requests, traced_flags))
        results = [self._recv() for _ in requests]
        peak_kb = self._recv()
        host_s = None
        for i in range(len(results) - 1, -1, -1):
            *result, probe = results[i]
            host_s = probe if probe is not None else host_s
            results[i] = (*result, host_s)
        return results, peak_kb

    def finish(self):
        """The trace snapshot of the measured process, or None."""
        self._send(("end",))
        result = self._recv()
        self.close()
        return result

    def close(self):
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class InProcess:
    """A workload whose requests are library calls, made in ``program.py``."""

    #: setup probes made during a run, at equal steps of timed request time
    pauses = 8
    #: seconds of requests between two runs of the host-speed loop in the
    #: measured process (see hostspeed.py); it also runs after each block
    probe_every_s = 0.05
    #: the tail percentile is fixed per workload, so runs stay comparable,
    #: and keeps ten or more samples beyond it in a 15 s run
    tail_pct = 99.0
    #: peak_rss_mb is the peak after this many blocks, which every run
    #: completes: the package's caches grow with each fresh request, so a
    #: peak taken at the end of a timed run would grow with the package's speed
    rss_blocks = 12

    def __init__(self, hl, env: dict):
        self.hl = hl
        self.env = env

    def prepare(self, warm_outputs):
        """Benchmark-side state built from the program's warm-up outputs."""

    def outgoing(self, request):
        """The request as the program receives it; the digest hashes the generated one."""
        return request

    def check(self, checker, request, output):
        """None when the output is right, else the reason it is wrong."""
        raise NotImplementedError

    def run(self, seed: int, seconds: float, trace: bool, pause=None) -> Run:
        run = Run()
        checker = run.checker
        blocks = inputs.blocks(self.name, seed)
        index = 0
        blocks_done = 0
        program = Program(self.name, trace, self.probe_every_s, self.env)
        try:
            run.warm_s = program.warm_s
            run.warm_host_s = program.warm_host_s
            self.prepare(program.warm_outputs)
            program.warm_outputs = None
            busy = 0.0
            paused = 0
            while busy < seconds:
                block = next(blocks)
                # in a traced run every other request is traced
                flags = [trace and (index + i) % 2 == 0 for i in range(len(block))]
                index += len(block)
                sent = [self.outgoing(request) for request in block]
                results, peak_kb = program.run_block(sent, flags)
                blocks_done += 1
                if blocks_done <= self.rss_blocks:
                    run.peak_rss_kb = peak_kb
                for request, traced, (elapsed, output, error, host_s) in zip(block, flags, results):
                    run.digest.add(request)
                    busy += elapsed
                    run.latencies.append(elapsed)
                    run.host.append(host_s)
                    if traced:
                        run.traced.append(elapsed)
                    if trace:
                        run.compare["traced" if traced else "untraced"].append(elapsed)
                    if error is not None:
                        checker.record_raised(request, error)
                    else:
                        checker.guarded(request, self.check, checker, request, output)
                run.digest.end_block()
                while pause is not None and paused < self.pauses and (
                    busy >= seconds * (paused + 1) / (self.pauses + 1)
                ):
                    pause()
                    paused += 1
            while pause is not None and paused < self.pauses:
                pause()
                paused += 1
            snapshot = program.finish()
            run.extra["peak_rss_end_mb"] = peak_kb / 1024.0
        finally:
            program.close()
        if snapshot is not None:
            run.trace = snapshot
        return run


class PureFresh(InProcess):
    name = "pure_fresh"

    def check(self, checker, request, output):
        _, total, delta, r = request
        return checker.pure(total, delta, r, output)


class PureRepeat(InProcess):
    name = "pure_repeat"

    def prepare(self, warm_outputs):
        # every column is checked in full once; a later output with the same
        # values has the same verdict, anything else is checked in full again.
        # Point queries are compared with the evolved column where one exists,
        # else with the warm-up column once it has passed the moment laws.
        first = oracle.Checker()
        self.seen = {}
        self.reference = {}
        for key, probs in warm_outputs.items():
            verdict = first.pure(*key, probs)
            self.seen[key] = (probs, verdict)
            if key[0] <= oracle.EVOLVE_MAX:
                self.reference[key] = oracle.evolved_probs(*key)
            elif verdict is None:
                self.reference[key] = np.asarray(probs, dtype=float)
            else:
                self.reference[key] = None

    def check(self, checker, request, output):
        key = request[1:4]
        if request[0] == "dist":
            probs, verdict = self.seen[key]
            if output == probs:
                return verdict
            return checker.pure(*key, output)
        reference = self.reference[key]
        if reference is None:
            return "column fails the moment laws and has no evolved reference"
        return checker.point(output, reference[(request[4] + key[0]) // 2])


class ImperfectChannels(InProcess):
    name = "imperfect_channels"
    tail_pct = 90.0

    def check(self, checker, request, output):
        kind, cap_k, cap_l, r = request[:4]
        hl = self.hl
        if kind == "decohere":
            y = request[4]
            reference = None
            pair = hl.FockPair.from_modes(cap_k, cap_l)
            bs = hl.BeamSplitter(r)
            if y == 0.0:
                reference = hl.distribution(pair, bs).probs
            elif y == math.pi / 2:
                reference = hl.classical_reference(pair, bs).probs
            return checker.decohered(cap_k, cap_l, r, y, output, reference)
        (eta_a, eta_b), joint = output
        if kind == "purity":
            problem = checker.purity((cap_k, cap_l), (eta_a, eta_b), request[4], request[5])
            if problem:
                return problem
        eff = request[5] if kind == "mixed_common" else 1.0
        laws = oracle.mixed_moments(cap_k, cap_l, r, eta_a, eta_b, eff)
        return checker.joint(joint, cap_k + cap_l, *laws)


def _read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _grouped(rows, keys):
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    return groups


#: (S, Delta) of the pure figure families; fig3 is the decoherence family
_PURE_FIGURES = {
    "fig2a": (50, 0), "fig2b": (50, -30), "fig2c": (50, -50),
    "figS1a": (10, 0), "figS1b": (10, -4), "figS1c": (10, -10),
}
_FIG3_Y = {"pi/24": math.pi / 24, "pi/6": math.pi / 6, "pi/3": math.pi / 3, "pi/2": math.pi / 2}


class CliCommands(InProcess):
    """Commands as users type them, through ``homleap.cli.main``.

    Every block is the catalogue (every figure, one sweep per parameter,
    the r sweep split over four commands, the full check suite and an
    exact-rational dist) and 24 seeded float ``dist`` commands.  They run
    in the measured process, each after the package's caches have been
    emptied, so a command does the work it does in a fresh ``python -m
    homleap.cli`` process except the import, whose cost ``setup_s``
    measures; a command's time is not dominated by the ~0.4 s import,
    whose spread from one process to the next would hide the commands' own.  Figures are written under ``.bench_work`` in the
    checkout and removed at the end of the run.
    """

    name = "cli_commands"
    #: a 15 s run completes three or four blocks of 44 commands; p90 falls
    #: among the four r sweeps, which cost about the same
    tail_pct = 90.0
    #: the first block holds every figure, the commands with the largest peak
    rss_blocks = 1
    #: the loop runs after every command: most take a few milliseconds
    probe_every_s = 0.0

    def __init__(self, hl, env: dict):
        super().__init__(hl, env)
        self.figures = {}
        self.workdir = ROOT / ".bench_work" / f"cli-{os.getpid()}"

    def outgoing(self, argv):
        return tuple(a.replace("{out}", str(self.workdir / "figs")) for a in argv)

    def run(self, seed: int, seconds: float, trace: bool, pause=None) -> Run:
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "figs").mkdir(parents=True)
        try:
            run = super().run(seed, seconds, trace, pause)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
            parent = self.workdir.parent
            if parent.exists() and not any(parent.iterdir()):
                parent.rmdir()
        run.extra["figures"] = dict(sorted(self.figures.items()))
        return run

    def check(self, checker, argv, output):
        if output["exit"] != 0:
            tail = (output["stderr"].strip().splitlines() or ["no output"])[-1]
            return f"exit {output['exit']}: {tail}"
        check = {
            "dist": self._check_dist,
            "sweep": self._check_sweep,
            "check": self._check_suite,
            "figure": self._check_figure,
        }[argv[0]]
        return check(checker, argv, output["stdout"], self.workdir)

    # ------------------------------------------------------------ checks

    @staticmethod
    def _flag(argv, name):
        for i, arg in enumerate(argv):
            if arg == name:
                return argv[i + 1]
            if arg.startswith(name + "="):
                return arg.split("=", 1)[1]
        return None

    def _check_dist(self, checker, argv, stdout, _workdir):
        total = int(self._flag(argv, "--s"))
        delta = int(self._flag(argv, "--delta"))
        r_exact = Fraction(self._flag(argv, "--r"))
        if self._flag(argv, "--mode") == "rational":
            series = json.loads(stdout)["series"][0]
            probs = [Fraction(p) for p in series["probabilities"]]
            if sum(probs) != 1:
                return "exact probabilities do not sum to 1"
            values = range(-total, total + 1, 2)
            mean = sum(d * p for d, p in zip(values, probs))
            var = sum(p * (d - mean) ** 2 for d, p in zip(values, probs))
            if (mean, var) != oracle.pure_moments(total, delta, r_exact):
                return f"exact moments {mean}, {var} break the laws"
            return checker.pure(total, delta, float(r_exact), [float(p) for p in probs])
        rows = _read_csv(stdout)
        return checker.pure(total, delta, float(r_exact), [float(row["probability"]) for row in rows])

    def _check_sweep(self, checker, argv, stdout, _workdir):
        param = self._flag(argv, "--param")
        groups = _grouped(_read_csv(stdout), [param])
        if [key[0] for key in groups] != self._flag(argv, "--grid").split(","):
            return "sweep rows do not follow the grid"
        r = float(self._flag(argv, "--r") or "nan")
        if param == "eta":
            cap_k, cap_l = int(self._flag(argv, "--k")), int(self._flag(argv, "--l"))
        else:
            total = int(self._flag(argv, "--s"))
            other = int(self._flag(argv, "--n" if param == "y" else "--delta"))
            cap_k, cap_l = (total - other, other) if param == "y" else ((total + other) // 2, (total - other) // 2)
        for (value,), block in groups.items():
            x = float(value)
            probs = np.array([float(row["probability"]) for row in block])
            if param == "r":
                problem = checker.pure(cap_k + cap_l, cap_k - cap_l, x, probs)
            elif param == "y":
                problem = checker.decohered(cap_k, cap_l, r, x, probs, None)
            else:
                deltas = np.array([float(row["delta_out"]) for row in block])
                etas = (x, x, 1.0) if param == "eta" else (1.0, 1.0, x)
                laws = oracle.mixed_moments(cap_k, cap_l, r, *etas)
                problem = checker.mass(probs) or checker.laws(deltas, probs, *laws, cap_k + cap_l)
            if problem:
                return f"{param}={value}: {problem}"
        return None

    @staticmethod
    def _check_suite(_checker, _argv, stdout, _workdir):
        lines = stdout.strip().splitlines()
        bad = [line for line in lines if not line.startswith("ok ")]
        if not lines or bad:
            return f"check suite lines failed: {bad[:3]}"
        return None

    def _check_figure(self, checker, argv, _stdout, workdir):
        fig = self._flag(argv, "--id")
        csv_bytes = (workdir / "figs" / f"{fig}.csv").read_bytes()
        manifest = json.loads((workdir / "figs" / f"{fig}.manifest.json").read_text())
        self.figures[fig] = {
            "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
            "content_hash": manifest["content_hash"],
        }
        if manifest["content_hash"] != self.figures[fig]["csv_sha256"]:
            return "manifest content_hash does not hash the CSV"
        rows = _read_csv(csv_bytes.decode())
        if fig == "figS4":
            for row in rows:
                if row["visibility"] and (float(row["visibility"]) > 0.5) != bool(int(row["nonclassical"])):
                    return f"mask cell {row['panel']} ({row['n']}, {row['m']}) disagrees with its visibility"
            return None
        keys = [k for k in rows[0] if k not in ("delta_out", "probability")]
        for key, block in _grouped(rows, keys).items():
            series = dict(zip(keys, key))
            probs = np.array([float(row["probability"]) for row in block])
            if fig in _PURE_FIGURES:
                total, delta = _PURE_FIGURES[fig]
                problem = checker.pure(total, delta, float(Fraction(series["r"])), probs)
            elif fig == "fig3":
                problem = checker.decohered(25, 25, 0.5, _FIG3_Y[series["y"]], probs, None)
            else:
                problem = checker.mass(probs)
            if problem:
                return f"{fig} {series}: {problem}"
        return None
