"""Seeded request generators, one per workload.

A generator depends only on the workload name and the seed.  Requests are
plain tuples of ints, floats and strings, so the package receives nothing
but generated inputs, and ``Digest`` hashes exactly what was sent.

Generators yield blocks.  Every block of a workload has the same mix of
request sizes (a stratified sample or a full pass over a fixed deck) with
fresh seeded values inside it, and runs measure whole blocks, so the work
in a run varies little from seed to seed.
"""
from __future__ import annotations

import hashlib
import math
import random
from math import comb

#: the package's closed form runs at and below this photon total, the
#: Wigner recurrence above it
CLOSED_FORM_MAX = 30
#: fresh requests draw S up to here: every S <= 200 at every Delta and at
#: r in RECURRENCE_R is answered correctly, while above it the recurrence
#: returns wrong columns (ROADMAP item 1; see DEFECT_PROBES)
S_MAX_FRESH = 200
#: reflectivities of recurrence requests (S > CLOSED_FORM_MAX)
RECURRENCE_R = (0.3, 0.7)
#: the working set of the repeat workload: 240 columns
REPEAT_TOTALS = tuple(range(10, S_MAX_FRESH + 1, 10))
REPEAT_RS = (0.3, 0.4, 0.5, 0.7)
#: photon numbers of the channel workload; every pass over its deck uses
#: each (K, L) once per request kind
CHANNEL_GRID = (0, 12, 25)
#: requests per stratified block of the fresh workload
FRESH_BLOCK = 60
#: closed-form reflectivities reach this close to 0 and to 1; the closed
#: form overflows or loses its mass only within about 1e-5 of an edge
R_EDGE = 1e-3

#: (S, Delta, r) requests the package is known to answer wrongly or to
#: reject (ROADMAP item 1): the closed form overflows or loses its mass at
#: extreme r, and the stitched recurrence is far off above S = 30 away from
#: r = 1/2 and at some edge columns.  They are kept out of the timed
#: workloads, whose requests must all succeed, and are run once, untimed,
#: in every traced run, so ``defect_probe.failed`` shows when a fix lands.
DEFECT_PROBES = (
    (30, 0, 1e-22),
    (30, -30, 1 - 1e-6),
    (10, 4, 1e-104),
    (80, -80, 0.01),
    (200, -200, 0.1),
    (200, 200, 0.9),
    (500, 500, 0.5),
    (1000, -1000, 0.05),
)


def _rng(workload: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _lattice_point(rng, total):
    return -total + 2 * rng.randint(0, total)


def fresh_reflectivity(rng, total, third=None) -> float:
    """r for a fresh request of S photons.

    In the closed-form range one third is log-uniform toward 0, one third
    toward 1 and one third in [0.05, 0.95]; recurrence requests draw r
    uniformly from RECURRENCE_R.
    """
    if third is None:
        third = rng.randrange(3)
    if total > CLOSED_FORM_MAX:
        return rng.uniform(*RECURRENCE_R)
    if third == 2:
        return rng.uniform(0.05, 0.95)
    small = 10.0 ** rng.uniform(math.log10(R_EDGE), math.log10(0.05))
    return small if third == 0 else 1.0 - small


def fresh_pair(rng, u=None):
    """S uniform on 1..S_MAX_FRESH (u in [0, 1) picks the quantile), Delta uniform."""
    if u is None:
        u = rng.random()
    total = min(S_MAX_FRESH, 1 + int(u * S_MAX_FRESH))
    return total, _lattice_point(rng, total)


def fresh_request(rng, u=None, third=None):
    total, delta = fresh_pair(rng, u)
    return total, delta, fresh_reflectivity(rng, total, third)


def repeat_working_set():
    """(S, Delta, r) columns a figure or sweep grid would reuse."""
    out = []
    for total in REPEAT_TOTALS:
        far = int(round(0.6 * total))
        far -= (total - far) % 2
        for delta in (0, -far, -total):
            for r in REPEAT_RS:
                out.append((total, delta, r))
    return out


def central_binomial_purity(nominal: int) -> float:
    """Purity of Binomial(K, 1/2): the lowest purity a degraded |K> reaches."""
    return comb(2 * nominal, nominal) / 4.0**nominal


def gen_pure_fresh(rng):
    # stratified blocks: each block draws one S from every 1/FRESH_BLOCK quantile
    # slice and each reflectivity region equally often, so the work per block
    # varies little between seeds while every S, Delta and r stays fresh
    while True:
        slots = list(range(FRESH_BLOCK))
        thirds = [i % 3 for i in range(FRESH_BLOCK)]
        rng.shuffle(slots)
        rng.shuffle(thirds)
        block = []
        for slot, third in zip(slots, thirds):
            block.append(("dist",) + fresh_request(rng, (slot + rng.random()) / FRESH_BLOCK, third))
        yield block


def gen_pure_repeat(rng):
    # each block asks every working-set column twice for its distribution and
    # once for one seeded point, in seeded order.  With one kind in two thirds
    # of the requests the median lies inside the spread of distribution
    # latencies, not on the edge between the two kinds, where it would jump
    working = repeat_working_set()
    while True:
        block = [("dist", total, delta, r) for total, delta, r in working] * 2
        block += [("point", total, delta, r, _lattice_point(rng, total)) for total, delta, r in working]
        rng.shuffle(block)
        yield block


def channel_deck():
    """(kind, K, L, variant): every grid pair once per kind; variant halves a kind."""
    return [
        (kind, cap_k, cap_l, (i + j) % 2)
        for kind in range(4)
        for i, cap_k in enumerate(CHANNEL_GRID)
        for j, cap_l in enumerate(CHANNEL_GRID)
    ]


def gen_imperfect_channels(rng):
    deck = channel_deck()
    while True:
        rng.shuffle(deck)
        yield [_channel_request(rng, *entry) for entry in deck]


def _channel_request(rng, kind, cap_k, cap_l, variant):
    r = rng.uniform(0.05, 0.95)
    if kind == 0:
        eff = rng.uniform(0.6, 1.0) if variant else 1.0
        return ("mixed_common", cap_k, cap_l, r, rng.uniform(0.5, 1.0), eff)
    if kind == 1:
        return ("mixed_unequal", cap_k, cap_l, r, rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))
    if kind == 2:
        u = rng.random()
        # interior angles stay clear of the 1e-4 band that snaps to an endpoint
        y = 0.0 if u < 0.1 else math.pi / 2 if u < 0.2 else rng.uniform(1e-3, math.pi / 2 - 1e-3)
        return ("decohere", cap_k, cap_l, r, y)
    # a vacuum source is left undegraded (eta = 1), as the figures do
    joint = bool(variant)
    if joint:
        floor = central_binomial_purity(cap_k) * central_binomial_purity(cap_l)
    else:
        floor = max((central_binomial_purity(n) for n in (cap_k, cap_l) if n), default=1.0)
    return ("purity", cap_k, cap_l, r, floor + rng.uniform(0.05, 0.95) * (1.0 - floor), joint)


#: the r sweep covers this many points at S = 2000, split over R_SWEEPS
#: commands that each take every R_SWEEPS-th point: one 64-point command
#: would be half of a block's time, timed against a single host-speed loop
R_POINTS = 64
R_SWEEPS = 4


def sweep_grid_r(part):
    grid = [0.01 + 0.98 * i / (R_POINTS - 1) for i in range(R_POINTS)]
    return ",".join(format(r, ".6f") for r in grid[part::R_SWEEPS])


FIGURE_IDS = (
    "fig2a", "fig2b", "fig2c", "fig3", "figS1a", "figS1b", "figS1c",
    "figS2", "figS3", "figS4", "figLossArray",
)

#: fixed commands; "{out}" is replaced by a working directory inside the checkout
CLI_CATALOGUE = tuple(
    [("figure", "--id", fig, "--outdir", "{out}") for fig in FIGURE_IDS]
    + [("sweep", "--param", "r", "--grid", sweep_grid_r(part), "--s", "2000", "--delta=0")
       for part in range(R_SWEEPS)]
    + [
        ("sweep", "--param", "y", "--grid", "0,0.1309,0.5236,1.0472,1.5708",
         "--s", "50", "--n", "25", "--r", "0.5"),
        ("sweep", "--param", "eta", "--grid", "1.0,0.95,0.9,0.8,0.7,0.6",
         "--k", "20", "--l", "20", "--r", "0.5"),
        ("sweep", "--param", "eta_det", "--grid", "1.0,0.9,0.8",
         "--s", "10", "--delta=0", "--r", "0.5"),
        ("check", "--suite", "all"),
        ("dist", "--s", "30", "--delta=-10", "--r", "1/5", "--mode", "rational",
         "--format", "json"),
    ]
)


def float_dist_command(rng, u=None):
    total, delta, r = fresh_request(rng, u)
    return ("dist", "--s", str(total), f"--delta={delta}", "--r", repr(r))


#: seeded float dist commands in every block, besides the catalogue; with
#: more of them than catalogue commands the median latency is a dist
#: command's, drawn from a stratified sample of S
CLI_DISTS = 24


def gen_cli_commands(rng):
    # every block is the whole catalogue and CLI_DISTS seeded float dist
    # commands, one S from each 1/CLI_DISTS quantile slice, in seeded order
    while True:
        block = list(CLI_CATALOGUE) + [
            float_dist_command(rng, (slot + rng.random()) / CLI_DISTS) for slot in range(CLI_DISTS)
        ]
        rng.shuffle(block)
        yield block


GENERATORS = {
    "pure_fresh": gen_pure_fresh,
    "pure_repeat": gen_pure_repeat,
    "imperfect_channels": gen_imperfect_channels,
    "cli_commands": gen_cli_commands,
}


def blocks(workload: str, seed: int):
    """Endless deterministic stream of request blocks for one workload and seed."""
    return GENERATORS[workload](_rng(workload, seed))


def requests(workload: str, seed: int):
    """The same requests one at a time."""
    for block in blocks(workload, seed):
        yield from block


class Digest:
    """SHA-256 over the repr of every request handed to the package.

    A time-bounded run sends as many blocks as its speed allows, so the full
    digest differs between a slow and a fast run of one seed.  The digest of
    the first block, which every run completes, is kept as ``prefix`` to
    show that such runs began with identical inputs.
    """

    def __init__(self):
        self._hash = hashlib.sha256()
        self.count = 0
        self.prefix = None
        self.prefix_count = 0

    def add(self, request):
        self._hash.update(repr(request).encode())
        self._hash.update(b"\n")
        self.count += 1

    def end_block(self):
        if self.prefix is None:
            self.prefix = self._hash.hexdigest()
            self.prefix_count = self.count

    def hexdigest(self):
        return self._hash.hexdigest()
