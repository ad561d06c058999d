"""Command-line front end: distributions, parameter sweeps, self-checks, figure data.

Exit codes: 0 success, 1 check failure, 2 validation error.  Output is
deterministic: floats are serialized with 17 significant digits, sweeps
are evaluated in grid order on one thread, every CSV export is plain rows
written by `_csv`, and exact-rational runs serialize probabilities as p/q
strings.  `figure` writes a manifest beside its CSV and `dist --format json`
embeds one; `sweep` and CSV `dist` write none.  A manifest's content hash
is the sha256 of the exported data, so it excludes the timestamp.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .closedform import amplitude_expansion, distribution
from .channels import (
    Detector,
    DistinguishabilityAngle,
    MixedFockSource,
    apply_detector_loss,
    classical_reference,
    decohere_distribution,
    eta_for_joint_purity,
    eta_for_purity,
    mixed_distribution,
)
from .errors import DegenerateError, LeapError, RangeError
from .metrics import (
    mean_delta,
    nonclassical_mask,
    parity_violation,
    predicted_mean,
    predicted_variance,
    tv_distance,
    variance_delta,
    visibility_fock,
    visibility_from_moments,
)
from .states import (
    FLOAT,
    RATIONAL,
    BeamSplitter,
    DeltaDistribution,
    FockPair,
    delta_marginal,
)
from .walk import evolved_distribution, rotation_probabilities

import numpy as np


def _fmt(value) -> str:
    """Serialize a probability: 17 significant digits, or exact p/q."""
    if isinstance(value, (int, Fraction)):
        return str(value)
    return format(float(value), ".17g")


def _number(text: str, mode, what: str):
    """A float or p/q argument: a Fraction in rational mode, a float otherwise."""
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise RangeError(f"{what} {text!r} has a zero denominator") from None
    if abs(value) > sys.float_info.max:
        raise RangeError(f"{what} {text!r} is beyond the float range")
    return value if mode.is_exact else float(value)


def _beam_splitter(r_text: str, mode) -> BeamSplitter:
    r = _number(r_text, mode, "reflectivity")
    return BeamSplitter.exact(r) if mode.is_exact else BeamSplitter(r)


def _numeric_mode(name: str):
    return RATIONAL if name == "rational" else FLOAT


def _load_config(path: str | None) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    if not path:
        return {}
    config = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise LeapError(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _merged(args, config: dict, key: str, default=None):
    """CLI flag wins over config file, which wins over the default.

    A parameter with no flag, no config entry and no default is missing.
    """
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    if default is None:
        raise LeapError(f"missing --{key} (give the flag or set {key}= in the config file)")
    return default


def _manifest(command: str, params: dict, mode_name: str, payload: str, argv=None) -> dict:
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return {
        "command": command,
        "argv": list(argv) if argv else [],
        "params": params,
        "numeric_mode": mode_name,
        "version": __version__,
        "content_hash": digest,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


def _csv(header: list, rows) -> str:
    """The header and an iterable of rows as one CSV document with bare newline line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _series_rows(series):
    """Lazy [labels..., delta_out, probability] rows of (labels, validated distribution) pairs."""
    return ([*labels, d, _fmt(p)] for labels, dist in series for d, p in dist.items())


def _write_text(path: str | None, text: str):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- dist


def cmd_dist(args, config) -> int:
    mode = _numeric_mode(_merged(args, config, "mode", "float"))
    total = int(_merged(args, config, "s"))
    delta = int(_merged(args, config, "delta"))
    r_text = str(_merged(args, config, "r"))
    pair = FockPair(total, delta)
    bs = _beam_splitter(r_text, mode)
    dist = distribution(pair, bs, mode)
    params = {"s": total, "delta": delta, "r": r_text}
    if args.format == "json":
        payload = {
            "lattice": dist.lattice(),
            "series": [
                {
                    "params": params,
                    "probabilities": [_fmt(p) for p in dist.probs],
                    "mean": _fmt(mean_delta(dist)),
                    "variance": _fmt(variance_delta(dist)),
                }
            ],
        }
        body = json.dumps(payload, sort_keys=True)
        envelope = {"manifest": _manifest("dist", params, mode.kind, body, args.argv), **payload}
        _write_text(args.out, json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    else:
        _write_text(args.out, _csv(["delta_out", "probability"], _series_rows([((), dist)])))
    return 0


# ---------------------------------------------------------------- evaluators
# The channels shared by the sweeps and the figures.


def _decohered(total: int, n_b: int, y: float, bs, mode=FLOAT) -> DeltaDistribution:
    """S photons, n_b of them in the second beam, at distinguishability angle y."""
    pair = FockPair.from_modes(total - n_b, n_b)
    return decohere_distribution(pair, DistinguishabilityAngle(y), bs, mode)


def _mixed(nominal_a: int, nominal_b: int, eta_a: float, eta_b: float, bs, mode=FLOAT):
    """Joint output counts of two lossy Fock sources."""
    return mixed_distribution(
        MixedFockSource(nominal_a, eta_a), MixedFockSource(nominal_b, eta_b), bs, mode
    )


def _detected(joint, efficiency: float) -> dict:
    """Delta_out marginal of joint counts seen by detectors of this efficiency."""
    return delta_marginal(apply_detector_loss(joint, Detector(efficiency=efficiency)))


# ---------------------------------------------------------------- sweep


def _sweep_series(param: str, grid: list, args, config, mode):
    """(grid value, distribution or Delta_out marginal) for each grid point, in grid order."""

    def arg(key):
        return _merged(args, config, key)

    if param == "r":
        pair = FockPair(int(arg("s")), int(arg("delta")))
        for value in grid:
            yield value, distribution(pair, _beam_splitter(value, mode), mode)
    elif param == "y":
        total = int(arg("s"))
        n_b = int(arg("n"))
        bs = _beam_splitter(str(arg("r")), mode)
        for value in grid:
            yield value, _decohered(total, n_b, _number(value, mode, "y"), bs, mode)
    elif param == "eta":
        nominal_a = int(arg("k"))
        nominal_b = int(arg("l"))
        bs = _beam_splitter(str(arg("r")), mode)
        for value in grid:
            eta = _number(value, mode, "eta")
            yield value, _detected(_mixed(nominal_a, nominal_b, eta, eta, bs, mode), 1.0)
    elif param == "eta_det":
        total = int(arg("s"))
        delta = int(arg("delta"))
        bs = _beam_splitter(str(arg("r")), mode)
        pair = FockPair(total, delta)
        joint = amplitude_expansion(pair.mode_a, pair.mode_b, bs, mode)
        for value in grid:
            yield value, _detected(joint, _number(value, mode, "eta_det"))
    else:
        raise LeapError(f"unknown sweep parameter {param!r}")


def _sweep_rows(series):
    """[value, delta_out, probability, mean, variance] rows of (grid value, distribution) pairs."""
    for value, dist in series:
        mean, var = _fmt(mean_delta(dist)), _fmt(variance_delta(dist))
        for d, p in dist.items():
            yield [value, d, _fmt(p), mean, var]


def cmd_sweep(args, config) -> int:
    mode = _numeric_mode(_merged(args, config, "mode", "float"))
    param = args.param
    grid = [g.strip() for g in str(_merged(args, config, "grid")).split(",") if g.strip()]
    rows = _sweep_rows(_sweep_series(param, grid, args, config, mode))
    _write_text(args.out, _csv([param, "delta_out", "probability", "mean", "variance"], rows))
    return 0


# ---------------------------------------------------------------- check


def _check_oracle():
    # float distribution (the alternating sum up to S = 12) against the
    # brute-force evolution and the squared eigenvector column
    worst = 0.0
    for total in range(0, 13):
        for r in (0.1, 0.2, 0.5, 0.9):
            bs = BeamSplitter(r)
            for delta in range(-total, total + 1, 2):
                pair = FockPair(total, delta)
                closed = distribution(pair, bs).to_floats()
                evolved = evolved_distribution(pair, bs).to_floats()
                kernel = rotation_probabilities(total, delta, 2.0 * bs.theta)
                for a, b, c in zip(closed, evolved, kernel):
                    worst = max(worst, abs(a - b), abs(a - c))
    # the kernel above the seam against exact rationals on the same r
    kernel_worst = 0.0
    for total in (13, 30):
        for r in (1e-12, 0.37, 1 - 1e-9):
            for delta in (total % 2, total - 2):
                pair = FockPair(total, delta)
                exact = distribution(pair, BeamSplitter.exact(Fraction(r)), RATIONAL).probs
                kernel = distribution(pair, BeamSplitter(r)).probs
                for a, b in zip(kernel, exact):
                    kernel_worst = max(kernel_worst, abs(a - float(b)))
    exact_worst = Fraction(0)
    for total in range(0, 9):
        for r in (Fraction(1, 10), Fraction(1, 2)):
            bs = BeamSplitter.exact(r)
            for delta in range(-total, total + 1, 2):
                pair = FockPair(total, delta)
                closed = distribution(pair, bs, RATIONAL)
                marginal = delta_marginal(
                    amplitude_expansion(pair.mode_a, pair.mode_b, bs, RATIONAL)
                )
                for d in pair.lattice():
                    exact_worst = max(exact_worst, abs(closed.prob(d) - marginal.get(d, Fraction(0))))
    yield "three_way_float", worst, 1e-9
    yield "kernel_vs_exact", kernel_worst, 1e-13
    yield "closed_vs_expansion_exact", float(exact_worst), 0.0


def _check_parity():
    worst = 0.0
    for total, r in ((2, Fraction(1, 2)), (5, Fraction(1, 5)), (10, Fraction(3, 10))):
        bs = BeamSplitter.exact(r)
        for delta in range(-total, total + 1, 2):
            joint = amplitude_expansion(
                (total + delta) // 2, (total - delta) // 2, bs, RATIONAL
            )
            marginal = delta_marginal(joint)
            worst = max(worst, float(parity_violation(marginal, total)))
    yield "lossless_comb_exact", worst, 0.0
    lossy = apply_detector_loss(
        amplitude_expansion(1, 1, BeamSplitter(0.5)), Detector(efficiency=0.8)
    )
    odd_mass = parity_violation(delta_marginal(lossy), 2)
    yield "lossy_comb_breaks", 0.0 if odd_mass > 0 else 1.0, 0.5


def _check_moments():
    worst = 0.0
    for total in range(0, 21):
        for delta in range(-total, total + 1, 2):
            pair = FockPair(total, delta)
            for r in np.linspace(0.0, 1.0, 11):
                dist = evolved_distribution(pair, BeamSplitter(float(r)))
                worst = max(
                    worst,
                    abs(mean_delta(dist) - predicted_mean(total, delta, float(r))),
                    abs(variance_delta(dist) - predicted_variance(total, delta, float(r))),
                )
    yield "moment_laws", worst, 1e-9


def _check_visibility():
    worst = 0.0
    for n in range(1, 21):
        expected = 1.0 / (2.0 - 1.0 / n)
        worst = max(worst, abs(visibility_fock(n, n, 0.5).value - expected))
    yield "equal_fock_half", worst, 1e-14
    scale_dev = 0.0
    for c in (Fraction(1, 4), Fraction(9, 100)):
        base = visibility_fock(5, 3, Fraction(2, 5)).value
        scaled = visibility_from_moments(15 * c, 20 * c, 6 * c, Fraction(2, 5)).value
        scale_dev = max(scale_dev, abs(float(scaled - base)))
    yield "loss_immunity_exact", scale_dev, 0.0
    masks = {r: nonclassical_mask(20, 20, r) for r in (0.36, 0.39, 0.43, 0.45, 0.5)}
    nested = all(
        not masks[a][cell] or masks[b][cell]
        for a, b in ((0.36, 0.39), (0.39, 0.43), (0.43, 0.45), (0.45, 0.5))
        for cell in masks[a]
    )
    yield "region_nesting", 0.0 if nested else 1.0, 0.5


def _check_decoherence():
    worst = 0.0
    for total, n_b in ((6, 3), (8, 2)):
        pair = FockPair.from_modes(total - n_b, n_b)
        bs = BeamSplitter(0.5)
        pure = distribution(pair, bs)
        cold = decohere_distribution(pair, DistinguishabilityAngle(0.0), bs)
        worst = max(worst, tv_distance(pure, cold))
        hot = decohere_distribution(pair, DistinguishabilityAngle(math.pi / 2), bs)
        worst = max(worst, tv_distance(hot, classical_reference(pair, bs)))
    yield "endpoints", worst, 1e-12
    norm_dev = 0.0
    for y in (0.3, 0.8, 1.2):
        dist = decohere_distribution(
            FockPair.from_modes(4, 3), DistinguishabilityAngle(y), BeamSplitter(0.3)
        )
        norm_dev = max(norm_dev, abs(sum(dist.to_floats()) - 1.0))
    yield "normalization", norm_dev, 1e-12


_SUITES = {
    "oracle": _check_oracle,
    "parity": _check_parity,
    "moments": _check_moments,
    "visibility": _check_visibility,
    "decoherence": _check_decoherence,
}


def cmd_check(args, config) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        for label, deviation, tolerance in _SUITES[name]():
            ok = deviation <= tolerance
            failed = failed or not ok
            status = "ok" if ok else "FAIL"
            print(f"{status} {name}.{label} max_dev={deviation:.3e} tol={tolerance:.1e}")
    return 1 if failed else 0


# ---------------------------------------------------------------- figure


_PLOT_LINES = """\
#!/usr/bin/env python3
\"\"\"Plot {fig_id} from the CSV beside this script.\"\"\"
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(Path(__file__).parent / "{csv_name}")))
series = defaultdict(list)
for row in rows:
    key = tuple(row[c] for c in {series_cols!r})
    series[key].append((int(row["delta_out"]), float(row["probability"])))

fig, ax = plt.subplots()
for key, points in series.items():
    points.sort()
    label = ", ".join(f"{{c}}={{v}}" for c, v in zip({series_cols!r}, key))
    ax.plot([x for x, _ in points], [p for _, p in points], marker="o", ms=3, label=label)
ax.set_xlabel("population difference")
ax.set_ylabel("probability")
ax.set_title("{fig_id}")
ax.legend(fontsize=7)
fig.tight_layout()
fig.savefig(Path(__file__).parent / "{fig_id}.png", dpi=160)
print("wrote {fig_id}.png")
"""

_PLOT_MASK = """\
#!/usr/bin/env python3
\"\"\"Plot the nonclassicality masks of {fig_id} from the CSV beside this script.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt
import numpy as np

rows = list(csv.DictReader(open(Path(__file__).parent / "{csv_name}")))
panels = sorted({{(row["panel"], row["r"], int(row["n_max"])) for row in rows}})
fig, axes = plt.subplots(1, len(panels), figsize=(3 * len(panels), 3))
for ax, (panel, r, n_max) in zip(np.atleast_1d(axes), panels):
    grid = np.zeros((n_max + 1, n_max + 1))
    for row in rows:
        if row["panel"] == panel:
            grid[int(row["m"]), int(row["n"])] = int(row["nonclassical"])
    ax.imshow(grid, origin="lower", cmap="Blues")
    ax.set_title(f"{{panel}}: r={{r}}")
    ax.set_xlabel("n")
    ax.set_ylabel("m")
fig.tight_layout()
fig.savefig(Path(__file__).parent / "{fig_id}.png", dpi=160)
print("wrote {fig_id}.png")
"""

_FIG2_RS = ("0.1", "0.2", "0.5", "0.9")


def _pure_family(total: int, delta: int):
    pair = FockPair(total, delta)
    for r_text in _FIG2_RS:
        yield (r_text,), distribution(pair, _beam_splitter(r_text, FLOAT))


def _decoherence_family():
    bs = BeamSplitter(0.5)
    for label, y in (("pi/24", math.pi / 24), ("pi/6", math.pi / 6),
                     ("pi/3", math.pi / 3), ("pi/2", math.pi / 2)):
        yield (label,), _decohered(50, 25, y, bs)


def _mixed_panels(total: int, deltas: tuple, target_purity: float):
    """Each non-vacuum source degraded to the stated purity."""
    for delta in deltas:
        nominal_a = (total + delta) // 2
        nominal_b = (total - delta) // 2
        eta_a, eta_b = (
            1.0 if nominal == 0 else eta_for_purity(nominal, target_purity)
            for nominal in (nominal_a, nominal_b)
        )
        for r_text in _FIG2_RS:
            joint = _mixed(nominal_a, nominal_b, eta_a, eta_b, _beam_splitter(r_text, FLOAT))
            yield (delta, r_text), _detected(joint, 1.0)


def _loss_array():
    """S=10 panels: joint input purity columns x detector-loss rows."""
    for delta in (0, -4, -10):
        nominal_a = (10 + delta) // 2
        nominal_b = (10 - delta) // 2
        for target in (0.21, 0.41, 0.83, 1.0):
            eta = eta_for_joint_purity(nominal_a, nominal_b, target)
            joints = [
                (r_text, _mixed(nominal_a, nominal_b, eta, eta, _beam_splitter(r_text, FLOAT)))
                for r_text in ("0.1", "0.2", "0.5")
            ]
            for loss in (0.0, 0.1, 0.2):
                for r_text, joint in joints:
                    yield (delta, target, loss, r_text), _detected(joint, 1.0 - loss)


_MASK_COLUMNS = ["panel", "r", "n_max", "n", "m", "visibility", "nonclassical"]


def _visibility_regions():
    """figS4 rows under _MASK_COLUMNS: the visibility of every (n, m) cell per panel."""
    panels = [
        ("a", "0.36", 10),
        ("b", "0.43", 50),
        ("c", "0.39", 10),
        ("d", "0.45", 50),
        ("e", "0.5", 10),
        ("f", "0.5", 50),
    ]
    rows = []
    for panel, r_text, n_max in panels:
        r = float(Fraction(r_text))
        for n in range(n_max + 1):
            for m in range(n_max + 1):
                try:
                    report = visibility_fock(n, m, r)
                    value_text, flag = _fmt(report.value), report.nonclassical
                except DegenerateError:
                    value_text, flag = "", False
                rows.append([panel, r_text, n_max, n, m, value_text, int(flag)])
    return rows


#: figure id -> (builder, series columns); figS4's builder returns its mask
#: rows, every other builder yields (series labels, distribution) pairs
_FIGURES = {
    "fig2a": (lambda: _pure_family(50, 0), ["r"]),
    "fig2b": (lambda: _pure_family(50, -30), ["r"]),
    "fig2c": (lambda: _pure_family(50, -50), ["r"]),
    "fig3": (_decoherence_family, ["y"]),
    "figS1a": (lambda: _pure_family(10, 0), ["r"]),
    "figS1b": (lambda: _pure_family(10, -4), ["r"]),
    "figS1c": (lambda: _pure_family(10, -10), ["r"]),
    "figS2": (lambda: _mixed_panels(10, (0, -4, -10), 0.83), ["delta", "r"]),
    "figS3": (lambda: _mixed_panels(50, (0, -30, -50), 0.47), ["delta", "r"]),
    "figS4": (_visibility_regions, ["panel"]),
    "figLossArray": (_loss_array, ["delta", "purity", "loss", "r"]),
}


def cmd_figure(args, config) -> int:
    fig_id = args.id
    outdir = Path(_merged(args, config, "outdir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    builder, series_cols = _FIGURES[fig_id]
    if fig_id == "figS4":
        csv_text, template = _csv(_MASK_COLUMNS, builder()), _PLOT_MASK
    else:
        header = [*series_cols, "delta_out", "probability"]
        csv_text, template = _csv(header, _series_rows(builder())), _PLOT_LINES
    csv_name = f"{fig_id}.csv"
    (outdir / csv_name).write_text(csv_text)
    manifest = _manifest("figure", {"id": fig_id}, "float", csv_text, args.argv)
    (outdir / f"{fig_id}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    script = template.format(fig_id=fig_id, csv_name=csv_name, series_cols=series_cols)
    (outdir / f"{fig_id}_plot.py").write_text(script)
    print(f"wrote {outdir / csv_name}, manifest and plot script")
    return 0


# ---------------------------------------------------------------- entry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homleap",
        description="statistics of the one-step multiphoton interference walk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="single output distribution")
    p_dist.add_argument("--s", type=int, help="total photon number")
    p_dist.add_argument("--delta", type=int, help="input population difference")
    p_dist.add_argument("--r", help="beam-splitter reflectivity (float or p/q)")
    p_dist.add_argument("--mode", choices=["float", "rational"])
    p_dist.add_argument("--format", choices=["csv", "json"], default="csv")
    p_dist.add_argument("--out", help="output file (default stdout)")
    p_dist.add_argument("--config", help="flat key=value defaults file")
    p_dist.set_defaults(func=cmd_dist)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a grid")
    p_sweep.add_argument("--param", required=True, choices=["r", "y", "eta", "eta_det"])
    p_sweep.add_argument("--grid", help="comma-separated grid values")
    p_sweep.add_argument("--s", type=int)
    p_sweep.add_argument("--delta", type=int)
    p_sweep.add_argument("--n", type=int, help="second-beam photon number (y sweeps)")
    p_sweep.add_argument("--k", type=int, help="nominal photons, source A (eta sweeps)")
    p_sweep.add_argument("--l", type=int, help="nominal photons, source B (eta sweeps)")
    p_sweep.add_argument("--r")
    p_sweep.add_argument("--mode", choices=["float", "rational"])
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--config")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument(
        "--suite",
        default="all",
        choices=[*_SUITES, "all"],
    )
    p_check.add_argument("--config")
    p_check.set_defaults(func=cmd_check)

    p_fig = sub.add_parser("figure", help="write figure data, manifest and plot script")
    p_fig.add_argument("--id", required=True, choices=sorted(_FIGURES))
    p_fig.add_argument("--outdir")
    p_fig.add_argument("--config")
    p_fig.set_defaults(func=cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv) if argv is not None else list(sys.argv[1:])
    try:
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config)
    except (ValueError, OSError) as exc:
        # LeapError subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
