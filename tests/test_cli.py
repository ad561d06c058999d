"""Command-line interface: schemas, exit codes, determinism."""
import csv
import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

import homleap as hl
from homleap.cli import _fmt, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_bunching_rows(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--s", "2", "--delta", "0", "--r", "0.5")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        table = {int(r["delta_out"]): r["probability"] for r in rows}
        assert float(table[-2]) == 0.5 and float(table[2]) == 0.5
        assert float(table[0]) == 0.0

    def test_extreme_reflectivity_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--s", "30", "--delta", "0", "--r", "1e-25")
        assert code == 0
        rows = csv.DictReader(out.splitlines())
        table = {int(r["delta_out"]): float(r["probability"]) for r in rows}
        assert table[0] == pytest.approx(1.0, abs=1e-15)

    def test_parity_failure_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "dist", "--s", "3", "--delta", "0", "--r", "0.5")
        assert code == 2
        assert "parity" in err

    def test_bad_reflectivity_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "dist", "--s", "2", "--delta", "0", "--r", "1.5")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,config",
        [
            (("dist", "--s", "2", "--delta", "0", "--r", "1/0"), None),
            (("dist", "--s", "2", "--delta", "0"), "r=1/0\n"),
            (("sweep", "--param", "r", "--grid", "0.5,1/0", "--s", "2", "--delta", "0"), None),
        ],
        ids=["flag", "config", "sweep_grid"],
    )
    def test_zero_denominator_reflectivity_exits_2(self, capsys, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv = (*argv, "--config", str(path))
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'1/0'" in err

    def test_rational_mode_emits_fractions(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--s", "4", "--delta", "2", "--r", "1/5", "--mode", "rational"
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        values = [Fraction(r["probability"]) for r in rows]
        assert sum(values) == 1

    def test_fig2a_shape(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--s", "50", "--delta", "0", "--r", "0.5")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        table = {int(r["delta_out"]): float(r["probability"]) for r in rows}
        assert table[50] > table[0] and table[-50] > table[0]

    def test_json_envelope(self, capsys, tmp_path):
        out_file = tmp_path / "d.json"
        code, _, _ = run_cli(
            capsys, "dist", "--s", "2", "--delta", "0", "--r", "0.5",
            "--format", "json", "--out", str(out_file),
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert set(payload) == {"manifest", "lattice", "series"}
        assert payload["lattice"] == [-2, 0, 2]
        assert payload["manifest"]["version"]
        assert payload["manifest"]["content_hash"]

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("s=2\ndelta=0\nr=0.9\n")
        code, out, _ = run_cli(
            capsys, "dist", "--config", str(config), "--r", "0.5"
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        table = {int(r["delta_out"]): float(r["probability"]) for r in rows}
        assert table[0] == 0.0  # r=0.5 behaviour, not the config's 0.9


class TestSweep:
    def test_r_sweep_blocks_and_moments(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--param", "r", "--grid", "0.1,0.2,0.5,0.9",
            "--s", "10", "--delta", "-4",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert {r["r"] for r in rows} == {"0.1", "0.2", "0.5", "0.9"}
        for row in rows:
            r = float(row["r"])
            assert math.isclose(float(row["mean"]), -4 * (1 - 2 * r), abs_tol=1e-9)

    def test_y_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--param", "y", "--grid", "0.0,1.5707963267948966",
            "--s", "10", "--n", "5", "--r", "0.5",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len({r["y"] for r in rows}) == 2

    def test_eta_det_sweep_breaks_parity(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--param", "eta_det", "--grid", "1.0,0.8",
            "--s", "2", "--delta", "0", "--r", "0.5",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        odd = [r for r in rows if int(r["delta_out"]) % 2 == 1]
        assert odd and all(r["eta_det"] == "0.8" for r in odd)

    def test_eta_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--param", "eta", "--grid", "1.0,0.8",
            "--k", "2", "--l", "2", "--r", "0.5",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        blocks = {}
        for row in rows:
            blocks.setdefault(row["eta"], 0)
            blocks[row["eta"]] += float(row["probability"])
        for total in blocks.values():
            assert math.isclose(total, 1.0, abs_tol=1e-12)


    def test_blocks_follow_the_grid_with_repeats(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--param", "r", "--grid", "0.9,0.1,0.9", "--s", "5", "--delta", "3",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        blocks = [list(block) for _, block in itertools.groupby(rows, key=lambda row: row["r"])]
        assert [block[0]["r"] for block in blocks] == ["0.9", "0.1", "0.9"]
        assert all(len(block) == 6 for block in blocks)
        assert blocks[0] == blocks[2]

    def test_fig2b_rows_are_the_r_sweep_rows(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "sweep", "--param", "r", "--grid", "0.1,0.2,0.5,0.9",
            "--s", "50", "--delta", "-30",
        )
        assert code == 0
        code, _, _ = run_cli(capsys, "figure", "--id", "fig2b", "--outdir", str(tmp_path))
        assert code == 0
        figure = (tmp_path / "fig2b.csv").read_text()
        columns = ("r", "delta_out", "probability")
        assert [tuple(row[c] for c in columns) for row in csv.DictReader(figure.splitlines())] == [
            tuple(row[c] for c in columns) for row in csv.DictReader(out.splitlines())
        ]

    @pytest.mark.parametrize("mode,r", [("float", "0.3"), ("rational", "1/5")])
    def test_eta_det_blocks_are_thinned_expansions(self, capsys, mode, r):
        grid = ("1.0", "0.9", "0.5")
        code, out, _ = run_cli(
            capsys, "sweep", "--param", "eta_det", "--grid", ",".join(grid),
            "--s", "6", "--delta", "2", "--r", r, "--mode", mode,
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        if mode == "rational":
            joint = hl.amplitude_expansion(4, 2, hl.BeamSplitter.exact(Fraction(r)), hl.RATIONAL)
        else:
            joint = hl.amplitude_expansion(4, 2, hl.BeamSplitter(float(Fraction(r))))
        for eta in grid:
            efficiency = Fraction(eta) if mode == "rational" else float(eta)
            thinned = hl.apply_detector_loss(joint, hl.Detector(efficiency=efficiency))
            marginal = hl.delta_marginal(thinned)
            mean, var = _fmt(hl.mean_delta(marginal)), _fmt(hl.variance_delta(marginal))
            expected = [(str(d), _fmt(p), mean, var) for d, p in marginal.items()]
            block = [
                (row["delta_out"], row["probability"], row["mean"], row["variance"])
                for row in rows if row["eta_det"] == eta
            ]
            assert block == expected

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("--param", "eta_det", "--grid", "1,0.9", "--s", "2", "--delta", "0"),
             {"1": ["4/9", "1/9", "4/9"], "0.9": ["9/25", "9/100", "1/10", "9/100", "9/25"]}),
            (("--param", "eta", "--grid", "1/2", "--k", "1", "--l", "1"),
             {"1/2": ["1/9", "1/4", "5/18", "1/4", "1/9"]}),
        ],
        ids=["eta_det", "eta"],
    )
    def test_rational_loss_sweeps_stay_exact(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, "sweep", *argv, "--r", "1/3", "--mode", "rational")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        param = argv[1]
        assert {value: [row["probability"] for row in rows if row[param] == value]
                for value in expected} == expected

    @pytest.mark.parametrize("param", ["eta", "eta_det"])
    def test_zero_denominator_loss_grid_exits_2(self, capsys, param):
        code, _, err = run_cli(
            capsys, "sweep", "--param", param, "--grid", "1/0", "--k", "1", "--l", "1",
            "--s", "2", "--delta", "0", "--r", "1/3", "--mode", "rational",
        )
        assert code == 2
        assert "zero denominator" in err

    def test_y_grid_accepts_p_over_q(self, capsys):
        blocks = {}
        for grid in ("1/2", "0.5"):
            code, out, _ = run_cli(
                capsys, "sweep", "--param", "y", "--grid", grid, "--s", "4", "--n", "2", "--r", "0.5",
            )
            assert code == 0
            columns = ("delta_out", "probability", "mean", "variance")
            blocks[grid] = [tuple(row[c] for c in columns) for row in csv.DictReader(out.splitlines())]
        assert len(blocks["1/2"]) == 5
        assert blocks["1/2"] == blocks["0.5"]

    def test_zero_denominator_y_grid_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--param", "y", "--grid", "1/0", "--s", "4", "--n", "2", "--r", "0.5",
        )
        assert code == 2
        assert "zero denominator" in err

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("dist", "--s", "2", "--delta", "0", "--r", "1e400"),
            ("sweep", "--param", "r", "--grid", "0.5,1e400", "--s", "2", "--delta", "0"),
            ("sweep", "--param", "eta", "--grid", "1e400", "--k", "1", "--l", "1", "--r", "1/2"),
            ("sweep", "--param", "eta_det", "--grid", "1e400", "--s", "2", "--delta", "0",
             "--r", "1/2"),
            ("sweep", "--param", "y", "--grid", "1e400", "--s", "4", "--n", "2", "--r", "1/2"),
        ],
        ids=["dist_r", "r_grid", "eta_grid", "eta_det_grid", "y_grid"],
    )
    def test_beyond_float_range_exits_2(self, capsys, argv, mode):
        code, _, err = run_cli(capsys, *argv, "--mode", mode)
        assert code == 2
        assert "beyond the float range" in err


class TestMissingParameters:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("sweep", "--param", "eta", "--grid", "0.9", "--r", "0.5"), "--k"),
            (("dist", "--delta", "0", "--r", "0.5"), "--s"),
        ],
    )
    def test_missing_flag_is_named(self, capsys, argv, flag):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"missing {flag}" in err
        assert "NoneType" not in err


class TestCheck:
    @pytest.mark.parametrize("suite", ["parity", "visibility", "decoherence"])
    def test_suites_pass(self, capsys, suite):
        code, out, _ = run_cli(capsys, "check", "--suite", suite)
        assert code == 0
        assert "FAIL" not in out
        assert "max_dev" in out

    def test_oracle_suite(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "oracle")
        assert code == 0
        assert "three_way_float" in out

    def test_oracle_suite_runs_the_kernel(self, capsys, monkeypatch):
        columns = []
        kernel = hl.walk.wigner_d_column
        monkeypatch.setattr(hl.walk, "wigner_d_column", lambda *a: columns.append(a) or kernel(*a))
        hl.walk._wigner_column_cached.cache_clear()
        code, out, _ = run_cli(capsys, "check", "--suite", "oracle")
        assert code == 0
        assert "ok oracle.kernel_vs_exact" in out
        assert any(two_s > hl.closedform.DIRECT_FLOAT_LIMIT for two_s, _, _ in columns)


class TestFigure:
    def test_writes_data_manifest_and_script(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figure", "--id", "figS1a", "--outdir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "figS1a.csv").exists()
        assert (tmp_path / "figS1a.manifest.json").exists()
        assert (tmp_path / "figS1a_plot.py").exists()
        manifest = json.loads((tmp_path / "figS1a.manifest.json").read_text())
        assert manifest["content_hash"]
        script = (tmp_path / "figS1a_plot.py").read_text()
        # the script references the data file beside it, never by absolute path
        assert "figS1a.csv" in script
        assert str(tmp_path) not in script

    def test_deterministic_bytes(self, capsys, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for target in (dir_a, dir_b):
            code, _, _ = run_cli(capsys, "figure", "--id", "figS1b", "--outdir", str(target))
            assert code == 0
        assert (dir_a / "figS1b.csv").read_bytes() == (dir_b / "figS1b.csv").read_bytes()
        manifest_a = json.loads((dir_a / "figS1b.manifest.json").read_text())
        manifest_b = json.loads((dir_b / "figS1b.manifest.json").read_text())
        for manifest in (manifest_a, manifest_b):
            manifest.pop("created_at")
            manifest.pop("argv")  # differs only in the destination directory
        assert manifest_a == manifest_b

    def test_figure_data_normalized_per_series(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figure", "--id", "fig2b", "--outdir", str(tmp_path))
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "fig2b.csv").open()))
        by_r = {}
        for row in rows:
            by_r.setdefault(row["r"], 0.0)
            by_r[row["r"]] += float(row["probability"])
        assert all(math.isclose(v, 1.0, abs_tol=1e-9) for v in by_r.values())

    def test_figS4_masks(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figure", "--id", "figS4", "--outdir", str(tmp_path))
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "figS4.csv").open()))
        panel_e = [r for r in rows if r["panel"] == "e"]
        diag = {int(r["n"]): r["nonclassical"] == "1" for r in panel_e if r["n"] == r["m"]}
        assert all(diag[n] for n in range(1, 11))


class TestGoldenBytes:
    """sha256 of exports whose bytes no platform changes: exact rationals and
    plain IEEE arithmetic, never a LAPACK-built column."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("dist --s 4 --delta 2 --r 1/5 --mode rational",
             "882c3fbab96c27de19e4243a6d36e6d4455e1a5a350f4a004c57f0ba4f13fe71"),
            ("sweep --param r --grid 0,1/10,1/2,9/10,1 --s 8 --delta 2 --mode rational",
             "1a7afe90a5ae50e716eee310e7eaa5e9a70e6fc46c358694ae3a5b8264280f2e"),
            ("sweep --param y --grid 0,1.5707963267948966,0 --s 6 --n 2 --r 1/3 --mode rational",
             "b804edfd34fbe0ebadc002915080086b40746a194db69d4e560ef85530eb61d5"),
            ("sweep --param eta --grid 1,9/10,1/2 --k 3 --l 2 --r 1/4 --mode rational",
             "3683746b09b947f68c05281f427708766fa6a237a884bbd72dc46c2d6a24ce82"),
            ("sweep --param eta_det --grid 1,4/5,1/3 --s 6 --delta 0 --r 1/2 --mode rational",
             "a3a1fe6d8d89b07ed6aebf2075390685f206241080403ce30280ee1571a9b7aa"),
        ],
        ids=["dist", "sweep_r", "sweep_y", "sweep_eta", "sweep_eta_det"],
    )
    def test_rational_stdout(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_figS4_csv(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figure", "--id", "figS4", "--outdir", str(tmp_path))
        assert code == 0
        digest = hashlib.sha256((tmp_path / "figS4.csv").read_bytes()).hexdigest()
        assert digest == "a741927941b0f9f3a89caa7827968e8caab545e2b9289f3f5cde6dd45fed0242"
