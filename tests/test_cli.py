"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.images import darpa_like, write_pgm
from repro.images.io import read_pnm


def run_cli(capsys, *argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


class TestMachines:
    def test_lists_all(self, capsys):
        out = run_cli(capsys, "machines")
        for name in ("cm5", "sp1", "sp2", "cs2", "paragon"):
            assert name in out


class TestGenerate:
    def test_pattern_pbm(self, capsys, tmp_path):
        path = tmp_path / "img.pbm"
        run_cli(capsys, "generate", "--pattern", "5", "--size", "64", str(path))
        img = read_pnm(path)
        assert img.shape == (64, 64)
        assert set(np.unique(img)) <= {0, 1}

    def test_darpa_pgm(self, capsys, tmp_path):
        path = tmp_path / "scene.pgm"
        run_cli(capsys, "generate", "--pattern", "0", "--size", "64", str(path))
        img = read_pnm(path)
        assert img.max() > 1


class TestHistogram:
    def test_on_pattern(self, capsys):
        out = run_cli(
            capsys, "histogram", "--pattern", "6", "--size", "64", "-k", "2", "-p", "4"
        )
        assert "simulated time" in out
        assert "occupied levels: 2/2" in out

    def test_on_file_with_equalize(self, capsys, tmp_path):
        src = tmp_path / "in.pgm"
        write_pgm(src, darpa_like(64, 32, seed=9))
        eq = tmp_path / "eq.pgm"
        out = run_cli(capsys, "histogram", str(src), "-k", "32", "-p", "4", "--equalize", str(eq))
        assert "equalized image written" in out
        assert read_pnm(eq).shape == (64, 64)

    def test_missing_input_errors(self, capsys):
        code = main(["histogram"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err


class TestComponents:
    def test_simulated(self, capsys):
        out = run_cli(
            capsys, "components", "--pattern", "8", "--size", "64", "-p", "16"
        )
        assert "4 components" in out

    def test_runtime_backend(self, capsys):
        out = run_cli(
            capsys, "components", "--pattern", "6", "--size", "64",
            "--engine", "darray", "--transport", "shmem",
        )
        assert "1 components" in out

    @pytest.mark.parametrize("command", ["components", "histogram"])
    @pytest.mark.parametrize(
        "spelling", [["--runtime"], ["--engine", "runtime"]], ids=["flag", "engine"]
    )
    def test_runtime_spellings_are_gone(self, capsys, command, spelling):
        # The process engine has one spelling: --engine darray --transport shmem.
        with pytest.raises(SystemExit) as exc:
            main([command, "--pattern", "4", "--size", "64", *spelling])
        assert exc.value.code == 2
        assert "runtime" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["components", "histogram", "trace", "chaos", "serve"])
    def test_kernel_option_is_gone(self, capsys, command):
        # Every engine runs the numpy kernels; nothing chooses another.
        with pytest.raises(SystemExit) as exc:
            main([command, "--kernel", "numpy"])
        assert exc.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_grey_with_output(self, capsys, tmp_path):
        # Small enough that the compacted map fits an 8-bit PGM.
        src = tmp_path / "g.pgm"
        write_pgm(src, darpa_like(32, 16, seed=4))
        dst = tmp_path / "labels.pgm"
        out = run_cli(
            capsys, "components", str(src), "--grey", "-p", "4", "-o", str(dst)
        )
        assert "label map written" in out
        labels = read_pnm(dst)
        assert labels.shape == (32, 32)

    def test_output_rejects_overdeep_label_map(self, capsys, tmp_path):
        # A 64x64 16-level scene has ~400 grey components: too many for
        # 8-bit PGM, so the CLI must refuse with a clear error rather
        # than write a file its own reader rejects.
        src = tmp_path / "g.pgm"
        write_pgm(src, darpa_like(64, 16, seed=4))
        code = main(
            ["components", str(src), "--grey", "-p", "4",
             "-o", str(tmp_path / "labels.pgm")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "does not fit an 8-bit PGM" in captured.err
        assert not (tmp_path / "labels.pgm").exists()

    def test_ascii_rendering(self, capsys):
        out = run_cli(
            capsys, "components", "--pattern", "5", "--size", "64",
            "-p", "4", "--ascii", "32",
        )
        assert "a" in out  # the cross rendered as component 'a'

    def test_connectivity_flag(self, capsys):
        # Diagonal-only pattern: 4-connectivity splits it apart.
        out8 = run_cli(capsys, "components", "--pattern", "3", "--size", "64", "-p", "4")
        out4 = run_cli(
            capsys, "components", "--pattern", "3", "--size", "64", "-p", "4",
            "--connectivity", "4",
        )
        n8 = int(out8.split(" components")[0].split()[-1])
        n4 = int(out4.split(" components")[0].split()[-1])
        assert n4 >= n8


class TestEightBitFiles:
    """A P5 file decodes to uint8; every command prints what it prints
    for the same pixels as int32, read from the P2 twin of that file."""

    @pytest.mark.parametrize("argv", [
        ("components", "--grey", "-p", "4"),
        ("components", "--grey", "-p", "4", "--engine", "darray", "--transport", "local"),
        ("components", "--grey", "-p", "4", "--engine", "darray", "--transport", "shmem"),
        ("histogram", "-k", "256", "-p", "4"),
    ])
    def test_p5_prints_as_int32(self, capsys, tmp_path, argv):
        img = darpa_like(64, 256, seed=2)
        p5, p2 = tmp_path / "scene.pgm", tmp_path / "scene-ascii.pgm"
        write_pgm(p5, img, binary=True)
        write_pgm(p2, img, binary=False)
        assert read_pnm(p5).dtype == np.uint8 and read_pnm(p2).dtype == np.int32
        command, *rest = argv
        assert run_cli(capsys, command, str(p5), *rest) == run_cli(
            capsys, command, str(p2), *rest
        )


class TestReportFlag:
    def test_components_report(self, capsys):
        out = run_cli(
            capsys, "components", "--pattern", "6", "--size", "64",
            "-p", "4", "--report",
        )
        assert "simulated run on TMC CM-5" in out
        assert "cc:label" in out

    def test_histogram_report(self, capsys):
        out = run_cli(
            capsys, "histogram", "--pattern", "6", "--size", "64",
            "-k", "2", "-p", "4", "--report",
        )
        assert "hist:tally" in out


class TestVerifyCommand:
    def test_roundtrip_ok(self, capsys, tmp_path):
        img_path = tmp_path / "img.pbm"
        run_cli(capsys, "generate", "--pattern", "8", "--size", "64", str(img_path))
        lab_path = tmp_path / "labels.pgm"
        run_cli(
            capsys, "components", str(img_path), "-p", "4", "-o", str(lab_path)
        )
        out = run_cli(capsys, "verify", str(img_path), str(lab_path))
        assert "OK" in out

    def test_detects_corruption(self, capsys, tmp_path):
        from repro.images import write_pgm
        import numpy as np

        img_path = tmp_path / "img.pbm"
        run_cli(capsys, "generate", "--pattern", "8", "--size", "64", str(img_path))
        lab_path = tmp_path / "labels.pgm"
        run_cli(capsys, "components", str(img_path), "-p", "4", "-o", str(lab_path))
        # Corrupt: merge two labels
        from repro.images import read_pnm

        labels = read_pnm(lab_path)
        labels[labels == labels.max()] = 1
        write_pgm(lab_path, labels)
        code = main(["verify", str(img_path), str(lab_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.out


class TestCustomMachineSpec:
    def test_json_machine(self, capsys, tmp_path):
        import json

        spec = tmp_path / "mymachine.json"
        spec.write_text(json.dumps({
            "name": "MyCluster",
            "latency_s": 1e-6,
            "bandwidth_Bps": 1e9,
            "op_ns": 2.0,
        }))
        out = run_cli(
            capsys, "components", "--pattern", "6", "--size", "64",
            "-p", "4", "--machine", str(spec),
        )
        assert "MyCluster" in out

    def test_bad_json_machine(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("{not json")
        code = main([
            "components", "--pattern", "6", "--size", "64", "--machine", str(spec)
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err


class TestReportCommand:
    def test_assembles_from_artifacts(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table1_histogramming.txt").write_text("TABLE ONE CONTENT")
        (results / "custom_extra.txt").write_text("EXTRA CONTENT")
        out = run_cli(capsys, "report", "--results", str(results))
        assert "REPRODUCTION REPORT" in out
        assert "TABLE ONE CONTENT" in out
        assert "EXTRA CONTENT" in out
        assert "not regenerated in this run" in out  # most sections absent

    def test_writes_file(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig10_darpa.txt").write_text("DARPA")
        dest = tmp_path / "report.txt"
        run_cli(capsys, "report", "--results", str(results), "-o", str(dest))
        assert "DARPA" in dest.read_text()

    def test_missing_results_dir_errors(self, capsys, tmp_path):
        code = main(["report", "--results", str(tmp_path / "nope")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err

    def test_empty_results_dir_errors(self, capsys, tmp_path):
        empty = tmp_path / "results"
        empty.mkdir()
        code = main(["report", "--results", str(empty)])
        assert code == 2


class TestFaultPlanFlags:
    def _write_plan(self, tmp_path, faults):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"schema": "repro-faults/v1", "faults": faults}))
        return str(path)

    def test_components_sim_failover(self, capsys, tmp_path):
        plan = self._write_plan(
            tmp_path,
            [{"site": "sim:merge", "kind": "crash", "round": 0, "group": 0}],
        )
        out = run_cli(
            capsys, "components", "--pattern", "4", "--size", "64", "-p", "16",
            "--fault-plan", plan,
        )
        assert "merge-round failovers: 1" in out
        assert "fault:failover" in out

    def test_components_runtime_retry(self, capsys, tmp_path):
        plan = self._write_plan(
            tmp_path,
            [{"site": "darray:border", "kind": "exception", "round": 0, "group": 0}],
        )
        out = run_cli(
            capsys, "components", "--pattern", "4", "--size", "64", "-p", "4",
            "--engine", "darray", "--transport", "shmem", "--fault-plan", plan,
        )
        assert "fault:retry" in out

    def test_histogram_sim_rejects_plan(self, capsys, tmp_path):
        plan = self._write_plan(
            tmp_path, [{"site": "darray:hist", "kind": "exception", "task": 0}]
        )
        code = main(
            ["histogram", "--pattern", "6", "--size", "64",
             "--fault-plan", plan]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "use --engine darray --transport shmem" in captured.err

    def test_histogram_runtime_with_plan(self, capsys, tmp_path):
        plan = self._write_plan(
            tmp_path, [{"site": "darray:hist", "kind": "exception", "task": 0}]
        )
        out = run_cli(
            capsys, "histogram", "--pattern", "0", "--size", "64", "-p", "4",
            "-k", "256", "--engine", "darray", "--transport", "shmem",
            "--fault-plan", plan,
        )
        assert "fault:retry" in out

    def test_bad_plan_file_is_a_cli_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code = main(
            ["components", "--pattern", "4", "--size", "64",
             "--fault-plan", str(path)]
        )
        assert code == 2


class TestChaosCommand:
    def test_list_prints_matrix_without_running(self, capsys):
        out = run_cli(
            capsys, "chaos", "--pattern", "4", "--size", "64", "-p", "4",
            "--engine", "sim", "--list",
        )
        assert "single-fault plan(s)" in out
        assert "crash@sim:merge" in out

    def test_sim_matrix_recovers(self, capsys):
        out = run_cli(
            capsys, "chaos", "--pattern", "4", "--size", "64", "-p", "4",
            "--engine", "sim",
        )
        assert "all plans recovered" in out
        assert "fault:failover" in out
        assert "MISMATCH" not in out

    def test_sim_histogram_rejected(self, capsys):
        code = main(
            ["chaos", "--pattern", "4", "--size", "64",
             "--workload", "histogram", "--engine", "sim"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "components only" in captured.err

    def test_process_histogram_exception_plans(self, capsys, monkeypatch):
        # Keep the CLI-level process test cheap: histogram's matrix is
        # the small one.  The full matrix runs in
        # tests/test_faults_runtime.py.
        out = run_cli(
            capsys, "chaos", "--pattern", "0", "--size", "64", "-p", "4",
            "--workload", "histogram", "--timeout", "1.5",
        )
        assert "all plans recovered" in out


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {repro.__version__}"


class TestServe:
    def test_selftest_round_trip(self, capsys):
        out = run_cli(capsys, "serve", "--selftest", "--workers", "2")
        assert "selftest OK" in out
        assert "cache hit" in out

    def test_selftest_without_cache(self, capsys):
        out = run_cli(capsys, "serve", "--selftest", "--no-cache")
        assert "selftest OK" in out
        assert "0 cache hit(s)" in out

    def test_socket_required_without_selftest(self, capsys):
        code = main(["serve"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--socket" in captured.err

    def test_selftest_with_fault_plan(self, capsys, tmp_path):
        import json as _json

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(_json.dumps({
            "schema": "repro-faults/v1",
            "seed": 1,
            "faults": [{"site": "svc:exec", "kind": "exception", "times": 1}],
        }))
        out = run_cli(
            capsys, "serve", "--selftest", "--fault-plan", str(plan_path),
            "--timeout", "30",
        )
        assert "fault plan:" in out
        assert "selftest OK" in out

    def test_shards_reject_flags_the_router_would_drop(self, capsys, tmp_path):
        code = main([
            "serve", "--selftest", "--shards", "2",
            "--trace-out", str(tmp_path / "t.json"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "--trace-out" in captured.err
        assert not (tmp_path / "t.json").exists()
