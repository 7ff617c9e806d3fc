"""Integration tests for the repro-lid CLI."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import _parse_topology, main


class TestParseTopology:
    def test_figure1(self):
        assert _parse_topology("figure1").name == "figure1"

    def test_ring_params(self):
        g = _parse_topology("ring:shells=3,relays=2")
        assert len(g.shells()) == 3
        assert g.relay_count() == 6

    def test_reconvergent_params(self):
        g = _parse_topology("reconvergent:long=2+1,short=1")
        assert g.relay_count() == 4

    def test_unknown_topology(self):
        with pytest.raises(SystemExit):
            _parse_topology("moebius")

    def test_composed(self):
        g = _parse_topology("composed:imbalance=2,loop_relays=1")
        assert not g.is_feedforward()

    def test_self_loop(self):
        g = _parse_topology("self_loop:relays=2")
        assert g.shell_cycles() == [["A"]]

    def test_butterfly(self):
        g = _parse_topology("butterfly:lanes=4")
        assert len(g.shells()) == 4

    @pytest.mark.parametrize("spec,message", [
        ("ring:shells=2,relays=half", "relays='half' is not an integer"),
        ("figure2:relays=", "relays='' is not an integer"),
        ("dag:half=x", "half='x' is not a number"),
        ("reconvergent:long=2+x",
         "long='2+x' is not a '+'-separated list of integers"),
    ])
    def test_bad_parameter_names_itself(self, spec, message):
        with pytest.raises(ValueError) as excinfo:
            _parse_topology(spec)
        assert str(excinfo.value) == message


class TestCommands:
    def test_analyze(self, capsys):
        assert main(["analyze", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "4/5" in out and "i=1" in out

    def test_analyze_variant_flag(self, capsys):
        assert main(["analyze", "pipeline:stages=2",
                     "--variant", "carloni"]) == 0
        assert "carloni" in capsys.readouterr().out

    def test_figure1_command(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "4/5" in out

    def test_figure2_command(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "S/(S+R)" in out

    def test_deadlock_live_exit_code(self, capsys):
        assert main(["deadlock", "figure2"]) == 0
        assert "live" in capsys.readouterr().out

    def test_liveness_proof_command(self, capsys):
        assert main(["liveness", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "LIVE for all environments" in out

    def test_liveness_stuck_exit_code(self, capsys):
        # The hazardous ring wedges under the original protocol.
        assert main(["liveness", "figure2", "--variant",
                     "carloni"]) == 0  # full stations: still live
        code = main(["liveness", "pipeline:stages=2",
                     "--max-states", "100000"])
        assert code == 0

    def test_liveness_slow_gals_domains_are_live(self, capsys):
        # Both domains tick once every eight base cycles; the phase is
        # part of the explored state, so reset is not a trap.
        assert main(["liveness", "gals-chain:rates=1/8+1/8"]) == 0
        assert "LIVE for all environments" in capsys.readouterr().out

    def test_liveness_stuck_prints_the_witness(self, capsys):
        assert main(["liveness", "gals-ring:rates=1+1/2,depth=1",
                     "--variant", "carloni"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("STUCK STATE reachable after exploring")
        assert out[1] == "witness: environment per cycle from reset"
        assert out[2:] == [f"  cycle {c}: offered -; stopped -"
                           for c in range(3)]

    def test_liveness_past_max_states_is_inconclusive(self, capsys):
        assert main(["liveness", "figure1", "--max-states", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("inconclusive: figure1: state space "
                                "exceeded 5 states — raise --max-states\n")

    @pytest.mark.parametrize("argv", [
        ["analyze", "ring:shells=2,relays=half"],
        ["liveness", "ring:shells=2,relays=half"],
        ["deadlock", "ring:shells=2,relays=half"],
    ])
    def test_non_integer_spec_parameter_is_one_line(self, argv):
        """A direct-parse command and a manifest command both exit 1
        with one line naming the parameter."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == (
            f"repro-lid {argv[0]}: bad topology 'ring:shells=2,relays=half'"
            f": relays='half' is not an integer")

    @pytest.mark.parametrize("argv,spec,reason", [
        (["analyze", "ring:shells=0"], "ring:shells=0",
         "ring needs at least one shell"),
        (["liveness", "gals-ring:rates=x+1"], "gals-ring:rates=x+1",
         "bad clock rate 'x' for domain D0: Invalid literal for "
         "Fraction: 'x'"),
        (["inject", "--topology", "ring:shells=0", "--smoke",
          "--no-cache"], "ring:shells=0", "ring needs at least one shell"),
    ])
    def test_rejected_spec_parameter_is_one_line(self, argv, spec, reason):
        """A value the family's builder refuses is reported like a
        value that does not parse, not as a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == (
            f"repro-lid {argv[0]}: bad topology {spec!r}: {reason}")

    @pytest.mark.parametrize("seed", [0, 2])
    def test_liveness_honours_seed(self, seed, capsys):
        """Seeded families are checked on the graph ``--seed`` draws."""
        from repro.graph import parse_topology
        from repro.verify import verify_system_liveness

        spec = "dag:shells=2"
        expected = verify_system_liveness(parse_topology(spec, seed=seed))
        assert main(["liveness", spec, "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert f"{expected.reachable_states} reachable states, " \
            f"{expected.transitions} transitions" in out

    def test_liveness_seeds_draw_different_graphs(self):
        from repro.graph import parse_topology
        from repro.verify import verify_system_liveness

        states = {verify_system_liveness(
            parse_topology("dag:shells=2", seed=seed)).reachable_states
            for seed in (0, 2)}
        assert len(states) == 2

    def test_reproduce_single_experiment(self, capsys):
        assert main(["reproduce", "--experiment", "EXP-T2"]) == 0
        out = capsys.readouterr().out
        assert "(m-i)/m" in out

    def test_reproduce_to_directory(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "campaign"
        assert main(["reproduce", "--output", str(out_dir)]) == 0
        from repro.bench.runner import BENCH_RECORD_SCHEMA, EXPERIMENTS

        for exp_id in EXPERIMENTS:
            path = out_dir / f"{exp_id}.txt"
            assert path.exists(), exp_id
            assert path.read_text().startswith(f"[{exp_id}]")
            record_path = out_dir / f"BENCH_{exp_id}.json"
            assert record_path.exists(), exp_id
            record = json.loads(record_path.read_text())
            assert record["schema"] == BENCH_RECORD_SCHEMA
            assert record["bench"] == exp_id
            assert record["wall_seconds"] > 0
            assert record["counters"]["rows"] >= 0
            assert record["git_rev"]

    def test_verify_command(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro-lid ")
        assert "1." in out  # semantic version present

    def test_version_string_has_git_rev(self):
        from repro.cli import _version_string

        text = _version_string()
        # In a git checkout the revision rides along; elsewhere the
        # bare version must still render.
        assert text
        assert "\n" not in text


class TestGalsCommands:
    RING = "gals-ring:rates=1+1/2,shells=2"

    def test_analyze_gals(self, capsys):
        assert main(["analyze", "gals-chain:rates=1+1/2"]) == 0
        out = capsys.readouterr().out
        assert "GALS (2 clock domains)" in out
        assert "1/2" in out

    def test_deadlock_gals(self, capsys):
        assert main(["deadlock", self.RING]) == 0
        assert "live" in capsys.readouterr().out

    def test_deadlock_gals_codegen_refused(self, capsys):
        # The liveness probes always run the scalar reference; the
        # removed probe-engine flag is an argparse error.
        with pytest.raises(SystemExit) as excinfo:
            main(["deadlock", self.RING, "--backend", "codegen"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend codegen" \
            in capsys.readouterr().err

    def test_inject_skeleton_cdc(self, capsys):
        assert main(["inject", "--smoke", "--topology", self.RING,
                     "--engine", "skeleton", "--faults", "cdc",
                     "--format", "json", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert '"bridge-overflow"' in out or '"bridge-underflow"' in out

    def test_inject_lid_engine_refuses_gals(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["inject", "--smoke", "--topology", self.RING,
                  "--no-cache"])
        message = str(excinfo.value.code)
        assert "single-clock" in message
        assert "--engine skeleton" in message


class TestObservabilityCommands:
    def test_trace_jsonl(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        path = tmp_path / "trace.jsonl"
        assert main(["trace", "figure1", "--cycles", "30",
                     "--output", str(path)]) == 0
        events = read_jsonl(str(path))
        assert events
        assert {ev.category for ev in events} >= {"token", "run"}
        # run/end marker sits at the final cycle boundary
        assert max(ev.cycle for ev in events) <= 30

    def test_trace_chrome_format(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert main(["trace", "figure1", "--cycles", "30",
                     "--format", "chrome", "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]
        assert any(e.get("ph") == "i" for e in payload["traceEvents"])

    def test_trace_skeleton_engine(self, tmp_path):
        from repro.obs import read_jsonl

        path = tmp_path / "trace.jsonl"
        assert main(["trace", "figure2", "--engine", "skeleton",
                     "--cycles", "20", "--output", str(path)]) == 0
        assert read_jsonl(str(path))

    def test_trace_to_stdout(self, capsys):
        assert main(["trace", "figure1", "--cycles", "10"]) == 0
        out = capsys.readouterr().out
        import json

        lines = [json.loads(line) for line in out.splitlines() if line]
        assert lines
        # The last line is the eventstream meta record (drop counts);
        # every line before it is a flat event with a cycle stamp.
        assert lines[-1]["meta"] == "eventstream"
        assert lines[-1]["dropped"] == 0
        assert all("cycle" in record for record in lines[:-1])

    def test_profile_table(self, capsys):
        assert main(["profile", "figure1", "--cycles", "50"]) == 0
        out = capsys.readouterr().out
        assert "publish+settle" in out
        assert "us/cycle" in out

    def test_profile_json_and_trace_out(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "prof.json"
        report_path = tmp_path / "report.json"
        assert main(["profile", "figure1", "--cycles", "50", "--json",
                     "--output", str(report_path),
                     "--trace-out", str(trace_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["cycles"] == 50
        assert "publish+settle" in report["phases"]
        payload = json.loads(trace_path.read_text())
        assert any(e.get("ph") == "X" for e in payload["traceEvents"])

    def test_analyze_metrics_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(["analyze", "figure1", "--cycles", "40",
                     "--metrics-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-metrics/v1"
        assert payload["metrics"]["lid/cycles"]["value"] == 40

    def test_reproduce_metrics_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "bench.json"
        assert main(["reproduce", "--experiment", "EXP-F2",
                     "--metrics-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        metrics = payload["metrics"]
        assert metrics["bench/EXP-F2/wall_seconds"]["value"] > 0
        assert metrics["bench/EXP-F2/rows"]["value"] > 0


class TestExport:
    def test_dot_export(self, capsys):
        assert main(["export", "dot", "--topology", "figure1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "figure1"')

    def test_json_export(self, capsys):
        assert main(["export", "json", "--topology",
                     "ring:shells=2,relays=1"]) == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert len(data["edges"]) == 3  # two arcs + sink tap

    def test_json_roundtrip_through_cli(self, capsys):
        main(["export", "json", "--topology", "figure1"])
        import json

        from repro.graph import from_dict
        from repro.skeleton import system_throughput

        graph = from_dict(json.loads(capsys.readouterr().out))
        assert str(system_throughput(graph)) == "4/5"

    def test_vhdl_export(self, capsys):
        assert main(["export", "relay-vhdl", "--width", "4"]) == 0
        out = capsys.readouterr().out
        assert "entity relay_station is" in out
        assert "unsigned(3 downto 0)" in out

    def test_vhdl_to_file(self, tmp_path, capsys):
        path = tmp_path / "rs.vhd"
        assert main(["export", "half-relay-vhdl", "-o", str(path)]) == 0
        assert path.read_text().startswith("library ieee;")

    def test_dot_requires_topology(self):
        with pytest.raises(SystemExit):
            main(["export", "dot"])


class TestArgparseValidation:
    """Malformed flag values must exit 2 with a one-line argparse
    diagnostic, not surface as tracebacks mid-campaign."""

    @pytest.mark.parametrize("argv", [
        ["inject", "--smoke", "--jobs", "0"],
        ["inject", "--smoke", "--jobs", "-3"],
        ["inject", "--smoke", "--jobs", "many"],
        ["inject", "--smoke", "--faults", "bogus"],
        ["inject", "--smoke", "--faults", ","],
        ["inject", "--smoke", "--window", "abc"],
        ["inject", "--smoke", "--window", "9:3"],
        ["inject", "--smoke", "--window", "-1:5"],
        ["inject", "--smoke", "--window", "a:b"],
        ["deadlock", "figure2", "--jobs", "0"],
        ["serve", "--jobs", "0"],
        ["serve", "--queue-depth", "0"],
        ["client", "--concurrency", "0"],
        ["inject", "--cycles", "0"],
        ["inject", "--samples", "0"],
        ["inject", "--window", "150:250"],
        ["inject", "--smoke", "--window", "60:70"],
        ["deadlock", "figure2", "--max-cycles", "0"],
        ["inject", "--engine", "skeleton", "--backend", "vectorized"],
        ["inject", "--engine", "skeleton", "--backend", "codegen"],
        ["deadlock", "figure2", "--backend", "scalar"],
        ["analyze", "figure2", "--jobs", "2"],
        ["deadlock", "figure2", "--jobs", "2"],
        ["liveness", "figure2", "--max-states", "0"],
        ["liveness", "figure2", "--max-states", "-1"],
    ])
    def test_bad_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_removed_backend_names_the_choices(self, capsys):
        for removed in ("vectorized", "codegen"):
            with pytest.raises(SystemExit) as excinfo:
                main(["inject", "--engine", "skeleton", "--backend",
                      removed])
            assert excinfo.value.code == 2
            assert "(choose from 'auto', 'scalar', 'bitsim')" \
                in capsys.readouterr().err

    def test_valid_faults_and_window_still_parse(self, capsys):
        assert main(["inject", "--smoke", "--faults", "stop,void",
                     "--window", "10:20", "--format", "json"]) == 0

    def test_client_requires_manifest(self):
        with pytest.raises(SystemExit, match="--manifest"):
            main(["client", "--port", "1"])


class TestHashSeedIndependence:
    """``analyze`` lists loops in graph order, not in the iteration order
    of a ``set``, so its output does not depend on ``PYTHONHASHSEED``."""

    SPECS = (["ring:shells=3"], ["loopy:shells=5", "--seed", "3"],
             ["figure2:relays=2"])

    def _analyze(self, hash_seed):
        src = pathlib.Path(__file__).parent.parent.parent / "src"
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
               "PYTHONPATH": os.pathsep.join(
                   p for p in (str(src), os.environ.get("PYTHONPATH"))
                   if p)}
        code = ("from repro.cli import main\n"
                f"for argv in {self.SPECS!r}:\n"
                "    assert main(['analyze'] + argv) == 0\n")
        return subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=300, check=True).stdout

    def test_analyze_output_is_identical_across_hash_seeds(self):
        outputs = [self._analyze(seed) for seed in (0, 1, 2)]
        assert "loop S0 -> S1 -> S2:" in outputs[0]
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
