"""CLI and analysis-layer tests."""

import pytest

from repro.analysis import (
    SWEEP_HEADERS,
    connectivity_sweep,
    diamond_figure,
    eight_ring_figure,
    format_table,
    hexagon_figure,
    node_bound_sweep,
    ring_figure,
    triangle_figure,
    witness_chain_figure,
)
from repro.cli import build_parser, main, parse_graph
from repro.graphs import GraphError, ring_cover_of_triangle


class TestTables:
    def test_basic_rendering(self):
        out = format_table(("a", "bb"), [(1, 2.34567), (None, True)])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "2.346" in out
        assert "—" in out and "yes" in out

    def test_title(self):
        out = format_table(("x",), [(1,)], title="T")
        assert out.splitlines()[0] == "T"


class TestDiagrams:
    def test_static_figures_nonempty(self):
        for figure in (
            triangle_figure(),
            hexagon_figure(),
            diamond_figure(),
            eight_ring_figure(),
        ):
            assert figure.strip()

    def test_ring_figure(self):
        cm = ring_cover_of_triangle(6)
        inputs = {u: i for i, u in enumerate(cm.cover.nodes)}
        fig = ring_figure(cm, inputs)
        assert "A" in fig and "B" in fig and "C" in fig
        assert "wraps" in fig

    def test_chain_figure(self):
        fig = witness_chain_figure(["E1", "E2", "E3"], ["c", "a"])
        assert fig == "E1 --[c]-- E2 --[a]-- E3"


class TestSweeps:
    def test_node_sweep_shape(self):
        rows = node_bound_sweep((1,))
        assert [r.n_nodes for r in rows] == [3, 4, 5]
        assert "IMPOSSIBLE" in rows[0].outcome
        assert "SOLVED" in rows[1].outcome

    def test_connectivity_sweep_shape(self):
        rows = connectivity_sweep(1)
        assert len(rows) == 3
        assert len(SWEEP_HEADERS) == len(rows[0].as_tuple())


class TestCLI:
    def test_parse_graph_families(self):
        assert len(parse_graph("triangle")) == 3
        assert len(parse_graph("complete:5")) == 5
        assert len(parse_graph("ring:6")) == 6
        assert len(parse_graph("wheel:5")) == 6
        assert len(parse_graph("circulant:7:1,2")) == 7

    def test_parse_graph_rejects_garbage(self):
        with pytest.raises(GraphError):
            parse_graph("torus:3")
        with pytest.raises(GraphError):
            parse_graph("complete:xyz")

    def test_classify_command(self, capsys):
        assert main(["classify", "--graph", "triangle", "--faults", "1"]) == 0
        assert "INADEQUATE" in capsys.readouterr().out

    def test_refute_byzantine_command(self, capsys):
        assert main(["refute", "byzantine"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "chain links" in out

    def test_refute_connectivity_command(self, capsys):
        assert main(["refute", "connectivity", "--graph", "diamond"]) == 0
        assert "VIOLATED" in capsys.readouterr().out

    def test_refute_eps_delta_command(self, capsys):
        assert main(["refute", "eps-delta"]) == 0
        assert "VIOLATED" in capsys.readouterr().out

    def test_demo_eig_command(self, capsys):
        assert main(["demo", "eig", "--graph", "complete:4"]) == 0
        assert "all conditions satisfied" in capsys.readouterr().out

    def test_demo_without_faults_has_no_liars(self, capsys):
        # f = 0: no node lies, so every node decides.
        code = main(["demo", "eig", "--graph", "complete:4", "--faults", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all conditions satisfied" in out
        decisions = next(
            line for line in out.splitlines() if line.startswith("decisions:")
        )
        assert "None" not in decisions
        assert decisions.count(":") == 1 + 4

    def test_demo_sparse_command(self, capsys):
        code = main(
            ["demo", "sparse", "--graph", "circulant:7:1,2", "--faults", "1"]
        )
        assert code == 0

    def test_sweep_command(self, capsys):
        assert main(["sweep", "nodes", "--faults", "1"]) == 0
        out = capsys.readouterr().out
        assert "IMPOSSIBLE" in out and "SOLVED" in out

    def test_sweep_nodes_rejects_zero_faults(self, capsys):
        # f = 0 has no n-range below 3f + 1; it must fail, not print
        # a table with its rows missing.
        for faults in (["0"], ["1", "0"]):
            assert main(["sweep", "nodes", "--faults", *faults]) == 2
            captured = capsys.readouterr()
            assert "f must be at least 1" in captured.err
            assert captured.out == ""
        with pytest.raises(ValueError):
            node_bound_sweep((0,))

    @pytest.mark.parametrize(
        "argv,low",
        [
            (["campaign", "--rounds", "0"], 1),
            (["--seed", "3", "campaign", "--rounds", "0"], 1),
            (["campaign", "--frontier", "--rounds", "0"], 1),
            (["attack", "--rounds", "0"], 1),
            (["attack", "--rounds", "-2"], 1),
            (["refute", "byzantine", "--rounds", "-1"], 0),
        ],
    )
    def test_bad_rounds_are_usage_errors(self, capsys, argv, low):
        # Rejected at the parser: no vacuous verdict, no traceback and
        # no seed-dependent error from deep inside the sampler.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert errors == [
            errors[0].split("error:")[0]
            + f"error: argument --rounds: must be at least {low}, "
            f"got {argv[-1]}"
        ]
        assert "Traceback" not in captured.err

    def test_refute_accepts_zero_rounds(self, capsys):
        assert main(["refute", "byzantine", "--rounds", "0"]) == 0

    def test_campaign_config_rejects_zero_rounds(self):
        from repro.analysis.campaign import CampaignConfig

        with pytest.raises(ValueError, match="rounds must be at least 1"):
            CampaignConfig(
                graph=parse_graph("complete:4"),
                device_factory=lambda graph: {},
                rounds=0,
            )

    def test_error_exit_code(self, capsys):
        assert main(["classify", "--graph", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parser_help_mentions_problems(self):
        parser = build_parser()
        assert parser.prog == "repro"


class TestMasterReport:
    @pytest.mark.slow
    def test_full_report_all_witnessed(self):
        from repro.analysis.report import full_report

        lines = full_report()
        assert len(lines) == 16
        assert all("witness:" in line.verdict for line in lines)
        results = {line.result for line in lines}
        for theorem in ("Thm 1", "Thm 2", "Thm 4", "Thm 5", "Thm 6", "Thm 8"):
            assert any(r.startswith(theorem) for r in results)

    @pytest.mark.slow
    def test_report_command(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "FLM 1985, reproduced" in out
        assert "Cor 15" in out


class TestCLIWitnessOptions:
    def test_refute_verbose(self, capsys):
        assert main(["refute", "byzantine", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "full trace" in out

    def test_refute_json(self, tmp_path, capsys):
        target = tmp_path / "witness.json"
        assert main(["refute", "byzantine", "--json", str(target)]) == 0
        import json

        data = json.loads(target.read_text())
        assert data["found"] is True

    def test_refute_weak_command(self, capsys):
        assert main(["refute", "weak"]) == 0
        assert "weak-agreement" in capsys.readouterr().out

    def test_refute_firing_command(self, capsys):
        assert main(["refute", "firing"]) == 0
        assert "firing-squad" in capsys.readouterr().out


class TestAttackAndCampaignCommands:
    def test_attack_command_breaks_naive(self, capsys):
        assert main(
            ["attack", "--protocol", "naive", "--graph", "complete:4",
             "--faults", "1", "--attempts", "50"]
        ) == 0
        assert "broken" in capsys.readouterr().out

    def test_attack_seed_changes_search(self, capsys):
        main(["attack", "--attempts", "50"])
        first = capsys.readouterr().out
        main(["--seed", "1", "attack", "--attempts", "50"])
        second = capsys.readouterr().out
        main(["attack", "--attempts", "50"])
        again = capsys.readouterr().out
        assert first == again  # same seed reproduces exactly
        assert first != second

    def test_campaign_command_breaks_naive(self, capsys):
        assert main(
            ["campaign", "--protocol", "naive", "--graph", "complete:4",
             "--links", "2", "--attempts", "60", "--verbose"]
        ) == 0
        out = capsys.readouterr().out
        assert "broken" in out and "shrunk" in out

    def test_campaign_eig_survives(self, capsys):
        assert main(
            ["campaign", "--protocol", "eig", "--graph", "complete:4",
             "--faults", "1", "--links", "0", "--attempts", "20"]
        ) == 0
        assert "survived" in capsys.readouterr().out

    def test_campaign_json_then_replay(self, tmp_path, capsys):
        target = tmp_path / "campaign.json"
        assert main(
            ["campaign", "--protocol", "naive", "--graph", "complete:4",
             "--links", "2", "--attempts", "60", "--json", str(target)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "--protocol", "naive", "--graph", "complete:4",
             "--replay", str(target)]
        ) == 0
        assert "replayed" in capsys.readouterr().out

    def test_campaign_frontier(self, capsys):
        assert main(
            ["campaign", "--protocol", "naive", "--graph", "complete:4",
             "--links", "1", "--attempts", "40", "--frontier"]
        ) == 0
        out = capsys.readouterr().out
        assert "graceful degradation" in out
        assert "agreement" in out


class TestOptimizationFlags:
    def test_campaign_cache_stats(self, capsys):
        # The cache, orbit and trie counters reach --metrics as host
        # gauges: on these inputs the orbit index saves a run and the
        # shrinker replays trie rounds.
        flags = ["--orbit-dedup", "--incremental", "--metrics"]
        assert main(
            ["campaign", "--protocol", "eig", "--graph", "complete:4",
             "--faults", "0", "--links", "1", "--kinds", "drop",
             "--rounds", "2", "--attempts", "30"] + flags
        ) == 0
        gauges = _summary_values(capsys.readouterr().out)
        assert gauges["host.orbit.runs_saved"] > 0
        assert "host.cache.hits{cache=behavior}" in gauges
        assert main(
            ["--seed", "3", "campaign", "--protocol", "naive", "--graph",
             "complete:4", "--links", "3", "--rounds", "3",
             "--attempts", "40"] + flags
        ) == 0
        gauges = _summary_values(capsys.readouterr().out)
        assert gauges["host.trie.rounds_replayed"] > 0

    def test_campaign_flags_do_not_change_output(self, capsys):
        args = ["campaign", "--protocol", "naive", "--graph", "complete:4",
                "--links", "2", "--attempts", "40"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--orbit-dedup", "--incremental"]) == 0
        optimized = capsys.readouterr().out
        assert plain == optimized

    def test_attack_cache_stats(self, capsys):
        # The deprecated flag is gone: argparse rejects it.
        with pytest.raises(SystemExit) as exc:
            main(
                ["attack", "--protocol", "naive", "--graph", "complete:4",
                 "--faults", "1", "--attempts", "40", "--cache-stats"]
            )
        assert exc.value.code == 2
        assert "--cache-stats" in capsys.readouterr().err

    def test_frontier_cache_stats(self, capsys):
        assert main(
            ["campaign", "--protocol", "naive", "--graph", "complete:4",
             "--links", "1", "--attempts", "20", "--frontier",
             "--metrics", "--orbit-dedup", "--incremental"]
        ) == 0
        out = capsys.readouterr().out
        assert "graceful degradation" in out
        gauges = _summary_values(out)
        assert gauges["host.orbit.scenarios_seen"] > 0
        assert "host.cache.misses{cache=behavior}" in gauges


def _summary_values(out):
    """``name value`` lines of the ``--metrics`` telemetry summary."""
    values = {}
    for line in out.partition("== telemetry summary ==")[2].splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1].lstrip("-").isdigit():
            values[parts[0]] = int(parts[1])
    return values
