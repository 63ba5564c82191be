"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main
from repro.graph.files import read_edge_list, write_edge_list
from repro.graph.generators import clique, erdos_renyi_gnm


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(erdos_renyi_gnm(30, 90, seed=1), path)
    return path


@pytest.fixture
def clique_file(tmp_path):
    path = tmp_path / "clique.txt"
    write_edge_list(clique(8), path)
    return path


class TestEnumerate:
    def test_basic_run(self, graph_file, capsys):
        assert main(["enumerate", str(graph_file), "--memory", "64", "--block", "8"]) == 0
        output = capsys.readouterr().out
        assert "triangles:" in output
        assert "simulated I/Os:" in output

    def test_counts_match_known_graph(self, clique_file, capsys):
        main(["enumerate", str(clique_file)])
        output = capsys.readouterr().out
        assert "triangles: 56" in output

    def test_print_triangles(self, clique_file, capsys):
        main(["enumerate", str(clique_file), "--print-triangles", "--algorithm", "in_memory"])
        output = capsys.readouterr().out
        # 56 triangles printed as tab-separated lines
        triangle_lines = [line for line in output.splitlines() if line.count("\t") == 2]
        assert len(triangle_lines) == 56

    def test_algorithm_choice_validated(self, graph_file):
        with pytest.raises(SystemExit):
            main(["enumerate", str(graph_file), "--algorithm", "nope"])


class TestCompare:
    def test_compare_prints_one_row_per_algorithm(self, graph_file, capsys):
        assert (
            main(
                [
                    "compare",
                    str(graph_file),
                    "--algorithms",
                    "cache_aware",
                    "hu_tao_chung",
                    "--memory",
                    "64",
                    "--block",
                    "8",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "cache_aware" in output
        assert "hu_tao_chung" in output
        # Both algorithms must agree on the triangle count.
        counts = {
            line.split()[1]
            for line in output.splitlines()
            if line.startswith(("cache_aware", "hu_tao_chung"))
        }
        assert len(counts) == 1

    def _compare_table(self, graph_file, capsys, *extra):
        arguments = [
            "compare",
            str(graph_file),
            "--algorithms",
            "cache_aware",
            "hu_tao_chung",
            "--memory",
            "64",
            "--block",
            "8",
            *extra,
        ]
        assert main(arguments) == 0
        return capsys.readouterr().out

    def test_sharded_compare_matches_serial_sharding(self, graph_file, capsys):
        # The CI parity leg in miniature: same shard count, different jobs,
        # identical table (jobs only moves *where* shards execute).
        sharded = self._compare_table(graph_file, capsys, "--shards", "2")
        serial = self._compare_table(graph_file, capsys, "--shards", "2", "--jobs", "1")
        assert sharded == serial
        assert "sharding: 2 colours" in sharded
        # hu_tao_chung is not shardable: its row runs serially, says so, and
        # carries exactly the numbers of an unsharded compare.
        unsharded = self._compare_table(graph_file, capsys)
        row = next(line for line in sharded.splitlines() if line.startswith("hu_tao_chung"))
        assert row.endswith("(serial: not shardable)")
        serial_row = next(
            line for line in unsharded.splitlines() if line.startswith("hu_tao_chung")
        )
        assert row.split()[1:5] == serial_row.split()[1:5]

    def test_jobs_alone_implies_matching_shard_count(self, graph_file, capsys):
        # ``--jobs N`` without ``--shards`` shards by N colours; jobs=1
        # keeps the historical serial table (no sharding banner).
        pooled = self._compare_table(graph_file, capsys, "--jobs", "2")
        assert "sharding: 2 colours" in pooled
        inline = self._compare_table(graph_file, capsys, "--shards", "2")
        assert pooled == inline
        serial = self._compare_table(graph_file, capsys)
        assert "sharding" not in serial


class TestCompareCanonicalisesOnce:
    def test_compare_uses_one_engine(self, graph_file, capsys, monkeypatch):
        from repro.graph.graph import Graph

        calls = {"count": 0}
        original = Graph.degree_order

        def counting(self):
            calls["count"] += 1
            return original(self)

        monkeypatch.setattr(Graph, "degree_order", counting)
        assert (
            main(
                [
                    "compare",
                    str(graph_file),
                    "--algorithms",
                    "cache_aware",
                    "hu_tao_chung",
                    "dementiev",
                    "--memory",
                    "64",
                    "--block",
                    "8",
                ]
            )
            == 0
        )
        assert calls["count"] == 1
        capsys.readouterr()


class TestAlgorithms:
    def test_renders_every_registered_algorithm(self, capsys):
        from repro.core.registry import algorithm_names

        assert main(["algorithms"]) == 0
        output = capsys.readouterr().out
        for name in algorithm_names():
            assert name in output
        assert "oblivious-vm" in output
        assert "I/O bound" in output

    def test_verbose_prints_options_schema(self, capsys):
        assert main(["algorithms", "--verbose"]) == 0
        output = capsys.readouterr().out
        assert "num_colors" in output
        assert "max_family_size" in output
        assert "max_depth" in output
        assert "options: (none)" in output  # the option-less baselines

    def test_help_mentions_registry_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["enumerate", "--help"])
        output = " ".join(capsys.readouterr().out.split())
        assert "repro algorithms" in output


class TestStats:
    def test_stats_output(self, clique_file, capsys):
        assert main(["stats", str(clique_file), "--top", "3", "--memory", "64", "--block", "8"]) == 0
        output = capsys.readouterr().out
        assert "transitivity: 1.0000" in output
        assert "average clustering coefficient: 1.0000" in output
        assert "triangles: 56" in output


class TestGenerate:
    @pytest.mark.parametrize(
        "arguments,expected_edges",
        [
            (["generate", "clique", "--size", "10"], 45),
            (["generate", "tripartite", "--size", "4"], 48),
            (["generate", "random", "--vertices", "50", "--edges", "120"], 120),
        ],
    )
    def test_generate_kinds(self, tmp_path, capsys, arguments, expected_edges):
        output_path = tmp_path / "out.txt"
        assert main(arguments + ["--output", str(output_path)]) == 0
        graph = read_edge_list(output_path)
        assert graph.num_edges == expected_edges

    def test_generate_planted_then_enumerate_round_trip(self, tmp_path, capsys):
        output_path = tmp_path / "planted.txt"
        main(["generate", "planted", "--triangles", "9", "--edges", "40", "--output", str(output_path)])
        capsys.readouterr()
        main(["enumerate", str(output_path), "--memory", "64", "--block", "8"])
        output = capsys.readouterr().out
        assert "triangles: 9" in output


class TestExperimentsPassthrough:
    def test_experiments_subcommand(self, capsys, tmp_path):
        output_file = tmp_path / "exp.txt"
        assert main(["experiments", "--quick", "--output", str(output_file), "EXP4"]) == 0
        assert "EXP4" in capsys.readouterr().out
        assert output_file.exists()


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out
