"""End-to-end command line checks: exit codes, report artifacts, and
byte-stable experiment output."""

import json

import pytest

from freebases import hyperbolicity
from freebases.agraph import MarkingEdge, MarkingGraph
from freebases.cli import main


def load(path):
    with open(path) as fh:
        return json.load(fh)


def write_graph(path, g):
    path.write_text(json.dumps(g.to_json_dict()))
    return str(path)


# -- fold ---------------------------------------------------------------------


def test_fold_reports_rose(tmp_path):
    out = tmp_path / "fold.json"
    rc = main(["fold", "--basis", "ab,b,c", "--json", str(out)])
    assert rc == 0
    report = load(out)
    assert report["final_is_rose"] is True
    assert report["single_fold_count"] == 1


def test_fold_non_basis_exits_one_but_writes_artifact(tmp_path):
    out = tmp_path / "fold.json"
    rc = main(["fold", "--basis", "aa,b,c", "--json", str(out), "--no-timings"])
    assert rc == 1
    report = load(out)
    assert report["final_is_rose"] is False


def test_fold_writes_dot(tmp_path):
    dot = tmp_path / "final.dot"
    rc = main(["fold", "--basis", "ab,b,c", "--json", str(tmp_path / "f.json"),
               "--dot", str(dot)])
    assert rc == 0
    assert dot.read_text().startswith("graph")


def test_fold_rejects_garbage_words(tmp_path):
    rc = main(["fold", "--basis", "a!,b,c", "--json", str(tmp_path / "f.json")])
    assert rc == 2


def test_rank_below_two_is_rejected(capsys, tmp_path):
    rc = main(["fold", "--basis", "a,b", "--rank", "1",
               "--json", str(tmp_path / "f.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"


def test_default_report_path_uses_out_dir(tmp_path):
    rc = main(["fold", "--basis", "ab,b,c", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fold.json").exists()


# -- path-bases ---------------------------------------------------------------


def test_path_bases_reaches_standard_basis(tmp_path):
    out = tmp_path / "pb.json"
    rc = main(["path-bases", "--b", "ab,bab,c", "--json", str(out)])
    assert rc == 0
    report = load(out)
    assert report["reaches_standard_basis"] is True
    assert report["all_pass_is_basis"] is True
    assert report["bases"][-1] == "a,b,c"


def test_path_bases_accepts_conjugate_of_standard(tmp_path):
    out = tmp_path / "pb.json"
    rc = main(["path-bases", "--b", "a,abA,acA", "--json", str(out)])
    assert rc == 0
    report = load(out)
    assert report["conjugation_exponent"] == -1
    assert report["bases"] == ["a,abA,acA"]


# -- fb-adjacent --------------------------------------------------------------


def test_fb_adjacent_reports_certificate(tmp_path):
    out = tmp_path / "adj.json"
    rc = main(["fb-adjacent", "--a", "ab,b,c", "--b", "a,b,c", "--json", str(out)])
    assert rc == 0
    report = load(out)
    assert report["adjacent"] is True
    assert {"i", "j", "sign"} <= set(report["cert"])


def test_fb_adjacent_distant_pair(tmp_path):
    out = tmp_path / "adj.json"
    rc = main(["fb-adjacent", "--a", "abca,bca,ca", "--b", "a,b,c",
               "--json", str(out)])
    assert rc == 0
    report = load(out)
    assert report["adjacent"] is False
    assert "cert" not in report


def test_fb_adjacent_equivalent_pair_exits_one(tmp_path):
    rc = main(["fb-adjacent", "--a", "a,b,c", "--b", "b,A,c",
               "--json", str(tmp_path / "adj.json")])
    assert rc == 1


def test_fb_adjacent_repeated_class_key_exits_one(tmp_path):
    rc = main(["fb-adjacent", "--a", "a,A,c", "--b", "a,b,c",
               "--json", str(tmp_path / "adj.json")])
    assert rc == 1


def error_type(capsys):
    return json.loads(capsys.readouterr().err)["error"]["type"]


def test_fb_adjacent_refuses_a_non_basis(tmp_path, capsys):
    out = tmp_path / "adj.json"
    rc = main(["fb-adjacent", "--a", "aa,b,c", "--b", "a,b,c", "--json", str(out)])
    assert (rc, error_type(capsys)) == (1, "NotABasisError")
    assert not out.exists()


# -- witness ------------------------------------------------------------------


def test_witness_h_lipschitz_refuses_a_non_basis(tmp_path, capsys):
    out = tmp_path / "w.json"
    rc = main(["witness", "--kind", "h-lipschitz", "--a", "aa,b,c", "--b", "a,b,c",
               "--json", str(out)])
    assert (rc, error_type(capsys)) == (1, "NotABasisError")
    assert not out.exists()


def test_witness_hq_refuses_a_non_basis_ambient(tmp_path, capsys):
    out = tmp_path / "w.json"
    rc = main(["witness", "--kind", "hq", "--ambient", "aa,b,c", "--subset", "2",
               "--json", str(out)])
    assert (rc, error_type(capsys)) == (1, "NotABasisError")
    assert not out.exists()


def test_witness_verify_refuses_non_basis_ambients(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["witness", "--kind", "hq", "--ambient", "a,b,c",
                 "--subset", "2", "--json", str(out)]) == 0
    data = load(out)
    for vertex in data["vertices"]:
        vertex["ambient"] = ["aa", "b", "c"]  # the nested steps still certify
    out.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["witness", "--verify", str(out)])
    assert (rc, error_type(capsys)) == (1, "NotABasisError")


def test_witness_verify_refuses_json_of_the_wrong_shape(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["witness", "--verify", str(listed)]) == 2
    assert error_type(capsys) == "ValueError"
    out = tmp_path / "w.json"
    assert main(["witness", "--kind", "hq", "--ambient", "a,b,c",
                 "--subset", "2", "--json", str(out)]) == 0
    data = load(out)
    data["vertices"][0]["subset"] = ["x"]
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["witness", "--verify", str(out)]) == 2
    assert error_type(capsys) == "ValueError"



@pytest.mark.parametrize("rank", [3, 4, 5, 6])
def test_witness_generate_then_verify_at_every_rank(tmp_path, rank):
    rest = "abcdef"[2:rank]
    out = tmp_path / "w.json"
    rc = main(["witness", "--rank", str(rank), "--kind", "h-lipschitz",
               "--a", ",".join(("b", "a") + tuple(rest)),
               "--b", ",".join(("ab", "a") + tuple(rest)), "--json", str(out)])
    assert rc == 0
    assert main(["witness", "--verify", str(out),
                 "--json", str(tmp_path / "v.json")]) == 0


def test_witness_at_rank_two_exits_one(tmp_path):
    rc = main(["witness", "--rank", "2", "--kind", "h-lipschitz",
               "--a", "b,a", "--b", "ab,a", "--json", str(tmp_path / "w.json")])
    assert rc == 1


def test_witness_generate_then_verify(tmp_path):
    out = tmp_path / "w.json"
    rc = main(["witness", "--kind", "h-lipschitz", "--a", "b,a,c",
               "--b", "ab,a,c", "--json", str(out)])
    assert rc == 0
    assert main(["witness", "--verify", str(out),
                 "--json", str(tmp_path / "v.json")]) == 0


def test_witness_verify_rejects_tampering(tmp_path):
    out = tmp_path / "w.json"
    assert main(["witness", "--kind", "hq", "--ambient", "a,b,c",
                 "--subset", "2,3", "--json", str(out)]) == 0
    data = load(out)
    data["vertices"][1]["subset"] = [1]
    out.write_text(json.dumps(data))
    rc = main(["witness", "--verify", str(out),
               "--json", str(tmp_path / "v.json")])
    assert rc == 1


def test_witness_generate_requires_kind_flags(tmp_path):
    rc = main(["witness", "--kind", "hq", "--ambient", "a,b,c",
               "--json", str(tmp_path / "w.json")])
    assert rc == 2


# -- tau ----------------------------------------------------------------------


def test_tau_picks_the_near_side_factor(tmp_path):
    e = MarkingEdge
    m = MarkingGraph(
        [0, 1],
        {
            0: e(0, 1, 0, 0, (1,)),
            1: e(1, 0, 0, 0, (-1,)),
            2: e(2, 3, 1, 1, (2,)),
            3: e(3, 2, 1, 1, (-2,)),
            4: e(4, 5, 0, 1, (1,)),
            5: e(5, 4, 1, 0, (-1,)),
        },
    )
    marking = tmp_path / "marking.json"
    marking.write_text(json.dumps(m.to_json_dict()))
    out = tmp_path / "tau.json"
    rc = main(["tau", "--marking", str(marking), "--edge", "4",
               "--json", str(out)])
    assert rc == 0
    report = load(out)
    assert report["subset"] == [1]
    assert report["ambient"] == ["a", "abA"]


def test_tau_refuses_a_marking_of_the_wrong_shape(tmp_path, capsys):
    marking = tmp_path / "marking.json"
    marking.write_text(json.dumps(
        {"vertices": [0], "edges": [{"id": 0, "inv": 1, "from": 0, "to": 0, "word": 5}]}
    ))
    rc = main(["tau", "--marking", str(marking), "--edge", "0",
               "--json", str(tmp_path / "tau.json")])
    assert (rc, error_type(capsys)) == (2, "ValueError")


# -- delta / cone-off ---------------------------------------------------------


def test_delta_slim_on_hexagon(tmp_path):
    infile = write_graph(tmp_path / "c6.json", hyperbolicity.cycle_graph(6))
    out = tmp_path / "delta.json"
    rc = main(["delta", "--in", infile, "--method", "slim",
               "--json", str(out), "--no-timings"])
    assert rc == 0
    report = load(out)
    assert report["delta"] == 1
    assert report["vertices"] == 6


def test_delta_four_point_matches_library(tmp_path):
    g = hyperbolicity.grid_graph(2, 3)
    infile = write_graph(tmp_path / "grid.json", g)
    out = tmp_path / "delta.json"
    rc = main(["delta", "--in", infile, "--json", str(out), "--no-timings"])
    assert rc == 0
    assert load(out)["delta"] == hyperbolicity.delta_four_point(g)


def test_delta_slim_over_memory_budget_exits_one(tmp_path):
    infile = write_graph(tmp_path / "p407.json", hyperbolicity.path_graph(407))
    rc = main(["delta", "--in", infile, "--method", "slim",
               "--json", str(tmp_path / "d.json"), "--no-timings"])
    assert rc == 1


def test_delta_missing_file_exits_two(tmp_path):
    rc = main(["delta", "--in", str(tmp_path / "nope.json"),
               "--json", str(tmp_path / "d.json")])
    assert rc == 2


def test_cone_off_full_subset_has_diameter_one(tmp_path):
    infile = write_graph(tmp_path / "p5.json", hyperbolicity.path_graph(5))
    subsets = tmp_path / "subsets.json"
    subsets.write_text(json.dumps([[0, 1, 2, 3, 4]]))
    out = tmp_path / "coned.json"
    rc = main(["cone-off", "--in", infile, "--subsets", str(subsets),
               "--json", str(out)])
    assert rc == 0
    coned = hyperbolicity.FiniteGraph.from_json_dict(load(out))
    assert hyperbolicity.apsp(coned).max() == 1


# -- thin-check ---------------------------------------------------------------


def test_thin_check_median_on_tree(tmp_path):
    g = hyperbolicity.random_tree(10, 3)
    fam = hyperbolicity.geodesic_family(g)
    infile = write_graph(tmp_path / "tree.json", g)
    paths = tmp_path / "paths.json"
    paths.write_text(json.dumps(
        [{"from": x, "to": y, "path": list(p)} for (x, y), p in fam.items()]
    ))
    out = tmp_path / "thin.json"
    rc = main(["thin-check", "--in", infile, "--paths", str(paths),
               "--phi", "median", "--b1", "1", "--json", str(out),
               "--no-timings"])
    assert rc == 0
    report = load(out)
    assert report["b2_hausdorff"] == 0
    assert report["b2_center"] == 0
    assert report["b2"] <= 2


@pytest.mark.parametrize("flag", ["--b1", "--sample-size", "--tuple-threshold"])
def test_thin_check_refuses_negative_arguments(tmp_path, capsys, flag):
    g = hyperbolicity.path_graph(4)
    infile = write_graph(tmp_path / "path.json", g)
    paths = tmp_path / "paths.json"
    paths.write_text(json.dumps([{"from": x, "to": y, "path": list(p)}
                                 for (x, y), p in hyperbolicity.geodesic_family(g).items()]))
    numbers = {"--b1": "1", "--sample-size": "5", "--tuple-threshold": "5", flag: "-1"}
    out = tmp_path / "thin.json"
    rc = main(["thin-check", "--in", infile, "--paths", str(paths), "--phi", "median",
               "--json", str(out)] + [x for pair in numbers.items() for x in pair])
    assert rc == 2
    assert "must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


# -- experiment ---------------------------------------------------------------


def test_experiment_report_is_byte_stable(tmp_path):
    argv = ["experiment", "fold-soundness", "--samples", "4", "--seed", "7",
            "--no-timings"]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(argv + ["--json", str(r1)]) == 0
    assert main(argv + ["--json", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_experiment_workers_match_serial(tmp_path):
    argv = ["experiment", "fold-soundness", "--samples", "4", "--seed", "7",
            "--no-timings"]
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    assert main(argv + ["--json", str(serial)]) == 0
    assert main(argv + ["--json", str(parallel), "--workers", "3"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_experiment_only_runs_a_single_sample(tmp_path):
    out = tmp_path / "only.json"
    rc = main(["experiment", "fold-soundness", "--seed", "9", "--only", "3",
               "--json", str(out), "--no-timings"])
    assert rc == 0
    report = load(out)
    assert report["config"]["samples"] == 1
    assert [s["index"] for s in report["samples"]] == [3]


def test_experiment_fb_witnesses_at_rank_four(tmp_path):
    out = tmp_path / "w4.json"
    rc = main(["experiment", "fb-witnesses", "--rank", "4", "--samples", "4",
               "--seed", "3", "--json", str(out), "--no-timings"])
    assert rc == 0
    assert all(s["ok"] for s in load(out)["samples"])


def _non_edge(g):
    return next((u, v) for u in g.vertex_list for v in g.vertex_list
                if u < v and (u, v) not in g.edges)


@pytest.mark.parametrize("fault", ["non-edge", "merged copy"])
def test_experiment_fb_ball_fails_on_a_corrupted_ball(tmp_path, monkeypatch, fault):
    argv = ["experiment", "fb-ball", "--samples", "2", "--seed", "3", "--no-timings"]
    assert main(argv + ["--json", str(tmp_path / "good.json")]) == 0
    sample = hyperbolicity.sample_fb_ball

    def corrupted(center, seeds, moves):
        g, labels = sample(center, seeds, moves)
        if fault == "non-edge":
            g = hyperbolicity.FiniteGraph(g.vertices, set(g.edges) | {_non_edge(g)})
        else:  # a second vertex labelled with an equivalent basis
            labels[1] = dict(labels[1], basis=",".join(reversed(labels[0]["basis"].split(","))))
        return g, labels

    monkeypatch.setattr(hyperbolicity, "sample_fb_ball", corrupted)
    out = tmp_path / "bad.json"
    assert main(argv + ["--json", str(out)]) == 1
    report = load(out)
    assert report["summary"] == {"pass": 0, "fail": 2}
    assert all(s["reproduce"].startswith("freebases experiment fb-ball --rank 3 --seed 3 --only")
               for s in report["samples"])


def test_experiment_negative_samples_exits_two(tmp_path):
    rc = main(["experiment", "fold-soundness", "--samples", "-1",
               "--json", str(tmp_path / "r.json")])
    assert rc == 2


def test_unknown_subcommand_raises_usage_error():
    with pytest.raises(SystemExit):
        main(["no-such-command"])
