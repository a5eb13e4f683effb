"""End-to-end command line checks: exit codes, report artifacts, and
byte-stable experiment output."""

import json
import re
import shlex
from pathlib import Path

import pytest

from freebases import cli, complexes, experiments, hyperbolicity
from freebases.cli import main
from freebases.errors import DomainError

DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize("argv", [
    ["path-bases", "--b", "a,b"],
    ["fb-adjacent", "--a", "a,b", "--b", "b,a"],
    ["witness", "--kind", "hq", "--ambient", "a,b", "--subset", "1"],
    ["experiment", "fold-soundness", "--samples", "1"],
], ids=["path-bases", "fb-adjacent", "witness", "experiment"])
def test_every_command_that_reads_a_rank_refuses_rank_one(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    rc = main(argv + ["--rank", "1", "--json", str(out)])
    error = json.loads(capsys.readouterr().err)["error"]
    assert (rc, error["type"], error["message"]) == (2, "ValueError", "rank must be at least 2")
    assert not out.exists()


def test_a_command_takes_rank_or_seed_only_if_it_reads_it(capsys):
    takes = {"--rank": {"fold", "path-bases", "fb-adjacent", "witness", "experiment"},
             "--seed": {"thin-check", "experiment"}}
    for command in ["fold", "path-bases", "fb-adjacent", "witness", "tau", "delta", "cone-off",
                    "thin-check", "experiment"]:
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        text = capsys.readouterr().out
        assert done.value.code == 0
        assert all(flag in text for flag in ("--out", "--json", "--no-timings")), command
        for flag, commands in takes.items():
            assert (flag in text) == (command in commands), (command, flag)


@pytest.mark.parametrize("argv", [
    ["tau", "--marking", str(DATA / "marking.json"), "--edge", "4", "--rank", "5"],
    ["fold", "--basis", "ab,b,c", "--seed", "3"],
    ["delta", "--in", str(DATA / "c6.json"), "--rank", "1"],
], ids=["tau rank", "fold seed", "delta rank"])
def test_a_flag_the_command_does_not_read_exits_two(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as refused:
        main(argv + ["--json", str(out)])
    assert refused.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["path-bases", "--b", "ab,b"],
    ["fb-adjacent", "--a", "ab,b,c", "--b", "a,b,c", "--rank", "4"],
    ["witness", "--kind", "h-lipschitz", "--a", "ab,b,c", "--b", "a,b,c", "--rank", "4"],
    ["witness", "--kind", "h-lipschitz", "--a", "a,b,c,d", "--b", "ab,b,c", "--rank", "4"],
    ["witness", "--kind", "hq", "--ambient", "ab,b,c", "--subset", "1", "--rank", "4"],
], ids=["path-bases", "fb-adjacent", "witness-a", "witness-b", "witness-ambient"])
def test_word_count_other_than_the_rank_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    rc = main(argv + ["--json", str(out)])
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



def _verify_refusal(tmp_path, capsys, data):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(data))
    rc = main(["witness", "--verify", str(path), "--json", str(tmp_path / "v.json")])
    error = json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "v.json").exists()
    return rc, error["type"], error["message"]


def test_witness_verify_refuses_subset_positions_that_are_not_ints(tmp_path, capsys):
    fractional = load(DATA / "witness-fractional.json")
    assert [v["subset"] for v in fractional["vertices"]] == [[1.5, 2], [1.5]]
    assert _verify_refusal(tmp_path, capsys, fractional) == (
        2, "ValueError", "subset positions must be ints from 1 to 3")
    for vertex in fractional["vertices"]:
        vertex["subset"] = [True if k == 1.5 else k for k in vertex["subset"]]
    assert _verify_refusal(tmp_path, capsys, fractional) == (
        2, "ValueError", "subset positions must be ints from 1 to 3")


def test_witness_verify_refuses_a_sign_other_than_one_or_minus_one(tmp_path, capsys):
    cyclic = {"ambient": ["a", "b", "c"], "subset": [1]}
    step = {"kind": "conjugate-cyclic", "cost": 0, "conjugator": "1", "sign": 7}
    data = {"kind": "h-lipschitz", "length": 0, "vertices": [cyclic, cyclic], "steps": [step]}
    assert _verify_refusal(tmp_path, capsys, data) == (
        2, "ValueError", "step sign 7 is not 1 or -1")
    step["sign"] = True
    assert _verify_refusal(tmp_path, capsys, data)[:2] == (2, "ValueError")
    step["sign"] = -1  # a read backwards is A, not a conjugate of a: no certificate
    (tmp_path / "w.json").write_text(json.dumps(data))
    assert main(["witness", "--verify", str(tmp_path / "w.json")]) == 1


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


def test_witness_verify_refuses_stated_fields_that_do_not_re_derive(tmp_path, capsys):
    # tests/data/witness-length.json, which CI also runs: a valid hq path stating length 99
    data = load(DATA / "witness-length.json")
    assert _verify_refusal(tmp_path, capsys, data) == (
        1, "DomainError", "witness invalid: its 'length' does not re-derive")
    data["length"] = 3
    for step in ({"cost": 7}, {"cost": True}, {"conjugator": "1"}):  # a nested step has none
        stated = dict(data, steps=[{**data["steps"][0], **step}] + data["steps"][1:])
        assert _verify_refusal(tmp_path, capsys, stated) == (
            1, "DomainError", "witness invalid: its 'steps' does not re-derive")
    (tmp_path / "w.json").write_text(json.dumps(data))
    assert main(["witness", "--verify", str(tmp_path / "w.json")]) == 0


def test_witness_verify_refuses_an_unknown_witness_or_step_kind_as_malformed(tmp_path, capsys):
    data = dict(load(DATA / "witness-length.json"), length=3)
    assert _verify_refusal(tmp_path, capsys, dict(data, kind="bogus")) == (
        2, "ValueError", "unknown witness kind 'bogus'")
    data["steps"][1]["kind"] = "bogus"
    assert _verify_refusal(tmp_path, capsys, data) == (
        2, "ValueError", "unknown step kind 'bogus'")


def test_witness_verify_refuses_a_step_count_or_length_its_kind_does_not_allow(tmp_path, capsys):
    data = dict(load(DATA / "witness-length.json"), length=2)
    data["steps"].pop()
    assert _verify_refusal(tmp_path, capsys, data) == (
        1, "DomainError", "witness invalid: step count does not match vertex count")
    # {2, 3} -> {2} -> {1, 2} -> {2} -> {1, 2} -> {1}: each step certifies, five in all
    data = dict(load(DATA / "witness-length.json"), length=5)
    ambient = data["vertices"][0]["ambient"]
    data["vertices"][3:3] = [{"ambient": ambient, "subset": [2]},
                             {"ambient": ambient, "subset": [1, 2]}]
    data["steps"] = data["steps"][:1] * 5
    assert _verify_refusal(tmp_path, capsys, data) == (
        1, "DomainError", "witness invalid: length 5 exceeds the hq bound 3")


@pytest.mark.parametrize("kind, ends", [("hq", ([2, 3], [2])), ("density", ([2, 3], [2])),
                                        ("h-lipschitz", ([2, 3], [1]))])
def test_witness_verify_refuses_a_path_between_the_wrong_ends(tmp_path, capsys, kind, ends):
    # every step of {2, 3} -> {2} -> {1, 2} -> {x} certifies, but an hq or density
    # path ends at {1}, and an h-lipschitz path starts there too
    data = dict(load(DATA / "witness-length.json"), kind=kind, length=3)
    data["vertices"][0]["subset"], data["vertices"][-1]["subset"] = ends
    assert _verify_refusal(tmp_path, capsys, data) == (
        1, "DomainError", "witness invalid: the path's ends are not those of a %r witness" % kind)


def _one_change_mutants(data):
    """(path, change, document) for every document one change away from data:
    a dropped key, an int turned into a float, a bool or a string, a list
    turned into a string, or a length, cost, subset position or sign moved by
    one."""
    def sites(node, path, key):
        if isinstance(node, dict):
            for k, v in node.items():
                yield path + (k,), "drop", None
                yield from sites(v, path + (k,), k)
        elif isinstance(node, list):
            yield path, "string", "".join(map(str, node))
            for i, v in enumerate(node):
                yield from sites(v, path + (i,), key)
        elif type(node) is int:
            yield from ((path, "retype", new) for new in (float(node), bool(node), str(node)))
            if key in ("length", "cost", "subset", "sign"):
                yield from ((path, "nudge", node + d) for d in (1, -1))

    for path, change, new in sites(data, (), None):
        mutant = json.loads(json.dumps(data))
        parent = mutant
        for k in path[:-1]:
            parent = parent[k]
        if change == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
        yield path, change, mutant


@pytest.mark.parametrize("argv", [
    ["--kind", "hq", "--ambient", "a,b,c", "--subset", "2,3"],
    ["--kind", "h-lipschitz", "--a", "a,b,c", "--b", "BCb,a,b"],  # sign -1, conjugator b
], ids=["hq", "h-lipschitz"])
def test_witness_verify_refuses_every_one_change_mutant(tmp_path, capsys, argv):
    out = tmp_path / "w.json"
    assert main(["witness", *argv, "--json", str(out)]) == 0
    capsys.readouterr()
    changes = set()
    for path, change, mutant in _one_change_mutants(load(out)):
        (tmp_path / "m.json").write_text(json.dumps(mutant))
        rc = main(["witness", "--verify", str(tmp_path / "m.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert rc in (1, 2) and error["message"], (path, change, mutant)
        changes.add(change)
    assert changes == {"drop", "retype", "string", "nudge"}


def test_witness_generate_requires_kind_flags(tmp_path):
    rc = main(["witness", "--kind", "hq", "--ambient", "a,b,c",
               "--json", str(tmp_path / "w.json")])
    assert rc == 2


@pytest.mark.parametrize("argv, message", [
    ([], "either --kind or --verify is required"),
    (["--kind", "h-lipschitz", "--a", "a,b,c"], "--kind h-lipschitz needs --a and --b"),
], ids=["no-kind", "one-basis"])
def test_witness_without_the_flags_of_its_kind_exits_two(tmp_path, capsys, argv, message):
    rc = main(["witness", *argv, "--json", str(tmp_path / "w.json")])
    error = json.loads(capsys.readouterr().err)["error"]
    assert (rc, error["type"], error["message"]) == (2, "ValueError", message)


def test_witness_writes_its_kind_and_says_what_it_wrote_and_verified(tmp_path, capsys):
    out = tmp_path / "w.json"
    for kind in ("hq", "density"):  # one construction, two kinds
        assert main(["witness", "--kind", kind, "--ambient", "a,b,c", "--subset", "2",
                     "--json", str(out)]) == 0
        assert load(out)["kind"] == kind
        assert capsys.readouterr().out == "witness %s: length 2 (wrote %s)\n" % (kind, out)
        assert main(["witness", "--verify", str(out)]) == 0
        assert capsys.readouterr().out == "witness %s: valid, length 2 <= 3\n" % out


# -- tau ----------------------------------------------------------------------


def test_tau_picks_the_near_side_factor(tmp_path):
    # loops a at 0 and b at 1, joined by edge 4 spelling a
    out = tmp_path / "tau.json"
    rc = main(["tau", "--marking", str(DATA / "marking.json"), "--edge", "4",
               "--json", str(out)])
    assert rc == 0
    report = load(out)
    assert report["subset"] == [1]
    assert report["ambient"] == ["a", "abA"]


def test_tau_refuses_an_edge_off_the_vertices(tmp_path, capsys):
    marking = tmp_path / "marking.json"
    data = load(DATA / "marking.json")
    data["edges"][4]["from"] = data["edges"][5]["to"] = 5
    marking.write_text(json.dumps(data))
    rc = main(["tau", "--marking", str(marking), "--edge", "0",
               "--json", str(tmp_path / "tau.json")])
    error = json.loads(capsys.readouterr().err)["error"]
    assert (rc, error["type"]) == (2, "ValueError")
    assert "edge 4: endpoint not a vertex" in error["message"]
    assert not (tmp_path / "tau.json").exists()


def test_tau_refuses_a_repeated_edge_id(tmp_path, capsys):
    # the first copy of edge 0 would otherwise be dropped without a word
    marking = tmp_path / "marking.json"
    data = load(DATA / "marking.json")
    data["edges"].append(dict(data["edges"][0]))
    data["edges"][0]["word"] = "b"
    marking.write_text(json.dumps(data))
    rc = main(["tau", "--marking", str(marking), "--edge", "4",
               "--json", str(tmp_path / "tau.json")])
    error = json.loads(capsys.readouterr().err)["error"]
    assert (rc, error["type"], error["message"]) == (2, "ValueError", "repeated edge id 0")
    assert not (tmp_path / "tau.json").exists()


def test_tau_refuses_a_marking_of_the_wrong_shape(tmp_path, capsys):
    marking = tmp_path / "marking.json"
    marking.write_text(json.dumps(
        {"vertices": [0], "edges": [{"id": 0, "inv": 1, "from": 0, "to": 0, "word": 5}]}
    ))
    rc = main(["tau", "--marking", str(marking), "--edge", "0",
               "--json", str(tmp_path / "tau.json")])
    assert (rc, error_type(capsys)) == (2, "ValueError")


def _edited_marking(edit):
    data = load(DATA / "marking.json")
    edit(data)
    return data


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(vertices=[0, 1, 0]), "repeated vertex name 0"),
    (lambda d: d.update(vertices=[0, True]), "vertex name True is not an int"),
    (lambda d: (d["edges"][0].update(id=0.0), d["edges"][1].update(inv=0.0)),
     "edge id 0.0 is not an int"),
    (lambda d: d["edges"][0].update(id="x"), "edge id 'x' is not an int"),
    (lambda d: d["edges"][2].update({"from": True}), "edge from True is not an int"),
], ids=["repeated-vertex", "true-vertex", "float-ids", "string-id", "true-end"])
def test_tau_refuses_marking_names_and_ids_that_are_not_distinct_ints(
        tmp_path, capsys, edit, message):
    marking = tmp_path / "marking.json"
    marking.write_text(json.dumps(_edited_marking(edit)))
    rc = main(["tau", "--marking", str(marking), "--edge", "4",
               "--json", str(tmp_path / "tau.json")])
    error = json.loads(capsys.readouterr().err)["error"]
    assert (rc, error["type"], error["message"]) == (2, "ValueError", message)
    assert not (tmp_path / "tau.json").exists()


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


def test_delta_slim_on_the_bundled_path_of_diameter_199(tmp_path):
    # tests/data/p200.json, which CI also runs through the installed script:
    # past diameter 127 the slim delta's array takes two bytes an entry
    out = tmp_path / "delta.json"
    rc = main(["delta", "--in", str(DATA / "p200.json"), "--method", "slim",
               "--json", str(out), "--no-timings"])
    assert rc == 0
    assert (load(out)["delta"], load(out)["vertices"]) == (0, 200)


def test_delta_four_point_matches_library(tmp_path):
    g = hyperbolicity.grid_graph(2, 3)
    infile = write_graph(tmp_path / "grid.json", g)
    out = tmp_path / "delta.json"
    rc = main(["delta", "--in", infile, "--json", str(out), "--no-timings"])
    assert rc == 0
    assert load(out)["delta"] == hyperbolicity.delta_four_point(g)


def test_delta_slim_over_memory_budget_exits_one(tmp_path, monkeypatch):
    # 646^3 bytes is over the budget, so no distance is computed
    monkeypatch.setattr(hyperbolicity, "apsp", None)
    infile = write_graph(tmp_path / "p646.json", hyperbolicity.path_graph(646))
    rc = main(["delta", "--in", infile, "--method", "slim",
               "--json", str(tmp_path / "d.json"), "--no-timings"])
    assert rc == 1


def test_delta_missing_file_exits_two(tmp_path):
    rc = main(["delta", "--in", str(tmp_path / "nope.json"),
               "--json", str(tmp_path / "d.json")])
    assert rc == 2


@pytest.mark.parametrize("graph, message", [
    ('{"vertices": [0, 0, 1], "edges": [[0, 1]]}', "repeated vertex name 0"),
    ('{"vertices": [0, 1, true], "edges": [[0, 1], [1, true]]}',
     "vertex name True is not an int or a string"),
    ('{"vertices": [0, 1], "edges": [[0, 1.0]]}', "vertex name 1.0 is not an int or a string"),
    ('{"vertices": [0, [1]], "edges": []}', "vertex name [1] is not an int or a string"),
    ('{"vertices": [0, 1, 2], "edges": [[0], [1, 2]]}', "edge [0] is not a pair of vertex names"),
    ((DATA / "edge-triple.json").read_text(), "edge [0, 1, 2] is not a pair of vertex names"),
    ('{"vertices": [0, 1, "a"], "edges": [[0, 1], [1, "a"]]}',
     "vertex names 'a' and 1 cannot be put in order"),
], ids=["repeated", "true", "float", "list", "one-name edge", "three-name edge", "mixed names"])
@pytest.mark.parametrize("command", [["delta"],
                                     ["cone-off", "--subsets", str(DATA / "c6-subsets.json")]],
                         ids=["delta", "cone-off"])
def test_graph_json_with_bad_vertex_names_exits_two(tmp_path, capsys, graph, message, command):
    # a repeated name would merge two vertices, and JSON true would equal 1
    (tmp_path / "g.json").write_text(graph)
    out = tmp_path / "out.json"
    rc = main([command[0], "--in", str(tmp_path / "g.json"), *command[1:], "--json", str(out)])
    error = json.loads(capsys.readouterr().err)["error"]
    assert (rc, error["type"], error["message"]) == (2, "ValueError", message)
    assert not out.exists()


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


@pytest.mark.parametrize("subsets", ["5", "[5]", "[[[0]]]", '[[0, "a"]]', "[[0, true]]"])
def test_cone_off_subsets_of_the_wrong_shape_exit_two(tmp_path, capsys, subsets):
    infile = write_graph(tmp_path / "p5.json", hyperbolicity.path_graph(5))
    (tmp_path / "subsets.json").write_text(subsets)
    out = tmp_path / "coned.json"
    rc = main(["cone-off", "--in", infile, "--subsets", str(tmp_path / "subsets.json"),
               "--json", str(out)])
    assert (rc, error_type(capsys)) == (2, "ValueError")
    assert not out.exists()


def test_cone_off_names_the_first_subset_name_off_the_graph(tmp_path, capsys):
    # the subsets are read as given, not sorted, so names of two types reach the name check
    (tmp_path / "subsets.json").write_text('[[0, 1], [0, "a", 9]]')
    out = tmp_path / "coned.json"
    rc = main(["cone-off", "--in", str(DATA / "c6.json"), "--subsets",
               str(tmp_path / "subsets.json"), "--json", str(out)])
    error = json.loads(capsys.readouterr().err)["error"]
    assert (rc, error["message"]) == (2, "subset vertex 'a' not in graph")
    assert not out.exists()


@pytest.mark.parametrize("command", ["cone-off", "delta", "thin-check"])
def test_a_string_where_a_list_belongs_exits_two(tmp_path, capsys, command):
    # read one character at a time, "02" would name the vertices "0" and "2"
    g = hyperbolicity.FiniteGraph(list("012345"), [(str(k), str((k + 1) % 6)) for k in range(6)])
    infile = write_graph(tmp_path / "c6.json", g)
    paths = [{"from": x, "to": y, "path": "".join(p)}
             for (x, y), p in hyperbolicity.geodesic_family(g).items()]
    given, argv = {
        "cone-off": (["02"], ["--in", infile, "--subsets"]),
        "delta": ({"vertices": "0123", "edges": [["0", "1"], ["1", "2"], ["2", "3"]]}, ["--in"]),
        "thin-check": (paths, ["--in", infile, "--phi", "median", "--b1", "1", "--paths"]),
    }[command]
    (tmp_path / "given.json").write_text(json.dumps(given))
    out = tmp_path / "out.json"
    rc = main([command, *argv, str(tmp_path / "given.json"), "--json", str(out)])
    error = json.loads(capsys.readouterr().err)["error"]
    assert (rc, error["type"]) == (2, "ValueError")
    assert error["message"].endswith("is not a list")
    assert not out.exists()


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


def test_thin_check_reports_its_time_and_says_what_it_found(tmp_path, capsys):
    out = tmp_path / "thin.json"
    rc = main(["thin-check", "--in", str(DATA / "c6.json"), "--paths", str(DATA / "c6-paths.json"),
               "--phi", "median", "--b1", "1", "--json", str(out)])
    report = load(out)
    assert rc == 0 and report["timings"]["wall_seconds"] >= 0
    assert capsys.readouterr().out == (
        "thin-check: B2 = %d (hausdorff %d, subsegment %d, center %d; %s) (wrote %s)\n" % (
            report["b2"], report["b2_hausdorff"], report["b2_subsegment"], report["b2_center"],
            report["mode"], out))


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


@pytest.mark.parametrize("where", ["paths", "phi"])
def test_thin_check_refuses_true_as_a_vertex_name(tmp_path, capsys, where):
    # JSON true would equal vertex 1, as in graph JSON
    entries = json.loads((DATA / "c6-paths.json").read_text())
    phi = [{"triple": [0, 1, 2], "center": 1}]
    if where == "paths":
        entries = [{**e, "path": [True if v == 1 else v for v in e["path"]]} for e in entries]
    else:
        phi[0]["center"] = True
    (tmp_path / "paths.json").write_text(json.dumps(entries))
    (tmp_path / "phi.json").write_text(json.dumps(phi))
    out = tmp_path / "thin.json"
    rc = main(["thin-check", "--in", str(DATA / "c6.json"), "--paths", str(tmp_path / "paths.json"),
               "--phi", str(tmp_path / "phi.json"), "--b1", "1", "--json", str(out)])
    error = json.loads(capsys.readouterr().err)["error"]
    assert (rc, error["type"], error["message"]) == (
        2, "ValueError", "vertex name True is not an int or a string")
    assert not out.exists()


def test_thin_check_refuses_an_empty_path(tmp_path, capsys):
    entries = json.loads((DATA / "c6-paths.json").read_text())
    entries = [{**e, "path": []} if (e["from"], e["to"]) == (0, 1) else e for e in entries]
    (tmp_path / "paths.json").write_text(json.dumps(entries))
    out = tmp_path / "thin.json"
    rc = main(["thin-check", "--in", str(DATA / "c6.json"), "--paths", str(tmp_path / "paths.json"),
               "--phi", "median", "--b1", "1", "--json", str(out)])
    error = json.loads(capsys.readouterr().err)["error"]
    assert (rc, error["type"], error["message"]) == (2, "ValueError", "path for (0, 1) is empty")
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


@pytest.mark.parametrize("count", [["--samples", "0"], ["--samples", "3"], ["--only", "2"]])
def test_experiment_below_its_minimum_rank_exits_one_before_any_sample(
        tmp_path, monkeypatch, capsys, count):
    # fb-witnesses needs rank 3; at rank 2 it used to write an empty passing
    # report for no samples, and to die inside its first sample otherwise
    calls = []
    monkeypatch.setitem(cli.EXPERIMENTS, "fb-witnesses",
                        lambda *args: calls.append(args) or {"ok": True})
    out = tmp_path / "w2.json"
    rc = main(["experiment", "fb-witnesses", "--rank", "2", *count, "--json", str(out)])
    assert (rc, calls, out.exists()) == (1, [], False)
    assert json.loads(capsys.readouterr().err) == {
        "error": {"type": "DomainError", "message": "witness paths need rank >= 3"}}
    assert main(["experiment", "fb-witnesses", "--rank", "3", *count, "--json", str(out)]) == 0
    assert len(calls) == len(load(out)["samples"])


def _non_edge(g):
    return next((u, v) for u in g.vertex_list for v in g.vertex_list
                if u < v and (u, v) not in g.edges)


@pytest.mark.parametrize("fault", ["non-edge", "merged copy"])
def test_experiment_fb_ball_fails_on_a_corrupted_ball(tmp_path, monkeypatch, fault):
    argv = ["experiment", "fb-ball", "--samples", "2", "--seed", "3", "--no-timings"]
    assert main(argv + ["--json", str(tmp_path / "good.json")]) == 0
    sample = complexes.sample_fb_ball

    def corrupted(center, seeds, moves):
        g, labels = sample(center, seeds, moves)
        if fault == "non-edge":
            g = hyperbolicity.FiniteGraph(g.vertices, set(g.edges) | {_non_edge(g)})
        else:  # a second vertex labelled with an equivalent basis
            labels[1] = dict(labels[1], basis=",".join(reversed(labels[0]["basis"].split(","))))
        return g, labels

    monkeypatch.setattr(complexes, "sample_fb_ball", corrupted)
    out = tmp_path / "bad.json"
    assert main(argv + ["--json", str(out)]) == 1
    report = load(out)
    assert report["summary"] == {"pass": 0, "fail": 2}
    assert all(s["reproduce"].startswith(
        "freebases experiment fb-ball --rank 3 --seed 3 --moves 8 --only")
        for s in report["samples"])


@pytest.mark.parametrize("flag", ["--samples", "--moves", "--only", "--workers"])
def test_experiment_negative_samples_exits_two(tmp_path, flag):
    for value in ["-1", "0"] if flag == "--workers" else ["-1"]:
        rc = main(["experiment", "fold-soundness", flag, value,
                   "--json", str(tmp_path / "r.json")])
        assert rc == 2
        assert not (tmp_path / "r.json").exists()


def _delta_trees_raising_at_index_one(rank, seed, moves):
    # module level, so that --workers can send it to a worker process
    if seed == experiments._sample_seed(5, 1):
        raise DomainError("planted failure")
    return experiments._exp_delta_trees(rank, seed, moves)


def test_a_sample_that_raises_fails_alone_and_workers_match_serial(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(experiments.EXPERIMENTS, "delta-trees", _delta_trees_raising_at_index_one)
    argv = ["experiment", "delta-trees", "--samples", "4", "--seed", "5", "--no-timings"]
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    assert main(argv + ["--json", str(serial)]) == 1
    assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
        "error": {"type": "DomainError", "message": "1 of 4 samples failed"}}
    assert main(argv + ["--json", str(parallel), "--workers", "3"]) == 1
    assert serial.read_bytes() == parallel.read_bytes()
    report = load(serial)
    assert report["summary"] == {"pass": 3, "fail": 1}
    assert [s["index"] for s in report["samples"]] == [0, 1, 2, 3]
    where = report["samples"][1]["error"].pop("where")
    assert re.fullmatch(r"test_cli\.py:\d+ in _delta_trees_raising_at_index_one", where)
    assert report["samples"][1] == {
        "ok": False, "index": 1,
        "error": {"type": "DomainError", "message": "planted failure"},
        "reproduce": "freebases experiment delta-trees --rank 3 --seed 5 --moves 8 --only 1"}
    assert all(s["ok"] and "error" not in s for k, s in enumerate(report["samples"]) if k != 1)


def _fold_soundness_raising_at_five_moves(rank, seed, moves):
    if moves == 5:
        raise DomainError("planted failure at %d moves" % moves)
    return experiments._exp_fold_soundness(rank, seed, moves)


def test_a_failing_sample_reproduces_at_its_moves(tmp_path, monkeypatch):
    # at the default 8 moves this sample passes, so a reproduce line
    # without --moves would rerun a different sample
    monkeypatch.setitem(experiments.EXPERIMENTS, "fold-soundness",
                        _fold_soundness_raising_at_five_moves)
    out, again = tmp_path / "run.json", tmp_path / "again.json"
    assert main(["experiment", "fold-soundness", "--seed", "7", "--samples", "2",
                 "--moves", "5", "--no-timings", "--json", str(out)]) == 1
    failing = load(out)["samples"][1]
    assert failing["reproduce"] == "freebases experiment fold-soundness --rank 3 --seed 7 " \
                                   "--moves 5 --only 1"
    argv = shlex.split(failing["reproduce"])[1:]
    assert main(argv + ["--no-timings", "--json", str(again)]) == 1
    assert load(again)["samples"] == [failing]


def test_unknown_subcommand_raises_usage_error():
    with pytest.raises(SystemExit):
        main(["no-such-command"])
