import hashlib

import numpy as np
import pytest

from hatd4 import census as CE
from hatd4.cli import main
from hatd4.graphs import doubled_cycle, read_graph, write_graph
from hatd4.perms import PermGroup, write_group_file
from hatd4.symmetry import aut_group


@pytest.fixture()
def holt_path():
    return str(CE.packaged_holt_path())


def test_classify_holt(capsys, holt_path):
    assert main(["classify", holt_path]) == 0
    out = capsys.readouterr().out
    assert "order 27" in out
    assert "classification HalfArcTransitive" in out


def test_autgroup_holt(capsys, holt_path):
    assert main(["autgroup", holt_path]) == 0
    out = capsys.readouterr().out
    assert "aut_order 54" in out
    assert "vertex_stabiliser_order 2" in out


# sha256 of `hatd4 autgroup --gens` output: the generators and their order
# are part of the output, so a change in the dart lift or the local
# generators shows here
@pytest.mark.parametrize("name, digest", [
    ("holt", "815208915cbebf7c967e772168645be66c0f4cc41c521460fb967375f1dc2814"),
    ("doubled_cycle_5", "ea9e1c5fb8ba31e5763156a5eacd7390e76b2c9b4d7c192c9664d4354f1cd353"),
])
def test_autgroup_gens_pinned(tmp_path, capsys, holt_path, name, digest):
    path = holt_path
    if name != "holt":
        path = tmp_path / "dc5.graph"
        write_graph(doubled_cycle(5), path)
    assert main(["autgroup", "--gens", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_quotient_cli(tmp_path, capsys):
    g = doubled_cycle(6)
    gpath = tmp_path / "dc6.graph"
    write_graph(g, gpath)
    act = aut_group(g)
    rot = next(p for p in act.group.gens
               if p[0] != 0 and len({int(p[v]) for v in range(6)}) == 6)
    # build a semiregular rotation subgroup file on vertices+darts
    sub = PermGroup(g.n + g.m, [rot])
    spath = tmp_path / "rot.grp"
    write_group_file(sub, spath, name="rotation")
    out_graph = tmp_path / "quot.graph"
    assert main(["quotient", str(gpath), str(spath), "--out", str(out_graph)]) == 0
    out = capsys.readouterr().out
    assert "covering" in out
    assert read_graph(out_graph).n < 6


def test_episearch_cli(capsys):
    cat = CE.packaged_catalog_dir()
    assert main(["episearch", str(cat / "pgl_2_7.grp")]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert all(line.startswith("epi group=pgl_2_7") for line in out)
    assert "coset_order=42" in out[0]


@pytest.fixture(scope="module")
def pair42_files(tmp_path_factory):
    """The order-42 pair saved as a graph file and a group file."""
    from hatd4.universal import coset_graph, epimorphism_search
    from hatd4.perms import read_group_file

    grp = read_group_file(CE.packaged_catalog_dir() / "pgl_2_7.grp")
    w = epimorphism_search(grp)[0]
    graph, action = coset_graph(grp, w.stabiliser_group(), w.g)
    tmp = tmp_path_factory.mktemp("pair42")
    write_graph(graph, tmp / "pair42.graph")
    write_group_file(action.group, tmp / "pair42.grp", name="pair42")
    return str(tmp / "pair42.graph"), str(tmp / "pair42.grp")


def test_covers_cli(pair42_files, capsys):
    assert main(["covers", *pair42_files, "--max-order", "168"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[-1] == "covers 2"  # degree 2 and degree 3 (orders 84 and 126)
    assert all(l.startswith("cover p=") for l in out[:-1])
    assert "kernel_hash=" in out[0]


@pytest.mark.parametrize("option", [["--prime", "4"], ["--prime", "9"],
                                    ["--prime", "0"], ["--prime", "-3"],
                                    ["--dim", "0"], ["--dim", "-1"]],
                         ids=lambda o: "".join(o))
def test_covers_rejects_bad_prime_or_dim(pair42_files, capsys, option):
    assert main(["covers", *pair42_files, "--max-order", "1500", *option]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert "covers" not in captured.out


def test_covers_rejects_bad_max_order(pair42_files, capsys):
    for bound, limit in (("0", "at least 1"), ("-5", "at least 1"),
                         ("429496730", "at most 429496729"),
                         ("1000000000000", "at most 429496729")):
        assert main(["covers", *pair42_files, "--max-order", bound]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: max order must be %s, got %s\n" % (limit, bound)
        assert "covers" not in captured.out


@pytest.mark.parametrize("option, message", [
    (["--max-order", "0"], "max order must be at least 1, got 0"),
    (["--max-order", "-5"], "max order must be at least 1, got -5"),
    (["--max-order", "42", "--levels", "-2"], "levels must be at least 0, got -2"),
    (["--max-order", "429496730"], "max order must be at most 429496729, got 429496730"),
    (["--max-order", "1000000000000"],
     "max order must be at most 429496729, got 1000000000000")],
    ids=["max-order-0", "max-order-negative", "levels-negative", "max-order-above-int32",
         "max-order-huge"])
def test_census_rejects_bad_budget(tmp_path, capsys, option, message):
    assert main(["census", *option, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "out").exists()


def test_census_cli_and_verify(tmp_path, capsys):
    assert main(["census", "--max-order", "42", "--levels", "0",
                 "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "graphs 1" in out
    csv = (tmp_path / "out" / "census.csv").read_text()
    assert csv == "ID,|V|,|A_v|,AT\n1,42,16,true\n"
    assert (tmp_path / "out" / "graphs" / "graph_001.graph").exists()

    assert main(["verify", "--budget", "small"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "SKIP" in out


def _check_input_error(path, capsys, command, where):
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "%s%s" % (path, where) in err


def test_input_error_exit_code(tmp_path, capsys):
    _check_input_error(tmp_path / "nope.graph", capsys, "classify", "")


@pytest.mark.parametrize("command, text, where", [
    ("classify", "graph x 3\n", ":1:"),
    ("episearch", "group bad\ndegree 3\ngen 0 1 x 3\n", ":3:"),
], ids=["graph-header", "group-gen"])
def test_malformed_input_exit_code(tmp_path, capsys, command, text, where):
    path = tmp_path / "input.txt"
    path.write_text(text)
    _check_input_error(path, capsys, command, where)


@pytest.mark.parametrize("command, text, where", [
    ("classify", "graph 1 99999999999999999999\n", ":1:"),
    ("classify", "graph 0 0\n", ":1:"),
    ("classify", "simple 99999999999999999999\n", ":1:"),
    ("episearch", "group bad\ndegree 2\ngen 0 99999999999\n", ":3:"),
    ("episearch", "group bad\ndegree -1\n", ":2:"),
], ids=["graph-header-count", "graph-header-zero", "simple-header-count",
        "group-gen-image", "group-degree"])
def test_out_of_range_input_exit_code(tmp_path, capsys, command, text, where):
    path = tmp_path / "input.txt"
    path.write_text(text)
    _check_input_error(path, capsys, command, where)


def test_non_utf8_graph_exit_code(tmp_path, capsys):
    path = tmp_path / "input.graph"
    path.write_bytes(b"graph 1 0\n\xff\n")
    _check_input_error(path, capsys, "classify", ": not UTF-8")


def test_non_utf8_voltage_exit_code(tmp_path, capsys, monkeypatch):
    """No command reads a voltage file yet; one that did would turn the
    reader's CoverError into exit code 1 like this."""
    from hatd4 import cli
    from hatd4.covers import read_voltages

    path = tmp_path / "input.volt"
    path.write_bytes(b"voltage 3 1\n0 \xff\n")
    monkeypatch.setattr(cli, "read_graph", lambda p: read_voltages(p, doubled_cycle(2)))
    _check_input_error(path, capsys, "classify", ": not UTF-8")


def test_composite_voltage_prime_exit_code(tmp_path, capsys, monkeypatch):
    """Like the non-UTF-8 case above: a voltage header over Z_4 is a
    CoverError naming the line, so the command exits 1."""
    from hatd4 import cli
    from hatd4.covers import read_voltages

    path = tmp_path / "input.volt"
    path.write_text("voltage 4 1\n")
    monkeypatch.setattr(cli, "read_graph", lambda p: read_voltages(p, doubled_cycle(2)))
    _check_input_error(path, capsys, "classify", ":1: 4 is not a prime")


def test_meataxe_error_exit_code(pair42_files, capsys, monkeypatch):
    """An enumeration past `meataxe.ENUM_CAP` is reported, not a traceback."""
    from hatd4 import cli
    from hatd4.meataxe import MeatAxeError

    def too_large(*args, **kwargs):
        raise MeatAxeError("span enumeration too large (15813251 points)")

    monkeypatch.setattr(cli.homology, "minimal_admissible_covers", too_large)
    assert main(["covers", *pair42_files, "--max-order", "1500"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: span enumeration too large (15813251 points)\n"
    assert "covers" not in captured.out


def test_verify_failure_exit_code(monkeypatch, capsys):
    from hatd4 import census as census_mod

    monkeypatch.setattr(census_mod, "verify_tables",
                        lambda **kw: [census_mod.VerifyRow("synthetic", "fail", 1, 2)])
    assert main(["verify", "--budget", "small"]) == 2
    assert "FAIL synthetic" in capsys.readouterr().out


def test_verify_table2_on_empty_catalog(tmp_path, capsys):
    assert main(["verify", "--budget", "table2-l1", "--catalog", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL table2 row 1 level 1 (56 covers of the order-42 pair) expected=56 got=0" in out
