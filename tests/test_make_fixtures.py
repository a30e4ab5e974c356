"""`tools/make_fixtures.py` regenerates the packaged data byte for byte,
and every catalog group's declared order and non-solvability hold under
sympy, an oracle independent of `hatd4.perms`."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "hatd4" / "data"
CATALOG = sorted((DATA / "catalog").glob("*.grp"))


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_make_fixtures_regenerates_packaged_data(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "tools" / "make_fixtures.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.DATA = tmp_path
    tool.main()
    capsys.readouterr()
    made, packaged = _files(tmp_path), _files(DATA)
    assert sorted(made) == sorted(packaged)
    assert [name for name in made if made[name] != packaged[name]] == []


@pytest.mark.parametrize("path", CATALOG, ids=lambda p: p.stem)
def test_catalog_orders_match_sympy(path):
    """The file is read without `hatd4`: its degree, order and gen lines."""
    from sympy.combinatorics import Permutation, PermutationGroup

    lines = {}
    for line in path.read_text().splitlines()[1:]:  # after the group line
        head, _, rest = line.partition(" ")
        lines.setdefault(head, []).append([int(x) for x in rest.split()])
    (degree,), = lines["degree"]
    (order,), = lines["order"]
    sym = PermutationGroup([Permutation(g) for g in lines["gen"]])
    assert sym.degree == degree
    assert sym.order() == order
    # census.base_pairs keeps only non-solvable groups
    assert not sym.is_solvable
