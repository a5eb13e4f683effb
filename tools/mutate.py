"""Mutation score of chosen functions against a test file, run by hand.

    python tools/mutate.py src/freebases/words.py least_rotation \
        --tests tests/test_words.py > least_rotation.json

Each mutant makes one change inside one named function (``Class.method``
names a method): it flips a comparison (< and <=, > and >=, == and !=, in
and not in, is and is not), swaps + and - or // and *, adds 1 to an integer
constant, or replaces a statement with ``pass``.  Every mutant runs
``pytest -x`` on the named test files in one temporary copy of src/, tests/
and pyproject.toml, one mutant at a time, under one fixed timeout: three
times the clean run plus 10 s.  The checkout itself is never written.  The
JSON printed per function counts mutants, killed, survived and timed out,
and lists each survivor and time-out with its line, operator and change;
survivors judged equivalent in tools/equivalent_mutants.json carry that
entry's reason.  ``--list`` prints the mutants without running anything.
"""

import argparse
import ast
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).with_name("equivalent_mutants.json")
FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
        ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
        ast.IsNot: ast.Is}
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mult, ast.Mult: ast.FloorDiv}


def _function(tree, qualname):
    node = tree
    for name in qualname.split("."):
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return node


def _sites(func):
    """(node, operator, where) of every mutation in func, in ast.walk order."""
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            yield from ((node, "flip", k) for k, op in enumerate(node.ops) if type(op) in FLIP)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
            yield node, "swap", None
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, "plus1", None
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            for k, stmt in enumerate(stmts if isinstance(stmts, list) else ()):
                docstring = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                if isinstance(stmt, ast.stmt) and not isinstance(stmt, ast.Pass) and not docstring:
                    yield node, "pass", (field, k)


def _mutate(node, op, where):
    """Apply one mutation in place; returns the node whose text changes."""
    if op == "pass":
        stmts = getattr(node, where[0])
        stmts[where[1]] = ast.copy_location(ast.Pass(), stmts[where[1]])
        return stmts[where[1]]
    if op == "flip":
        node.ops[where] = FLIP[type(node.ops[where])]()
    elif op == "swap":
        node.op = SWAP[type(node.op)]()
    else:
        node.value += 1
    return node


def mutants(source, qualname):
    """Each mutant of qualname in source: index, line, operator, and the
    first line of its innermost statement before and after the change."""
    func = _function(ast.parse(source), qualname)
    out = []
    for k in range(len(list(_sites(func)))):
        mutant = copy.deepcopy(func)
        node, op, where = list(_sites(mutant))[k]
        parents = {c: p for p in ast.walk(mutant) for c in ast.iter_child_nodes(p)}
        stmt = getattr(node, where[0])[where[1]] if op == "pass" else node
        while not isinstance(stmt, ast.stmt):
            stmt = parents[stmt]
        before = ast.unparse(stmt).splitlines()[0]
        changed = _mutate(node, op, where)
        after = ast.unparse(changed if op == "pass" else stmt).splitlines()[0]
        out.append({"index": k, "line": changed.lineno, "op": op,
                    "mutant": "%s -> %s" % (before, after)})
    return out


def mutated_source(source, qualname, index):
    """source with mutant ``index`` of qualname applied."""
    func = _function(ast.parse(source), qualname)
    _mutate(*list(_sites(func))[index])
    lines = source.splitlines(keepends=True)
    start = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    body = "".join(" " * func.col_offset + line + "\n" for line in ast.unparse(func).splitlines())
    return "".join(lines[:start]) + body + "".join(lines[func.end_lineno:])


def _pytest(workdir, tests, timeout):
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-o", "addopts=",
           *tests]
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timed_out"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module")
    ap.add_argument("functions", nargs="+")
    ap.add_argument("--tests", nargs="+", default=[])
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args(argv)
    source = (ROOT / args.module).read_text()
    found = {name: mutants(source, name) for name in args.functions}
    if args.list:
        print(json.dumps(found, indent=1))
        return
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns(
                "__pycache__", ".pytest_cache", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        start = time.perf_counter()
        if _pytest(work, args.tests, None) != "survived":
            sys.exit("the tests fail on the unmutated code")
        timeout = 3 * (time.perf_counter() - start) + 10
        outcomes = {}
        for name in args.functions:
            for m in found[name]:
                (work / args.module).write_text(mutated_source(source, name, m["index"]))
                outcomes[name, m["index"]] = _pytest(work, args.tests, timeout)
    known = {(e["function"], e["mutant"]): e["reason"] for e in json.loads(EQUIVALENT.read_text())
             if e["module"] == args.module}
    report = {"module": args.module, "tests": args.tests, "timeout_s": round(timeout, 1),
              "functions": {}}
    for name in args.functions:
        row = {"mutants": len(found[name]), "killed": 0, "survived": 0, "timed_out": 0,
               "survivors": [], "timeouts": []}
        for m in found[name]:
            outcome = outcomes[name, m["index"]]
            row[outcome] += 1
            entry = {"line": m["line"], "op": m["op"], "mutant": m["mutant"]}
            if outcome == "survived":
                row["survivors"].append({**entry, "equivalent": known.get((name, m["mutant"]))})
            elif outcome == "timed_out":
                row["timeouts"].append(entry)
        report["functions"][name] = row
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
