"""tools/mutate.py, without running any mutant: its listing is stable,
every mutant compiles, and the equivalence list names mutants it lists."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


def test_least_rotation_mutants_are_stable_and_compile():
    source = (ROOT / "src" / "freebases" / "words.py").read_text()
    listed = mutate.mutants(source, "least_rotation")
    assert listed == mutate.mutants(source, "least_rotation")
    assert {m["op"] for m in listed} == {"flip", "swap", "plus1", "pass"}
    assert len({m["mutant"] for m in listed}) == len(listed)
    assert "i, j = (j, i) -> pass" in {m["mutant"] for m in listed}
    start = source.index("def least_rotation")
    for m in listed:
        text = mutate.mutated_source(source, "least_rotation", m["index"])
        assert text != source and text[:start] == source[:start]
        compile(text, "words.py", "exec")


def test_every_listed_equivalent_mutant_exists():
    listed = {}
    for e in json.loads(mutate.EQUIVALENT.read_text()):
        where = e["module"], e["function"]
        if where not in listed:
            source = (ROOT / e["module"]).read_text()
            listed[where] = {m["mutant"] for m in mutate.mutants(source, e["function"])}
        assert e["mutant"] in listed[where] and e["reason"], e
