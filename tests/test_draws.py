"""The sampled thin-triangles check draws its tuples with
``hyperbolicity._randbelow``, which must make exactly the draws of
``Random.choice`` and ``Random.randrange(m)`` from the same stream: the
sampled witnesses depend on it, and it rests on the interpreter's
``random`` internals.

Stdlib only: the function is compiled from the module's source, so the
check also runs on interpreters without numpy, as
``python tests/test_draws.py``.
"""

import ast
import random
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "freebases" / "hyperbolicity.py"
BOUNDS = [1, 2, 3, 4, 5, 7, 8, 9, 20, 31, 32, 33, 100, 255, 256, 257, 1000, 2**31 - 1,
          2**31, 2**32 + 1, 10**12]


def _randbelow():
    tree = ast.parse(SOURCE.read_text())
    node = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "_randbelow")
    space = {}
    exec(compile(ast.Module(body=[node], type_ignores=[]), str(SOURCE), "exec"), space)
    return space["_randbelow"]


def test_randbelow_draws_as_choice_and_randrange():
    below = _randbelow()
    for seed in (0, 1, 7, 2024, "metric:3"):
        ref, ours = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        for i in range(4000):
            m = BOUNDS[i % len(BOUNDS)]  # an odd count: each bound meets both draws
            if i % 2:
                expected = ref.randrange(m)
            else:  # a list, as the balls are, while it is small
                expected = ref.choice(list(range(m)) if m <= 1000 else range(m))
            assert below(bits, m) == expected, (seed, i, m)
        # the same number of bits was consumed
        assert ref.getstate() == ours.getstate()


if __name__ == "__main__":
    test_randbelow_draws_as_choice_and_randrange()
    print("ok")
