"""The sampled thin-triangles check draws its tuples with
``hyperbolicity._draw_tuples``, which must make exactly the draws of
``Random.randrange`` and ``Random.choice`` from the same stream: the
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


def _draw_tuples():
    tree = ast.parse(SOURCE.read_text())
    node = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "_draw_tuples")
    space = {}
    exec(compile(ast.Module(body=[node], type_ignores=[]), str(SOURCE), "exec"), space)
    return space["_draw_tuples"]


def test_sampled_draws_are_those_of_choice_and_randrange():
    draw = _draw_tuples()
    shape = random.Random(1729)
    for k, seed in enumerate((0, 1, 7, 2024, "metric:3")):
        for n in (1, 2, 3, 5, 8, 9, 17):
            # path lengths of 1-33 positions over n vertices, and balls of
            # every bound, a list while small and a range past that
            lens = [shape.randint(1, 33) for _ in range(n * n)]
            pad = [[shape.randrange(n) for _ in range(m)] for m in lens]
            balls = [list(range(m)) if m <= 1000 else range(m)
                     for m in (BOUNDS[(k + n + v) % len(BOUNDS)] for v in range(n))]
            ref, ours = random.Random(seed), random.Random(seed)
            expected = []
            for _ in range(300):
                r = ref.randrange(n) * n + ref.randrange(n)
                s, t = sorted((ref.randrange(lens[r]), ref.randrange(lens[r])))
                expected.append((r, s, t, ref.choice(balls[pad[r][s]]),
                                 ref.choice(balls[pad[r][t]])))
            assert draw(ours.getrandbits, 300, n, lens, pad, balls) == expected, (seed, n)
            # the same number of bits was consumed
            assert ref.getstate() == ours.getstate()


if __name__ == "__main__":
    test_sampled_draws_are_those_of_choice_and_randrange()
    print("ok")
