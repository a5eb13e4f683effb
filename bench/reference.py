"""Reference computations timed beside the workload's ops.

The host the benchmark runs on is shared, and outside load slows
everything in the process by up to 1.7 times for stretches longer than a
run.  These computations use only the benchmark's own code on fixed
inputs, so the library cannot change their cost; they run between the ops
of every round, and the workload's time divided by theirs (``wall_ref``)
cancels the host's speed of the moment.  Like the library they are mostly
plain Python on tuples, lists and dicts, with a little numpy.
"""

import random

import numpy as np

import oracle as o
from inputs import grid, random_word


def build():
    """The reference computations, as argument-free callables of 5-20 ms
    each on a quiet 2-core Xeon, in the order a round runs them."""
    rng = random.Random("reference")
    word = random_word(rng, 4, 30000)
    cancelling = word + o.inverse(word[:15000])
    adj = o.adjacency(*grid(16))
    dist = np.array(o.bfs_distances(o.adjacency(*grid(10))))

    def words():
        return o.normal_form(cancelling)

    def bfs():
        return o.bfs_distances(adj)

    def arrays():
        # the kind of n^2 array work delta_four_point and delta_slim do
        best = 0
        for i in range(len(dist)):
            best = max(best, int(np.maximum(dist[i][:, None] + dist, dist[i] + dist.T).min()))
        return best

    # eight calls a round, so that the shortest times sample the host's
    # speed at as many points of the round as the ops do, near enough
    return [words, bfs, arrays, bfs] * 2
