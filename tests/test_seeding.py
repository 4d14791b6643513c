import numpy as np
import pytest

import resolv as rv
from resolv.errors import ValidationError

GRAPH = rv.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
# every bipartition loses to one community here, and the seed is still checked
TRIANGLE = rv.Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
EPPM = rv.ExtendedPpmParams([4, 4], np.full(8, 3.0), 0.2, [4.0, 4.0])


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
@pytest.mark.parametrize("entry", [
    lambda s: rv.louvain_maximize(GRAPH, 1.0, seed=s),
    lambda s: rv.louvain_maximize(TRIANGLE, 1.0, seed=s),
    lambda s: rv.multiscale_detect(GRAPH, seed=s),
    # the root is below min_size, so nothing is drawn
    lambda s: rv.multiscale_detect(rv.Graph.from_edges(2, [(0, 1)]), seed=s),
    lambda s: rv.sample_er(10, 5, s),
    lambda s: rv.sample_extended_ppm(EPPM, s),
    lambda s: rv.make_plateau_fixture(s),
    lambda s: rv.derive_seed(s, 0),
], ids=["louvain", "louvain-certified", "multiscale", "multiscale-2-nodes", "er", "extended-ppm", "plateau", "derive"])
def test_invalid_seed_is_a_validation_error(entry, seed):
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        entry(seed)


def test_seeds_of_any_size_stay_valid():
    huge = 10 ** 30
    assert rv.louvain_maximize(GRAPH, 1.0, seed=huge).n == 4
    assert rv.derive_seed(huge, 1) == rv.derive_seed(huge, 1) != rv.derive_seed(huge, 2)
    # numpy integers are seeds too, and give the same stream as the equal int
    assert list(rv.sample_er(10, 5, np.int64(7)).edges()) == list(rv.sample_er(10, 5, 7).edges())
