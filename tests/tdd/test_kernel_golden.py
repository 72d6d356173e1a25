"""Canonical identity of the TDD kernel, pinned to recorded values.

The property tests check kernel results against einsum up to a
tolerance.  The result store and the subspace fingerprints rely on
something stronger: the same computation always interns the same
nodes with the same canonical weights, so its serialised basis hashes
to the same digest.  This module pins that identity, together with the
node and cache counts that show the kernel took the same path.

The values were recorded with the scalar kernel before its hot loops
were specialised; any change to normalisation, the rounding grid, the
cache keys or the traversal order shows up here.

The cache hit/miss pairs also count the kernel work of the
Gram-Schmidt join, so they move when the join skips kernel work: the
qrw4 and fixpoint pairs were re-recorded when ``Subspace.add_state``
began rejecting known scalar multiples without projecting them.  The
dimensions, node counts and digests did not move.
"""

import pytest

from repro import CheckerConfig, compute_image
from repro.mc.reachability import reachable_space
from repro.systems.models import build_model
from repro.tdd.io import payload_digest, to_dict

#: (family, size, builder options) of the small Table I systems
FAMILIES = {
    "grover4": ("grover", 4, {"iterations": 2}),
    "qft5": ("qft", 5, {}),
    "bv8": ("bv", 8, {}),
    "qrw4": ("qrw", 4, {"steps": 2}),
}
METHOD_PARAMS = {
    "basic": {},
    "addition": {"k": 1},
    "contraction": {"k1": 4, "k2": 4},
}

#: "family/method" -> (dimension, max_nodes, cache_hits, cache_misses,
#: basis payload digests)
IMAGE_GOLDEN = {
    "grover4/basic": (1, 68, 749, 1441, (
        "dc22d0c2566520d4bd42338566f29aec2e53bccc6e37aafbc48d02f7954cb0eb",
    )),
    "grover4/addition": (1, 65, 1404, 2553, (
        "445767f1e798d9578acf90e078060e12016d60b2a5fcac983ff8c58acf9ff090",
    )),
    "grover4/contraction": (1, 68, 749, 1441, (
        "dc22d0c2566520d4bd42338566f29aec2e53bccc6e37aafbc48d02f7954cb0eb",
    )),
    "qft5/basic": (1, 63, 221, 380, (
        "f926adca5a03cd3f176c15bb118a314c95d093517874288fdcd2037e2dcecd38",
    )),
    "qft5/addition": (1, 63, 221, 380, (
        "f926adca5a03cd3f176c15bb118a314c95d093517874288fdcd2037e2dcecd38",
    )),
    "qft5/contraction": (1, 61, 178, 321, (
        "b117484548a70fba8e56727508b70654427e0ed12ff6bf973ae699a346a993f4",
    )),
    "bv8/basic": (1, 44, 667, 925, (
        "f0ef643224682652c3bbe6294da662ff6d15db409b2a3a176dd69447aed5ffee",
    )),
    "bv8/addition": (1, 40, 677, 882, (
        "f0ef643224682652c3bbe6294da662ff6d15db409b2a3a176dd69447aed5ffee",
    )),
    "bv8/contraction": (1, 26, 242, 402, (
        "f0ef643224682652c3bbe6294da662ff6d15db409b2a3a176dd69447aed5ffee",
    )),
    "qrw4/basic": (1, 39, 554, 797, (
        "1fe72270efe540c0b222740882b1676c0f0798f5fe2ca98d458efb3c122e887c",
    )),
    "qrw4/addition": (1, 28, 460, 674, (
        "1fe72270efe540c0b222740882b1676c0f0798f5fe2ca98d458efb3c122e887c",
    )),
    "qrw4/contraction": (1, 39, 554, 797, (
        "1fe72270efe540c0b222740882b1676c0f0798f5fe2ca98d458efb3c122e887c",
    )),
}
#: qrw4 fixpoint (basic method, default driver) per direction ->
#: (dimension ladder, max_nodes, cache_hits, cache_misses, digests)
REACH_GOLDEN = {
    "forward": ([1, 2, 4, 7, 7], 43, 1008, 1840, (
        "9dde23372ace388b0d7c03fbb3ce59903f3aa2158391e42233f26ea46282621c",
        "f48b7917e8c447a6d64881e89ada7f7ec8f4276d62abbd14539cf8f2b1cddb5b",
        "8d3a2f07e2efaabcd373fcf05fe3dd3ddba4998b43b7a463324a0067f754d491",
        "e56f6eed31f2bae1e59a9e4a906e79094b38662a7e6973dede0962c31486dff1",
        "50667889805058cd850912542e3df4091ac18e0863e2a5e232205ee3a9a0a31c",
        "e6bcaeed9ab0143175561abefdb95f619b44e9abc4ec2b727538f905937c66a9",
        "0d8ed5e77cef6884196a83104e122fc78c33950a4774d66564c31d05104d4940",
    )),
    "backward": ([1, 3, 7, 7], 37, 747, 1294, (
        "9dde23372ace388b0d7c03fbb3ce59903f3aa2158391e42233f26ea46282621c",
        "45236f2e09d3f8c6cc8ce03e907e1ce00485c03ee8dfc260f6a3b4eb64c1d356",
        "94aeaaee3ac5bbb024b784221f3c9792d5cdf0dba76b798af3fc31f40d327309",
        "1ca00b1cab5367288927250e129db8c3cda8440367f98873092f929f60268f2c",
        "a6dbfeaf928b9791b61ce640653816590c2a0a08f547d986164d1e52e6dd725b",
        "3c42ef4db73a08ea5bc0058e102b4d0420dd0b853653aa4d20444ed3810fd74e",
        "a31e0b863ea84ed7bf8aaa0cea221bddfd3ba3ae45525a1536db667504883507",
    )),
}


def digests(subspace):
    return tuple(payload_digest(to_dict(state)) for state in subspace.basis)


@pytest.mark.parametrize("cell", sorted(IMAGE_GOLDEN))
def test_image_matches_recorded_kernel(cell):
    family, method = cell.split("/")
    name, size, options = FAMILIES[family]
    config = CheckerConfig(method=method, method_params=METHOD_PARAMS[method])
    result = compute_image(build_model(name, size, **options), config=config)
    stats = result.stats
    dimension, max_nodes, hits, misses, basis = IMAGE_GOLDEN[cell]
    assert result.dimension == dimension
    assert stats.max_nodes == max_nodes
    assert (stats.cache_hits, stats.cache_misses) == (hits, misses)
    assert digests(result.subspace) == basis


@pytest.mark.parametrize("direction", sorted(REACH_GOLDEN))
def test_reachability_matches_recorded_kernel(direction):
    trace = reachable_space(build_model("qrw", 4, steps=2), method="basic",
                            direction=direction)
    stats = trace.stats
    ladder, max_nodes, hits, misses, basis = REACH_GOLDEN[direction]
    assert trace.dimensions == ladder
    assert stats.max_nodes == max_nodes
    assert (stats.cache_hits, stats.cache_misses) == (hits, misses)
    assert digests(trace.subspace) == basis
