"""``_cluster_moments``' feature-major pass against the row-major pass it
replaced.

The reference below is that pass, kept verbatim: one (R n, p+1, p+1) buffer
of outer products, reduced along its rows by ``np.add.reduceat``.  The new
pass reduces (p+1, R n) buffers along their last axis instead.  Both sum each
segment's products in the same order, which numpy's ``reduceat`` does not
promise in any documentation, so the moments must agree bit for bit, NaN and
inf cells included, on every shape the engine and the unequal-count search
can hand it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crscombine.estimation import _cluster_moments
from crscombine.simulate import DgpSpec, draw_block

# --- the reference: the row-major pass as it was -----------------------------


def ref_cluster_moments(cluster: np.ndarray, z: np.ndarray):
    order = np.argsort(cluster, kind="stable")
    cluster = cluster[order]
    R, n, width = z.shape
    z = z[:, order].reshape(R * n, width)
    first = np.flatnonzero(np.r_[True, cluster[1:] != cluster[:-1]])
    starts = (n * np.arange(R)[:, None] + first).ravel()
    ends = np.r_[starts[1:], R * n] - 1
    # one (R n, p+1, p+1) buffer holds the outer products, then their
    # absolute values (|z_i z_j| = |z_i| |z_j| exactly), then the lag products
    prod = z[:, :, None] * z[:, None, :]
    gram = np.add.reduceat(prod, starts)
    parts = [gram, gram - prod[ends], gram - prod[starts]]
    absolute = np.add.reduceat(np.abs(prod, out=prod), starts)
    np.multiply(z[1:, :, None], z[:-1, None, :], out=prod[:-1])
    prod[ends] = 0.0  # a cluster's last row has no successor inside the cluster
    parts += [np.add.reduceat(prod, starts), absolute]
    moments = np.stack(parts, axis=1).reshape(R, first.size, 5, width, width)
    return np.diff(np.r_[first, n]), moments


# -----------------------------------------------------------------------------


def assert_same_moments(cluster, z):
    with np.errstate(all="ignore"):  # 1e300-scale cells overflow to inf, inf - inf is NaN
        sizes, moments = _cluster_moments(cluster, z)
        ref_sizes, ref_moments = ref_cluster_moments(cluster, z)
    np.testing.assert_array_equal(sizes, ref_sizes)
    assert (moments.shape, moments.dtype) == (ref_moments.shape, ref_moments.dtype)
    assert moments.tobytes() == ref_moments.tobytes()


@st.composite
def moment_inputs(draw):
    """(cluster, z) of R panels on one layout: R in {1, 2, 8, 16, 33}, widths
    1-10, 1-12 clusters of 1-40 rows (singletons among them; at R <= 2 also
    of 129-300 rows, past the 128 values numpy's pairwise sum adds in one
    block), rows in load order or shuffled, cells scaled by 1e-300 to 1e300,
    some NaN or inf."""
    R = draw(st.sampled_from([1, 2, 8, 16, 33]))
    width = draw(st.integers(1, 10))
    size = st.one_of(st.just(1), st.integers(1, 40))
    if R <= 2:
        size = st.one_of(size, st.integers(129, 300))
    sizes = draw(st.lists(size, min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.choice(1000, size=len(sizes), replace=False)
    cluster = np.repeat(ids, sizes)
    if draw(st.booleans()):
        cluster = cluster[rng.permutation(cluster.size)]
    z = rng.standard_normal((R, cluster.size, width))
    scale = draw(st.sampled_from(["unit", "wide", "extreme"]))
    if scale == "wide":
        z *= 10.0 ** rng.uniform(-8.0, 8.0, z.shape)
    elif scale == "extreme":
        z *= 10.0 ** rng.integers(-300, 301, z.shape)
    for value in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=4)):
        z[tuple(rng.integers(0, s) for s in z.shape)] = value
    return cluster, z


@settings(max_examples=400, deadline=None, derandomize=True)
@given(moment_inputs())
def test_feature_major_pass_equals_the_row_major_pass(inputs):
    assert_same_moments(*inputs)


def test_simulation_blocks_equal_the_row_major_pass():
    # every design the engine draws, at the block sizes it runs, with the
    # covariate columns as given and with rows shuffled or dropped
    rng = np.random.default_rng(0)
    for variant in ("dgp1", "dgp2", "dgp3"):
        for R in (1, 8, 16):
            block = draw_block(DgpSpec(variant, h=4), list(range(R)))
            z = np.concatenate([block.x, block.y[..., None]], axis=-1)
            cluster = block.layout.cluster
            assert_same_moments(cluster, z)
            shuffled = rng.permutation(cluster.size)
            assert_same_moments(cluster[shuffled], z[:, shuffled])
            kept = np.sort(rng.choice(cluster.size, size=cluster.size - 25, replace=False))
            assert_same_moments(cluster[kept], z[:, kept])
