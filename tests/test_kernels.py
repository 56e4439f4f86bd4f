"""The elimination kernels and the backend name reports carry."""

from covpkit import KERNEL_BACKEND


def test_backend_reported():
    assert KERNEL_BACKEND == "pure"


def test_pure_rank_on_structured_matrix():
    # the generator matrix of the planar space is a worst case for fill-in
    from covpkit import rank, savs_dimension, savs_generator_matrix

    assert rank(savs_generator_matrix(4, 3, 3)) == savs_dimension(4, 3, 3)
