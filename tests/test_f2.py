import random

from chang import f2

from conftest import invertible


def dense(masks, width):
    return [[m >> j & 1 for j in range(width)] for m in masks]


def dense_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_product(first, second, width):
    # row i of (second o first) is the sum of the rows of second that row i
    # of first selects
    return [[sum(f[j] * second[j][k] for j in range(len(second))) % 2
             for k in range(width)] for f in first]


def random_masks(rng, rows, width):
    return [rng.getrandbits(width) if width else 0 for _ in range(rows)]


def test_rank_matches_dense_elimination():
    rng = random.Random(11)
    for _ in range(400):
        rows, width = rng.randint(0, 8), rng.randint(0, 8)
        masks = random_masks(rng, rows, width)
        assert f2.rank(masks) == dense_rank(dense(masks, width))


def test_compose_matches_dense_product():
    rng = random.Random(12)
    for _ in range(400):
        a, b, c = rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 8)
        first, second = random_masks(rng, a, b), random_masks(rng, b, c)
        got = f2.compose(first, second)
        assert dense(got, c) == dense_product(dense(first, b),
                                              dense(second, c), c)
        assert all(m >> c == 0 for m in got)


def test_invertible_counts_and_full_rank():
    for n, count in ((0, 1), (1, 1), (2, 6), (3, 168)):
        mats = list(invertible(n))
        assert len(mats) == count == len(set(mats))
        assert all(len(m) == n and f2.rank(m) == n for m in mats)


def test_kernel_matches_dense_elimination():
    rng = random.Random(13)
    for _ in range(400):
        cols, width = rng.randint(0, 8), rng.randint(0, 8)
        columns = random_masks(rng, cols, width)
        got = f2.kernel(columns)
        for mask in got:
            assert 0 < mask < 1 << cols
            acc = 0
            for i, v in enumerate(columns):
                if mask >> i & 1:
                    acc ^= v
            assert acc == 0
        # independent masks, as many as the dependencies among the columns
        assert dense_rank(dense(got, cols)) == len(got)
        assert len(got) == cols - dense_rank(dense(columns, width))


def test_rank_is_columns_less_dependencies():
    # the pivot-only rank agrees with the kernel's count of dependencies
    rng = random.Random(14)
    for _ in range(2000):
        rows, width = rng.randint(0, 8), rng.randint(0, 8)
        masks = random_masks(rng, rows, width)
        assert f2.rank(masks) == len(masks) - len(f2.kernel(masks))
