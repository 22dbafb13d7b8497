"""Every principal minor of a stack of matrices in O(2**n), with an error bound per minor.

The engine behind :func:`effspec.spectral.minors_equal` past the 2 x 2 minors: the
Schur-complement recursion of Griffin and Tsatsomeros (Principal minors, Part I, Linear
Algebra Appl. 419, 2006) over both matrices of a pair at once, with pseudo-pivots for
small pivots. Its values decide a comparison where their error bound allows; LU judges
every subset the bound leaves in doubt. Nothing here is public.
"""

from typing import NamedTuple

import numpy as np

__all__: list[str] = []

# Levels of one part of the recursion, and positions of one run of a correction.
_PART_LEVELS, _RUN = 13, 1 << 12
# A pivot at most this fraction of the largest |entry| of its row and column is replaced.
_PSEUDO_PIVOT = 0.5


class _SchurTable(NamedTuple):
    """Every principal minor of a stack of d matrices of size n, in bitmask order.

    Position T, whose bit i stands for index i + 1, holds subset T, and position 0 the
    empty set (minor 1): ``minors[j, T]`` approximates det(m[j][T]), ``weight[T]`` is the
    path weight of T (see :func:`_schur_table`) and ``top[T]`` is max|m[:, T, T]|.
    """

    minors: np.ndarray
    weight: np.ndarray
    top: np.ndarray
    pseudo_pivots: int

    def at(self, positions: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
        """Minors (d, count), scale top**k, reference max(scale, |minors|) and error bound
        of the subsets at ``positions``, of sizes ``k`` (integer arrays of one length).

        With u = 2**-53 and ref the reference, the bound on the sum over the d matrices of
        the gap between a minor here and the LU determinant of its block is

            d * (u * (6 k**2 * (weight + ref) + |ln ref| * ref) + k * 2**-1022).

        6 k**2 * u * weight bounds the recursion's error and 6 k**2 * u * ref that of LU,
        under the proviso of :func:`_schur_table`; numpy's det goes through a logarithm,
        which adds |ln ref| * u * ref, and each pivot can underflow by 2**-1022.
        """
        d, minors = len(self.minors), self.minors[:, positions]
        with np.errstate(over="ignore", invalid="ignore"):  # NaN and inf bounds doubt all
            scale = np.power(self.top[positions], k)
            reference = np.maximum(scale, np.abs(minors).max(0))
            logs = np.abs(np.log(np.maximum(reference, 2.0 ** -1074)))
            bound = (6 * k * k) * (self.weight[positions] + reference) + logs * reference
            bound += k * 2.0 ** -969  # k * 2**-1022 / u
            bound *= d * 2.0 ** -53
        return minors, scale, reference, bound


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN minors are doubted
def _schur_table(m: np.ndarray) -> _SchurTable:
    """The principal minors of a stack m (d, n, n) by the recursion of Griffin and
    Tsatsomeros (Principal minors, Part I, Linear Algebra Appl. 419, 2006).

    Level l holds one Schur complement m[S + R] / m[S] for each of the 2**l subsets S of the
    first l indices, R the indices from l + 1 on. Its (0, 0) entry is the pivot
    p = det(m[S + {l + 1}]) / det(m[S]), so minor(S + {l + 1}) = minor(S) * p, and the
    complement by p starts the next level for S + {l + 1}. A pivot at most _PSEUDO_PIVOT
    times its reach r (the largest |entry| of its row and column) is replaced by
    delta = r (1 if r is 0), which keeps every multiplier below 2. det is affine in a
    diagonal entry, so, from the deepest level up, minor(T) += (p - delta) * minor(T - {l + 1})
    restores the exact minors of every T below the replacement.

    The error bound counts roundings to first order in u = 2**-53, with weight[T] the
    product over T's pivots of the running largest reach R (over the stack). Step j of
    T's path forms each entry of the next complement as fl(s - fl(c * fl(r / p))), with
    |c| <= R, |r / p| <= 2, and, where no entry grows past 2 R (the proviso of growth
    factors in LU analysis: growth beyond it shows in later reaches, not in this count),
    its three roundings add at most 2uR + 2uR + 2uR. Pivot i takes i - 1 such steps and
    errs by at most 6 (k - 1) u R_i; |p| <= R at every pivot, so that moves the product of
    the k pivots by at most 6 (k - 1) u weight[T], and the product's own roundings by
    (k - 1) u weight[T]: 6 k**2 u weight[T] in all. A correction adds
    max |p - delta| * weight[T - {l + 1}] to weight[T], the magnitude of the term it adds.
    LU with partial pivoting takes the same count with R <= max|m[T]|, its multipliers
    being at most 1.

    The recursion runs in parts of 2**_PART_LEVELS subsets, each in buffers of its
    own: the levels above them run once, for all parts, and their corrections wait for all
    parts, so the tables are the memory the engine needs.
    """
    d, n = m.shape[0], m.shape[-1]
    minors, weight = np.ones((d, 1 << n)), np.ones(1 << n)
    split = max(0, n - _PART_LEVELS)
    nodes, reached, shifts = _descend(m.transpose(1, 2, 0)[..., None], np.zeros(1),
                                      minors[:, :1 << split, None], weight[:1 << split, None])
    pseudo = sum(np.count_nonzero(shift) for shift in shifts)
    part_minors, part_weight = np.empty((d, 1 << (n - split), 1)), np.empty((1 << (n - split), 1))
    for root in range(1 << split):
        # Part ``root`` holds the subsets T with T & (2**split - 1) == root, T >> split in h.
        part_minors[:, 0, 0], part_weight[0] = minors[:, root], weight[root]
        part_shifts = _descend(nodes[..., root:root + 1], reached[root:root + 1],
                               part_minors, part_weight)[2]
        _correct(part_minors, part_weight, part_shifts)
        minors[:, root::1 << split] = part_minors[..., 0]
        weight[root::1 << split] = part_weight[:, 0]
        pseudo += sum(np.count_nonzero(shift) for shift in part_shifts)
    _correct(minors[..., None], weight[:, None], shifts)
    # Block maxima by doubling: T + 2**l extends T by index l + 1.
    w = np.abs(m).max(0)
    w = np.maximum(w, w.T)
    top = np.zeros(1 << n)
    for l in range(n):
        extended = top[1 << l:2 << l]  # first the largest w[l, j] over j in T + {l}
        extended[0] = w[l, l]
        for j in range(l):
            np.maximum(extended[:1 << j], w[l, j], out=extended[1 << j:2 << j])
        np.maximum(extended, top[:1 << l], out=extended)
    return _SchurTable(minors, weight, top, pseudo)


def _descend(nodes, reached, minors, weight):
    # The recursion from ``nodes`` (r, r, d, c), the c nodes of one level with the node
    # last so that every step runs along it, and their running largest reaches ``reached``
    # (c,), over the levels that fill the views ``minors`` (d, rows, c) and ``weight``
    # (rows, c): row h, column i is node i extended by the indices of the bits of h, and
    # row 0 holds the nodes' own values. Node i + c * h of a level is entry (h, i). Returns
    # the last level's nodes and reaches and each level's shifts p - delta (0 where the
    # pivot was kept).
    d, c = nodes.shape[2:]
    rows, shifts = 1, []
    while rows < minors.shape[1]:
        count = rows * c
        pivot, row, col = nodes[0, 0], nodes[0], nodes[:, 0]
        reach = np.maximum(np.abs(row).max(0), np.abs(col).max(0))
        small = np.abs(pivot) <= _PSEUDO_PIVOT * reach
        used = np.where(small, reach + (reach == 0), pivot)
        shifts.append(pivot - used)
        np.multiply(minors[:, :rows], used.reshape(d, rows, c), out=minors[:, rows:2 * rows])
        reached = np.concatenate([reached, np.maximum(reached, reach.max(0))])
        np.multiply(weight[:rows], reached[count:].reshape(rows, c), out=weight[rows:2 * rows])
        if len(nodes) > 1:
            rest = nodes[1:, 1:]
            nodes = np.empty(rest.shape[:3] + (2 * count,))
            nodes[..., :count] = rest
            np.multiply(col[1:, None], row[None, 1:] / used, out=nodes[..., count:])
            np.subtract(rest, nodes[..., count:], out=nodes[..., count:])
        rows *= 2
    return nodes, reached, shifts


def _correct(minors, weight, shifts):
    # Undo the pseudo-pivots of _descend, deepest level first, on the same views: the
    # shift of entry (h, i) at the level with r rows applies to (h + r + 2 r q, i), all q.
    # Runs of _RUN positions keep the temporaries small.
    d, _, c = minors.shape
    for level in reversed(range(len(shifts))):
        shift = shifts[level].reshape(d, 1, 1 << level, c)
        if shift.any():
            v = minors.reshape(d, -1, 2, 1 << level, c)  # views: the arrays are contiguous
            w = weight.reshape(-1, 2, 1 << level, c)
            run = max(1, _RUN // (c << level))
            for q in range(0, w.shape[0], run):
                v[:, q:q + run, 1] += shift * v[:, q:q + run, 0]
                w[q:q + run, 1] += np.abs(shift).max(0) * w[q:q + run, 0]


def _masks_in_order(n: int) -> np.ndarray:
    # The position of every subset of range(n) in index_sets order (size, then lex order of
    # the sorted subsets), the empty set first. The k-subsets of {a, ..., n - 1} are a
    # joined to each (k - 1)-subset of {a + 1, ...}, then the k-subsets of {a + 1, ...}.
    level = [np.zeros(1, dtype=np.int32)] * (n + 1)  # level[a]: the k-subsets of {a, ...}
    order = []
    for k in range(n + 1):
        order.append(level[0])
        longer = [np.zeros(0, dtype=np.int32)] * (n + 1)
        for a in reversed(range(n - k)):
            longer[a] = np.concatenate([level[a + 1] | (1 << a), longer[a + 1]])
        level = longer
    return np.concatenate(order)
