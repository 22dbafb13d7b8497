"""Seeded inputs for the three workloads, with answers known by construction.

Every matrix comes from numpy alone; nothing here imports effspec, so a
defect in the library cannot leak into the expected answers. A workload is
a short pool of distinct ops that run.py replays round-robin until its
time is up. Every block of eight consecutive ops covers the eight size
slots once, and successive blocks rotate the input kinds over the slots,
so stopping after any number of ops leaves both the sizes and the kinds
balanced to within one op.
"""

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import budget_oracle

WORKLOADS = ("compare", "clans", "minimize")

# Eight size slots per workload: one small, six of the middle size and one
# large. The median and the 75th percentile of op time then both fall in
# the middle class, three quarters of the ops, so each is read from most of
# a run's samples rather than from the dozen ops of one size class, and
# the 75th percentile stays an eighth of the ops away from the large class
# when a run ends a few ops earlier or later. The middle sizes keep a
# seed-commit op near 0.5 s, so a run of 40 s times about 60 ops.
COMPARE_SIZES = (12,) + (13,) * 6 + (15,)
CLAN_SIZES = (11,) + (12,) * 6 + (14,)
BUDGET_SIZES = ((20, 3),) + ((18, 4),) * 6 + ((16, 8),)


@dataclass
class Op:
    """One CLI invocation with everything needed to check its answer."""

    kind: str
    label: str
    args: list[str]
    # Subsets the inputs define (see README.md); pruning shows as a gain.
    subsets: int
    expect: dict = field(default_factory=dict)


def write_matrix(path: Path, m: np.ndarray) -> None:
    """Write the CLI's plain-text matrix format; repr round-trips exactly."""
    rows = [" ".join(repr(float(x)) for x in row) for row in m]
    path.write_text(f"{m.shape[0]}\n" + "\n".join(rows) + "\n")


def clan_subsets(n: int) -> int:
    """Number of subsets alpha with 2 <= |alpha| <= n - 2."""
    return 2 ** n - 2 * (n + 1)


# ---------------------------------------------------------------- matrices

def positive(rng, n):
    return rng.uniform(0.1, 1.0, (n, n))


def zero_diagonal(rng, n):
    m = positive(rng, n)
    np.fill_diagonal(m, 0.0)
    return m


def sparse_irreducible(rng, n, density=0.3):
    """Nonnegative with a Hamiltonian cycle (so irreducible) plus random
    entries, including at least one reciprocal off-diagonal pair."""
    m = np.where(rng.random((n, n)) < density, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    order = rng.permutation(n)
    m[order, np.roll(order, -1)] = rng.uniform(0.1, 1.0, n)
    i, j = order[0], order[1]
    m[j, i] = rng.uniform(0.1, 1.0)
    return m


def signed(rng, n):
    """Signed off-diagonal entries and a nonzero diagonal of random signs."""
    m = rng.normal(0.0, 0.5, (n, n))
    diag = rng.uniform(0.5, 1.5, n) * rng.choice((-1.0, 1.0), n)
    np.fill_diagonal(m, diag)
    return m


def planted_clan(rng, n, zero_diag=False):
    """A positive matrix with a clan on a random alpha, 3 <= |alpha| <= n-3.

    Returns the matrix, alpha (0-based, sorted) and the rank-1 factors
    (v, b, c, w) with K[alpha, rest] = v b^T and K[rest, alpha] = c w^T.
    """
    size = int(rng.integers(3, n - 2))
    alpha = np.sort(rng.choice(n, size, replace=False))
    rest = np.setdiff1d(np.arange(n), alpha)
    m = positive(rng, n)
    v, w = rng.uniform(0.2, 1.0, size), rng.uniform(0.2, 1.0, size)
    b, c = rng.uniform(0.2, 1.0, n - size), rng.uniform(0.2, 1.0, n - size)
    m[np.ix_(alpha, rest)] = np.outer(v, b)
    m[np.ix_(rest, alpha)] = np.outer(c, w)
    if zero_diag:
        np.fill_diagonal(m, 0.0)
    return m, alpha, rest, (v, b, c, w)


def partial_transpose(m, alpha, rest, factors):
    """Transpose the alpha block and swap v with w: all minors are kept."""
    v, b, c, w = factors
    out = m.copy()
    out[np.ix_(alpha, alpha)] = m[np.ix_(alpha, alpha)].T
    out[np.ix_(alpha, rest)] = np.outer(w, b)
    out[np.ix_(rest, alpha)] = np.outer(c, v)
    return out


def diagonal_similar(rng, m):
    d = rng.uniform(0.5, 2.0, m.shape[0])
    return d[:, None] * m / d[None, :]


def perturb_reciprocal_entry(rng, m):
    """Scale one off-diagonal entry with a nonzero mirror entry by 1.1.

    The 2x2 minor on that pair then changes by 0.1 * K_ij * K_ji, so the
    two matrices provably differ in at least one principal minor.
    """
    n = m.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and m[i, j] != 0.0 and m[j, i] != 0.0]
    i, j = pairs[int(rng.integers(len(pairs)))]
    out = m.copy()
    out[i, j] *= 1.1
    return out


# ---------------------------------------------------------------- workloads

def _compare_ops(rng, work: Path):
    ops = []
    kinds = ("positive", "sparse", "zero-diagonal clan", "signed")
    for block, slot in itertools.product(range(len(kinds)), range(len(COMPARE_SIZES))):
        n = COMPARE_SIZES[slot]
        kind = kinds[(slot + block) % len(kinds)]
        # Half of each block, of each slot and of each kind are equal pairs.
        equal = (slot // 2 + block) % 2 == 0
        if kind == "positive":
            a = positive(rng, n)
            construction = "diagonal similarity"
            b = diagonal_similar(rng, a)
        elif kind == "sparse":
            a = sparse_irreducible(rng, n)
            construction = "transpose"
            b = a.T.copy()
        elif kind == "zero-diagonal clan":
            a, alpha, rest, factors = planted_clan(rng, n, zero_diag=True)
            construction = "partial transpose"
            b = partial_transpose(a, alpha, rest, factors)
        else:
            a = signed(rng, n)
            transpose = slot % 4 < 2
            construction = "transpose" if transpose else "diagonal similarity"
            b = a.T.copy() if transpose else diagonal_similar(rng, a)
        if not equal:
            construction = "one entry scaled by 1.1"
            b = perturb_reciprocal_entry(rng, a)
        stem = f"compare-{len(ops)}"
        pa, pb = work / f"{stem}-a.txt", work / f"{stem}-b.txt"
        write_matrix(pa, a)
        write_matrix(pb, b)
        args = ["compare", str(pa), str(pb)] + (["--signed"] if kind == "signed" else [])
        ops.append(Op(kind="compare", label=f"compare n={n} {kind}, {construction}",
                      args=args, subsets=2 * (2 ** n - 1),
                      expect={"equal": equal, "a": a, "b": b}))
    return ops


def _clan_ops(rng, work: Path):
    ops = []
    kinds = ("planted", "clan-free", "planted zero-diagonal", "clan-free")
    for block, slot in itertools.product(range(len(kinds)), range(len(CLAN_SIZES))):
        n = CLAN_SIZES[slot]
        kind = kinds[(slot + block) % len(kinds)]
        if kind.startswith("planted"):
            m, alpha, rest, _ = planted_clan(rng, n, zero_diag="zero" in kind)
            planted = [tuple(int(i) + 1 for i in alpha), tuple(int(i) + 1 for i in rest)]
        else:
            m = positive(rng, n)
            planted = []
        path = work / f"clans-{len(ops)}.txt"
        write_matrix(path, m)
        ops.append(Op(kind="clans", label=f"clans n={n} {kind}",
                      args=["clans", str(path)], subsets=clan_subsets(n),
                      expect={"m": m, "planted": planted}))
    return ops


def _budget_ops(rng, work: Path):
    ops = []
    # One input per slot, alternating the two kinds: each input needs an
    # oracle sweep over all C(n, k) profiles, which is set-up time.
    makers = (zero_diagonal, sparse_irreducible)
    for slot, (n, k) in enumerate(BUDGET_SIZES):
        maker = makers[slot % len(makers)]
        # Redraw the rare input whose optimum is zero (a nilpotent block has
        # ill-conditioned eigenvalues) or not separated from the runner-up:
        # a tie decided in the last bits is not a stable answer.
        while True:
            m = maker(rng, n)
            best, ties, gap = budget_oracle(m, k)
            if best > 0.0 and len(ties) == 1 and gap > 1e-6 * best:
                break
        path = work / f"minimize-{len(ops)}.txt"
        write_matrix(path, m)
        ops.append(Op(kind="minimize", label=f"minimize n={n} k={k} {maker.__name__}",
                      args=["minimize", str(path), "--budget", str(k)],
                      subsets=math.comb(n, k),
                      expect={"best": best, "ties": ties, "budget": k}))
    return ops


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The op pool of ``workload`` for ``seed``, with input files in ``work``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "compare":
        return _compare_ops(rng, work)
    if workload == "clans":
        return _clan_ops(rng, work)
    if workload == "minimize":
        return _budget_ops(rng, work)
    raise ValueError(f"unknown workload {workload!r}")


def digest(ops: list[Op]) -> str:
    """SHA-256 over every op's arguments and input file bytes.

    Input files enter by name and content, not by directory, so two runs
    of the same seed digest alike wherever their work directory was.
    """
    h = hashlib.sha256()
    for op in ops:
        for arg in op.args:
            path = Path(arg)
            if path.is_file():
                h.update(path.name.encode() + b"\0" + path.read_bytes())
            else:
                h.update(arg.encode() + b"\0")
    return h.hexdigest()
