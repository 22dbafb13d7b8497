"""Correctness checkers: each op's exit code and stdout against known answers.

The answers come from the construction of the inputs or from independent
numpy oracles (``np.linalg.det``, batched ``np.linalg.eigvals`` and explicit
2x2 minors), never from effspec. A checker returns None when the output is
right and a one-line reason when it is not.
"""

import itertools

import numpy as np

#: Tolerance of the CLI's own comparisons (its ``--tol`` default).
TOL = 1e-9


def parse_records(stdout: str) -> list[tuple[str, str]]:
    """The CLI's ``key: value`` text lines."""
    records = []
    for line in stdout.splitlines():
        if not line:
            continue
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"malformed line {line!r}")
        records.append((key, value))
    return records


def parse_set(value: str) -> tuple[int, ...]:
    """A 1-based index set printed as ``{1,2}``."""
    text = value.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not an index set: {value!r}")
    return tuple(int(i) for i in text[1:-1].split(","))


def principal_det(m: np.ndarray, alpha) -> float:
    idx = [i - 1 for i in alpha]
    return float(np.linalg.det(m[np.ix_(idx, idx)]))


def rank_at_most_one(block: np.ndarray) -> bool:
    """Every 2x2 minor of the block vanishes (relative to its scale)."""
    if min(block.shape) < 2:
        return True
    outer = np.einsum("ij,kl->ikjl", block, block)
    minors = outer - outer.transpose(0, 1, 3, 2)
    return bool(np.abs(minors).max() <= 1e-8 * float(np.abs(block).max()) ** 2)


def budget_oracle(m: np.ndarray, k: int):
    """Optimal radius, optimal zeroed sets and the gap to the runner-up.

    Evaluates every profile that zeroes exactly k indices with one batched
    ``eigvals`` call, and selects ties with the CLI's documented rule.
    """
    n = m.shape[0]
    zeroed = np.array(list(itertools.combinations(range(n), k)), dtype=int).reshape(-1, k)
    keep = np.ones((len(zeroed), n), dtype=bool)
    keep[np.arange(len(zeroed))[:, None], zeroed] = False
    support = np.nonzero(keep)[1].reshape(len(zeroed), n - k)
    blocks = m[support[:, :, None], support[:, None, :]]
    radii = np.abs(np.linalg.eigvals(blocks)).max(axis=1)
    best = float(radii.min())
    tie = radii - best <= TOL * max(1.0, abs(best))
    ties = [tuple(int(i) + 1 for i in z) for z in zeroed[tie]]
    others = radii[~tie]
    gap = float(others.min() - best) if others.size else float("inf")
    return best, ties, gap


def check_compare(op, code: int, stdout: str) -> str | None:
    records = dict(parse_records(stdout))
    verdict = records.get("verdict")
    if op.expect["equal"]:
        if code != 0 or verdict != "equal":
            return f"expected equal (exit 0), got {verdict!r} (exit {code})"
        return None
    if code != 1 or verdict != "not-equal":
        return f"expected not-equal (exit 1), got {verdict!r} (exit {code})"
    if "witness" not in records:
        return "not-equal verdict without a witness"
    witness = parse_set(records["witness"])
    n = op.expect["a"].shape[0]
    if not witness or min(witness) < 1 or max(witness) > n:
        return f"witness {witness} out of range"
    da = principal_det(op.expect["a"], witness)
    db = principal_det(op.expect["b"], witness)
    if not abs(da - db) > TOL * max(abs(da), abs(db)):
        return f"witness {witness} has equal minors {da!r} and {db!r}"
    return None


def check_clans(op, code: int, stdout: str) -> str | None:
    records = parse_records(stdout)
    clans = [parse_set(value) for key, value in records if key == "clan"]
    clan_free = dict(records).get("clan-free")
    planted = op.expect["planted"]
    if planted:
        if code != 1 or clan_free != "no":
            return f"planted clan instance: exit {code}, clan-free {clan_free!r}"
        missing = [alpha for alpha in planted if alpha not in clans]
        if missing:
            return f"planted clans {missing} not reported"
    elif code != 0 or clan_free != "yes" or clans:
        return f"clan-free instance: exit {code}, clan-free {clan_free!r}, clans {clans[:3]}"
    m = op.expect["m"]
    n = m.shape[0]
    for alpha in clans:
        if not 2 <= len(alpha) <= n - 2 or min(alpha) < 1 or max(alpha) > n:
            return f"reported clan {alpha} has an invalid size or index"
        a = [i - 1 for i in alpha]
        rest = [i for i in range(n) if i + 1 not in alpha]
        if not (rank_at_most_one(m[np.ix_(a, rest)]) and rank_at_most_one(m[np.ix_(rest, a)])):
            return f"reported clan {alpha} fails the 2x2-minor rank test"
    return None


def check_minimize(op, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    records = parse_records(stdout)
    values = dict(records)
    if "optimal-radius" not in values:
        return "no optimal-radius record"
    best = float(values["optimal-radius"])
    want = op.expect["best"]
    if not abs(best - want) <= TOL * max(1.0, abs(want)):
        return f"optimal radius {best!r}, oracle gives {want!r}"
    ties = [parse_set(value) for key, value in records if key == "optimal-set"]
    if ties != op.expect["ties"]:
        return f"optimal sets {ties}, oracle gives {op.expect['ties']}"
    return None


CHECKERS = {
    "compare": check_compare,
    "clans": check_clans,
    "minimize": check_minimize,
}


def check(op, code: int, stdout: str) -> str | None:
    """Why the op's output is wrong, or None when it is right."""
    try:
        return CHECKERS[op.kind](op, code, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
