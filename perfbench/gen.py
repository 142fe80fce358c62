"""Seeded input generation owned by the benchmark.

Every input is rendered as entry text in the package's entry grammar, so
the package only ever sees text (or the matrices parsed from it).  The
generators here deliberately do not call ``blanchfield.random_seifert``
or ``blanchfield.stabilize``: the benchmark must keep producing the same
inputs when the package changes.

Each generated job carries its input properties (kind, genus, coefficient
bound, whether the Alexander polynomial is 1) for the run record.
"""

from __future__ import annotations

import dataclasses
import random


@dataclasses.dataclass
class Job:
    slot: str
    kind: str
    genus: int
    bound: int
    delta_one: bool
    text: str = ""
    argv: tuple = ()
    extra: dict = dataclasses.field(default_factory=dict)

    def props(self) -> dict:
        return {"slot": self.slot, "kind": self.kind, "genus": self.genus,
                "bound": self.bound, "delta_one": self.delta_one}


def render(name: str, kind: str, **mats) -> str:
    lines = [f"name: {name}", f"kind: {kind}"]
    for key, grid in mats.items():
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in grid)
        lines.append(f"{key}: [{body}]")
    return "\n".join(lines) + "\n"


def transpose(m):
    return [list(r) for r in zip(*m)] if m else []


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a]


def symplectic(k: int):
    n = 2 * k
    j = [[0] * n for _ in range(n)]
    for i in range(k):
        j[i][k + i] = 1
        j[k + i][i] = -1
    return j


def seifert(rng: random.Random, genus: int, bound: int):
    """Random symmetric matrix plus the standard symplectic offset.

    A - A^T is then exactly (0 id; -id 0), so A is a Seifert matrix of
    some knot and det(tA - A^T) is nonzero (it is +-1 at t = 1).
    """
    n = 2 * genus
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(-bound, bound)
    for i in range(genus):
        a[i][genus + i] += 1
    return a


def fibred_monodromy(rng: random.Random, k: int, count: int):
    """Product of integer symplectic transvections x -> x + c (v^T J x) v.

    Each factor is I + c v v^T J, which satisfies P^T J P = J because
    J^T = -J and v^T J v = 0; so the product does too.
    """
    n = 2 * k
    j = symplectic(k)
    p = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(count):
        v = [rng.randint(-1, 1) for _ in range(n)]
        if not any(v):
            v[rng.randrange(n)] = 1
        c = rng.choice((-1, 1))
        vj = [sum(v[r] * j[r][col] for r in range(n)) for col in range(n)]
        factor = [[int(r == col) + c * v[r] * vj[col] for col in range(n)]
                  for r in range(n)]
        p = matmul(factor, p)
    return p, j


def stabilized_unknot(genus: int):
    """Seifert matrix of the unknot stabilized genus times (so Delta = 1).

    Each step appends a hyperbolic pair with zero enlargement data and a
    single 1 next to the new diagonal, alternately above and below it:
    A - A^T stays unimodular and the Alexander module stays trivial.
    """
    n = 2 * genus
    a = [[0] * n for _ in range(n)]
    for k in range(genus):
        i = 2 * k
        if k % 2:
            a[i + 1][i] = 1
        else:
            a[i][i + 1] = 1
    return a


def seifert_job(rng, slot, genus, bound, delta_one=False, matrix=None) -> Job:
    a = matrix if matrix is not None else seifert(rng, genus, bound)
    job = Job(slot, "seifert", genus, bound, delta_one,
              render(slot, "seifert", A=a))
    job.extra["A"] = a
    return job


def make_job(slot: str, rng: random.Random) -> Job:
    """Build one job for a slot name of the form kind-g<genus>[-b<bound>]."""
    parts = slot.split("-")
    kind = parts[0]
    genus = int(parts[1][1:])
    bound = int(parts[2][1:]) if len(parts) > 2 else 0
    if kind == "seifert":
        return seifert_job(rng, slot, genus, bound)
    if kind == "unknot":
        # one fixed entry: its Kearton box search costs the same every cycle
        return seifert_job(rng, slot, genus, 1, True, stabilized_unknot(genus))
    if kind == "fibred":
        p, j = fibred_monodromy(rng, genus, count=3)
        return Job(slot, "fibred", genus, 1, False, render(slot, "fibred", P=p, J=j))
    if kind == "dual":
        a = seifert(rng, genus, bound)
        skew = [[x - y for x, y in zip(r, c)] for r, c in zip(a, transpose(a))]
        return Job(slot, "dual-surface", genus, bound, False,
                   render(slot, "dual-surface", Iplus=a, Iminus=transpose(a), J=skew))
    raise ValueError(f"unknown slot {slot!r}")


def job_rng(seed: int, workload: str, index: int) -> random.Random:
    # string seeds hash with sha512, so this is stable across processes
    return random.Random(f"{seed}:{workload}:{index}")
