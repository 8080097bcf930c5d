"""Independent oracles for the test suite.

Nothing in here reuses the code paths under test: subspace counts come from
explicit span enumeration, Stirling numbers from the classical recurrence,
totients from the gcd definition, and Z/n[X]/(mu) arithmetic from
fixed-length coefficient tuples (``Model``).
"""

import itertools
import math


def brute_totient(m):
    return sum(1 for i in range(1, m + 1) if math.gcd(i, m) == 1)


def stirling2_table(max_n):
    """S(n, k) by the recurrence S(n,k) = k*S(n-1,k) + S(n-1,k-1)."""
    table = {(0, 0): 1}
    for n in range(1, max_n + 1):
        table[(n, 0)] = 0
        for k in range(1, n + 1):
            table[(n, k)] = k * table.get((n - 1, k), 0) + table.get((n - 1, k - 1), 0)
    return table


def count_subspaces(field, n, k):
    """Number of k-dimensional subspaces of field^n, by span enumeration.

    Subspaces are built level by level: each (j+1)-dimensional space is the
    span of a j-dimensional one and a vector outside it, deduplicated by the
    reduced-row-echelon canonical basis.  No counting formula is involved;
    the field's own arithmetic is tabulated once up front for speed.
    """
    els = [e.payload for e in field.elements()]
    zero = field._zero()
    add = {(a, b): field._add(a, b) for a in els for b in els}
    mul = {(a, b): field._mul(a, b) for a in els for b in els}
    neg = {a: field._neg(a) for a in els}
    inv = {a: field._invert(a) for a in els}

    def reduce_vec(v, rows):
        v = list(v)
        for row, pivot in rows:
            c = v[pivot]
            if c != zero:
                nc = neg[c]
                for i in range(n):
                    v[i] = add[(v[i], mul[(nc, row[i])])]
        return v

    def insert(rows, v):
        # v already reduced against rows and nonzero; normalize and back-eliminate
        pivot = next(i for i in range(n) if v[i] != zero)
        s = inv[v[pivot]]
        v = [mul[(s, c)] for c in v]
        new_rows = []
        for row, p in rows:
            c = row[pivot]
            if c != zero:
                nc = neg[c]
                row = [add[(a, mul[(nc, b)])] for a, b in zip(row, v)]
            new_rows.append((tuple(row), p))
        new_rows.append((tuple(v), pivot))
        new_rows.sort(key=lambda rp: rp[1])
        return tuple(new_rows)

    vectors = list(itertools.product(els, repeat=n))
    level = {()}
    for _ in range(k):
        nxt = set()
        for rows in level:
            for v in vectors:
                red = reduce_vec(v, rows)
                if any(c != zero for c in red):
                    nxt.add(insert(rows, red))
        level = nxt
    return len(level)


class Model:
    """Z/n[X]/(mu) on fixed-length coefficient tuples, mu monic, constant first."""

    def __init__(self, n, mu):
        self.n, self.mu, self.d = n, mu, len(mu) - 1
        self.zero = (0,) * self.d
        self.one = (1 % n,) + (0,) * (self.d - 1)

    def elements(self):
        return itertools.product(range(self.n), repeat=self.d)

    def add(self, a, b):
        return tuple((x + y) % self.n for x, y in zip(a, b))

    def mul(self, a, b):
        n, d, mu = self.n, self.d, self.mu
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k] % n
            for j in range(d + 1):
                prod[k - d + j] -= c * mu[j]
        return tuple(x % n for x in prod[:d])

    def pad(self, payload):
        return tuple(payload) + (0,) * (self.d - len(payload))

    def is_unit_by_rank(self, v):
        """n prime: v is a unit iff multiplication by v has full rank over F_n."""
        p = self.n
        basis = [tuple(int(i == j) for j in range(self.d)) for i in range(self.d)]
        rows = [list(self.mul(v, e)) for e in basis]
        rank = 0
        for col in range(self.d):
            pivot = next((r for r in range(rank, self.d) if rows[r][col] % p), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = pow(rows[rank][col], -1, p)
            rows[rank] = [x * inv % p for x in rows[rank]]
            for r in range(self.d):
                if r != rank and rows[r][col]:
                    c = rows[r][col]
                    rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
            rank += 1
        return rank == self.d

    def flatness(self, q, is_unit):
        """(flat, divisible, least m with (m)_q nonzero and not a unit), by walking the orbit."""
        seen = set()
        s, pw, m = self.zero, self.one, 0
        while (s, pw) not in seen:
            seen.add((s, pw))
            if s != self.zero and not is_unit(s):
                return False, False, m
            s, pw, m = self.add(s, pw), self.mul(pw, q), m + 1
        return True, True, None

    def state(self, q, m):
        s, pw = self.zero, self.one
        for _ in range(m):
            s, pw = self.add(s, pw), self.mul(pw, q)
        return s
