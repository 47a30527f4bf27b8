"""Nilpotent elements from partitions, completed to sl(2)-triples.

For sl(n) a partition gives the usual block Jordan nilpotent.  For the
orthogonal and symplectic families the element is assembled from blocks
carrying their natural invariant bilinear forms (one Jordan block with an
alternating-sign antidiagonal form for an unconstrained part, a hyperbolic
pair of blocks for the parts whose multiplicity the family constrains) and
then conjugated into the fixed split realization by an explicit rational
congruence of forms.  Correctness is intrinsic, not shape-based: the result
is checked to lie in the algebra, be nilpotent, and have the right Jordan
type, and a triple through it always exists.

Completion prefers the closed-form block triple for Jordan-shaped sl(n)
input and otherwise runs a constructive Jacobson-Morozov: both steps are
plain rational linear systems, with the echelon-first solution taken so
results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._scalar import ONE, Rat, ZERO
from .algebras import (
    AlgebraRealization,
    Element,
    _zero_rows,
    ad_matrix,
    bracket,
    centralizer,
)
from .errors import ContractError, InternalError, PartitionError
from .linalg import inverse, mat_mul, rank_kernel, solve


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive integer parts."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise PartitionError("empty partition")
        if any(p <= 0 for p in parts):
            raise PartitionError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise PartitionError("parts must be weakly decreasing")

    @classmethod
    def parse(cls, text: str) -> "Partition":
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise PartitionError(f"cannot parse partition {text!r}") from exc
        return cls(parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def multiplicity(self, d: int) -> int:
        return sum(1 for p in self.parts if p == d)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Triplet:
    """An sl(2)-triple (h, e, f); the defining brackets are checked exactly."""

    h: Element
    e: Element
    f: Element

    def __post_init__(self):
        h, e, f = self.h, self.e, self.f
        if bracket(h, e) != e.scale(2):
            raise InternalError("triple relation [h,e] = 2e failed")
        if bracket(h, f) != f.scale(-2):
            raise InternalError("triple relation [h,f] = -2f failed")
        if bracket(e, f) != h:
            raise InternalError("triple relation [e,f] = h failed")

    @property
    def algebra(self) -> AlgebraRealization:
        return self.e.algebra


def _validate_partition(alg: AlgebraRealization, p: Partition):
    if p.total != alg.matrix_size_N:
        raise PartitionError(
            f"partition sums to {p.total}, matrix size is {alg.matrix_size_N}"
        )
    if alg.family in ("B", "D"):
        for d in set(p.parts):
            if d % 2 == 0 and p.multiplicity(d) % 2 != 0:
                raise PartitionError(
                    "orthogonal families need even parts with even multiplicity"
                )
    elif alg.family == "C":
        for d in set(p.parts):
            if d % 2 == 1 and p.multiplicity(d) % 2 != 0:
                raise PartitionError(
                    "symplectic family needs odd parts with even multiplicity"
                )


def _jordan_rows(n, parts):
    rows = _zero_rows(n)
    off = 0
    for d in parts:
        for t in range(d - 1):
            rows[off + t][off + t + 1] = ONE
        off += d
    return rows


def _form_value(g_rows, u, v):
    acc = ZERO
    for i, ui in enumerate(u):
        if ui:
            gi = g_rows[i]
            for j, vj in enumerate(v):
                if vj and gi[j]:
                    acc += ui * gi[j] * vj
    return acc


def _unit(n, k):
    vec = [ZERO] * n
    vec[k] = ONE
    return vec


def _so_sp_nilpotent_rows(alg: AlgebraRealization, p: Partition):
    """Nilpotent of the given Jordan type inside the split so/sp realization.

    Builds the block element e0 and its invariant form G on a scratch basis,
    then finds T with T^t S T = G (S the realization's form) by matching the
    hyperbolic-plane decompositions of both forms; T e0 T^{-1} is the result.
    """
    n = alg.matrix_size_N
    symmetric = alg.family in ("B", "D")

    # Pieces: descending size; family-constrained sizes occur in pairs.
    sizes = sorted(set(p.parts), reverse=True)
    pieces = []  # ("single", d) or ("pair", d)
    for d in sizes:
        mult = p.multiplicity(d)
        pieces.extend(("pair", d) for _ in range(mult // 2))
        if mult % 2:  # validated: only unconstrained sizes have odd multiplicity
            pieces.append(("single", d))

    singles = sum(1 for kind, _ in pieces if kind == "single")
    want_plus = (singles + 1) // 2  # leftover middle must pair to +1 when N is odd

    e0 = _zero_rows(n)
    g = _zero_rows(n)
    hyper = []  # (u, w) with G(u,w) = +1 (and G(w,u) = +1 resp. -1)
    plus_mids = []
    minus_mids = []

    off = 0
    seen_singles = 0
    for kind, d in pieces:
        if kind == "pair":
            # diag(N_d, -N_d^T) preserves [[0, I], [c I, 0]], c = +1/-1
            for t in range(d - 1):
                e0[off + t][off + t + 1] = ONE
                e0[off + d + t + 1][off + d + t] = -ONE
            for t in range(d):
                g[off + t][off + d + t] = ONE
                g[off + d + t][off + t] = ONE if symmetric else -ONE
                hyper.append((_unit(n, off + t), _unit(n, off + d + t)))
            off += 2 * d
        else:
            # one Jordan block; invariant form is antidiagonal with
            # alternating signs, rescaled by `sign` (orthogonal case only)
            # to keep the assembled form in the split congruence class.
            if symmetric:
                eps = 1 if (d - 1) // 2 % 2 == 0 else -1
                desired = 1 if seen_singles < want_plus else -1
                sign = desired * eps
                seen_singles += 1
            else:
                sign = 1
            for t in range(d - 1):
                e0[off + t][off + t + 1] = ONE
            for t in range(d):
                g[off + t][off + d - 1 - t] = Rat(sign * (-1) ** t)
            half = d // 2
            for t in range(half):
                b = Rat(sign * (-1) ** t)
                hyper.append((_unit(n, off + t), [v / b for v in _unit(n, off + d - 1 - t)]))
            if d % 2:
                mid = _unit(n, off + (d - 1) // 2)
                (plus_mids if sign * (-1) ** ((d - 1) // 2) > 0 else minus_mids).append(mid)
            off += d

    # A (+1, -1) pair of middles spans a hyperbolic plane over the rationals.
    if len(minus_mids) > len(plus_mids):
        raise InternalError("middle sign balancing failed")
    for pv, mv in zip(plus_mids, minus_mids):
        u = [a + b for a, b in zip(pv, mv)]
        w = [(a - b) / 2 for a, b in zip(pv, mv)]
        hyper.append((u, w))
    leftover = plus_mids[len(minus_mids) :]
    if len(leftover) != n % 2:
        raise InternalError("hyperbolic decomposition does not match the form")

    # Columns of P: the G-decomposition; columns of Q: the matching split
    # decomposition of the realization's form.  Both satisfy X^t form X = K.
    p_cols = []
    q_cols = []
    for idx, (u, w) in enumerate(hyper):
        p_cols.extend([u, w])
        q_cols.extend([_unit(n, idx), _unit(n, n - 1 - idx)])
    if leftover:
        p_cols.append(leftover[0])
        q_cols.append(_unit(n, (n - 1) // 2))

    for a, ua in enumerate(p_cols):
        for b, ub in enumerate(p_cols):
            gval = _form_value(g, ua, ub)
            sval = _form_value(alg.form, q_cols[a], q_cols[b])
            if gval != sval:
                raise InternalError("form decompositions disagree")

    p_rows = [list(row) for row in zip(*p_cols)]
    q_rows = [list(row) for row in zip(*q_cols)]
    t_rows = mat_mul(q_rows, inverse(p_rows))
    return mat_mul(mat_mul(t_rows, e0), inverse(t_rows))


def _check_jordan_type(e: Element, p: Partition):
    n = e.algebra.matrix_size_N
    rows, _ = e.int_rows()  # ranks of powers do not see the denominator
    power = rows
    for k in range(1, p.parts[0] + 1):
        rank, _ = rank_kernel(power, n)
        expected_nullity = sum(min(part, k) for part in p.parts)
        if n - rank != expected_nullity:
            raise InternalError(f"constructed nilpotent has wrong Jordan type at power {k}")
        power = mat_mul(power, rows)


def nilpotent_from_partition(alg: AlgebraRealization, p: Partition) -> Element:
    """A nilpotent element of the given Jordan type in the realization."""
    _validate_partition(alg, p)
    if alg.family == "A":
        return alg.from_matrix(_jordan_rows(alg.matrix_size_N, p.parts))
    rows = _so_sp_nilpotent_rows(alg, p)
    e = alg.from_matrix(rows)
    _check_jordan_type(e, p)
    return e


def _jordan_blocks_of(e: Element):
    """Block sizes when e is exactly a 0/1 superdiagonal Jordan pattern,
    else None."""
    n = e.algebra.matrix_size_N
    rows = e.matrix_rows()
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            if j == i + 1:
                if v != 0 and v != 1:
                    return None
            elif v != 0:
                return None
    blocks = []
    size = 1
    for i in range(n - 1):
        if rows[i][i + 1] == 1:
            size += 1
        else:
            blocks.append(size)
            size = 1
    blocks.append(size)
    return blocks


def _closed_form_triple(alg: AlgebraRealization, e: Element, blocks) -> Triplet:
    n = alg.matrix_size_N
    h_rows = _zero_rows(n)
    f_rows = _zero_rows(n)
    off = 0
    for d in blocks:
        for t in range(d):
            h_rows[off + t][off + t] = Rat(d - 1 - 2 * t)
        for t in range(d - 1):
            f_rows[off + t + 1][off + t] = Rat((t + 1) * (d - 1 - t))
        off += d
    return Triplet(alg.from_matrix(h_rows), e, alg.from_matrix(f_rows))


def sl2_complete(alg: AlgebraRealization, e: Element) -> Triplet:
    """Complete a nonzero nilpotent e to an sl(2)-triple (h, e, f).

    Jordan-shaped sl(n) input gets the closed-form block triple (small
    integers, deterministic).  Otherwise h is found inside the image of
    ad(e) by solving [e, [e, w]] = -2e and f by the stacked linear system
    [e, f] = h, [h, f] = -2f; both systems are consistent for any nonzero
    nilpotent in characteristic zero, so a failure raises InternalError.
    """
    if e.algebra is not alg:
        raise ContractError("element does not belong to the given algebra")
    if e.is_zero():
        raise ContractError("cannot complete the zero element")
    if not e.is_nilpotent():
        raise ContractError("element is not nilpotent")
    if alg.family == "A":
        blocks = _jordan_blocks_of(e)
        if blocks is not None:
            return _closed_form_triple(alg, e, blocks)
    dim = alg.dim
    ade = ad_matrix(e)
    w = solve(mat_mul(ade, ade), dim, [-2 * c for c in e.coords])
    if w is None:
        raise InternalError("no grading element in the image of ad(e)")
    h = bracket(e, Element(alg, w))
    adh = ad_matrix(h)
    for i, row in enumerate(adh):
        row[i] += 2
    rhs = list(h.coords) + [ZERO] * dim
    f = solve(ade + adh, dim, rhs)
    if f is None:
        raise InternalError("triple completion system is inconsistent")
    return Triplet(h, e, Element(alg, f))


def principal_partition(alg: AlgebraRealization) -> Partition:
    n = alg.matrix_size_N
    if alg.family in ("A", "B", "C"):
        return Partition((n,))
    return Partition((n - 1, 1))


def principal_triplet(alg: AlgebraRealization) -> Triplet:
    """Triple through a regular nilpotent (centralizer dimension = rank)."""
    e = nilpotent_from_partition(alg, principal_partition(alg))
    triple = sl2_complete(alg, e)
    if centralizer(e).dim != alg.rank_r:
        raise InternalError("principal nilpotent is not regular in this realization")
    return triple
