"""z(e) and its center from the Jordan-block frame of a partition's triple.

triple_from_partition builds its triple from a block triple (h0, e0, f0)
(triples._block_triple) that the frame's one carry (BlockFrame.read) takes
into the realization entry by entry, Y -> (2T) Y U / 4 with U = 2 T^{-1}
on so/sp and Y on sl.  In that frame each Jordan block i of size d_i has a
cyclic vector v_i, and gl(N)^{e0} has the basis xi_ij^s, the map
e0^k v_j -> e0^(k+s) v_i, for max(0, d_i - d_j) <= s < d_i
(Collingwood-McGovern, section 6.1).  Distinct xi have disjoint supports,
with entries +-1, and the indices alone give their product:
xi_ij^s xi_kl^t is xi_il^(s+t) when j = k and s + t < d_i, and 0 otherwise.

So z(e) and its center need no kernel over g.  The frame algebra L is
gl^{e0} on sl and, on so/sp, its part fixed by sigma(Y) = -G^{-1} Y^T G,
G the form of the block triple, a signed permutation: sigma permutes the
xi up to sign (checked as the basis is built), so L has the basis
xi + sigma(xi), one per pair, whose structure constants are read off the
indices.  z is L taken into g by the same carry, on sl through the
traceless projection Y -> N Y - tr(Y) I (gl^e = sl^e + C I with I
central).  The center of L is the kernel of its bracket table over the
basis vectors that the torus of identity blocks fixes
(_FrameAlgebra.center), carried the same way; on sl the projection takes
the center of gl^e onto that of sl^e.  Each subspace is put in reduced
echelon form (linalg.echelon_maps), the canonical rows that centralizer and
center_of give; the tests compare the two routes on every orbit up to
sl(12), so(15), sp(14) and so(16).
"""

from __future__ import annotations

from .algebras import Subspace, _central_kernel
from .errors import InternalError
from .linalg import echelon_maps


class BlockFrame:
    """The Jordan-block frame of a partition's triple.

    chains: per Jordan block, ((position, sign), ...) with e0^k v = sign
    v_position for k = 0..d-1.  carry: the map of a block-frame matrix Y
    into the realization, Y[p][q] -> sum x y at (i, j) over (i, x) in
    carry[0][p] and (j, y) in carry[1][q]: the columns of 2T and the rows
    of U on so/sp (4 X for X = T Y T^{-1}), N Y on sl.  form: on so/sp,
    the form G of the block triple, per row a as (the column of its one
    entry, the entry); None on sl.
    """

    __slots__ = ("chains", "carry", "form")

    def __init__(self, chains, carry, form=None):
        self.chains = chains
        self.carry = carry
        self.form = form

    @property
    def parts(self):
        return tuple(len(chain) for chain in self.chains)

    def read(self, alg, entries):
        """The integer coordinates on g, {k: C_k}, of the block-frame matrix
        Y with these entries (p, q, v) carried into the realization, on sl
        through the traceless projection N Y - tr(Y) I: 4 X on so/sp and
        N X on sl for the element X of Y; InternalError outside g."""
        n = alg.matrix_size_N
        columns, rows = self.carry
        acc, trace = {}, 0
        for p, q, v in entries:
            trace += v if p == q else 0
            for i, x in columns[p]:
                f = v * x
                for j, y in rows[q]:
                    k = i * n + j
                    acc[k] = acc.get(k, 0) + f * y
        for p in range(n if trace and self.form is None else 0):
            acc[p * (n + 1)] = acc.get(p * (n + 1), 0) - trace
        out = alg._coords_of_entries({k: v for k, v in acc.items() if v})
        if out is None:
            raise InternalError("frame element does not lie in the algebra")
        return out


def block_frame(pieces, form=None, carry=None) -> BlockFrame:
    """The frame of the pieces of triples._pieces: a single block N_d, with
    e0 v_(k+1) = v_k, is walked from its last vector; the second block of a
    pair, -N_d^T, from its first.  On so/sp, form (a signed permutation)
    and carry come from triples._hyperbolic_basis and _congruence."""
    chains, off = [], 0
    for kind, d in pieces:
        chains.append(tuple((off + d - 1 - k, 1) for k in range(d)))
        if kind == "pair":
            chains.append(tuple((off + d + k, (-1) ** k) for k in range(d)))
        off += d * (1 if kind == "single" else 2)
    if form is None:
        carry = tuple(tuple(((p, c),) for p in range(off)) for c in (off, 1))
    elif sorted(c for c, _ in form) != list(range(off)) or any(abs(v) != 1 for _, v in form):
        raise InternalError("block form is not a signed permutation")
    return BlockFrame(tuple(chains), carry, form)


def centralizer_dim(family: str, parts) -> int:
    """dim z(e) from the Jordan type: with the dual partition l*, sum l*_i^2
    - 1 on sl, and (sum l*_i^2 -+ #odd parts) / 2 on so (-) and sp (+)
    (Collingwood-McGovern, Corollary 6.1.4)."""
    squares = sum(sum(1 for p in parts if p > i) ** 2 for i in range(max(parts)))
    if family == "A":
        return squares - 1
    odd = sum(p % 2 for p in parts)
    return (squares + (odd if family == "C" else -odd)) // 2


class _FrameAlgebra:
    """L, the frame algebra of a triple's BlockFrame in a realization: the
    xi as (i, j, s) with their entries, and the basis of L as combinations
    {xi: coefficient} (see the module docstring)."""

    def __init__(self, alg, frame: BlockFrame):
        self.algebra = alg
        self.frame = frame
        chains = frame.chains
        self.sizes = sizes = frame.parts
        self.xis = [
            (i, j, s)
            for i, di in enumerate(sizes)
            for j, dj in enumerate(sizes)
            for s in range(max(0, di - dj), di)
        ]
        self.index = {x: a for a, x in enumerate(self.xis)}
        # xi_ij^s at (p_i(k+s), p_j(k)), entry sign_i(k+s) sign_j(k)
        self.entries = [
            [
                (chains[i][k + s][0], chains[j][k][0], chains[i][k + s][1] * chains[j][k][1])
                for k in range(sizes[j])
                if k + s < sizes[i]
            ]
            for i, j, s in self.xis
        ]
        if frame.form is None:
            self.basis = [{a: 1} for a in range(len(self.xis))]
        else:
            self.basis = self._sigma_basis(frame.form)

    def _sigma_basis(self, form):
        """The combinations xi + sigma(xi), one per pair {xi, sigma(xi)}, in
        the order of their first xi; xi alone when sigma(xi) = xi, and none
        when sigma(xi) = -xi.  sigma(Y)[c_a][c_b] = -G_a Y[b][a] G_b for G
        with the entry G_a at (a, c_a)."""
        owner = {
            (p, q): (a, v) for a, entries in enumerate(self.entries) for p, q, v in entries
        }
        basis, seen = [], set()
        for a, entries in enumerate(self.entries):
            if a in seen:
                continue
            image = []
            for p, q, v in entries:
                (cq, gq), (cp, gp) = form[q], form[p]
                image.append((cq, cp, -gq * v * gp))
            b, w = owner.get(image[0][:2], (a, 0))
            sign = image[0][2] * w
            if not w or len(image) != len(self.entries[b]) or any(
                owner.get((p, q)) != (b, sign * v) for p, q, v in image
            ):
                raise InternalError("sigma does not permute the frame basis")
            seen.update((a, b))
            if b != a:
                basis.append({a: 1, b: sign})
            elif sign == 1:
                basis.append({a: 1})
        return basis

    def center(self):
        """The center of L: (candidates, W), W the echelon kernel of the
        bracket table over the candidates, whose row r holds the
        coefficients of a center vector on the B_c, c in candidates.

        The basis vectors made of identity blocks xi_ii^0 alone span a torus
        of L that acts on xi_ab^s by the coefficient of xi_aa^0 less that of
        xi_bb^0.  A central element commutes with it, so it lies in the span
        of the candidates, the B_c on which every torus vector acts by 0.
        """
        xis = self.xis
        torus = [
            {xis[a][0]: v for a, v in combo.items()}
            for combo in self.basis
            if all(xis[a][0] == xis[a][1] and not xis[a][2] for a in combo)
        ]
        weight = [tuple(t.get(i, 0) for t in torus) for i in range(len(self.sizes))]
        candidates = [
            c
            for c, combo in enumerate(self.basis)
            if all(weight[xis[a][0]] == weight[xis[a][1]] for a in combo)
        ]
        return candidates, _central_kernel(self.table(candidates), len(candidates))[1]

    def table(self, candidates):
        """The bracket table of the candidates with all of L: {(u, k): {r:
        the coefficient of B_k in [B_c, B_u]}} for c = candidates[r], over the
        nonzero coefficients.  The brackets are summed over the nonzero
        products of the xi, and B_k is read at its first xi, where its
        coefficient is 1, since every bracket lies in L."""
        xis, sizes, index = self.xis, self.sizes, self.index
        by_left, by_right = {}, {}
        for a, (i, j, s) in enumerate(xis):
            by_left.setdefault(i, []).append(a)
            by_right.setdefault(j, []).append(a)
        owner, first = {}, {}
        for c, combo in enumerate(self.basis):
            for a, v in combo.items():
                owner[a] = (c, v)
            first[next(iter(combo))] = c
        rows = {}
        for r, c in enumerate(candidates):
            for a, v in self.basis[c].items():
                i, j, s = xis[a]
                # xi_a xi_b for the xi_b into block j, -xi_b xi_a for those out of i
                for partners, sign in ((by_left.get(j, ()), 1), (by_right.get(i, ()), -1)):
                    for b in partners:
                        hit = owner.get(b)
                        if hit is None:
                            continue
                        bi, bj, t = xis[b]
                        left, right = (i, bj) if sign > 0 else (bi, j)
                        if s + t >= sizes[left]:
                            continue
                        k = first.get(index[left, right, s + t])
                        if k is not None:
                            row = rows.setdefault((hit[0], k), {})
                            row[r] = row.get(r, 0) + sign * v * hit[1]
        # products that cancel, as in [xi_aa^s, xi_aa^t], leave zeros
        rows = {key: {r: v for r, v in row.items() if v} for key, row in rows.items()}
        return {key: row for key, row in rows.items() if row}

    def realize(self, combo):
        """The integer coordinates on g, {k: C_k}, of a combination of the
        xi carried into the realization (BlockFrame.read)."""
        entries = [(p, q, v * w) for a, v in combo.items() for p, q, w in self.entries[a]]
        return self.frame.read(self.algebra, entries)


def frame_subspaces(alg, frame: BlockFrame):
    """(z(e), center of z(e), L's basis carried into g as coordinate maps)
    for the triple whose frame this is, from the frame algebra L alone, with
    no kernel of ad(e) and no bracket in g-coordinates: z is the span of the
    carried basis, its center that of the combinations that L.center gives."""
    L = _FrameAlgebra(alg, frame)
    coords = [L.realize(combo) for combo in L.basis]
    candidates, kernel = L.center()
    central = []
    for w in kernel:
        acc = {}
        for c, wc in zip(candidates, w):
            if wc:
                for q, v in coords[c].items():
                    acc[q] = acc.get(q, 0) + wc * v
        central.append(acc)
    return _span(alg, coords), _span(alg, central), coords


def _span(alg, vectors) -> Subspace:
    """The subspace spanned by integer coordinate maps {k: C_k}."""
    pivots, rows = echelon_maps(vectors, alg.dim)
    return Subspace(alg, rows, pivots)
