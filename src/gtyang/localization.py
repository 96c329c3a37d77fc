"""Equivariant localization route to the amplitudes.

The tangent space at a fixed point is the kernel of the linearized gauge
relations modulo gauge orbits, graded by exact (loop, asymmetry) weight
pairs with the asymmetry parameter kept symbolic. Cutoff data enters through
the conjugate framing directions, whose grading is negated; this single
convention is pinned by the closed-form Euler classes of the rank-two chain
and survives every cross-check against the amplitude formulas.

Everything from the fixed point to the sector counts runs on Python ints:
every weight is a ``LinearForm(e, h)`` integer pair in units of (eps/2, h),
every arrow is an atom map, so relation rows, gauge columns and intertwining
conditions hold integer coefficients, kernels take integer rows and come back
as primitive integer vectors. ``Fraction`` enters only when a weight is
evaluated at the params.
"""

from __future__ import annotations

from fractions import Fraction

from gtyang.crystal import FixedPoint, atom_map, fixed_point_matrices
from gtyang.linalg import kernel_basis, rank
from gtyang.patterns import GTPattern, enumerate_patterns
from gtyang.quiver import FRAMING, ZERO_FORM, EquivariantParams, InvariantViolation, LinearForm

Rat = Fraction


class StabilityViolation(RuntimeError):
    pass


class NotAdjacent(ValueError):
    pass


class UncalibratedCell(RuntimeError):
    """Trim outside the configurations pinned against the closed forms: an
    incidence whose sign the rule does not decide, or a tangent excess that
    does not pair up into opposite weights."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation(message)


class DeformationComplex:
    """Deformation directions, linearized gauge relations and gauge orbits
    of one fixed point, everything indexed by exact weight pairs.

    Everything about the fixed point is computed once, here: the relation
    kernel of each weight (``kernels``), the gauge rank of each weight
    (``gauge_ranks``), the tangent grading trimmed to the expected dimension
    (``tangent``) and the opposite-weight pairs the trim removed
    (``removed``), all keyed by ``LinearForm``. Construction raises
    ``StabilityViolation`` when the gauge action is not free.
    """

    def __init__(self, fp: FixedPoint):
        self.fp = fp
        # node -> the weights of its atoms, in atom order
        self.coords = {
            node: [a.weight for a in fp.node_atoms(node)]
            for node in (FRAMING, *fp.spec.gauge_nodes)
        }
        # arrow name -> {target atom index: source atom index}; maps are injective
        self.preimage = {name: {t: s for s, t in m.items()} for name, m in fp.maps.items()}
        self.slot_weight: list[LinearForm] = []
        self.slot_index: dict[tuple[str, int, int], int] = {}
        self.slots_by_weight: dict[LinearForm, list[int]] = {}
        for arr in fp.spec.arrows:
            src = self.coords[arr.source]
            tgt = self.coords[arr.target]
            for r in range(len(tgt)):
                for c in range(len(src)):
                    key = (arr.name, r, c)
                    w = tgt[r] - src[c] - arr.weight
                    if arr.r_charge == 2:
                        w = -w  # conjugate framing direction
                    self.slot_index[key] = len(self.slot_weight)
                    self.slots_by_weight.setdefault(w, []).append(len(self.slot_weight))
                    self.slot_weight.append(w)
        self.rows = self._build_relation_rows()
        self.gauge_cols = self._build_gauge_columns()
        self.kernels = {w: self.kernel_sector(w) for w in sorted(self.slots_by_weight)}
        self.gauge_ranks = {w: self.gauge_rank_sector(w) for w in self.gauge_cols}
        if not self.gauge_injective():
            raise StabilityViolation("gauge action is not free at this fixed point")
        raw: dict[LinearForm, int] = {}
        for w, kernel in self.kernels.items():
            dim = len(kernel) - self.gauge_ranks.get(w, 0)
            _require(dim >= 0, "gauge orbit escapes the relation kernel")
            if dim:
                raw[w] = dim
        self.tangent, self.removed = _regularize_tangent(raw, 2 * len(_all_atoms(fp)), fp.pattern)

    # -- linearized relations -------------------------------------------

    def _build_relation_rows(self) -> dict[LinearForm, list[dict[int, int]]]:
        """First-order expansion of each gauge-sector derivative; every row
        is a dict slot index -> integer coefficient, grouped by its weight.
        Of ``QuiverSpec.cyclic_derivative`` it keeps the rests without a
        framing arrow, all of length two: the derivative of sign * tr(q x y)
        by q is sign * x y, of first order sign * (dx y + x dy)."""
        spec = self.fp.spec
        framing = {a.name for a in spec.arrows if a.is_framing}
        rows: dict[LinearForm, list[dict[int, int]]] = {}
        for arrow in spec.gauge_arrows:
            n_to = len(self.coords[arrow.source])
            n_from = len(self.coords[arrow.target])
            cells = [[{} for _ in range(n_from)] for _ in range(n_to)]
            for sign, rest in spec.cyclic_derivative(arrow.name):
                if not framing.isdisjoint(rest):
                    continue
                x, y = rest
                x_pre, y_map = self.preimage[x], self.fp.maps[y]
                for r in range(n_to):
                    for c in range(n_from):
                        cell = cells[r][c]
                        if c in y_map:  # dx y
                            idx = self.slot_index[(x, r, y_map[c])]
                            cell[idx] = cell.get(idx, 0) + sign
                        if r in x_pre:  # x dy
                            idx = self.slot_index[(y, x_pre[r], c)]
                            cell[idx] = cell.get(idx, 0) + sign
            for r in range(n_to):
                for c in range(n_from):
                    entries = {i: v for i, v in cells[r][c].items() if v != 0}
                    if entries:
                        weights = {self.slot_weight[i] for i in entries}
                        _require(len(weights) == 1, "relation row mixes weights")
                        rows.setdefault(weights.pop(), []).append(entries)
        return rows

    # -- gauge action ----------------------------------------------------

    def _build_gauge_columns(self):
        """One column per gl(V_a) direction: image of gamma under
        gamma -> gamma q - q gamma across all arrows, grouped by weight."""
        fp = self.fp
        cols: dict[LinearForm, list[dict[int, int]]] = {}
        for node in fp.spec.gauge_nodes:
            coords = self.coords[node]
            dim = len(coords)
            for r in range(dim):
                for c in range(dim):
                    w = coords[r] - coords[c]
                    image = {}
                    for arr in fp.spec.arrows:
                        q_map, q_pre = fp.maps[arr.name], self.preimage[arr.name]
                        if arr.target == node and c in q_pre:  # gamma * q
                            idx = self.slot_index[(arr.name, r, q_pre[c])]
                            image[idx] = image.get(idx, 0) + 1
                        if arr.source == node and r in q_map:  # - q * gamma
                            idx = self.slot_index[(arr.name, q_map[r], c)]
                            image[idx] = image.get(idx, 0) - 1
                    image = {i: v for i, v in image.items() if v != 0}
                    if image:
                        weights = {self.slot_weight[i] for i in image}
                        _require(len(weights) == 1, "gauge column mixes weights")
                        _require(weights.pop() == w, "gauge column off its gl weight")
                    cols.setdefault(w, []).append(image)
        return cols

    # -- per-weight kernels ----------------------------------------------

    def kernel_sector(self, w: LinearForm) -> list[dict[int, int]]:
        """Basis of ker(dF) restricted to the weight-w slots, as sparse
        primitive integer vectors over the global slot index."""
        idxs = self.slots_by_weight.get(w)
        if not idxs:
            return []
        rows = self.rows.get(w)
        if not rows:
            return [{g: 1} for g in idxs]
        basis = kernel_basis([[entries.get(g, 0) for g in idxs] for entries in rows])
        return [{idxs[l]: v for l, v in vec.items()} for vec in basis]

    def gauge_rank_sector(self, w: LinearForm) -> int:
        cols = self.gauge_cols.get(w)
        if not cols:
            return 0
        idxs = sorted({i for image in cols for i in image})
        return rank([[image.get(i, 0) for i in idxs] for image in cols])

    def gauge_injective(self) -> bool:
        # one gauge column per gl(V_a) direction
        return sum(self.gauge_ranks.values()) == sum(map(len, self.gauge_cols.values()))


def _regularize_tangent(
    sectors: dict[LinearForm, int], expected_dim: int, pattern: GTPattern
) -> tuple[dict[LinearForm, int], dict[LinearForm, int]]:
    """Cut the kernel down to the expected dimension.

    Scheme tangents jump upward at special fixed points; the excess always
    shows up as opposite-weight pairs, which get removed largest
    ``LinearForm.magnitude`` first, ties in weight order. Returns the trimmed grading
    and what was removed; an excess that does not pair up raises
    ``UncalibratedCell`` naming the pattern.
    """
    out = dict(sectors)
    removed: dict[LinearForm, int] = {}
    excess = sum(out.values()) - expected_dim
    if excess <= 0:
        # undershoot happens only for reduced framing choices; nothing to trim
        return out, removed
    if excess % 2:
        raise UncalibratedCell(f"odd tangent excess at {pattern.free_values} cannot pair up")
    candidates = sorted(
        (w for w in out if -w in out and w > -w), key=lambda w: (-w.magnitude(), w)
    )
    for w in candidates:
        mw = -w
        while excess > 0 and out.get(w, 0) > 0 and out.get(mw, 0) > 0:
            for u in (w, mw):
                out[u] -= 1
                removed[u] = removed.get(u, 0) + 1
                if out[u] == 0:
                    del out[u]
            excess -= 2
        if excess == 0:
            break
    if excess:
        raise UncalibratedCell(f"tangent excess at {pattern.free_values} is not hyperbolic")
    return out, removed


def tangent_graded(fp: FixedPoint) -> dict[LinearForm, int]:
    """Graded dimensions of ker(dF)/im(gauge), asymmetry kept symbolic,
    trimmed to the expected dimension (twice the atom count)."""
    return DeformationComplex(fp).tangent


def _euler(graded: dict[LinearForm, int], params: EquivariantParams) -> Rat:
    """Euler class of a grading: the product of its nonzero weights, times
    -1 for each pair of zero-valued directions."""
    zero_dims = sum(dim for form, dim in graded.items() if form.value(params) == 0)
    return (-1) ** (zero_dims // 2) * _sector_ratio(graded, {}, params)


def euler_class(fp: FixedPoint, params: EquivariantParams) -> Rat:
    return _euler(tangent_graded(fp), params)


def incidence_tangent_graded(
    cx: DeformationComplex, cx_plus: DeformationComplex
) -> dict[LinearForm, int]:
    """Tangent grading of the one-atom extension locus.

    Pairs of kernel deformations that admit an intertwiner deformation,
    modulo both gauge orbits. The base intertwiner tau is the atom map of
    zero displacement from the extended crystal onto the original one.
    """
    fp, fp_plus = cx.fp, cx_plus.fp
    small = set(a.coordinate for a in _all_atoms(fp))
    big = set(a.coordinate for a in _all_atoms(fp_plus))
    if not (small <= big and len(big) == len(small) + 1):
        raise NotAdjacent("second fixed point is not a single-atom extension")

    spec = fp.spec
    tau = {
        node: atom_map(fp_plus.node_atoms(node), fp.node_atoms(node), ZERO_FORM, 0)
        for node in (*spec.gauge_nodes, FRAMING)
    }
    # tau is injective, so its preimage is the inclusion of the smaller crystal
    tau_pre = {node: {s: b for b, s in t.items()} for node, t in tau.items()}

    # sanity: tau is an honest homomorphism from the extension to the base;
    # both sides compose injective partial maps, so no entry is a sum
    for arr in spec.arrows:
        q, qp, t_tgt = fp.maps[arr.name], fp_plus.maps[arr.name], tau[arr.target]
        lhs = {j: q[s] for j, s in tau[arr.source].items() if s in q}
        rhs = {j: t_tgt[b] for j, b in qp.items() if b in t_tgt}
        _require(lhs == rhs, f"projection fails to intertwine {arr.name}")

    # intertwiner deformation slots: Hom(V'_a, V_a) per gauge node, the
    # slot indices grouped by weight
    tau_index: dict[tuple[int, int, int], int] = {}
    tau_weight: list[LinearForm] = []
    tau_by_weight: dict[LinearForm, list[int]] = {}
    for node in spec.gauge_nodes:
        small_c = cx.coords[node]
        big_c = cx_plus.coords[node]
        for r in range(len(small_c)):
            for c in range(len(big_c)):
                w = small_c[r] - big_c[c]
                tau_index[(node, r, c)] = len(tau_weight)
                tau_by_weight.setdefault(w, []).append(len(tau_weight))
                tau_weight.append(w)

    # intertwining condition rows per arrow: rows in Hom(V'_src, V_tgt):
    #   dq.tau + q.dtau - dtau.q' - tau.dq' = 0
    # each row is (dq slot of cx or None, dq' slot of cx_plus or None, dtau
    # part), grouped by its weight
    conditions: dict[LinearForm, list[tuple[int | None, int | None, dict]]] = {}
    for arr in spec.arrows:
        q_pre = cx.preimage[arr.name]
        qp_map = fp_plus.maps[arr.name]
        t_src = tau[arr.source]
        t_tgt_pre = tau_pre[arr.target]
        for r in range(len(cx.coords[arr.target])):
            for c in range(len(cx_plus.coords[arr.source])):
                # dq.tau and tau.dq' each touch at most one slot, at +1 and -1
                slot_a = cx.slot_index[(arr.name, r, t_src[c])] if c in t_src else None
                slot_b = (
                    cx_plus.slot_index[(arr.name, t_tgt_pre[r], c)] if r in t_tgt_pre else None
                )
                mid: dict[int, int] = {}
                if arr.source != FRAMING and r in q_pre:
                    idx = tau_index[(arr.source, q_pre[r], c)]
                    mid[idx] = mid.get(idx, 0) + 1
                if arr.target != FRAMING and c in qp_map:
                    idx = tau_index[(arr.target, r, qp_map[c])]
                    mid[idx] = mid.get(idx, 0) - 1
                mid = {k: v for k, v in mid.items() if v != 0}
                if slot_a is not None or slot_b is not None or mid:
                    weights = {tau_weight[i] for i in mid}
                    if slot_a is not None:
                        weights.add(cx.slot_weight[slot_a])
                    if slot_b is not None:
                        weights.add(cx_plus.slot_weight[slot_b])
                    _require(len(weights) == 1, "condition row mixes weights")
                    conditions.setdefault(weights.pop(), []).append((slot_a, slot_b, mid))

    sectors: dict[LinearForm, int] = {}
    # a weight without kernel vectors on either side has no pairs to solve for
    for w in sorted(set(cx.kernels) | set(cx_plus.kernels)):
        k_a = cx.kernels.get(w, [])
        k_b = cx_plus.kernels.get(w, [])
        n_pairs = len(k_a) + len(k_b)
        if n_pairs == 0:
            continue
        tau_idx = tau_by_weight.get(w, [])
        rows_w = conditions.get(w, [])
        if rows_w:
            # columns: kernel basis of both sides, then the tau directions
            cond = []
            for slot_a, slot_b, mid in rows_w:
                # a missing slot is None, which no kernel vector holds
                row = [vec.get(slot_a, 0) for vec in k_a]
                row += [-vec.get(slot_b, 0) for vec in k_b]
                row += [mid.get(i, 0) for i in tau_idx]
                cond.append(row)
            tau_only = [row[n_pairs:] for row in cond]
            solutions = n_pairs - (rank(cond) - rank(tau_only))
        else:
            solutions = n_pairs
        dim = solutions - cx.gauge_ranks.get(w, 0) - cx_plus.gauge_ranks.get(w, 0)
        _require(dim >= 0, "gauge orbits exceed the incidence solutions")
        if dim:
            sectors[w] = dim

    # expected dimension: one more than the smaller state's tangent. Each
    # neighbouring jump state sheds exactly one member of its trimmed pair
    # here; the realized signs are pinned against the closed forms: a lone
    # pair follows the move node's parity, two distinct magnitudes split as
    # +larger/-smaller, equal magnitudes drop both signs.
    excess = sum(sectors.values()) - (2 * len(_all_atoms(fp)) + 1)
    if excess > 0:
        pool: list[LinearForm] = []
        for rem in (cx.removed, cx_plus.removed):
            for w, count in rem.items():
                if w > -w:
                    pool.extend([w] * count)
        if excess != len(pool):
            raise UncalibratedCell("incidence excess does not match the pair pool")
        if len(pool) == 1 and fp.pattern.n <= 4:
            (new_atom,) = sorted(big - small)
            added_node = next(
                a.node for a in _all_atoms(fp_plus) if a.coordinate == new_atom
            )
            w = pool[0]
            if abs(added_node - fp.pattern.p) % 2:
                drops = [-w]
            else:
                drops = [w]
        elif len(pool) == 2 and fp.pattern.n <= 4:
            hi, lo = sorted(pool, key=lambda w: (w.magnitude(), w), reverse=True)
            drops = [hi, -lo]
        else:
            raise UncalibratedCell(
                f"jump-cell sign not calibrated for {fp.pattern.free_values} -> "
                f"{fp_plus.pattern.free_values}"
            )
        for w in drops:
            if sectors.get(w, 0) <= 0:
                raise UncalibratedCell("calibrated sector missing from incidence")
            sectors[w] -= 1
            if sectors[w] == 0:
                del sectors[w]
            excess -= 1
    _require(excess == 0, "incidence dimension off the expected count")
    return sectors


def _all_atoms(fp: FixedPoint):
    return [a for node in fp.spec.gauge_nodes for a in fp.node_atoms(node)]


def incidence_euler(fp: FixedPoint, fp_plus: FixedPoint, params: EquivariantParams) -> Rat:
    cells = incidence_tangent_graded(DeformationComplex(fp), DeformationComplex(fp_plus))
    return _euler(cells, params)


def _sector_ratio(
    num: dict[LinearForm, int], den: dict[LinearForm, int], params: EquivariantParams
) -> Rat:
    """Euler class ratio taken weight by weight; zero-valued sectors cancel
    as h -> 0 limits instead of feeding the sign rule."""
    value = Fraction(1)
    for form in set(num) | set(den):
        v = form.value(params)
        if v == 0:
            continue
        exponent = num.get(form, 0) - den.get(form, 0)
        value *= v**exponent
    return value


def _move_amplitudes(
    cx: DeformationComplex, cx_plus: DeformationComplex, params: EquivariantParams
) -> tuple[Rat, Rat]:
    inc = incidence_tangent_graded(cx, cx_plus)
    return _sector_ratio(cx.tangent, inc, params), _sector_ratio(cx_plus.tangent, inc, params)


def amplitudes_via_localization(
    fp: FixedPoint, fp_plus: FixedPoint, params: EquivariantParams
) -> tuple[Rat, Rat]:
    """(raising, lowering) amplitudes as regularized Euler class ratios."""
    return _move_amplitudes(DeformationComplex(fp), DeformationComplex(fp_plus), params)


def localize_module(
    n: int, p: int, lam: int, params: EquivariantParams
) -> dict[tuple[GTPattern, int, int], tuple[Rat, Rat] | UncalibratedCell]:
    """(state, node, type) of each raising move -> its (raising, lowering)
    amplitudes, or the ``UncalibratedCell`` it raised; one deformation
    complex per pattern, shared by every move it takes part in. A pattern
    whose tangent cannot be trimmed leaves every move into or out of it
    undetermined."""
    patterns = enumerate_patterns(n, p, lam)
    complexes = {}
    for pat in patterns:
        fp = fixed_point_matrices(pat, all_framings=True)
        try:
            complexes[pat] = DeformationComplex(fp)
        except UncalibratedCell as exc:
            complexes[pat] = exc
    table = {}
    for pat in patterns:
        for k in range(1, n):
            for j, up in pat.raises(k):
                ends = (complexes[pat], complexes[up])
                failed = [cx for cx in ends if isinstance(cx, UncalibratedCell)]
                try:
                    table[pat, k, j] = failed[0] if failed else _move_amplitudes(*ends, params)
                except UncalibratedCell as exc:
                    table[pat, k, j] = exc
    return table

