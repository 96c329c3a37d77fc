"""Equivariant localization route to the amplitudes.

A move needs three linear maps, all images of directions built by one
``_images`` from weight-graded Hom slots laid out by ``_hom``: the
linearized relations send each arrow direction dq to its first-order
change of the gauge-arrow derivatives dW/dq, and ``_action`` sends each
direction X in Hom(V'_a, V_a) to X q' - q X in the arrow slots. The
deformation complex is V' = V, its kernels the relations among the
relation images of each weight, its gauge orbits the deformations of the
identity intertwiner; the incidence pushes both ends' kernels through the
intertwiner tau into the same slots and solves by one rank per weight.

Weights are exact (loop, asymmetry) pairs, the asymmetry kept symbolic.
Cutoff data enters through the conjugate framing directions, whose grading
is negated; this single convention is pinned by the closed-form Euler
classes of the rank-two chain and survives every cross-check against the
amplitude formulas. Everything from the fixed point to the sector counts
runs on ints (``LinearForm`` weights, atom maps, sparse integer images and
primitive integer kernel vectors); ``Fraction`` enters only when a weight is
evaluated at the params.
"""

from __future__ import annotations

import functools
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
    """Deformation directions, their linearized relations and gauge orbits
    of one fixed point, everything indexed by exact weight pairs.

    Everything about the fixed point is computed once, here: the relation
    images of the slots (``relations``) and their kernel (``kernels``) and
    the gauge rank (``gauge_ranks``) of each weight, the tangent grading
    trimmed to the expected dimension (``tangent``) and the opposite-weight
    pairs the trim removed (``removed``), all keyed by ``LinearForm``.
    Construction raises ``StabilityViolation`` when the gauge action is not
    free, or when the framing atom does not generate the fixed point.
    """

    def __init__(self, fp: FixedPoint):
        self.fp = fp
        # node -> the weights of its atoms, in atom order
        self.coords = {
            node: tuple(a.weight for a in fp.node_atoms(node))
            for node in (FRAMING, *fp.spec.gauge_nodes)
        }
        # arrow name -> {target atom index: source atom index}; maps are injective
        self.preimage = {name: {t: s for s, t in m.items()} for name, m in fp.maps.items()}
        # the gauge orbit is the deformation of the identity intertwiner
        slots, _, self.gauge_cols = _action(self, self)
        self.slot_index, self.slot_weight, self.slots_by_weight = slots
        self.relations = _relations(self, slots)
        self.kernels = {w: self.kernel_sector(w) for w in sorted(self.slots_by_weight)}
        self.gauge_ranks = {w: self.gauge_rank_sector(w) for w in self.gauge_cols}
        if not self.gauge_injective():
            raise StabilityViolation("gauge action is not free at this fixed point")
        _require_generated(fp)
        raw: dict[LinearForm, int] = {}
        for w, kernel in self.kernels.items():
            dim = len(kernel) - self.gauge_ranks.get(w, 0)
            _require(dim >= 0, "gauge orbit escapes the relation kernel")
            if dim:
                raw[w] = dim
        self.tangent, self.removed = _regularize_tangent(raw, 2 * len(_all_atoms(fp)), fp.pattern)

    def kernel_sector(self, w: LinearForm) -> list[dict[int, int]]:
        """Basis of ker(dF) on the weight-w slots, the relations among their
        relation images, as primitive integer vectors over the slot index."""
        idxs = self.slots_by_weight.get(w, [])
        basis = kernel_basis(self.relations.get(w, []))
        return [{idxs[l]: v for l, v in vec.items()} for vec in basis]

    def gauge_rank_sector(self, w: LinearForm) -> int:
        return rank(self.gauge_cols.get(w, []))

    def gauge_injective(self) -> bool:
        # one gauge column per gl(V_a) direction
        return sum(self.gauge_ranks.values()) == sum(map(len, self.gauge_cols.values()))


def _hom(blocks):
    """One slot per entry of each block ``(key, row weights, column weights,
    shift, negated)``, of weight row - column - shift, negated for a
    conjugate framing direction. Returns (key, r, c) -> slot index, the
    weight of each slot, and the slots of each weight in index order."""
    index, weight, by_weight = {}, [], {}
    for key, rows, cols, shift, negated in blocks:
        for r, c, w in _block_weights(rows, cols, shift, negated):
            index[key, r, c] = n = len(weight)
            by_weight.setdefault(w, []).append(n)
            weight.append(w)
    return index, weight, by_weight


@functools.cache
def _block_weights(rows, cols, shift, negated):
    """(r, c, weight) of each entry of a ``_hom`` block, row-major. Cached:
    away from the added node, an incidence lays out the blocks its two
    complexes laid out already."""
    sign = -1 if negated else 1
    out = []
    for r, (e, h) in enumerate(rows):
        e, h = e - shift.e, h - shift.h
        for c, (e_col, h_col) in enumerate(cols):
            out.append((r, c, LinearForm(sign * (e - e_col), sign * (h - h_col))))
    return tuple(out)


def _images(directions, targets, terms):
    """Each direction (key, r, c) of the Hom-slot table ``directions`` to
    its image in the slots ``targets``, target slot -> nonzero int, in index
    order grouped by weight. A key's ``(sign, target key, left, right)``
    terms, an atom map and the preimage of one (``range(n)`` is the identity
    of n atoms), send E_rc to sign * left E_rc right: to (left[r], right[c])
    when both are defined. Every image entry has its direction's weight."""
    index, weight, _ = targets
    direction_index, direction_weight, by_weight = directions
    images: dict[LinearForm, list[dict[int, int]]] = {w: [] for w in by_weight}
    for (key, r, c), i in direction_index.items():
        image: dict[int, int] = {}
        for sign, target, left, right in terms.get(key, ()):
            if r in left and c in right:
                j = index[target, left[r], right[c]]
                image[j] = image.get(j, 0) + sign
        if 0 in image.values():
            image = {j: v for j, v in image.items() if v}
        images[direction_weight[i]].append(image)
    for w, group in images.items():
        kept = all(weight[j] == w for image in group for j in image)
        _require(kept, "image leaves its direction weight")
    return images


def _action(cx: DeformationComplex, cx_prime: DeformationComplex):
    """The linearized action for fixed points V, V' with atom maps q, q':
    the arrow slots Hom(V'_src, V_tgt), the directions Hom(V'_a, V_a) of the
    gauge nodes, and the image X q' - q X of each direction X in index
    order, grouped by its weight. With V' = V it is gamma q - q gamma."""
    spec, coords, coords_prime = cx.fp.spec, cx.coords, cx_prime.coords
    slots = _hom(
        (arr.name, coords[arr.target], coords_prime[arr.source], arr.weight, arr.r_charge == 2)
        for arr in spec.arrows
    )
    directions = _hom(
        (node, coords[node], coords_prime[node], ZERO_FORM, False) for node in spec.gauge_nodes
    )
    terms: dict = {}
    for arr in spec.arrows:  # X q'
        id_tgt = range(len(coords[arr.target]))
        terms.setdefault(arr.target, []).append((1, arr.name, id_tgt, cx_prime.preimage[arr.name]))
    for arr in spec.arrows:  # - q X
        id_src = range(len(coords_prime[arr.source]))
        terms.setdefault(arr.source, []).append((-1, arr.name, cx.fp.maps[arr.name], id_src))
    return slots, directions, _images(directions, slots, terms)


def _relations(cx: DeformationComplex, slots) -> dict[LinearForm, list[dict[int, int]]]:
    """The linearized relations: the image of each arrow slot dq in the cells
    of the gauge-arrow derivatives dW/dq, each the block Hom(V_tgt(q),
    V_src(q)) shifted by -w(q), in index order, grouped by weight. Of
    ``QuiverSpec.cyclic_derivative`` it keeps the rests without a framing
    arrow, all of length two: the derivative of sign * tr(q x y) by q is
    sign * x y, of first order sign * (dx y + x dy)."""
    spec, coords = cx.fp.spec, cx.coords
    cells = _hom(
        (q.name, coords[q.source], coords[q.target], -q.weight, False) for q in spec.gauge_arrows
    )
    terms: dict = {}
    for q, sign, x, y in _relation_words(spec):
        # dx and x end at V_src(q), dy and y start at V_tgt(q)
        id_src, id_tgt = range(len(coords[q.source])), range(len(coords[q.target]))
        terms.setdefault(x, []).append((sign, q.name, id_src, cx.preimage[y]))  # dx y
        terms.setdefault(y, []).append((sign, q.name, cx.fp.maps[x], id_tgt))  # x dy
    return _images(slots, cells, terms)


@functools.cache
def _relation_words(spec):
    """(q, sign, x, y) for each rest sign * x y of ``cyclic_derivative(q)``
    without a framing arrow, over the gauge arrows q in order; once per
    quiver."""
    framing = {arr.name for arr in spec.arrows if arr.is_framing}
    return tuple(
        (q, sign, *rest)
        for q in spec.gauge_arrows
        for sign, rest in spec.cyclic_derivative(q.name)
        if framing.isdisjoint(rest)
    )


def _require_generated(fp: FixedPoint) -> None:
    """Raise ``StabilityViolation`` unless the atom maps reach every atom
    from the framing atom. Then an X in Hom(V'_a, V_a) with X q' = q X,
    zero at the framing vertex, is zero on every atom, so the action
    X -> X q' - q X of any pair with this fixed point as V' is injective."""
    out = {}
    for arr in fp.spec.arrows:
        out.setdefault(arr.source, []).append((arr.target, fp.maps[arr.name]))
    reached = {(FRAMING, 0)}
    stack = [(FRAMING, 0)]
    while stack:
        node, i = stack.pop()
        for target, m in out.get(node, ()):
            if i in m and (target, m[i]) not in reached:
                reached.add((target, m[i]))
                stack.append((target, m[i]))
    if len(reached) != 1 + len(_all_atoms(fp)):
        raise StabilityViolation("framing atom does not generate the fixed point")


def _regularize_tangent(
    sectors: dict[LinearForm, int], expected_dim: int, pattern: GTPattern
) -> tuple[dict[LinearForm, int], dict[LinearForm, int]]:
    """Cut the kernel down to the expected dimension.

    Scheme tangents jump upward at special fixed points; the excess always
    shows up as opposite-weight pairs, which get removed largest
    ``LinearForm.magnitude`` first, ties in weight order. Returns the trimmed grading
    and what was removed; an excess that does not pair up raises
    ``UncalibratedCell`` naming the pattern. With a framing pair at every
    gauge node the kernel never undershoots, so a shortfall is an
    ``InvariantViolation``.
    """
    out = dict(sectors)
    removed: dict[LinearForm, int] = {}
    excess = sum(out.values()) - expected_dim
    _require(excess >= 0, f"tangent at {pattern.free_values} undershoots the expected dimension")
    if excess == 0:
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


def _intertwiner(cx: DeformationComplex, cx_plus: DeformationComplex):
    """The base intertwiner tau, node -> the atom map of zero displacement
    from the extended crystal onto the original one, and the node of the
    added atom. Raises ``NotAdjacent`` unless tau covers the original
    crystal and misses exactly one atom of the extension."""
    fp, fp_plus = cx.fp, cx_plus.fp
    tau = {
        node: atom_map(fp_plus.node_atoms(node), fp.node_atoms(node), ZERO_FORM, 0)
        for node in (*fp.spec.gauge_nodes, FRAMING)
    }
    missed = [
        node for node, t in tau.items() for b in range(len(cx_plus.coords[node])) if b not in t
    ]
    # tau is injective, so it covers a node when it has an entry per atom
    if len(missed) != 1 or any(len(t) < len(cx.coords[node]) for node, t in tau.items()):
        raise NotAdjacent("second fixed point is not a single-atom extension")

    # sanity: tau is an honest homomorphism from the extension to the base;
    # both sides compose injective partial maps, so no entry is a sum
    for arr in fp.spec.arrows:
        q, qp, t_tgt = fp.maps[arr.name], fp_plus.maps[arr.name], tau[arr.target]
        lhs = {j: q[s] for j, s in tau[arr.source].items() if s in q}
        rhs = {j: t_tgt[b] for j, b in qp.items() if b in t_tgt}
        _require(lhs == rhs, f"projection fails to intertwine {arr.name}")
    return tau, missed[0]


def _pushes(cx: DeformationComplex, cx_plus: DeformationComplex, tau, slots):
    """Slot index maps of both ends into the intertwining slots: dq -> dq tau
    from the smaller end, dq' -> tau dq' from the larger one, where tau has
    no row at the added atom. Every slot keeps its weight."""
    slot_index, slot_weight, _ = slots
    ends = {arr.name: (arr.source, arr.target) for arr in cx.fp.spec.arrows}
    # tau is injective, so its preimage is the inclusion of the smaller crystal
    tau_pre = {node: {s: b for b, s in t.items()} for node, t in tau.items()}
    push = {
        i: slot_index[name, r, tau_pre[ends[name][0]][s]]
        for (name, r, s), i in cx.slot_index.items()
    }
    push_plus = {
        i: slot_index[name, t_tgt[b], c]
        for (name, b, c), i in cx_plus.slot_index.items()
        if b in (t_tgt := tau[ends[name][1]])
    }
    for end, step in ((cx, push), (cx_plus, push_plus)):
        kept = all(slot_weight[j] == end.slot_weight[i] for i, j in step.items())
        _require(kept, "push leaves its weight")
    return push, push_plus


def incidence_tangent_graded(
    cx: DeformationComplex, cx_plus: DeformationComplex
) -> dict[LinearForm, int]:
    """Tangent grading of the one-atom extension locus.

    Pairs of kernel deformations (dq, dq') that admit an intertwiner
    deformation dtau, dq tau - tau dq' = dtau q' - q dtau, modulo both gauge
    orbits. At each weight the pairs push into the intertwining slots, and
    those whose push lies in the image of the action on dtau solve it.
    """
    fp, fp_plus = cx.fp, cx_plus.fp
    tau, added_node = _intertwiner(cx, cx_plus)
    slots, _, images = _action(cx, cx_plus)
    push, push_plus = _pushes(cx, cx_plus, tau, slots)

    sectors: dict[LinearForm, int] = {}
    # a weight without kernel vectors on either side has no pairs to solve for
    for w in sorted(set(cx.kernels) | set(cx_plus.kernels)):
        # dq tau - tau dq' for the kernel vectors (dq, 0) and (0, dq')
        pairs = [{push[i]: v for i, v in vec.items()} for vec in cx.kernels.get(w, ())]
        pairs += [
            {push_plus[i]: -v for i, v in vec.items() if i in push_plus}
            for vec in cx_plus.kernels.get(w, ())
        ]
        if not pairs:
            continue
        # the action on dtau is injective, V' being generated by its framing
        # atom, so its images are independent and one rank counts the pairs
        # whose push lies in their span
        orbits = images.get(w, [])
        solutions = len(pairs) + len(orbits) - rank(orbits + pairs)
        dim = solutions - cx.gauge_ranks.get(w, 0) - cx_plus.gauge_ranks.get(w, 0)
        _require(dim >= 0, "gauge orbits exceed the incidence solutions")
        if dim:
            sectors[w] = dim

    # expected dimension: one more than the smaller state's tangent. Each
    # neighbouring jump state sheds exactly one member of its trimmed pair
    # here; the realized signs are pinned against the closed forms, with a
    # framing pair at every gauge node: a lone pair follows the move node's
    # parity, two distinct magnitudes split as +larger/-smaller, equal
    # magnitudes drop both signs.
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
    as h -> 0 limits instead of feeding the sign rule. Every value is an int
    over the one unit 2 eps_den h_den, so the products run on ints and one
    Fraction is built at the end."""
    eps, h = params
    e_unit, h_unit = eps.numerator * h.denominator, 2 * h.numerator * eps.denominator
    unit = 2 * eps.denominator * h.denominator
    top = bottom = 1
    for form in set(num) | set(den):
        v = form.e * e_unit + form.h * h_unit
        exponent = num.get(form, 0) - den.get(form, 0)
        if v == 0 or exponent == 0:
            continue
        if exponent > 0:
            top *= v**exponent
            bottom *= unit**exponent
        else:
            top *= unit**-exponent
            bottom *= v**-exponent
    return Fraction(top, bottom)


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
        fp = fixed_point_matrices(pat)
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

