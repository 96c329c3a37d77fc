"""Equivariant localization route to the amplitudes.

A fixed point's deformation complex builds one linear map: ``_images``, on
weight-graded Hom slots laid out by ``_hom``, sends each arrow direction dq
to its first-order change of the gauge-arrow derivatives dW/dq, and the
kernels are the relations among the relation images of each weight. The
gauge action X -> X q' - q X on Hom(V'_a, V_a) is injective when the framing
atom generates V', so its ranks are counts of directions, never
eliminations. A slot is its own name, (arrow, target atom, source atom), in
every fixed point that holds both atoms, and a kernel vector is a dict over
slot names: a move sets the smaller end's vectors beside the larger end's
less their entries at the added atom, and one rank per weight counts them.

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
from collections import Counter
from fractions import Fraction

from gtyang.crystal import Atom, FixedPoint, fixed_point_matrices
from gtyang.linalg import kernel_basis, rank
from gtyang.patterns import GTPattern
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

    Everything about the fixed point is computed once, here: the weight of
    each arrow slot (arrow, target atom, source atom) of Hom(V_src, V_tgt)
    in layout order (``slot_weight``) and the slots of each weight
    (``slots_by_weight``), their relation images (``relations``), kernel
    vectors over slot names (``kernels``) and gauge rank (``gauge_ranks``),
    the tangent grading trimmed to the expected dimension (``tangent``) and
    the opposite-weight pairs the trim removed (``removed``), all keyed by
    ``LinearForm``. Construction raises ``InvariantViolation`` when an arrow
    entry breaks equivariance and ``StabilityViolation`` when the framing
    atom does not generate the fixed point, the condition that makes the
    gauge action free.
    """

    def __init__(self, fp: FixedPoint):
        self.fp = fp
        spec, atoms, maps = fp.spec, fp.atoms, fp.maps
        # arrow name -> {target atom: source atom}; maps are injective
        self.preimage = {name: {t: s for s, t in m.items()} for name, m in maps.items()}
        slots = _hom(
            (arr.name, atoms[arr.target], atoms[arr.source], arr.weight, arr.r_charge == 2)
            for arr in spec.arrows
        )
        self.slot_weight, self.slots_by_weight = slots
        # a gauge image gamma q - q gamma keeps the weight of gamma exactly
        # when every arrow entry sits in a weight-zero slot
        weight = self.slot_weight
        kept = all(weight[a, t, s] == ZERO_FORM for a, q in maps.items() for s, t in q.items())
        _require(kept, "image leaves its direction weight")
        if not self.gauge_injective():
            raise StabilityViolation("framing atom does not generate the fixed point")
        # the gauge action is injective, so its rank at each weight is the
        # number of gl(V_a) directions of that weight
        self.gauge_ranks = ranks = _directions(spec, atoms, atoms)
        self.relations = _relations(self, slots)
        self.kernels = {w: self.kernel_sector(w) for w in sorted(self.slots_by_weight)}
        dims = Counter({w: d for w, k in self.kernels.items() if (d := len(k) - ranks[w])})
        _require(min(dims.values(), default=0) >= 0, "gauge orbit escapes the relation kernel")
        expected_dim = 2 * sum(len(atoms[k]) for k in spec.gauge_nodes)
        self.tangent, self.removed = _regularize_tangent(dims, expected_dim, fp.pattern)

    def kernel_sector(self, w: LinearForm) -> list[dict[tuple, int]]:
        """Basis of ker(dF) on the weight-w slots, the relations among their
        relation images, as primitive integer vectors over the slot names."""
        slots = self.slots_by_weight.get(w, [])
        basis = kernel_basis(self.relations.get(w, []))
        return [{slots[l]: v for l, v in vec.items()} for vec in basis]

    def gauge_rank_sector(self, w: LinearForm) -> int:
        """Rank of the gauge action at weight w, a count (``gauge_ranks``)."""
        return self.gauge_ranks[w]

    def gauge_injective(self) -> bool:
        """Whether the atom maps reach every atom from the framing atom. Then
        an X in Hom(V'_a, V_a) with X q' = q X, zero at the framing vertex,
        is zero on every atom, so the action X -> X q' - q X of any pair with
        this fixed point as V' is injective, V = V' included."""
        out = {}
        for arr in self.fp.spec.arrows:
            out.setdefault(arr.source, []).append(self.fp.maps[arr.name])
        reached = set(self.fp.atoms[FRAMING])
        stack = list(reached)
        while stack:
            atom = stack.pop()
            for m in out.get(atom.node, ()):
                if atom in m and m[atom] not in reached:
                    reached.add(m[atom])
                    stack.append(m[atom])
        return len(reached) == sum(map(len, self.fp.atoms.values()))


def _hom(blocks):
    """One slot (key, row atom, column atom) per entry of each block ``(key,
    row atoms, column atoms, shift, negated)``, of weight row - column -
    shift, negated for a conjugate framing direction. Returns slot -> its
    weight, in layout order, and weight -> its slots in that order."""
    weight, by_weight = {}, {}
    for key, rows, cols, shift, negated in blocks:
        for r, c, w in _block_weights(rows, cols, shift, negated):
            weight[key, r, c] = w
            by_weight.setdefault(w, []).append((key, r, c))
    return weight, by_weight


@functools.cache
def _block_weights(rows, cols, shift, negated):
    """(row atom, column atom, weight) of each ``_hom`` block entry, row-major.
    Cached: neighbouring fixed points share most of their nodes' atoms, so the
    complexes and the moves between them lay out the same blocks again."""
    sign = -1 if negated else 1
    out = []
    for r in rows:
        e, h = r.weight - shift
        for c in cols:
            e_col, h_col = c.weight
            out.append((r, c, LinearForm(sign * (e - e_col), sign * (h - h_col))))
    return tuple(out)


def _images(directions, targets, terms):
    """Each direction (key, r, c) of the Hom-slot table ``directions`` to
    its image in the slots of the table ``targets``, target slot -> nonzero
    int, in layout order grouped by weight. A key's ``(sign, target key,
    left, right)`` terms, an atom map and the preimage of one (or the
    identity of a node's atoms), send E_rc to sign * left E_rc right: to the
    slot (target key, left[r], right[c]) when both are defined. Every image
    entry has its direction's weight."""
    direction_weight, by_weight = directions
    target_weight, _ = targets
    images: dict[LinearForm, list[dict[tuple, int]]] = {w: [] for w in by_weight}
    for (key, r, c), w in direction_weight.items():
        image: dict[tuple, int] = {}
        for sign, target, left, right in terms.get(key, ()):
            if r in left and c in right:
                slot = target, left[r], right[c]
                image[slot] = image.get(slot, 0) + sign
        if 0 in image.values():
            image = {slot: v for slot, v in image.items() if v}
        images[w].append(image)
    for w, group in images.items():
        kept = all(target_weight[slot] == w for image in group for slot in image)
        _require(kept, "image leaves its direction weight")
    return images


def _directions(spec, atoms, atoms_prime) -> Counter:
    """Weight -> the number of directions of Hom(V'_a, V_a) of that weight,
    over the gauge nodes, for node atoms ``atoms`` of V and ``atoms_prime``
    of V'."""
    return Counter(
        w
        for node in spec.gauge_nodes
        for *_, w in _block_weights(atoms[node], atoms_prime[node], ZERO_FORM, False)
    )


def _relations(cx: DeformationComplex, slots) -> dict[LinearForm, list[dict[tuple, int]]]:
    """The linearized relations: the image of each arrow slot dq in the cells
    of the gauge-arrow derivatives dW/dq, each the block Hom(V_tgt(q),
    V_src(q)) shifted by -w(q), in layout order, grouped by weight. Of
    ``QuiverSpec.cyclic_derivative`` it keeps the rests without a framing
    arrow, all of length two: the derivative of sign * tr(q x y) by q is
    sign * x y, of first order sign * (dx y + x dy)."""
    spec, atoms, maps = cx.fp.spec, cx.fp.atoms, cx.fp.maps
    cells = _hom(
        (q.name, atoms[q.source], atoms[q.target], -q.weight, False) for q in spec.gauge_arrows
    )
    identity = {node: dict(zip(a, a)) for node, a in atoms.items()}
    terms: dict = {}
    for q, sign, x, y in _relation_words(spec):
        # dx and x end at V_src(q), dy and y start at V_tgt(q)
        terms.setdefault(x, []).append((sign, q.name, identity[q.source], cx.preimage[y]))  # dx y
        terms.setdefault(y, []).append((sign, q.name, maps[x], identity[q.target]))  # x dy
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


def _regularize_tangent(
    sectors: dict[LinearForm, int], expected_dim: int, pattern: GTPattern
) -> tuple[Counter, Counter]:
    """Cut the kernel down to the expected dimension.

    Scheme tangents jump upward at special fixed points; the excess always
    shows up as opposite-weight pairs, which get removed largest
    ``LinearForm.magnitude`` first, ties in weight order, as many of each
    as the excess and both counts allow. Returns the trimmed grading and
    what was removed, without zero counts; an excess that does not pair up
    raises ``UncalibratedCell`` naming the pattern. With a framing pair at
    every gauge node the kernel never undershoots, so a shortfall is an
    ``InvariantViolation``.
    """
    out = Counter(sectors)
    excess = out.total() - expected_dim
    _require(excess >= 0, f"tangent at {pattern.free_values} undershoots the expected dimension")
    if excess % 2:
        raise UncalibratedCell(f"odd tangent excess at {pattern.free_values} cannot pair up")
    removed = Counter()
    # above zero in the (e, h) order: one weight of each opposite pair
    candidates = [w for w in out if w > ZERO_FORM and -w in out]
    for w in sorted(candidates, key=lambda w: (-w.magnitude(), w)):
        if pairs := min(excess // 2, out[w], out[-w]):
            removed[w] = removed[-w] = pairs
            excess -= 2 * pairs
    if excess:
        raise UncalibratedCell(f"tangent excess at {pattern.free_values} is not hyperbolic")
    out -= removed
    return out, removed


def tangent_graded(fp: FixedPoint) -> dict[LinearForm, int]:
    """Graded dimensions of ker(dF)/im(gauge), asymmetry kept symbolic,
    trimmed to the expected dimension (twice the atom count)."""
    return DeformationComplex(fp).tangent


def _added_atom(cx: DeformationComplex, cx_plus: DeformationComplex) -> Atom:
    """The one atom that the larger end adds to the smaller. Raises
    ``NotAdjacent`` unless the larger crystal is the smaller one plus exactly
    one atom, and ``InvariantViolation`` unless every arrow of the larger end
    agrees with the smaller end's on the old atoms and sends the added atom
    to no old atom, so that forgetting the added atom intertwines the two."""
    old, new = ({a for atoms in c.fp.atoms.values() for a in atoms} for c in (cx, cx_plus))
    if len(new) != len(old) + 1 or not old < new:
        raise NotAdjacent("second fixed point is not a single-atom extension")
    (added,) = new - old
    for name, q in cx.fp.maps.items():
        q_plus = {s: t for s, t in cx_plus.fp.maps[name].items() if t != added}
        _require(q == q_plus, f"projection fails to intertwine {name}")
    return added


def _incidence_solutions(
    cx: DeformationComplex, cx_plus: DeformationComplex, added: Atom
) -> dict[LinearForm, int]:
    """Weight -> the dimension of the solutions (dq, dq', dtau) of
    dq tau - tau dq' = dtau q' - q dtau, dq and dq' kernel vectors, at each
    weight where either end has some; tau forgets the ``added`` atom.

    The equation lives in the intertwining slots Hom(V'_src, V_tgt): the
    larger end's slots less the rows at the added atom. tau is the identity
    on every other atom, so dq tau is dq, over slot names the larger end
    shares, and tau dq' drops the entries of dq' whose target atom, the
    second part of the name, is the added one. The image X q' - q X of a
    direction X in Hom(V'_a, V_a) is tau applied to the larger end's gauge
    image of the lift of X, inside its kernel: the images lie in the span of
    the pairs, and they are independent, V' being generated by its framing
    atom. So the solutions number n_pairs + n_directions - rank(pairs).
    """
    directions = _directions(cx.fp.spec, cx.fp.atoms, cx_plus.fp.atoms)
    solutions = {}
    for w in sorted(set(cx.kernels) | set(cx_plus.kernels)):
        # dq tau - tau dq' for the kernel vectors (dq, 0) and (0, dq')
        pairs = list(cx.kernels.get(w, ()))
        pairs += [
            {slot: -v for slot, v in vec.items() if slot[1] != added}
            for vec in cx_plus.kernels.get(w, ())
        ]
        if pairs:
            solutions[w] = len(pairs) + directions[w] - rank(pairs)
    return solutions


def incidence_tangent_graded(
    cx: DeformationComplex, cx_plus: DeformationComplex
) -> dict[LinearForm, int]:
    """Tangent grading of the one-atom extension locus: the solutions of the
    linearized intertwining (``_incidence_solutions``) modulo both gauge
    orbits, trimmed to the expected dimension."""
    fp, fp_plus = cx.fp, cx_plus.fp
    added = _added_atom(cx, cx_plus)
    solutions = _incidence_solutions(cx, cx_plus, added)
    ranks, ranks_plus = cx.gauge_ranks, cx_plus.gauge_ranks
    sectors = Counter({w: d for w, n in solutions.items() if (d := n - ranks[w] - ranks_plus[w])})
    _require(min(sectors.values(), default=0) >= 0, "gauge orbits exceed the incidence solutions")

    # expected dimension: one more than the smaller state's tangent. Each
    # neighbouring jump state sheds exactly one member of its trimmed pair
    # here; the realized signs are pinned against the closed forms, with a
    # framing pair at every gauge node: a lone pair follows the move node's
    # parity, two distinct magnitudes split as +larger/-smaller, equal
    # magnitudes drop both signs.
    excess = sectors.total() - (2 * sum(len(fp.atoms[k]) for k in fp.spec.gauge_nodes) + 1)
    if excess > 0:
        pool = [w for w in (cx.removed + cx_plus.removed).elements() if w > ZERO_FORM]
        if excess != len(pool):
            raise UncalibratedCell("incidence excess does not match the pair pool")
        if len(pool) == 1 and fp.pattern.n <= 4:
            w = pool[0]
            drops = [-w] if abs(added.node - fp.pattern.p) % 2 else [w]
        elif len(pool) == 2 and fp.pattern.n <= 4:
            hi, lo = sorted(pool, key=lambda w: (w.magnitude(), w), reverse=True)
            drops = [hi, -lo]
        else:
            raise UncalibratedCell(
                f"jump-cell sign not calibrated for {fp.pattern.free_values} -> "
                f"{fp_plus.pattern.free_values}"
            )
        if not all(sectors[w] > 0 for w in drops):
            raise UncalibratedCell("calibrated sector missing from incidence")
        sectors -= Counter(drops)
        excess -= len(drops)
    _require(excess == 0, "incidence dimension off the expected count")
    return sectors


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
    states: list[GTPattern], params: EquivariantParams
) -> dict[tuple[GTPattern, int, int], tuple[Rat, Rat] | UncalibratedCell]:
    """(state, node, type) of each raising move out of ``states`` -> its
    (raising, lowering) amplitudes, or the ``UncalibratedCell`` it raised:
    ``amplitude_table``'s keys, by localization. ``states`` is a whole
    module, which holds every raised state too. One deformation complex per
    state, shared by every move it takes part in. A state whose tangent
    cannot be trimmed leaves every move into or out of it undetermined."""
    complexes = {}
    for pat in states:
        fp = fixed_point_matrices(pat)
        try:
            complexes[pat] = DeformationComplex(fp)
        except UncalibratedCell as exc:
            complexes[pat] = exc
    table = {}
    for pat in states:
        for k, j, up in pat.raises():
            ends = (complexes[pat], complexes[up])
            failed = [cx for cx in ends if isinstance(cx, UncalibratedCell)]
            try:
                table[pat, k, j] = failed[0] if failed else _move_amplitudes(*ends, params)
            except UncalibratedCell as exc:
                table[pat, k, j] = exc
    return table

