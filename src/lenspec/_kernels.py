"""Box-count kernel for congruence lattices, in pure Python.

The kernel counts the integer vectors of the open box |a_i| < E that satisfy
a family of modular congruences, E the lcm of their moduli, by one-norm and
number of zero entries: the coefficient lists of the box-count polynomials
phi_0..phi_n, which feed the numerators of every generating function.

It is a dynamic program over the first n - 1 coordinates keyed by the
residues of the congruences.  The partial vectors reaching one residue are
kept as one polynomial in z (one-norm) and w (zero entries) packed into a
single Python int, the coefficient of z^k w^l in bit field k * (n + 1) + l,
so adding one value of the next coordinate is one shift and one add of the
whole polynomial.  Residues r and -r hold the same polynomial, so only one
of the two is summed.  The last coordinate is solved: a residue pairs with
the values that cancel it.  In rank 2 no polynomial is packed: both
coordinates keep plain lists of field offsets, so the time stays linear in
a large exponent.

The work, loop steps weighted by the 64-bit words each moves, is admitted
by :func:`lenspec.errors.admit` before the first step (:func:`box_work`);
it is the unit every other stage counts its work in.  Every count is an exact Python int.
"""

import math

from .errors import _STEP_WORDS, admit


def _group_ops(congs):
    # residue keys of the congruence group, ints for one congruence and
    # tuples for several: the generator of each coordinate, the keys of
    # a * g for a in xs, the sum of two keys and the negative of one
    if len(congs) == 1:
        ((q, s),) = congs
        return (
            list(s),
            lambda xs, g: [a * g % q for a in xs],
            lambda r, c: (r + c) % q,
            lambda r: -r % q,
        )
    moduli = [q for q, _ in congs]
    gens = [tuple(s[j] for _, s in congs) for j in range(len(congs[0][1]))]

    def scale(xs, g):
        return [tuple(a * x % q for x, q in zip(g, moduli)) for a in xs]

    def add(r, c):
        return tuple((x + y) % q for x, y, q in zip(r, c, moduli))

    def neg(r):
        return tuple(-x % q for x, q in zip(r, moduli))

    return gens, scale, add, neg


def _plan(congruences, n: int):
    # the congruences, coordinate order, radius E - 1, field bits,
    # work; O(n) in size, like the exponents it is given: every command
    # admits its rank by an earlier count (class listing or series)
    radius = math.lcm(*(q for q, _ in congruences)) - 1
    values = 2 * radius + 1
    congs = list(congruences) or [(1, (0,) * n)]

    def reach(gcds):
        # bound on the residues of sum_j a_j g_j over the coordinates whose
        # exponents have these gcds with the moduli: its subgroup size
        return math.prod(q // g for (q, _), g in zip(congs, gcds))

    # coordinates of fewer residues first keep the state count low; the last
    # coordinate, solved for, has the most and so the fewest solutions
    order = sorted(range(n), key=lambda j: reach([math.gcd(q, s[j]) for q, s in congs]))
    # residues after each prefix of the order, at most values^(j+1) and at
    # most the product of the moduli, which bounds every reach
    states = []
    gcds = [q for q, _ in congs]
    cap = math.prod(gcds)
    power = 1
    for j in order[:-1]:
        gcds = [math.gcd(g, s[j]) for g, (_, s) in zip(gcds, congs)]
        power = min(power * values, cap)
        states.append(min(reach(gcds), power))
    # values of the last coordinate with one residue
    solutions = -(-values // math.lcm(*(q // math.gcd(q, s[order[-1]]) for q, s in congs)))
    # bits per packed count: given the others, the last coordinate of a
    # vector of one-norm k takes at most two values
    field = (2 * values ** (n - 1)).bit_length()
    # 64-bit words of a polynomial over j + 1 coordinates
    words = [-(-(j + 1) * (radius + 1) * (n + 1) * field // 64) for j in range(n)]
    # a step on tuple residues, one entry per congruence, costs more
    step = _STEP_WORDS * (2 * len(congs) - 1)
    if n == 2:
        # list steps: one per value for each coordinate's offsets, one per pair
        work = values * (2 + solutions) * step
    else:
        # shift-adds: per value of the first coordinate, per state and value
        # of each middle one, per state and solution of the last
        steps = [values, *(states[j - 1] * values for j in range(1, n - 1)), states[-1] * solutions]
        work = sum(k * (w + step) for k, w in zip(steps, words))
    return congs, order, radius, field, work


def box_work(congruences, n: int) -> int:
    """Work of :func:`box_table` on the same arguments, in word steps: its
    loop steps, each weighted by the 64-bit words it shifts and adds plus an
    overhead of :data:`_STEP_WORDS` per residue entry, without a step."""
    return _plan(congruences, n)[4]


def admit_box(congruences, n: int):
    """The plan of :func:`box_table`, admitted with the line it is refused by."""
    plan = _plan(congruences, n)
    admit(plan[4], f"the box count in rank {n} over exponent {plan[2] + 1}")
    return plan


def box_table(congruences, n: int) -> list[list[int]]:
    """Coefficient lists of phi_0..phi_n for the open box |a_i| < E.

    Entry k of list l counts the integer vectors a with
    sum_j a_j s_{i,j} = 0 mod q_i for every congruence (q_i, s_i), every
    |a_j| < E (E the lcm of the q_i), one-norm k and l zero entries; every
    list runs from norm 0 to n * (E - 1).  Raises InvalidParameters, before
    the first step, when :func:`lenspec.errors.admit` refuses the work.
    """
    congs, order, radius, field, _ = admit_box(congruences, n)
    gens, scale, add, neg = _group_ops(congs)
    width = n + 1
    xs = range(-radius, radius + 1)
    # field offset of z^|a| w^[a = 0] for each value a
    value_offsets = [abs(a) * width + (a == 0) for a in xs]

    def offsets(g):
        # residue of a * g -> field offsets of the values a
        by_residue = {}
        for r, o in zip(scale(xs, g), value_offsets):
            by_residue.setdefault(r, []).append(o)
        return by_residue

    first = offsets(gens[order[0]])
    # keyed by the residue of -a * g: the value a of the last coordinate
    # cancels the residue r exactly when it is listed under r
    last = offsets(neg(gens[order[-1]]))
    size = (n * radius + 1) * width
    if n == 2:
        counts = [0] * size
        for r, offs in first.items():
            for o in last.get(r, ()):
                for p in offs:
                    counts[o + p] += 1
    else:
        dp = {r: sum(1 << (o * field) for o in offs) for r, offs in first.items()}
        for j in order[1:-1]:
            # negating a partial vector negates its residue and keeps its norm
            # and zeros, so residues r and -r hold one polynomial: only the
            # targets t <= -t are summed
            nxt = {}
            for c, offs in offsets(gens[j]).items():
                for r, poly in dp.items():
                    t = add(r, c)
                    if t <= neg(t):
                        acc = nxt.get(t, 0)
                        for o in offs:
                            acc += poly << (o * field)
                        nxt[t] = acc
            dp = {**nxt, **{neg(t): poly for t, poly in nxt.items()}}
        total = 0
        for r, poly in dp.items():
            for o in last.get(r, ()):
                total += poly << (o * field)
        # field i is the i-th run of `field` binary digits from the low end
        bits = format(total, "b").zfill(size * field)
        counts = [int(bits[i - field : i or None], 2) for i in range(0, -size * field, -field)]
    # entry k * width + l counts the vectors of one-norm k and l zero entries
    return [counts[zeros::width] for zeros in range(width)]
