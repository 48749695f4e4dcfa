"""Seeded workloads of the mtfrac benchmark.

A workload turns a seed into a deterministic, unbounded stream of
operations ("ops").  Calling a workload does its set-up (operator sampling,
eigendecomposition, base problems) and returns the stream; the first op's
inputs are drawn when the stream is first advanced.

Inputs come in blocks of fixed shape: the mix of discrete input properties
(number of terms, time rungs, base templates) is the same in every block and in
the same order, and only continuous parameters are drawn from the seed,
stratified inside each block.  A seed therefore changes every input but not
the mix, which keeps the cost of a run steady from seed to seed.

Each op carries an independent reference check returning
``(error, tolerance)``; the op fails if the error is not within the
tolerance.  The program is called through module attributes, looked up at
call time, so a traced run sees the calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import mtfrac.analysis as analysis
import mtfrac.oracle as oracle
import mtfrac.solver as solver
import mtfrac.specfun as specfun
import mtfrac.spectral as spectral
from mtfrac.constants import SERIES_CONTOUR_CROSSOVER


@dataclass
class Op:
    kind: str
    props: dict
    run: Callable[[], object]
    check: Callable[[object], tuple]


def _lhs(rng, n, d):
    """n points of a Latin hypercube in [0, 1)^d."""
    perms = np.argsort(rng.random((d, n)), axis=1).T
    return (perms + rng.random((n, d))) / n


def _modal_decay(s, p):
    return spectral.synthesize(np.arange(1, s.n_modes + 1, dtype=float) ** -p, s)


# ---------------------------------------------------------------------------
# Stratified draws.

_SERIES_TOL = 1e-14
# Bit-reversed stratum order: every prefix of length 2^j of a group is itself
# spread over the cost range, so a run that ends mid-group is not skewed.
_BIT_REVERSED = (0, 4, 2, 6, 1, 5, 3, 7)


def _series_shells(beta0, betas, z):
    """Shells until the majorant S^k / Gamma(b0 + b_min k) falls below the
    series tolerance: it sets the cost of one series, and the size of the
    program's composition caches."""
    log_s = math.log(sum(abs(v) for v in z))
    k = 0
    while k * log_s - math.lgamma(beta0 + min(betas) * k) >= math.log(_SERIES_TOL):
        k += 1
    return k


def _stratified(seed, stream, draw, cost, pool):
    """Endless draws stratified on ``cost``: each group sorts
    ``8 * pool`` candidates and takes the middle one of each equal-count
    slice, which leaves out the extreme tails.  Groups alternate between
    descending and ascending bit-reversed order, so every run starts with
    the costliest slice."""
    strata = len(_BIT_REVERSED)
    group = 0
    while True:
        rng = np.random.default_rng([seed, stream, group])
        cands = sorted((draw(rng) for _ in range(strata * pool)), key=cost)
        picks = [cands[i * pool + pool // 2] for i in range(strata)]
        if group % 2 == 0:
            picks.reverse()
        yield from (picks[i] for i in _BIT_REVERSED)
        group += 1


# ---------------------------------------------------------------------------
# crosscheck: closed amplitude vs L1 stepping vs Hankel inversion
# (criterion 06).

_CROSS_MS = (1, 2, 3)
_CROSS_TIMES = (0.5, 2.0, 20.0)
_CROSS_RTOL = 1e-3          # criterion 06's pairwise agreement
# L1 mesh sizes, log-uniform; criterion 06 uses 3000.  Varying the history
# length spreads op costs evenly instead of in one cluster per m, so the
# median latency does not jump when part of a run executes more slowly.
_CROSS_L1_STEPS = (2000, 4000)


def _random_orders(rng, m, lo=0.2, hi=0.88, sep=0.12):
    while True:
        alphas = np.sort(rng.uniform(lo, hi, m))[::-1]
        if m == 1 or float(np.min(-np.diff(alphas))) >= sep:
            break
    qs = (1.0,) + tuple(float(q) for q in rng.uniform(0.3, 2.5, m - 1))
    return solver.FracOrders(alphas=tuple(float(a) for a in alphas), qs=qs)


def _cross_check(res):
    amp, l1, hank = res
    scale = abs(amp)
    return max(abs(l1 - amp), abs(hank - amp), abs(l1 - hank)) / scale, _CROSS_RTOL


def _cross_draw(rng, m):
    return _random_orders(rng, m), float(10 ** rng.uniform(-0.3, 1.3))


def _cross_shells(t):
    """Series length of the scalar amplitude at time t, or 0 where the
    dispatcher takes the contour."""
    def cost(case):
        orders, lam = case
        a1 = orders.alphas[0]
        z = [lam * t ** a1] + [q * t ** (a1 - a) for a, q in zip(orders.alphas[1:], orders.qs[1:])]
        if sum(z) > SERIES_CONTOUR_CROSSOVER:
            return 0
        return _series_shells(1.0 + a1, (a1,) + tuple(a1 - a for a in orders.alphas[1:]), z)
    return cost


def crosscheck(seed: int) -> Iterator[Op]:
    cases = [(m, t) for m in _CROSS_MS for t in _CROSS_TIMES]
    # Trimmed: the rare 3-term case on the series route would make this
    # bypass workload depend on the series layer.
    streams = [_stratified(seed, 10 + i, lambda rng, m=m: _cross_draw(rng, m),
                           _cross_shells(t), 32)
               for i, (m, t) in enumerate(cases)]
    lo, hi = _CROSS_L1_STEPS
    cycle = 0
    while True:
        u = _lhs(np.random.default_rng([seed, 19, cycle]), len(cases), 1)[:, 0]
        cycle += 1
        for (m, t), stream, u_n in zip(cases, streams, u):
            orders, lam = next(stream)
            n_steps = int(round(lo * (hi / lo) ** u_n))
            l1cfg = oracle.L1Config(t_final=t, n_steps=n_steps,
                                    grading=min(3.0, 2.0 / orders.alphas[0]))

            def run(orders=orders, lam=lam, t=t, l1cfg=l1cfg):
                amp = solver.mode_amplitude(orders, lam, t)
                _, us = oracle.l1_solve_mode(lam, orders, 1.0, None, l1cfg)
                hank = oracle.laplace_mode_eval(lam, orders, 1.0, t)
                return amp, float(us[-1]), hank

            yield Op(kind=f"m{m}", props={"m": m, "lam": lam, "t": t,
                                          "l1_steps": n_steps,
                                          "shells": _cross_shells(t)((orders, lam))},
                     run=run, check=_cross_check)


# ---------------------------------------------------------------------------
# stability: Lipschitz sweeps of the thm23 experiment (criterion 11).

# Base templates: (alphas, qs, diffusion kind).  Seeds jitter the weights, the
# diffusion and the initial data but not the orders, which set the series
# length and with it the size of the program's composition caches.  A sweep
# is thm23's halving sequence of 7 levels on one base, so six ops in seven
# reuse the base amplitudes; the 3-term base is one sweep in three.
_STAB_BASES = (
    ((0.8, 0.5), (1.0, 1.5), "constant"),
    ((0.85, 0.45), (1.0, 0.8), "sine"),
    ((0.75, 0.55, 0.35), (1.0, 1.2, 0.8), "linear"),
)
_STAB_CHANNELS = ("alpha", "q", "diffusion", "all")
_STAB_LEVELS = 7
_STAB_SPREAD_MAX = 5.0      # criterion 11's bound on the ratio spread
_STAB_GAMMA, _STAB_TAU = 0.75, 0.5   # thm23 preset


def _stability_base(rng, alphas, qs, kind):
    qs = (1.0,) + tuple(float(q * rng.uniform(0.97, 1.03)) for q in qs[1:])
    if kind == "constant":
        v = float(rng.uniform(0.9, 1.1))
        diffusion = lambda x: v
    elif kind == "linear":
        a, b = float(rng.uniform(0.9, 1.1)), float(rng.uniform(0.15, 0.25))
        diffusion = lambda x: a + b * x
    else:
        base, amp, freq = (float(rng.uniform(0.9, 1.1)), float(rng.uniform(0.15, 0.25)),
                           float(rng.uniform(0.8, 1.2)))
        diffusion = lambda x: base + amp * math.sin(freq * x)
    op = spectral.Operator1D.from_callables((0.0, math.pi), 255, diffusion=diffusion)
    s = spectral.eigendecompose_operator(op)
    init = _modal_decay(s, float(rng.uniform(2.4, 2.6)))
    return solver.Problem(orders=solver.FracOrders(alphas=alphas, qs=qs),
                          operator=op, spectrum=s, initial=init)


def _sweep_check(ratios):
    def check(rep):
        ratios.append(rep.ratio)
        if not all(math.isfinite(r) and r > 0 for r in ratios):
            return math.inf, _STAB_SPREAD_MAX
        return max(ratios) / min(ratios), _STAB_SPREAD_MAX
    return check


def stability(seed: int) -> Iterator[Op]:
    rng = np.random.default_rng([seed, 20])
    bases = [(_stability_base(rng, *t), t[2]) for t in _STAB_BASES]
    eps0 = rng.uniform(0.18, 0.2, len(bases))

    def ops():
        sweep = 0
        while True:
            for b, (base, kind) in enumerate(bases):
                # One sweep shares the base ModalSolution, as _cmd_stability does.
                base_sol = solver.ModalSolution(base)
                channel = _STAB_CHANNELS[sweep % len(_STAB_CHANNELS)]
                sweep += 1
                check = _sweep_check([])
                for level in range(_STAB_LEVELS):
                    eps = float(eps0[b] * 0.5 ** level)

                    def run(base=base, channel=channel, eps=eps, base_sol=base_sol):
                        pert = analysis.perturbed_problem(base, channel, eps)
                        return analysis.lipschitz_experiment(
                            base, pert, gamma=_STAB_GAMMA, tau=_STAB_TAU, threads=1,
                            base_solution=base_sol)

                    yield Op(kind=f"m{base.orders.m}",
                             props={"m": base.orders.m, "diffusion": kind,
                                    "channel": channel, "level": level, "eps": eps,
                                    "lam_max": float(base.spectrum.lambdas[-1])},
                             run=run, check=check)

    return ops()


WORKLOADS: dict[str, Callable[[int], Iterator[Op]]] = {
    "stability": stability,
    "crosscheck": crosscheck,
}
# Ops in one block of each workload's input mix: a sweep on each base
# template; a cycle of the (m, t) cases.  A time-bounded phase ends at the
# end of a block, so every run has the same mix.  stability's op costs fall
# in clusters (the first op of a sweep computes the base amplitudes, and
# 3-term ops cost twice 2-term ones); with whole cycles its median and tail
# land inside a cluster, not between two.
BLOCKS = {"stability": _STAB_LEVELS * len(_STAB_BASES),
          "crosscheck": len(_CROSS_MS) * len(_CROSS_TIMES)}
