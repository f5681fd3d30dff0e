"""Adaptive 21-point Gauss-Kronrod quadrature on a finite interval.

A pure-Python port of two QUADPACK routines (Piessens, de Doncker-Kapenga,
Ueberhuber and Kahaner, 1983):

* ``gauss_kronrod_21`` is ``dqk21``: the same abscissae and weights, the
  same summation order and the same error estimate, including the
  ``resasc`` scaling and the ``50 * eps * resabs`` round-off floor;
* ``adaptive_integrate`` accepts the first rule exactly as ``dqagse``
  does, so whenever one interval suffices its value and error estimate are
  bit-identical to ``scipy.integrate.quad``.  Otherwise it bisects the
  subinterval with the largest error estimate, as ``dqage`` does, up to
  ``LIMIT`` subintervals.  It does not extrapolate (``dqagse`` runs the
  epsilon algorithm there), so on that path it agrees with scipy only to
  within the requested tolerance.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, NamedTuple

LIMIT = 200

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min

# Kronrod abscissae on [0, 1] in decreasing order; the odd positions
# (0-based) are the 10-point Gauss abscissae, the last is the centre.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
# Kronrod weights, one per abscissa of _XGK.
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
# Gauss weights of the abscissae _XGK[1], _XGK[3], ..., _XGK[9].
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


class Quadrature(NamedTuple):
    """An integral estimate, its absolute error estimate, and the number
    of subintervals the estimate was summed over."""

    value: float
    abserr: float
    intervals: int


def gauss_kronrod_21(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float, float, float]:
    """Apply the 21-point Kronrod rule to f on [a, b] (QUADPACK ``dqk21``).

    Returns ``(result, abserr, resabs, resasc)``: the Kronrod estimate,
    its error estimate (from the embedded 10-point Gauss rule), the rule
    applied to |f|, and the rule applied to |f - mean(f)|.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    # Gauss nodes first, then the other Kronrod nodes: the order of
    # QUADPACK's two loops, which fixes the rounding of every sum.
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def adaptive_integrate(
    f: Callable[[float], float], a: float, b: float, epsabs: float, epsrel: float
) -> Quadrature:
    """Integrate f over the finite interval [a, b].

    The aim is ``abserr <= max(epsabs, epsrel * |value|)``.  The first
    21-point rule is accepted exactly when ``dqagse`` accepts it: the
    estimate meets the bound and differs from ``resasc``, or it is zero,
    or it is already at the round-off level (100 eps times the rule
    applied to |f|).  Otherwise the subinterval with the largest error
    estimate is bisected until the summed estimate meets the bound or
    ``LIMIT`` subintervals are in use; the caller judges the returned
    ``abserr``.
    """
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        raise ValueError("tolerance too small: need epsabs > 0 or epsrel >= 50 eps")
    value, abserr, resabs, resasc = gauss_kronrod_21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(value))
    roundoff = abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd
    if roundoff or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return Quadrature(value, abserr, 1)
    heap = [(-abserr, a, b, value)]
    while len(heap) < LIMIT:
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for left, right in ((lo, mid), (mid, hi)):
            area, error, _, _ = gauss_kronrod_21(f, left, right)
            heapq.heappush(heap, (-error, left, right, area))
        value = math.fsum(item[3] for item in heap)
        abserr = math.fsum(-item[0] for item in heap)
        if abserr <= max(epsabs, epsrel * abs(value)):
            break
    return Quadrature(value, abserr, len(heap))
