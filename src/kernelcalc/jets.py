"""Truncated multivariate Taylor (jet) arithmetic over split variable groups.

A Jet tracks the Taylor coefficients of a function of two groups of complex
variables: m "holomorphic" slots and m "anti-holomorphic" slots (w-bar).  The
truncation cap is per group: coefficients are kept for multi-index pairs
(a, b) with |a| <= nz and |b| <= nw.  Coefficients are Taylor-normalized,
i.e. coeff(a, b) = (mixed partial derivative) / (a! b!).

Products use Leibniz convolution; pow and log compose the scalar series
through the standard univariate recurrences, so results are exact to the
truncation order.
"""

from __future__ import annotations

import cmath
import math

from .errors import BranchError, EvaluationError


def _add_idx(a, b):
    return tuple(x + y for x, y in zip(a, b))


class Jet:
    """Truncated Taylor expansion in m + m variables (z-group, wbar-group)."""

    __slots__ = ("m", "nz", "nw", "coeffs")

    def __init__(self, m: int, nz: int, nw: int, coeffs: dict | None = None):
        self.m = m
        self.nz = nz
        self.nw = nw
        self.coeffs = coeffs if coeffs is not None else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, m, nz, nw):
        zero = (0,) * m
        return cls(m, nz, nw, {(zero, zero): complex(value)})

    @classmethod
    def variable_z(cls, k, value, m, nz, nw):
        """The coordinate function z_k seeded at `value`."""
        j = cls.constant(value, m, nz, nw)
        if nz >= 1:
            e = tuple(1 if i == k else 0 for i in range(m))
            j.coeffs[(e, (0,) * m)] = 1.0 + 0.0j
        return j

    @classmethod
    def variable_wbar(cls, k, value, m, nz, nw):
        """The conjugated coordinate wbar_k seeded at conj(value)."""
        j = cls.constant(complex(value).conjugate(), m, nz, nw)
        if nw >= 1:
            e = tuple(1 if i == k else 0 for i in range(m))
            j.coeffs[((0,) * m, e)] = 1.0 + 0.0j
        return j

    # -- basic queries -------------------------------------------------

    @property
    def value(self) -> complex:
        zero = (0,) * self.m
        return self.coeffs.get((zero, zero), 0j)

    def deriv(self, i, j) -> complex:
        """Mixed Wirtinger derivative (d/dz)^i (d/dwbar)^j at the base point."""
        i, j = tuple(i), tuple(j)
        c = self.coeffs.get((i, j), 0j)
        fac = 1.0
        for e in i:
            fac *= math.factorial(e)
        for e in j:
            fac *= math.factorial(e)
        return c * fac

    def truncate(self, nz, nw):
        if nz > self.nz or nw > self.nw:
            raise ValueError("cannot truncate upwards")
        c = {
            k: v
            for k, v in self.coeffs.items()
            if sum(k[0]) <= nz and sum(k[1]) <= nw
        }
        return Jet(self.m, nz, nw, c)

    def shift(self, di, dj):
        """The jet of the derivative (d/dz)^di (d/dwbar)^dj of this function.

        The result is truncated to caps (nz - |di|, nw - |dj|); the caller
        must have computed this jet deep enough.
        """
        di, dj = tuple(di), tuple(dj)
        nz = self.nz - sum(di)
        nw = self.nw - sum(dj)
        if nz < 0 or nw < 0:
            raise ValueError("jet not deep enough for requested derivative")
        out = {}
        for (a, b), v in self.coeffs.items():
            na = tuple(x - d for x, d in zip(a, di))
            nb = tuple(x - d for x, d in zip(b, dj))
            if any(x < 0 for x in na) or any(x < 0 for x in nb):
                continue
            if sum(na) > nz or sum(nb) > nw:
                continue
            fac = 1.0
            for x, d in zip(a, di):
                fac *= math.factorial(x) / math.factorial(x - d)
            for x, d in zip(b, dj):
                fac *= math.factorial(x) / math.factorial(x - d)
            out[(na, nb)] = v * fac
        return Jet(self.m, nz, nw, out)

    def embed(self, m, offset):
        """The same function of the coordinates offset .. offset + self.m - 1
        of C^m (in both groups), constant in the other coordinates."""
        pre, post = (0,) * offset, (0,) * (m - offset - self.m)
        return Jet(m, self.nz, self.nw, {
            (pre + a + post, pre + b + post): v for (a, b), v in self.coeffs.items()
        })

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other):
        if (self.m, self.nz, self.nw) != (other.m, other.nz, other.nw):
            raise ValueError("jet shapes differ")

    def __add__(self, other):
        if not isinstance(other, Jet):
            out = Jet(self.m, self.nz, self.nw, dict(self.coeffs))
            zero = ((0,) * self.m, (0,) * self.m)
            out.coeffs[zero] = out.coeffs.get(zero, 0j) + complex(other)
            return out
        self._check_compatible(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0j) + v
        return Jet(self.m, self.nz, self.nw, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.m, self.nz, self.nw, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -complex(other))

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            s = complex(other)
            return Jet(
                self.m, self.nz, self.nw, {k: v * s for k, v in self.coeffs.items()}
            )
        self._check_compatible(other)
        nz, nw = self.nz, self.nw
        out: dict = {}
        for (a1, b1), v1 in self.coeffs.items():
            for (a2, b2), v2 in other.coeffs.items():
                a = _add_idx(a1, a2)
                if sum(a) > nz:
                    continue
                b = _add_idx(b1, b2)
                if sum(b) > nw:
                    continue
                key = (a, b)
                out[key] = out.get(key, 0j) + v1 * v2
        return Jet(self.m, nz, nw, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other ** -1
        return self * (1.0 / complex(other))

    def __rtruediv__(self, other):
        return self ** -1 * complex(other)

    def _fractional_part(self):
        """(c0, x) with self = c0 + x and x free of constant term."""
        c0 = self.value
        x = Jet(self.m, self.nz, self.nw, dict(self.coeffs))
        zero = ((0,) * self.m, (0,) * self.m)
        x.coeffs.pop(zero, None)
        return c0, x

    def __pow__(self, t):
        t = float(t)
        c0, x = self._fractional_part()
        if c0 == 0:
            raise EvaluationError("jet power of a series with zero constant term")
        is_integer = t == int(t)
        if not is_integer and c0.real <= 0:
            raise BranchError(
                f"pow base has non-positive real part ({c0:.6g}); "
                "principal branch unavailable"
            )
        if is_integer:
            head = c0 ** int(t)
        else:
            head = cmath.exp(t * cmath.log(c0))
        # (c0 + x)^t = c0^t * sum_k binom(t, k) (x/c0)^k, truncated
        u = x * (1.0 / c0)
        order = self.nz + self.nw
        acc = Jet.constant(1.0, self.m, self.nz, self.nw)
        term = Jet.constant(1.0, self.m, self.nz, self.nw)
        coef = 1.0
        for k in range(1, order + 1):
            coef *= (t - (k - 1)) / k
            term = term * u
            if not term.coeffs:
                break
            acc = acc + term * coef
        return acc * head

    def exp(self):
        c0, x = self._fractional_part()
        head = cmath.exp(c0)
        order = self.nz + self.nw
        acc = Jet.constant(1.0, self.m, self.nz, self.nw)
        term = Jet.constant(1.0, self.m, self.nz, self.nw)
        for k in range(1, order + 1):
            term = term * x * (1.0 / k)
            if not term.coeffs:
                break
            acc = acc + term
        return acc * head

    def log(self):
        c0, x = self._fractional_part()
        if c0 == 0 or c0.real <= 0:
            raise BranchError(
                f"log base has non-positive real part ({c0:.6g}); "
                "principal branch unavailable"
            )
        u = x * (1.0 / c0)
        order = self.nz + self.nw
        acc = Jet.constant(cmath.log(c0), self.m, self.nz, self.nw)
        term = Jet.constant(1.0, self.m, self.nz, self.nw)
        for k in range(1, order + 1):
            term = term * u
            if not term.coeffs:
                break
            acc = acc + term * ((-1.0) ** (k + 1) / k)
        return acc


def variable_jets(z, w, m, nz, nw):
    """Seed jets for the coordinates z_1..z_m and wbar_1..wbar_m."""
    zv = [Jet.variable_z(k, z[k], m, nz, nw) for k in range(m)]
    wv = [Jet.variable_wbar(k, w[k], m, nz, nw) for k in range(m)]
    return zv, wv
