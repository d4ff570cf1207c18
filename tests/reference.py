"""Reference definitions that only the tests use: each restates a quantity
from its definition, for the tests to check the library's faster forms
against."""
import math

from bernlab.groups import inv, mul
from bernlab.marginals import _log_one_minus_exp, f_value


def cocycle_coeff(spec, g, h):
    """c_g(h) = F(h) - F(g^-1 h); exact rational whenever F is."""
    return f_value(spec, h) - f_value(spec, mul(inv(g), h))


def witness_partial_sum(fam, kappa: float, m: int, levels: int, n_terms: int) -> float:
    """Partial sum of exp(-kappa m ||c_g||^2) over the witness subfamily of a
    WSplit family (see `WSplit.witness_log_q`) with subgroup length <= levels
    and inner exponents <= n_terms: each geometric series over an inner
    exponent stops at x^N, N = n_terms, which multiplies q by (1 - x^N)^2."""
    log_q, log_const = fam.witness_log_q(kappa, m)
    _, beta = fam.rates
    log_y = (math.log(kappa * m) + 2.0 * (math.log(abs(beta.numerator))
                                          - math.log(beta.denominator)))
    log_q += 2.0 * _log_one_minus_exp(log_y + math.log(n_terms))
    return sum(math.exp(log_const + k * log_q) for k in range(1, levels + 1))
