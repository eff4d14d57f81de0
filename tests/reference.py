"""Reference compose: the per-pair dict loop the packed kernel replaced.

Each term av * bv * phase is computed with Python complex arithmetic and
summed into a dict in lexicographic order over input index pairs; the sums
are then checked and pruned the way CoefficientTensor does.  The kernel in
``pauligl.composition`` must reproduce this bit for bit.
"""

import cmath

from pauligl import DEFAULT_PRUNE_TOL, DomainError, multi_product


def reference_compose(a, b, tol=DEFAULT_PRUNE_TOL) -> dict:
    """Sorted {multi-index: coefficient} of the product of two tensors."""
    acc = {}
    for mu, av in a.coeffs.items():
        for nu, bv in b.coeffs.items():
            phase, lam = multi_product(mu, nu)
            acc[lam] = acc.get(lam, 0j) + av * bv * phase.to_complex()
    for idx, value in acc.items():
        if not cmath.isfinite(value):
            raise DomainError(f"non-finite coefficient at {idx}")
    return {idx: v for idx, v in sorted(acc.items()) if abs(v) > tol}
