"""The Euler class of a tangent grading at the params: the reference that
the localization tests and the acceptance oracle compare with the
closed-form norm tables of the rank-two chain."""

from gtyang.localization import _sector_ratio


def euler_class(graded, params):
    """The product of the grading's nonzero weights, times -1 for each pair
    of zero-valued directions."""
    zero_dims = sum(dim for form, dim in graded.items() if form.value(params) == 0)
    return (-1) ** (zero_dims // 2) * _sector_ratio(graded, {}, params)
