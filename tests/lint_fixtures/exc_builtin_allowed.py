"""Fixture: a listed builtin raise site, and a site next to it that is not."""


class FixedPointFormat:
    def quantize(self, values):
        if isinstance(values, complex):
            raise TypeError("use quantize_complex for complex inputs")
        if values is None:
            raise ValueError("no values")
        return values


def quantize(values):
    if isinstance(values, complex):
        raise TypeError("use quantize_complex for complex inputs")
    return values
