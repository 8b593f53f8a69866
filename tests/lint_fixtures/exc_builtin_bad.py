"""Fixture: bare builtin raises in engine code."""


def check_width(width):
    if width < 0:
        raise ValueError("width must be non-negative")
    return width


class Table:
    def lookup(self, key):
        if key not in self.entries:
            raise KeyError(key)
        return self.entries[key]

    def quantize(self, values):
        if isinstance(values, complex):
            raise TypeError
        return values


def parse(text):
    try:
        return int(text)
    except OverflowError as error:
        raise RuntimeError("unparseable") from error


def pick(items, index):
    if not 0 <= index < len(items):
        raise IndexError(index)
    assert items, "non-empty"
    raise AssertionError("unreachable")
