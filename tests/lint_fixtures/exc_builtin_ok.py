"""Fixture: typed argument checks and the raises EXC003 leaves alone."""


class ConfigurationError(ValueError):
    pass


class Stage:
    def check_width(self, width):
        if width < 0:
            raise ConfigurationError("width must be non-negative")
        return width

    def process(self, block):
        raise NotImplementedError


def retry(work):
    try:
        return work()
    except ConfigurationError:
        raise
