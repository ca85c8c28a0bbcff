"""Exception hierarchy shared by all gigmine modules."""


class GigmineError(Exception):
    """Base class for all errors raised by this package."""


class CorpusFormatError(GigmineError):
    """A corpus file is unreadable, not UTF-8, has a wrong header, or is mostly malformed."""


class UnknownNodeError(GigmineError, KeyError):
    """A node index lies outside an embedding matrix's rows."""

    def __init__(self, node):
        super().__init__(f"unknown node: {node!r}")
        self.node = node

    def __str__(self):  # KeyError would repr() the message otherwise
        return self.args[0]


class CycleError(GigmineError):
    """The label hierarchy contains a parent cycle."""

    def __init__(self, cycle):
        super().__init__(f"label parent chain contains a cycle: {' -> '.join(map(str, cycle))}")
        self.cycle = list(cycle)
