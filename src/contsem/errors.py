"""Shared error base class.

Every error raised by the pipeline derives from ContsemError so the CLI can
map any failure to a diagnostic and a nonzero exit status.
"""


class ContsemError(Exception):
    pass


class DepthLimitExceeded(ContsemError):
    def __init__(self):
        super().__init__("input nested too deeply for the interpreter's recursion limit")
