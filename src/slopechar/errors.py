"""The errors that end a command with a documented exit code.

Each class is one exit code of the command-line front end: an `InputError`
is bad input (1), a `ResourceLimit` a cap hit by the computation (2) and a
`SingularOffset` an offset that puts a lattice point on the window boundary
(3).  Every other exception is a program fault and is not mapped to an exit
code.
"""


class InputError(Exception):
    """A spec, argument or pattern file the program cannot take."""


class ResourceLimit(Exception):
    """Degree or basis-size cap exceeded during Buchberger."""


class SingularOffset(Exception):
    """Some lattice point projects exactly onto the window boundary."""
