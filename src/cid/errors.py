"""The error an invalid input raises, naming the input at fault."""


class InputError(ValueError):
    """A ValueError whose field names the argument or attribute at fault."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
