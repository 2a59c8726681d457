"""Shared exception bases for the package."""


class MolgaError(Exception):
    """Base class for all molga errors."""


class OffsetError(MolgaError):
    """An error at a byte offset of the parsed text; the message ends with
    the offset, which `.offset` holds."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
