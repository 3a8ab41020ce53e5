"""Near miss: a fixed struct layout, and names that only mention pickle."""

import importlib
import struct

PAIR = struct.Struct("!dd")


def decode_pair(body, pickle_free=True):
    return PAIR.unpack(body), pickle_free


def load_codec():
    return importlib.import_module("json")
