"""True positive: pickle's relatives, imported by name and through an alias."""

import importlib
from shelve import open as open_shelf


def decode_frame(body):
    return importlib.import_module("marshal").loads(body)


def store(path):
    return open_shelf(path)
