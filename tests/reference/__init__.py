"""Reference implementations that tests compare the shipped fast paths against.

Each oracle is the straightforward form of an operation whose library version
takes a shortcut; it lives here, not in ``src/``, so the library ships one
path per operation.
"""
