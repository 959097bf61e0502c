"""`python -m pitos`: the pitos command line."""
from .cli import entrypoint

entrypoint()
