"""Differential oracles: the slow, obvious predecessors of product kernels.

See ``README.md`` in this directory for the convention. Nothing under
``src/`` imports from here.
"""
