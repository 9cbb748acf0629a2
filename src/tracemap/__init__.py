"""Boundary trace operator learning and boundary-integral PDE solvers; import from the submodules."""
