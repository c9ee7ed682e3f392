"""Matrix-free geometric multigrid for elliptic sparse optimal control.

Modules by theme: ``grid`` (fields and stencil operators), ``lfa``
(Fourier symbols, smoothing factors, optimal damping), ``smoothers``
(collective Jacobi and mass-based Braess-Sarazin relaxation),
``multigrid`` (hierarchies, V/W cycles, convergence factors), ``ssn``
(semi-smooth Newton for control constraints with L1 sparsity),
``problems`` (benchmark data and field I/O), ``cli`` (experiment
runner).  The dense references the tests check against live in
``tests/oracle.py``, outside the package.
"""

__version__ = "0.1.0"
