"""quantoda: quantum open Toda lattice wave functions and their algebraic scaffolding.

Modules:

* ``specfun``       -- complex Gamma, exact shift ratios
* ``rationals``     -- exact Gaussian arithmetic: Z[i] pairs and F_p[i] lanes
* ``weyl``          -- exact Weyl-algebra / Lax-matrix identity checks
* ``separation``    -- separated wave functions, measure, difference equations
* ``gz``            -- Gelfand-Zetlin difference-operator representation
* ``harish_chandra``-- Gamma-product c/M/S functions, Plancherel density
* ``mellin_barnes`` -- numerical Whittaker / spherical function evaluation
* ``oracle``        -- coordinate-space finite-difference verification
* ``report``        -- the verification report shared by every check suite
* ``cli``           -- command line entry point
"""

__version__ = "0.1.0"
