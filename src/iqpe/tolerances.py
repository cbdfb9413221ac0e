"""Central numerical tolerance table.

Every structural check in the package references these constants so that a
tolerance change happens in exactly one place.
"""

# Structural invariants: state normalization, hermiticity of operators.
STRUCTURAL_TOL = 1e-12

# Spectral checks: eigenpair residuals, eigendecomposition reconstruction,
# matrix-exponential group law.
SPECTRAL_TOL = 1e-9

# Unitarity: Frobenius norm of U^dag U - I.
UNITARY_TOL = 1e-10

# Imaginary residue allowed on expectation values of Hermitian operators
# before the imaginary part is discarded.
EXPECTATION_IMAG_TOL = 1e-10
