"""qfalab: analysis, compilation and exact simulation of 1-way quantum finite automata.

The library decides, for a regular language given as a DFA, whether it is
recognizable by a measure-many (Kondacs-Watrous) one-way QFA, compiles
eligible DFAs into concrete QFAs with a certified success probability, and
simulates QFAs exactly to verify every claimed acceptance probability.

Each name is imported from its own module (`qfalab.automata`,
`qfalab.fragments`, `qfalab.qfa`, ...); the package itself loads nothing
and defines only the tolerances below, so that the CLI reads `--tol`'s
default without loading numpy.
"""

# Tolerances, set here only.  The CLI's --tol defaults to USER_UNITARITY_TOL
# and serves as both the unitarity and the recognition-margin tolerance.
USER_UNITARITY_TOL = 1e-9  # max |U^dag U - I| entry for matrices read from files
RECOGNITION_TOL = 1e-9  # slack below p that verify_recognition still accepts
RESIDUAL_TOL = 1e-9  # non-halting mass after "$" above which a run is flagged
GIVEN_COLUMNS_TOL = 1e-9  # max |A^dag A - I| entry for the columns A given to complete_unitary
MIXTURE_WEIGHT_TOL = 1e-12  # |sum - 1| allowed for the weights and biases of a mixture
KERNEL_CUTOFF = 2e-8  # singular value at or below which decompose's kernel keeps a direction:
# about 1 - (1 - 1e-8)^2, so rounding that passes the 1e-9 unitarity audit leaves E1 whole
COORDINATE_SNAP_DENOMINATOR = 10**9  # largest denominator separability snaps a coordinate to
FRONTIER_BLOCK = 1024  # rows per block of a sweep, and configurations its table holds: bounds
# the "$" read, the measurement temporaries and the table
