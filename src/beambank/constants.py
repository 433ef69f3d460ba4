"""Limits, defaults and names that ``--help`` text and config rows print.

Each has its home here and the library modules import it from here, so the
CLI can print its help, and refuse a bad setting, on the standard library
alone. The modules that use them re-export them under their old names
(``beambank.simulate.MAX_SCENES``, ``beambank.geometry.SOUND_SPEED``).
"""

# -- beamformer
METHODS = ("delay_and_sum", "superdirective", "mvdr", "nlcmv")
WNG_TOLERANCE = 1e-8
# top common audio rate; bounds every buffer sized from fs
MAX_FS = 384000
# one second at 16 kHz; bounds the (K+1, n_fft/2+1, M) weights and the
# (n_fft/2+1, M, M) covariances a design or a bank file allocates
MAX_N_FFT = 16384
# K+1 bank directions: one horizontal look per degree of azimuth plus the
# mouth. A head-worn array's main lobes are tens of degrees wide, so finer
# looks resolve nothing new. It bounds the K+1 rows of weights and
# per-direction eigenvector copies a design builds, and the direction lists
# of a bank or ATF header; checked before any of them is built.
MAX_DIRECTIONS = 361
# plausible sound speeds in m/s: from sulfur hexafluoride (about 130) to
# water (about 1480)
SOUND_SPEED_RANGE = (100.0, 2000.0)

# -- geometry
SOUND_SPEED = 343.0
# the keys of geometry.BUILTIN_GEOMETRIES, in its order
BUILTIN_GEOMETRY_NAMES = ("reference_glasses_7", "reference_glasses_5")

# -- simulate
DEFAULT_MAX_ORDER = 6
# The image lattice grows with the cube of the order: order 30 already holds
# about 38k images per source, 1.3 s and 160 MB for a 5-mic response.
MAX_ORDER = 30
MAX_SCENES = 100_000  # per dataset: scene_00000.wav to scene_99999.wav
# mouth position in the device frame, in meters: in front of and below the array
MOUTH_OFFSET = (0.08, 0.0, -0.06)

# -- analysis
# finest beam-pattern azimuth step: 36000 points per sweep
MIN_RESOLUTION_DEG = 0.01
