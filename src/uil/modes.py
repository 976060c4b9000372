"""Mode labeling shared by the closed-form model and the Fock-space engine.

The two interferometer paths are represented as a length-2 amplitude
vector.  Slot 0 is the reference arm (fixed mirror), slot 1 is the probe
arm (movable mirror).  The coherent drive enters port 0; the other input
port is vacuum.  The phase delay and the attenuation both act on the
probe slot.  The Fock-space engine is laid out for these two values
(drive in its mode a, probe in its mode b), and the tests' dense
operators and amplitude-matrix cross-check import them from here, so
they cannot disagree about which arm carries the mirror.
"""

PROBE_MODE = 1
INPUT_MODE = 0
